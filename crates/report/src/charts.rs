//! Generic grouped-bar and line charts over the [`Svg`] builder.

use crate::svg::{Anchor, Svg, PALETTE};

/// Chart margins.
const LEFT: f64 = 64.0;
const RIGHT: f64 = 20.0;
const TOP: f64 = 40.0;
const BOTTOM: f64 = 56.0;

/// One named series of values (one bar per category, or one line).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per category / x-point.
    pub values: Vec<f64>,
}

/// A grouped bar chart: `categories` along x, one bar per series within
/// each group. Values are fractions or percentages; the y-axis runs
/// `0..y_max`.
pub fn grouped_bars(
    title: &str,
    y_label: &str,
    categories: &[String],
    series: &[Series],
    y_max: f64,
) -> String {
    assert!(!categories.is_empty() && !series.is_empty());
    for s in series {
        assert_eq!(s.values.len(), categories.len(), "ragged series {}", s.name);
    }
    let width = (categories.len() as f64 * 110.0 + LEFT + RIGHT).max(420.0);
    let height = 300.0;
    let mut svg = Svg::new(width, height);
    let plot_w = width - LEFT - RIGHT;
    let plot_h = height - TOP - BOTTOM;
    let y_of = |v: f64| TOP + plot_h * (1.0 - (v / y_max).clamp(0.0, 1.0));

    svg.text(width / 2.0, 20.0, Anchor::Middle, 13.0, title);
    // Axes and y grid.
    svg.line(LEFT, TOP, LEFT, TOP + plot_h, "#333333", 1.0);
    svg.line(
        LEFT,
        TOP + plot_h,
        LEFT + plot_w,
        TOP + plot_h,
        "#333333",
        1.0,
    );
    for i in 0..=5 {
        let v = y_max * f64::from(i) / 5.0;
        let y = y_of(v);
        svg.line(LEFT, y, LEFT + plot_w, y, "#dddddd", 0.5);
        svg.text(LEFT - 6.0, y + 4.0, Anchor::End, 10.0, &format!("{v:.0}"));
    }
    svg.text(14.0, TOP - 12.0, Anchor::Start, 10.0, y_label);

    // Bars.
    let group_w = plot_w / categories.len() as f64;
    let bar_w = (group_w * 0.7) / series.len() as f64;
    for (ci, cat) in categories.iter().enumerate() {
        let gx = LEFT + group_w * ci as f64 + group_w * 0.15;
        for (si, s) in series.iter().enumerate() {
            let v = s.values[ci];
            let y = y_of(v);
            let x = gx + bar_w * si as f64;
            svg.rect(
                x,
                y,
                bar_w - 2.0,
                (TOP + plot_h - y).max(0.5),
                PALETTE[si % PALETTE.len()],
            );
        }
        svg.text(
            gx + group_w * 0.35,
            TOP + plot_h + 16.0,
            Anchor::Middle,
            10.0,
            cat,
        );
    }
    legend(&mut svg, series, width);
    svg.finish()
}

/// A line chart with one polyline per series over shared x labels.
/// `log_x` spaces the points by log₁₀ of `x_values`. `None` if there
/// are fewer than two x values or no series (no axis to draw).
pub fn lines(
    title: &str,
    y_label: &str,
    x_label: &str,
    x_values: &[f64],
    series: &[Series],
    log_x: bool,
) -> Option<String> {
    if x_values.len() < 2 || series.is_empty() {
        return None;
    }
    let width = 480.0;
    let height = 320.0;
    let mut svg = Svg::new(width, height);
    let plot_w = width - LEFT - RIGHT;
    let plot_h = height - TOP - BOTTOM;

    let xf = |x: f64| if log_x { x.log10() } else { x };
    let (x0, x1) = (xf(x_values[0]), xf(*x_values.last().expect("non-empty")));
    let y_max = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .fold(1e-9_f64, f64::max)
        * 1.1;
    let x_of = |x: f64| LEFT + plot_w * (xf(x) - x0) / (x1 - x0);
    let y_of = |v: f64| TOP + plot_h * (1.0 - (v / y_max).clamp(0.0, 1.0));

    svg.text(width / 2.0, 20.0, Anchor::Middle, 13.0, title);
    svg.line(LEFT, TOP, LEFT, TOP + plot_h, "#333333", 1.0);
    svg.line(
        LEFT,
        TOP + plot_h,
        LEFT + plot_w,
        TOP + plot_h,
        "#333333",
        1.0,
    );
    for i in 0..=5 {
        let v = y_max * f64::from(i) / 5.0;
        let y = y_of(v);
        svg.line(LEFT, y, LEFT + plot_w, y, "#dddddd", 0.5);
        svg.text(LEFT - 6.0, y + 4.0, Anchor::End, 10.0, &format!("{v:.0}"));
    }
    for &x in x_values {
        let px = x_of(x);
        svg.line(px, TOP + plot_h, px, TOP + plot_h + 4.0, "#333333", 1.0);
        svg.text(px, TOP + plot_h + 16.0, Anchor::Middle, 10.0, &format_x(x));
    }
    svg.text(14.0, TOP - 12.0, Anchor::Start, 10.0, y_label);
    svg.text(width / 2.0, height - 30.0, Anchor::Middle, 10.0, x_label);

    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        let pts: Vec<(f64, f64)> = x_values
            .iter()
            .zip(&s.values)
            .map(|(&x, &v)| (x_of(x), y_of(v)))
            .collect();
        svg.polyline(&pts, color, 2.0);
        for &(px, py) in &pts {
            svg.circle(px, py, 3.0, color);
        }
    }
    legend(&mut svg, series, width);
    Some(svg.finish())
}

fn legend(svg: &mut Svg, series: &[Series], width: f64) {
    let mut x = width - RIGHT - 120.0 * series.len() as f64;
    // Keep on canvas for many series.
    if x < LEFT {
        x = LEFT;
    }
    for (si, s) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        svg.rect(x, 28.0, 10.0, 10.0, color);
        svg.text(x + 14.0, 37.0, Anchor::Start, 10.0, &s.name);
        x += 120.0;
    }
}

fn format_x(x: f64) -> String {
    if x >= 1_000_000.0 {
        format!("{:.0}M", x / 1e6)
    } else if x >= 1_000.0 {
        format!("{:.0}k", x / 1e3)
    } else if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<Series> {
        vec![
            Series {
                name: "paired".into(),
                values: vec![10.0, 20.0, 30.0],
            },
            Series {
                name: "independent".into(),
                values: vec![5.0, 15.0, 25.0],
            },
        ]
    }

    #[test]
    fn bars_render_every_series() {
        let cats = vec!["a".to_owned(), "b".to_owned(), "c".to_owned()];
        let out = grouped_bars("t", "%", &cats, &series(), 100.0);
        // 1 background + 6 bars + 2 legend swatches.
        assert_eq!(out.matches("<rect").count(), 9);
        assert!(out.contains("paired"));
        assert!(out.contains(">c</text>"));
    }

    #[test]
    fn lines_render_with_log_axis() {
        let xs = [100.0, 1_000.0, 10_000.0];
        let mut s = series();
        for s in &mut s {
            s.values.truncate(3);
        }
        let out = lines("t", "us", "reactivation", &xs, &s, true).expect("three x values");
        assert_eq!(out.matches("<polyline").count(), 2);
        assert!(out.contains("1k"));
        assert!(out.contains("10k"));
    }

    #[test]
    fn lines_need_two_x_values_and_a_series() {
        let mut s = series();
        for s in &mut s {
            s.values.truncate(1);
        }
        assert_eq!(lines("t", "us", "x", &[1.0], &s, false), None);
        assert_eq!(lines("t", "us", "x", &[1.0, 2.0], &[], false), None);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_rejected() {
        let cats = vec!["a".to_owned(), "b".to_owned()];
        grouped_bars("t", "%", &cats, &series(), 100.0);
    }
}
