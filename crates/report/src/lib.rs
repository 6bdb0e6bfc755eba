//! SVG renderings of the reproduced figures.
//!
//! Turns the structured results from [`epnet::exp::figures`] into
//! standalone SVG charts, so the reproduction produces *figures*, not
//! just tables. No plotting dependencies — a small built-in SVG
//! builder does the drawing.
//!
//! The `render` binary consumes the JSON written by
//! `repro --json results.json` and emits one `.svg` per simulated
//! figure:
//!
//! ```text
//! cargo run --release -p epnet-bench --bin repro -- --json results.json
//! cargo run --release -p epnet-report --bin render -- results.json figures/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod charts;
pub mod svg;
pub mod tracecharts;

use charts::Series;
use epnet::exp::figures::{Figure7, Figure8, Figure9aCell, Figure9bCell};
use epnet::power::{LinkRate, RATE_LADDER};

/// Figure 7 as a grouped bar chart (fraction of time per link speed).
pub fn render_figure7(f: &Figure7) -> String {
    let categories: Vec<String> = RATE_LADDER.iter().rev().map(|r| r.to_string()).collect();
    let pick = |vals: &[f64; 5]| -> Vec<f64> {
        RATE_LADDER
            .iter()
            .rev()
            .map(|r| vals[r.index()] * 100.0)
            .collect()
    };
    charts::grouped_bars(
        "Figure 7: fraction of time at each link speed (Search)",
        "% of time",
        &categories,
        &[
            Series {
                name: "paired".into(),
                values: pick(&f.paired),
            },
            Series {
                name: "independent".into(),
                values: pick(&f.independent),
            },
        ],
        100.0,
    )
}

/// Figure 8 as two grouped bar charts (measured / ideal channels),
/// returned as `(fig8a, fig8b)`.
pub fn render_figure8(f: &Figure8) -> (String, String) {
    let render = |title: &str, rows: &[epnet::exp::figures::Figure8Row]| {
        let categories: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
        charts::grouped_bars(
            title,
            "% of baseline power",
            &categories,
            &[
                Series {
                    name: "paired".into(),
                    values: rows.iter().map(|r| r.paired_pct).collect(),
                },
                Series {
                    name: "independent".into(),
                    values: rows.iter().map(|r| r.independent_pct).collect(),
                },
                Series {
                    name: "ideal floor".into(),
                    values: rows.iter().map(|r| r.ideal_floor_pct).collect(),
                },
            ],
            100.0,
        )
    };
    (
        render("Figure 8(a): network power, measured channels", &f.measured),
        render("Figure 8(b): network power, ideal channels", &f.ideal),
    )
}

/// Figure 9(a) as a line chart (added latency vs target utilization);
/// `None` with fewer than two target values (a line needs two).
pub fn render_figure9a(cells: &[Figure9aCell]) -> Option<String> {
    let mut targets: Vec<f64> = cells.iter().map(|c| c.target).collect();
    targets.sort_by(f64::total_cmp);
    targets.dedup();
    let series = by_workload(
        cells
            .iter()
            .map(|c| (c.workload.as_str(), c.target, c.added_latency_us)),
        &targets,
    );
    charts::lines(
        "Figure 9(a): added latency vs target utilization",
        "added latency (us)",
        "target channel utilization",
        &targets,
        &series,
        false,
    )
}

/// Figure 9(b) as a log-x line chart (added latency vs reactivation);
/// `None` with fewer than two reactivation values.
pub fn render_figure9b(cells: &[Figure9bCell]) -> Option<String> {
    let mut xs: Vec<f64> = cells.iter().map(|c| c.reactivation_ns as f64).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let series = by_workload(
        cells.iter().map(|c| {
            (
                c.workload.as_str(),
                c.reactivation_ns as f64,
                c.added_latency_us,
            )
        }),
        &xs,
    );
    charts::lines(
        "Figure 9(b): added latency vs reactivation time",
        "added latency (us)",
        "reactivation (ns, log scale)",
        &xs,
        &series,
        true,
    )
}

/// Renders a recorded rate timeline (see
/// [`SimConfig::timeline_channels`](epnet::sim::SimConfig)) as a
/// per-channel Gantt strip: one row per channel, colored by rate
/// (darker = faster, grey = powered off). Makes energy proportionality
/// *visible* — links sink to the floor between bursts and jump back.
pub fn render_timeline(
    events: &[epnet::sim::TimelineEvent],
    duration: epnet::sim::SimTime,
) -> String {
    use svg::{Anchor, Svg};
    assert!(
        !events.is_empty(),
        "timeline is empty — enable timeline_channels"
    );
    let channels = events.iter().map(|e| e.channel).max().expect("non-empty") + 1;
    let row_h = 14.0;
    let left = 56.0;
    let top = 34.0;
    let plot_w = 640.0;
    let width = left + plot_w + 16.0;
    let height = top + row_h * channels as f64 + 40.0;
    let mut svg = Svg::new(width, height);
    svg.text(
        width / 2.0,
        18.0,
        Anchor::Middle,
        13.0,
        "Per-channel link-rate timeline",
    );
    let x_of = |t: epnet::sim::SimTime| {
        left + plot_w * (t.as_ps() as f64 / duration.as_ps() as f64).clamp(0.0, 1.0)
    };
    let color_of = |rate: Option<LinkRate>| match rate {
        None => "#bbbbbb",
        Some(LinkRate::R2_5) => "#deebf7",
        Some(LinkRate::R5) => "#9ecae1",
        Some(LinkRate::R10) => "#6baed6",
        Some(LinkRate::R20) => "#3182bd",
        Some(LinkRate::R40) => "#08519c",
    };
    // Per channel, draw segments between consecutive events.
    for ch in 0..channels {
        let y = top + row_h * ch as f64;
        svg.text(
            left - 6.0,
            y + row_h - 4.0,
            Anchor::End,
            9.0,
            &format!("ch{ch}"),
        );
        let mut evs: Vec<&epnet::sim::TimelineEvent> =
            events.iter().filter(|e| e.channel == ch).collect();
        evs.sort_by_key(|e| e.at);
        for (i, e) in evs.iter().enumerate() {
            let x0 = x_of(e.at);
            let x1 = if i + 1 < evs.len() {
                x_of(evs[i + 1].at)
            } else {
                left + plot_w
            };
            svg.rect(
                x0,
                y + 1.0,
                (x1 - x0).max(0.3),
                row_h - 2.0,
                color_of(e.rate),
            );
        }
    }
    // Rate legend.
    let mut lx = left;
    let ly = height - 22.0;
    for rate in RATE_LADDER {
        svg.rect(lx, ly, 10.0, 10.0, color_of(Some(rate)));
        svg.text(lx + 13.0, ly + 9.0, Anchor::Start, 9.0, &rate.to_string());
        lx += 86.0;
    }
    svg.rect(lx, ly, 10.0, 10.0, color_of(None));
    svg.text(lx + 13.0, ly + 9.0, Anchor::Start, 9.0, "off");
    svg.finish()
}

/// Groups `(workload, x, y)` triples into one series per workload, with
/// values ordered by `xs`.
fn by_workload<'a>(
    triples: impl Iterator<Item = (&'a str, f64, f64)> + Clone,
    xs: &[f64],
) -> Vec<Series> {
    let mut names: Vec<&str> = Vec::new();
    for (w, _, _) in triples.clone() {
        if !names.contains(&w) {
            names.push(w);
        }
    }
    names
        .into_iter()
        .map(|name| Series {
            name: name.to_owned(),
            values: xs
                .iter()
                .map(|&x| {
                    triples
                        .clone()
                        .find(|(w, cx, _)| *w == name && *cx == x)
                        .map(|(_, _, y)| y)
                        .unwrap_or(0.0)
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_svg() {
        let f = Figure7 {
            paired: [0.6, 0.1, 0.1, 0.1, 0.1],
            independent: [0.8, 0.05, 0.05, 0.05, 0.05],
        };
        let svg = render_figure7(&f);
        assert!(svg.contains("Figure 7"));
        assert!(svg.contains("40 Gb/s"));
    }

    #[test]
    fn figure8_svg() {
        let row = |w: &str| epnet::exp::figures::Figure8Row {
            workload: w.into(),
            paired_pct: 50.0,
            independent_pct: 40.0,
            ideal_floor_pct: 10.0,
        };
        let f = Figure8 {
            measured: vec![row("Uniform"), row("Search")],
            ideal: vec![row("Uniform"), row("Search")],
        };
        let (a, b) = render_figure8(&f);
        assert!(a.contains("measured"));
        assert!(b.contains("ideal"));
        assert!(a.contains("Uniform"));
    }

    #[test]
    fn timeline_renders_segments_and_legend() {
        use epnet::sim::{SimTime, TimelineEvent};
        let events = vec![
            TimelineEvent {
                at: SimTime::ZERO,
                channel: 0,
                rate: Some(LinkRate::R40),
            },
            TimelineEvent {
                at: SimTime::from_us(10),
                channel: 0,
                rate: Some(LinkRate::R20),
            },
            TimelineEvent {
                at: SimTime::ZERO,
                channel: 1,
                rate: Some(LinkRate::R40),
            },
            TimelineEvent {
                at: SimTime::from_us(20),
                channel: 1,
                rate: None,
            },
        ];
        let svg = render_timeline(&events, SimTime::from_us(100));
        assert!(svg.contains("ch0"));
        assert!(svg.contains("ch1"));
        assert!(svg.contains("#bbbbbb"), "off segment drawn");
        // 4 segments + 6 legend swatches + background.
        assert_eq!(svg.matches("<rect").count(), 11);
    }

    #[test]
    #[should_panic(expected = "timeline is empty")]
    fn empty_timeline_rejected() {
        let _ = render_timeline(&[], epnet::sim::SimTime::from_us(1));
    }

    #[test]
    fn figure9_svgs() {
        let a_cells: Vec<Figure9aCell> = [0.25, 0.5, 0.75]
            .iter()
            .flat_map(|&t| {
                ["Uniform", "Search"].iter().map(move |w| Figure9aCell {
                    workload: (*w).into(),
                    target: t,
                    added_latency_us: t * 100.0,
                })
            })
            .collect();
        let svg = render_figure9a(&a_cells).expect("three targets");
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(render_figure9a(&a_cells[..2]), None, "one target");

        let b_cells: Vec<Figure9bCell> = [100u64, 1_000, 10_000]
            .iter()
            .map(|&ns| Figure9bCell {
                workload: "Advert".into(),
                reactivation_ns: ns,
                added_latency_us: ns as f64 / 100.0,
            })
            .collect();
        let svg = render_figure9b(&b_cells).expect("three reactivation values");
        assert_eq!(svg.matches("<polyline").count(), 1);
        assert_eq!(render_figure9b(&b_cells[..1]), None, "one value");
        assert!(svg.contains("log scale"));
    }
}
