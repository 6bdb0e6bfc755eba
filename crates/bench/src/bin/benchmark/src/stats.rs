//! Order statistics over a handful of samples.

/// Median, min, max and quartiles of a non-empty sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`, or `None` when there are none.
    ///
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (the "exclusive" method), and fall back to min and max below two
    /// samples.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Some(Summary {
            median,
            min: v[0],
            max: v[n - 1],
            q1,
            q3,
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of three cut points of sorted `v` (n ≥ 2), by the
/// exclusive method: position `i·(n+1)/4`, 1-based, interpolated.
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// Median of a non-empty sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_samples() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max), (2.5, 1.0, 4.0));
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (s.median, s.min, s.max, s.q1, s.q3),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        assert!((s.spread() - 1.5).abs() < 1e-12);
    }
}
