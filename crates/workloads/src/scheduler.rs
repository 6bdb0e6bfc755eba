//! Shared machinery: the entries of a generator's emission queue and
//! heavy-tail samplers.

use epnet_sim::Message;
use rand::rngs::SmallRng;
use rand::Rng;

/// An entry in a generator's emission queue — the engine's
/// [`Scheduler`](epnet_sim::Scheduler), which pops in ascending
/// (time, insertion) order: either a concrete message ready to emit,
/// or a wake-up for a per-host state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
    /// Advance host `h`'s state machine.
    Wake(u32),
    /// Emit this message.
    Emit(Message),
}

/// Samples an exponential inter-arrival with the given mean, in
/// picoseconds (Poisson process).
pub(crate) fn exp_ps(rng: &mut SmallRng, mean_ps: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean_ps).round().max(1.0) as u64
}

/// Samples a bounded Pareto with shape `alpha` on `[min, max]`, the
/// heavy-tailed distribution behind "bursty over a wide range of
/// timescales" (§3.2).
pub(crate) fn bounded_pareto(rng: &mut SmallRng, alpha: f64, min: f64, max: f64) -> f64 {
    debug_assert!(alpha > 0.0 && min > 0.0 && max > min);
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let la = min.powf(alpha);
    let ha = max.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

/// Mean of the bounded Pareto above (used to calibrate offered load).
pub(crate) fn bounded_pareto_mean(alpha: f64, min: f64, max: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-9 {
        // α = 1: mean = ln(max/min) · min·max/(max−min)
        let l = min;
        let h = max;
        (l * h / (h - l)) * (h / l).ln()
    } else {
        (la(alpha, min, max) * alpha / (alpha - 1.0))
            * (min.powf(1.0 - alpha) - max.powf(1.0 - alpha))
    }
}

fn la(alpha: f64, min: f64, max: f64) -> f64 {
    min.powf(alpha) / (1.0 - (min / max).powf(alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mean = 1_000_000.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| exp_ps(&mut rng, mean)).sum();
        let got = sum as f64 / n as f64;
        assert!((got - mean).abs() / mean < 0.05, "mean {got}");
    }

    #[test]
    fn bounded_pareto_stays_in_range_and_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (alpha, min, max) = (1.2, 10.0, 100_000.0);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| bounded_pareto(&mut rng, alpha, min, max))
            .collect();
        assert!(samples.iter().all(|&s| (min..=max).contains(&s)));
        // Heavy tail: the max sample dwarfs the median.
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let top = sorted[sorted.len() - 1];
        assert!(top / median > 100.0, "median {median}, top {top}");
    }

    #[test]
    fn bounded_pareto_mean_matches_samples() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (alpha, min, max) = (1.5, 100.0, 10_000.0);
        let n = 200_000;
        let sum: f64 = (0..n)
            .map(|_| bounded_pareto(&mut rng, alpha, min, max))
            .sum();
        let empirical = sum / n as f64;
        let analytic = bounded_pareto_mean(alpha, min, max);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical}, analytic {analytic}"
        );
    }
}
