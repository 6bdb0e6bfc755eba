//! The `load` axis: offered load against epoch-controller work.
//!
//! The activity-proportional epoch controller claims O(active) work per
//! tick instead of O(topology); this axis quantifies the claim. Each
//! point runs the bursty uniform-random workload (512 KiB messages,
//! exponential gaps — the paper's §4.2 recipe) at one offered-load
//! fraction under both [`EpochMode`]s, which must serialize the same
//! report. The headline quotient — sweep decisions/tick over active
//! decisions/tick ([`decisions_speedup`]) — is the measured epoch-work
//! reduction: well over 5× at low load on the paper-scale 15-ary
//! 2-flat, approaching 1× at saturation, where the active set *is* the
//! topology.

use crate::axis::{Axis, Point, Recipe, Record, Topo, Variant};
use epnet_sim::{EpochMode, RunOptions, SimModel, SimTime};

/// Simulated horizon for the toy fabric (matches the canonical bench).
pub const SMALL_HORIZON: SimTime = SimTime::from_ms(10);

/// Simulated horizon for the paper-scale 15-ary 2-flat: 200 epochs —
/// enough for the active set to settle and the counters to dominate
/// startup — while keeping the full sweep's wall time in check.
pub const PAPER_HORIZON: SimTime = SimTime::from_ms(2);

/// Simulated horizon of the reduced (smoke) sweep.
pub const REDUCED_HORIZON: SimTime = SimTime::from_ms(2);

/// The sweep: the toy FBFLY(2,8,2) across the full load range, plus
/// the paper-scale FBFLY(15,15,2) at the low loads where activity
/// proportionality pays. `reduced` trims it to two toy points.
pub fn sweep(reduced: bool) -> Vec<Point> {
    let point = |(c, k, n): (u16, u16, usize), load: f64, horizon| Point {
        name: format!("fbfly_{c}x{k}x{n}@{}%", load * 100.0),
        topo: Topo::Fbfly { c, k, n },
        recipe: Recipe::Uniform { load },
        horizon,
        model: SimModel::Packet,
    };
    if reduced {
        return vec![
            point((2, 8, 2), 0.025, REDUCED_HORIZON),
            point((2, 8, 2), 0.25, REDUCED_HORIZON),
        ];
    }
    let mut points: Vec<Point> = [0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|load| point((2, 8, 2), load, SMALL_HORIZON))
        .collect();
    points.extend(
        [0.025, 0.05, 0.1, 0.25]
            .into_iter()
            .map(|load| point((15, 15, 2), load, PAPER_HORIZON)),
    );
    points
}

/// The `load` axis: every sweep point under the epoch sweep, then the
/// active set.
pub fn axis(reduced: bool) -> Axis {
    let epoch = |epoch| RunOptions {
        epoch,
        ..RunOptions::default()
    };
    let variants = vec![
        Variant::new("sweep", epoch(EpochMode::Sweep)),
        Variant::new("active", epoch(EpochMode::ActiveSet)),
    ];
    Axis {
        name: "load",
        cases: sweep(reduced)
            .into_iter()
            .map(|p| (p, variants.clone()))
            .collect(),
    }
}

/// Sweep decisions/tick over active decisions/tick: how many times
/// less controller work the active set does per epoch. A fully
/// quiescent active run reports the sweep's work as the factor.
pub fn decisions_speedup(sweep: &Record, active: &Record) -> f64 {
    let active = active.decisions_per_tick();
    if active == 0.0 {
        return sweep.decisions_per_tick().max(1.0);
    }
    sweep.decisions_per_tick() / active
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{render_sample, sample, validate};

    /// A low-load point: the sweep visits all 88 channels per tick, the
    /// active set `active_decisions / 100`.
    fn sample_pair(point: &str, active_decisions: u64) -> [Record; 2] {
        let mut sweep = sample("load", point, "sweep");
        sweep.options.epoch = EpochMode::Sweep;
        sweep.offered_load = 0.025;
        let mut active = sample("load", point, "active");
        active.offered_load = 0.025;
        active.controller_decisions = active_decisions;
        [sweep, active]
    }

    #[test]
    fn rendered_document_validates() {
        let mut records = sample_pair("fbfly_2x8x2@2.5%", 880).to_vec();
        records.extend(sample_pair("fbfly_2x8x2@25%", 2_940));
        let doc = validate(&render_sample(&records)).expect("schema holds");
        assert_eq!(doc.records.len(), 4);
    }

    #[test]
    fn speedup_is_the_decisions_quotient() {
        let [sweep, active] = sample_pair("x", 880);
        assert_eq!(sweep.decisions_per_tick(), 88.0);
        assert_eq!(active.decisions_per_tick(), 8.8);
        assert!((decisions_speedup(&sweep, &active) - 10.0).abs() < 1e-12);
        // A fully quiescent active run reports the sweep's work.
        let [sweep, quiet] = sample_pair("q", 0);
        assert_eq!(decisions_speedup(&sweep, &quiet), 88.0);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        // Active-set work at topology scale is not activity-proportional.
        let doc = render_sample(&sample_pair("x", 8_800));
        assert!(validate(&doc)
            .unwrap_err()
            .contains("not activity-proportional"));
        // Either epoch mode alone fails.
        let [sweep, active] = sample_pair("x", 880);
        assert!(validate(&render_sample(&[sweep])).is_err());
        assert!(validate(&render_sample(std::slice::from_ref(&active))).is_err());
        let mut twin = active.clone();
        twin.variant = "active2".into();
        assert!(validate(&render_sample(&[active, twin]))
            .unwrap_err()
            .contains("no epoch-sweep variant"));
    }

    #[test]
    fn sweep_covers_low_load_on_the_paper_fabric() {
        let full = sweep(false);
        let on = |p: &Point, shape| p.topo == shape;
        let paper = Topo::Fbfly { c: 15, k: 15, n: 2 };
        let toy = Topo::Fbfly { c: 2, k: 8, n: 2 };
        assert!(full
            .iter()
            .any(|p| on(p, paper) && p.recipe.offered_load() <= 0.1));
        assert!(full
            .iter()
            .any(|p| on(p, toy) && p.recipe.offered_load() == 1.0));
        let reduced = sweep(true);
        assert!(reduced.len() < full.len());
        assert!(reduced.iter().all(|p| on(p, toy)));
    }
}
