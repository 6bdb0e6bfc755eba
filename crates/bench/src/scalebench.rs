//! The topology sweep and the two axes built on it: `scale` and
//! `models`.
//!
//! The sweep grows the fabric from the toy FBFLY(2,8,2) up to the
//! paper's 15-ary 2-flat (225 hosts, Figure 7/8 scale) plus the
//! bisection-comparable [`TwoTierClos`](epnet_topology::TwoTierClos),
//! all under the canonical traffic mix, then appends the hybrid-model
//! points under bulk flows, up to the 2^20-host grouped flat.
//!
//! * `scale` runs every point under its own model, with the allocation
//!   meter watching the second half of the horizon: a warmed-up engine
//!   recycles packets, messages, credit buffers and queue storage, so
//!   allocations per event there should be ~0.
//! * `models` re-runs each packet point under both models at the
//!   reduced horizon; they must agree within
//!   [`HYBRID_TOLERANCE`](crate::axis::HYBRID_TOLERANCE).

use crate::axis::{Axis, Point, Recipe, Topo, Variant};
use epnet_sim::{SimModel, SimTime};

/// Simulated horizon of the full sweep (matches the canonical bench).
pub const FULL_HORIZON: SimTime = SimTime::from_ms(10);

/// Simulated horizon of the reduced sweep and of every hybrid point.
/// Long enough that every free-list reaches its high-water mark before
/// the half-horizon allocation window opens — the search-like workload
/// keeps producing never-seen-before burst sizes for the first
/// millisecond or so.
pub const REDUCED_HORIZON: SimTime = SimTime::from_ms(2);

/// The sweep: canonical toy up to the paper-scale 15-ary 2-flat, plus
/// the non-blocking two-tier Clos, followed by the hybrid-model points
/// (appended last so every packet point keeps its historical position).
/// `reduced` trims the packet points to the smallest three at a 2 ms
/// horizon but keeps the ≥10^5-host hybrid points — reaching that scale
/// is the hybrid model's reason to exist.
pub fn sweep(reduced: bool) -> Vec<Point> {
    let horizon = if reduced {
        REDUCED_HORIZON
    } else {
        FULL_HORIZON
    };
    let point = |name: &str, topo| Point {
        name: name.to_string(),
        topo,
        recipe: Recipe::Canonical,
        horizon,
        model: SimModel::Packet,
    };
    // Hybrid points always run the reduced horizon: the fluid regime
    // reaches steady state within a few hundred epochs, and the point
    // of these entries is scale, not duration.
    let hybrid = |name: &str, topo| Point {
        name: name.to_string(),
        topo,
        recipe: Recipe::BulkFlows,
        horizon: REDUCED_HORIZON,
        model: SimModel::Hybrid,
    };
    let mut points = vec![
        point("fbfly_2x8x2", Topo::Fbfly { c: 2, k: 8, n: 2 }),
        point("fbfly_4x8x2", Topo::Fbfly { c: 4, k: 8, n: 2 }),
        point("clos_nb4", Topo::ClosNonBlocking { c: 4 }),
    ];
    if !reduced {
        points.push(point("fbfly_8x8x2", Topo::Fbfly { c: 8, k: 8, n: 2 }));
        // The grouped 3-flat: dimension-1 links are optical while
        // dimension 0 stays electrical, so the point mixes two
        // propagation delays.
        points.push(point("fbfly_8x4x3", Topo::Fbfly { c: 8, k: 4, n: 3 }));
        points.push(point("clos_nb8", Topo::ClosNonBlocking { c: 8 }));
        points.push(point("fbfly_15x15x2", Topo::Fbfly { c: 15, k: 15, n: 2 }));
    }
    // Smallest first: the 960-host grouped 3-flat (cheap enough for the
    // in-process twin), the 4,096-host multi-pod Clos (full sweep
    // only), the 131,072-host grouped 4-flat — past the 10^5-host
    // Solnushkin threshold a packet simulation cannot reach — and the
    // 2^20-host grouped 4-flat.
    points.push(hybrid(
        "hybrid_fbfly_15x8x3",
        Topo::FbflyGrouped { c: 15, k: 8, n: 3 },
    ));
    if !reduced {
        points.push(hybrid(
            "hybrid_clos_16p16",
            Topo::ClosMultiPod { c: 16, pods: 16 },
        ));
    }
    points.push(hybrid(
        "hybrid_fbfly_32x16x4",
        Topo::FbflyGrouped { c: 32, k: 16, n: 4 },
    ));
    points.push(hybrid(
        "hybrid_fbfly_32x32x4",
        Topo::FbflyGrouped { c: 32, k: 32, n: 4 },
    ));
    points
}

/// The `scale` axis: every point once, under its own model.
pub fn scale_axis(points: &[Point]) -> Axis {
    Axis {
        name: "scale",
        cases: points
            .iter()
            .map(|p| (p.clone(), vec![Variant::model(p.model)]))
            .collect(),
    }
}

/// The `models` axis: every packet point at [`REDUCED_HORIZON`] under
/// both models. Agreement is a property of the models, not the
/// horizon, and the packet runs dominate the cost.
pub fn models_axis(points: &[Point]) -> Axis {
    let variants = vec![
        Variant::model(SimModel::Packet),
        Variant::model(SimModel::Hybrid),
    ];
    Axis {
        name: "models",
        cases: points
            .iter()
            .filter(|p| p.model == SimModel::Packet)
            .map(|p| {
                let point = Point {
                    horizon: REDUCED_HORIZON,
                    ..p.clone()
                };
                (point, variants.clone())
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{
        render_sample, sample, validate, Alloc, Record, HYBRID_PEAK_HEAP_PER_CHANNEL,
        HYBRID_TOLERANCE, MILLION_HOSTS, MILLION_HOST_WALL_BUDGET_MS,
    };

    /// A scale record of a hybrid point at `hosts`, inside every budget.
    fn hybrid_scale(point: &str, hosts: u64) -> Record {
        let mut r = sample("scale", point, "hybrid").with_wall(20_000.0);
        r.options.model = SimModel::Hybrid;
        r.hosts = hosts;
        r.channels = hosts * 5;
        r.alloc = Some(Alloc {
            measured_events: 500_000,
            measured_allocs: 0,
            peak_bytes: hosts * 1200,
        });
        r
    }

    fn million() -> Record {
        hybrid_scale("hybrid_fbfly_32x32x4", MILLION_HOSTS)
    }

    fn models() -> Vec<Record> {
        let mut hybrid = sample("models", "fbfly_2x8x2", "hybrid");
        hybrid.options.model = SimModel::Hybrid;
        hybrid.delivered_bytes = 63_000;
        hybrid.relative_power = 0.58;
        vec![sample("models", "fbfly_2x8x2", "packet"), hybrid]
    }

    /// A full document around `scale` records: every other axis from
    /// synthetic samples.
    fn document(scale: Vec<Record>) -> Vec<Record> {
        let mut records = scale;
        records.extend(models());
        records
    }

    fn packet_scale(point: &str) -> Record {
        sample("scale", point, "packet")
    }

    #[test]
    fn rendered_document_validates() {
        let records = document(vec![
            packet_scale("fbfly_2x8x2"),
            packet_scale("clos_nb4"),
            million(),
        ]);
        let doc = validate(&render_sample(&records)).expect("schema holds");
        let scale: Vec<&str> = doc
            .records
            .iter()
            .filter(|r| r.axis == "scale")
            .map(|r| r.point.as_str())
            .collect();
        assert_eq!(
            scale,
            vec!["fbfly_2x8x2", "clos_nb4", "hybrid_fbfly_32x32x4"]
        );
    }

    #[test]
    fn validate_requires_every_listed_axis() {
        let records = document(vec![packet_scale("fbfly_2x8x2"), million()]);
        assert!(validate(&render_sample(&records)).is_ok());
        // Listing an axis without records fails.
        for axis in ["scale", "models"] {
            let kept: Vec<Record> = records.iter().filter(|r| r.axis != axis).cloned().collect();
            let doc = crate::axis::render(&["scale", "models"], 1, &kept);
            assert!(validate(&doc).is_err(), "{axis} axis is required");
        }
    }

    #[test]
    fn validate_enforces_the_million_host_budgets() {
        // Without a 2^20-host hybrid point the scale axis is incomplete.
        let small_only = document(vec![
            packet_scale("fbfly_2x8x2"),
            hybrid_scale("hybrid_fbfly_32x16x4", 131_072),
        ]);
        assert!(
            validate(&render_sample(&small_only))
                .unwrap_err()
                .contains("million-host"),
            "the million-host point is required"
        );

        // Peak heap per channel over the pinned bound, at every size.
        let bloat = |mut r: Record| {
            r.alloc.as_mut().unwrap().peak_bytes = r.channels * (HYBRID_PEAK_HEAP_PER_CHANNEL + 1);
            r
        };
        for fat in [
            bloat(million()),
            bloat(hybrid_scale("hybrid_fbfly_15x8x3", 960)),
        ] {
            let err = validate(&render_sample(&document(vec![fat, million()]))).unwrap_err();
            assert!(err.contains("B/channel"), "{err}");
        }
        // A channel-dense fabric is measured per channel, not per host:
        // the multi-pod Clos carries 32 channels per host and measures
        // ~7,700 B/host at ~240 B/channel.
        let mut clos = hybrid_scale("hybrid_clos_16p16", 4096);
        clos.channels = 4096 * 32;
        clos.alloc.as_mut().unwrap().peak_bytes = 4096 * 7_700;
        assert!(validate(&render_sample(&document(vec![clos, million()]))).is_ok());
        // Median wall clock over the pinned budget.
        let slow = million().with_wall(MILLION_HOST_WALL_BUDGET_MS * 2.0);
        let err = validate(&render_sample(&document(vec![slow]))).unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn validate_requires_the_models_axis() {
        let records = document(vec![packet_scale("fbfly_2x8x2"), million()]);
        assert!(validate(&render_sample(&records)).is_ok());

        // A lone model compares nothing.
        let mut lone = records.clone();
        lone.retain(|r| !(r.axis == "models" && r.variant == "hybrid"));
        assert!(validate(&render_sample(&lone))
            .unwrap_err()
            .contains("no hybrid-model variant"));

        // An out-of-tolerance point must be rejected.
        let mut drifted = records;
        let hybrid = drifted
            .iter_mut()
            .find(|r| r.axis == "models" && r.variant == "hybrid")
            .unwrap();
        hybrid.relative_power += HYBRID_TOLERANCE * 2.0;
        assert!(validate(&render_sample(&drifted))
            .unwrap_err()
            .contains("tolerance"));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(r#"{"schema": "epnet-bench-scale/v6"}"#).is_err());
        // A scale record without the allocation meter.
        let mut unmetered = packet_scale("fbfly_2x8x2");
        unmetered.alloc = None;
        let err = validate(&render_sample(&document(vec![unmetered, million()]))).unwrap_err();
        assert!(err.contains("allocation meter"), "{err}");
        // A packet point over the steady-state allocation budget.
        let mut leaky = packet_scale("fbfly_2x8x2");
        leaky.alloc.as_mut().unwrap().measured_allocs = 50;
        let err = validate(&render_sample(&document(vec![leaky, million()]))).unwrap_err();
        assert!(err.contains("allocs/event"), "{err}");
    }

    #[test]
    fn sweep_scales_from_canonical_to_paper() {
        let full = sweep(false);
        assert_eq!(full.first().map(|p| p.name.as_str()), Some("fbfly_2x8x2"));
        assert!(full.iter().any(|p| p.name == "fbfly_15x15x2"));
        assert!(full.iter().any(|p| p.name.starts_with("clos")));
        let reduced = sweep(true);
        assert!(reduced.len() < full.len());
        assert!(reduced.iter().all(|p| p.horizon == REDUCED_HORIZON));
    }

    #[test]
    fn sweep_reaches_solnushkin_scale_under_the_hybrid_model() {
        for reduced in [false, true] {
            let points = sweep(reduced);
            // Every hybrid point runs the bulk-flow recipe; every
            // packet point runs the canonical mix.
            for p in &points {
                let expect = match p.model {
                    SimModel::Packet => Recipe::Canonical,
                    SimModel::Hybrid => Recipe::BulkFlows,
                };
                assert_eq!(p.recipe, expect, "{}", p.name);
                assert_eq!(p.name.starts_with("hybrid_"), p.model == SimModel::Hybrid);
            }
            let hosts = |name: &str| {
                let p = points
                    .iter()
                    .find(|p| p.name == name)
                    .expect("point present");
                assert_eq!(p.model, SimModel::Hybrid);
                host_count(p.topo)
            };
            assert!(hosts("hybrid_fbfly_32x16x4") >= 100_000);
            assert_eq!(hosts("hybrid_fbfly_32x32x4"), MILLION_HOSTS);
        }
    }

    /// Host count of a fabric without building it.
    fn host_count(topo: Topo) -> u64 {
        match topo {
            Topo::Fbfly { c, k, n } | Topo::FbflyGrouped { c, k, n } => {
                c as u64 * (k as u64).pow(n as u32 - 1)
            }
            Topo::ClosNonBlocking { c } => 2 * (c as u64) * (c as u64),
            Topo::ClosMultiPod { c, pods } => pods as u64 * (c as u64) * (c as u64),
        }
    }
}
