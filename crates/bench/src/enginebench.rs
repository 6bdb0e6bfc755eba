//! The canonical engine scenario and the `engine` axis.
//!
//! One fixed scenario — an FBFLY(2,8,2) fabric (16 hosts, 8 switches)
//! under merged uniform-random (30% load) and search-like bursty
//! traffic for 10 ms of simulated time, default §4.1 configuration. The
//! golden report fixture, `tracesmoke` and the trace tests all run it.
//! The `engine` axis runs it once per route mode: precomputed route
//! tables (the default) and per-hop routing ([`Routes::Dynamic`]),
//! which must serialize the same report.

use crate::axis::{self, Axis, Point, PointSource, Recipe, Topo, Variant};
use epnet_sim::{Routes, RunOptions, SimModel, SimTime, Simulator};
use std::time::Instant;

/// Simulated horizon of the canonical run.
pub const HORIZON: SimTime = SimTime::from_ms(10);

/// The canonical scenario as a benchmark point.
pub fn canonical_point() -> Point {
    Point {
        name: "fbfly_2x8x2".to_string(),
        topo: Topo::Fbfly { c: 2, k: 8, n: 2 },
        recipe: Recipe::Canonical,
        horizon: HORIZON,
        model: SimModel::Packet,
    }
}

/// Builds the canonical scenario under `options`, ready to run for
/// [`HORIZON`] of simulated time.
pub fn canonical_simulator(options: RunOptions) -> Simulator<PointSource> {
    let build_start = Instant::now();
    let mut sim = axis::simulator_for(&canonical_point(), options);
    sim.record_phase("topology_build", build_start.elapsed());
    sim
}

/// The canonical fabric's positional channel layout, for grouping
/// chrome-trace channel tracks by switch (FBFLY(2,8,2): 16 host
/// injection channels, then 9 output channels per switch).
pub fn canonical_layout() -> epnet_telemetry::TrackLayout {
    let spec = epnet_topology::FlattenedButterfly::new(2, 8, 2).expect("fixed canonical shape");
    epnet_telemetry::TrackLayout {
        hosts: spec.num_hosts() as u32,
        ports_per_switch: u32::from(spec.ports_per_switch()),
    }
}

/// The `engine` axis: the canonical point under both route modes.
pub fn axis() -> Axis {
    let routes = |routes| RunOptions {
        routes,
        ..RunOptions::default()
    };
    Axis {
        name: "engine",
        cases: vec![(
            canonical_point(),
            vec![
                Variant::new("route_table", routes(Routes::Table)),
                Variant::new("dynamic_routes", routes(Routes::Dynamic)),
            ],
        )],
    }
}

#[cfg(test)]
mod tests {
    use crate::axis::{render_sample, sample, validate};

    #[test]
    fn rendered_document_validates() {
        let doc = render_sample(&[
            sample("engine", "fbfly_2x8x2", "route_table"),
            sample("engine", "fbfly_2x8x2", "dynamic_routes"),
        ]);
        let names: Vec<String> = validate(&doc)
            .expect("schema holds")
            .records
            .into_iter()
            .map(|r| r.variant)
            .collect();
        assert_eq!(names, vec!["route_table", "dynamic_routes"]);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"schema": "epnet-bench/v1"}"#).is_err());
        assert!(
            validate(&render_sample(&[])).is_err(),
            "a document without axes must be rejected"
        );
        // The pre-consolidation engine schema is not this one.
        assert!(
            validate(r#"{"schema": "epnet-bench-engine/v1", "benches": []}"#)
                .unwrap_err()
                .contains("unexpected schema")
        );
        // One route mode alone compares nothing.
        let lone = render_sample(&[sample("engine", "fbfly_2x8x2", "route_table")]);
        assert!(validate(&lone).is_err());
        // Route modes that disagree on the report break the contract.
        let mut dynamic = sample("engine", "fbfly_2x8x2", "dynamic_routes");
        dynamic.report_digest = "00000000000000bb".into();
        let split = render_sample(&[sample("engine", "fbfly_2x8x2", "route_table"), dynamic]);
        assert!(validate(&split).unwrap_err().contains("different report"));
    }
}
