//! The canonical engine-throughput benchmark behind `BENCH_engine.json`.
//!
//! One fixed scenario — an FBFLY(2,8,2) fabric (16 hosts, 8 switches)
//! under merged uniform-random (30% load) and search-like bursty
//! traffic for 10 ms of simulated time, default §4.1 configuration —
//! run once per route mode: precomputed route tables (the default) and
//! per-hop routing ([`Routes::Dynamic`]). Each run
//! reports wall clock, engine events popped, and delivered bytes, from
//! which the two throughput figures in EXPERIMENTS.md derive:
//! events/second and delivered bytes/second.
//!
//! The scenario is intentionally small enough to finish in well under a
//! second per mode, so the smoke suite (`scripts/bench_smoke.sh` and
//! its in-process twin `tests/tests/bench_smoke.rs`) can afford to run
//! it on every invocation.

use epnet_sim::{MergedSource, Routes, RunOptions, SimConfig, SimTime, Simulator};
use epnet_topology::{FlattenedButterfly, RoutingTopology};
use epnet_workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};
use serde_json::Value;
use std::time::Instant;

/// Schema tag written into `BENCH_engine.json`.
pub const SCHEMA: &str = "epnet-bench-engine/v1";

/// Simulated horizon of the canonical run.
pub const HORIZON: SimTime = SimTime::from_ms(10);

/// The canonical scenario's traffic source.
pub type CanonicalSource = MergedSource<UniformRandom, ServiceTrace>;

/// Builds the canonical FBFLY(2,8,2) scenario (see module docs) under
/// `options`, ready to run for [`HORIZON`] of simulated time. Shared by
/// the throughput benchmark and the `tracesmoke` trace-schema check so
/// both exercise the exact same configuration.
pub fn canonical_simulator(options: RunOptions) -> Simulator<CanonicalSource> {
    let build_start = Instant::now();
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("fixed canonical shape")
        .build_fabric();
    let topology_wall = build_start.elapsed();
    let hosts = fabric.num_hosts() as u32;
    let source = MergedSource::new(
        UniformRandom::builder(hosts)
            .offered_load(0.3)
            .horizon(HORIZON)
            .build(),
        ServiceTrace::builder(hosts, ServiceTraceConfig::search_like())
            .horizon(HORIZON)
            .build(),
    );
    let mut sim = Simulator::with_options(fabric, SimConfig::default(), source, options);
    sim.record_phase("topology_build", topology_wall);
    sim
}

/// The canonical fabric's positional channel layout, for grouping
/// chrome-trace channel tracks by switch (FBFLY(2,8,2): 16 host
/// injection channels, then 9 output channels per switch).
pub fn canonical_layout() -> epnet_telemetry::TrackLayout {
    let spec = FlattenedButterfly::new(2, 8, 2).expect("fixed canonical shape");
    epnet_telemetry::TrackLayout {
        hosts: spec.num_hosts() as u32,
        ports_per_switch: u32::from(spec.ports_per_switch()),
    }
}

/// One measured run of the canonical scenario.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Route-mode label: `route_table` or `dynamic_routes`.
    pub name: &'static str,
    /// Wall-clock duration of the run, in milliseconds.
    pub wall_ms: f64,
    /// Events popped by the engine's scheduler.
    pub sim_events: u64,
    /// Packets delivered end to end.
    pub sim_packets: u64,
    /// Bytes delivered end to end.
    pub sim_delivered_bytes: u64,
}

impl EngineRun {
    /// Engine events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 * 1e3 / self.wall_ms
    }

    /// Delivered payload bytes per wall-clock second.
    pub fn delivered_bytes_per_sec(&self) -> f64 {
        self.sim_delivered_bytes as f64 * 1e3 / self.wall_ms
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.into())),
            ("events_per_sec".into(), Value::F64(self.events_per_sec())),
            (
                "delivered_bytes_per_sec".into(),
                Value::F64(self.delivered_bytes_per_sec()),
            ),
            ("sim_events".into(), Value::U64(self.sim_events)),
            ("sim_packets".into(), Value::U64(self.sim_packets)),
            (
                "sim_delivered_bytes".into(),
                Value::U64(self.sim_delivered_bytes),
            ),
            ("wall_ms".into(), Value::F64(self.wall_ms)),
        ])
    }
}

/// Runs the canonical scenario once with route mode `routes` and
/// measures it.
pub fn measure(name: &'static str, routes: Routes) -> EngineRun {
    let sim = canonical_simulator(RunOptions {
        routes,
        ..RunOptions::default()
    });
    let start = Instant::now();
    let report = sim.run_until(HORIZON);
    let wall = start.elapsed();
    EngineRun {
        name,
        wall_ms: wall.as_secs_f64() * 1e3,
        sim_events: report.events_processed,
        sim_packets: report.packets_delivered,
        sim_delivered_bytes: report.delivered_bytes,
    }
}

/// Measures both route modes: the precomputed-table default, then
/// per-hop routing.
pub fn measure_both_modes() -> Vec<EngineRun> {
    vec![
        measure("route_table", Routes::Table),
        measure("dynamic_routes", Routes::Dynamic),
    ]
}

/// Renders runs as the `BENCH_engine.json` document.
pub fn render(runs: &[EngineRun]) -> String {
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        (
            "scenario".into(),
            Value::Str("fbfly_2x8x2_uniform30+search_10ms".into()),
        ),
        (
            "benches".into(),
            Value::Seq(runs.iter().map(EngineRun::to_value).collect()),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&doc).expect("value tree serializes");
    out.push('\n');
    out
}

/// Path of `BENCH_engine.json` at the repository root.
pub fn output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Validates a `BENCH_engine.json` document; returns its bench names.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn validate(doc: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(doc).map_err(|e| format!("not JSON: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema '{other}'")),
        None => return Err("missing 'schema'".into()),
    }
    let benches = v
        .get("benches")
        .and_then(Value::as_seq)
        .ok_or("missing 'benches' array")?;
    if benches.is_empty() {
        return Err("'benches' is empty".into());
    }
    let mut names = Vec::new();
    for b in benches {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or("bench missing 'name'")?;
        for field in ["events_per_sec", "delivered_bytes_per_sec", "wall_ms"] {
            let rate = b
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("bench '{name}' missing '{field}'"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("bench '{name}' has non-positive '{field}'"));
            }
        }
        for field in ["sim_events", "sim_packets", "sim_delivered_bytes"] {
            if b.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("bench '{name}' missing '{field}'"));
            }
        }
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_document_validates() {
        let runs = vec![
            EngineRun {
                name: "route_table",
                wall_ms: 12.5,
                sim_events: 1_000,
                sim_packets: 100,
                sim_delivered_bytes: 64_000,
            },
            EngineRun {
                name: "dynamic_routes",
                wall_ms: 14.0,
                sim_events: 1_000,
                sim_packets: 100,
                sim_delivered_bytes: 64_000,
            },
        ];
        let doc = render(&runs);
        let names = validate(&doc).expect("schema holds");
        assert_eq!(names, vec!["route_table", "dynamic_routes"]);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"schema": "epnet-bench-engine/v1"}"#).is_err());
        assert!(
            validate(r#"{"schema": "epnet-bench-engine/v1", "benches": []}"#).is_err(),
            "empty bench list must be rejected"
        );
    }
}
