//! The offered-load scaling benchmark behind `BENCH_load.json`.
//!
//! The activity-proportional epoch controller claims O(active) work
//! per tick instead of O(topology); this sweep quantifies the claim.
//! Each point runs the bursty uniform-random workload (512 KiB
//! messages, exponential gaps — the paper's §4.2 recipe) at one
//! offered-load fraction, once per [`EpochMode`], *interleaved*
//! (sweep then active for each point in turn) so slow wall-clock drift
//! hits both modes equally. Per mode it records wall time, engine
//! throughput (events/s), the controller-phase wall time from
//! `SimReport.phases`, and the controller-work counters
//! (`epoch_ticks`, `controller_decisions`). The headline quotient —
//! sweep decisions/tick over active decisions/tick — is the measured
//! epoch-work reduction; at low load on the paper-scale 15-ary 2-flat
//! it should be well over 5×, and at saturation it approaches 1×
//! (every channel is busy, so the active set *is* the topology).
//!
//! The two runs of a point must also serialize byte-identical reports
//! — [`measure`] asserts it, making every benchmark run a cross-check
//! of the epoch-mode contract at scales the test suite never reaches.

use epnet_sim::{EpochMode, RunOptions, SimConfig, SimTime, Simulator};
use epnet_topology::{FlattenedButterfly, RoutingTopology};
use epnet_workloads::UniformRandom;
use serde_json::Value;
use std::time::Instant;

/// Schema tag written into `BENCH_load.json`.
pub const SCHEMA: &str = "epnet-bench-load/v1";

/// Simulated horizon for the toy fabric (matches the canonical bench).
pub const SMALL_HORIZON: SimTime = SimTime::from_ms(10);

/// Simulated horizon for the paper-scale 15-ary 2-flat: 200 epochs —
/// enough for the active set to settle and the counters to dominate
/// startup — while keeping the full sweep's wall time in check.
pub const PAPER_HORIZON: SimTime = SimTime::from_ms(2);

/// Simulated horizon of the reduced (smoke) sweep.
pub const REDUCED_HORIZON: SimTime = SimTime::from_ms(2);

/// One point of the sweep: a fabric shape at one offered load.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Stable point name used in `BENCH_load.json`.
    pub name: String,
    /// `FlattenedButterfly::new(c, k, n)` shape.
    pub shape: (u16, u16, usize),
    /// Offered load as a fraction of each host's 40 Gb/s injection rate.
    pub load: f64,
    /// Simulated end time.
    pub horizon: SimTime,
}

/// The sweep: the toy FBFLY(2,8,2) across the full load range, plus
/// the paper-scale FBFLY(15,15,2) at the low loads where activity
/// proportionality pays. `reduced` trims it to two toy points for the
/// smoke suite.
pub fn sweep(reduced: bool) -> Vec<LoadPoint> {
    let point = |shape: (u16, u16, usize), load: f64, horizon| {
        let (c, k, n) = shape;
        LoadPoint {
            name: format!("fbfly_{c}x{k}x{n}@{}%", load * 100.0),
            shape,
            load,
            horizon,
        }
    };
    if reduced {
        return vec![
            point((2, 8, 2), 0.025, REDUCED_HORIZON),
            point((2, 8, 2), 0.25, REDUCED_HORIZON),
        ];
    }
    let mut points: Vec<LoadPoint> = [0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
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

/// One epoch mode's measurements at one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ModeRun {
    /// Wall-clock duration of the run, in milliseconds.
    pub wall_ms: f64,
    /// Events popped by the engine's scheduler.
    pub sim_events: u64,
    /// Epoch ticks processed.
    pub epoch_ticks: u64,
    /// Controller rate decisions evaluated across the run.
    pub controller_decisions: u64,
    /// Wall time attributed to the "controller" phase, in milliseconds.
    pub controller_wall_ms: f64,
}

impl ModeRun {
    /// Engine events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 * 1e3 / self.wall_ms
    }

    /// Mean controller decisions per epoch tick — the O(·) being
    /// measured.
    pub fn decisions_per_tick(&self) -> f64 {
        if self.epoch_ticks == 0 {
            return 0.0;
        }
        self.controller_decisions as f64 / self.epoch_ticks as f64
    }

    fn to_value(self) -> Value {
        Value::Map(vec![
            ("wall_ms".into(), Value::F64(self.wall_ms)),
            ("events_per_sec".into(), Value::F64(self.events_per_sec())),
            (
                "decisions_per_tick".into(),
                Value::F64(self.decisions_per_tick()),
            ),
            ("epoch_ticks".into(), Value::U64(self.epoch_ticks)),
            (
                "controller_decisions".into(),
                Value::U64(self.controller_decisions),
            ),
            (
                "controller_wall_ms".into(),
                Value::F64(self.controller_wall_ms),
            ),
            ("sim_events".into(), Value::U64(self.sim_events)),
        ])
    }
}

/// One measured sweep point: both epoch modes, interleaved.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Point name.
    pub name: String,
    /// Host count of the fabric.
    pub hosts: u64,
    /// Channel count of the fabric.
    pub channels: u64,
    /// Offered load fraction.
    pub load: f64,
    /// The [`EpochMode::Sweep`] run.
    pub sweep: ModeRun,
    /// The active-set (default) run.
    pub active: ModeRun,
}

impl LoadRun {
    /// Sweep decisions/tick over active decisions/tick: how many times
    /// less controller work the active set does per epoch.
    pub fn decisions_speedup(&self) -> f64 {
        let active = self.active.decisions_per_tick();
        if active == 0.0 {
            // A fully quiescent active run: report the sweep's work as
            // the factor (it did that many decisions to the set's 0).
            return self.sweep.decisions_per_tick().max(1.0);
        }
        self.sweep.decisions_per_tick() / active
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("hosts".into(), Value::U64(self.hosts)),
            ("channels".into(), Value::U64(self.channels)),
            ("offered_load".into(), Value::F64(self.load)),
            ("sweep".into(), self.sweep.to_value()),
            ("active".into(), self.active.to_value()),
            (
                "decisions_speedup".into(),
                Value::F64(self.decisions_speedup()),
            ),
        ])
    }
}

fn run_mode(point: &LoadPoint, epoch: EpochMode) -> (ModeRun, String) {
    let (c, k, n) = point.shape;
    let fabric = FlattenedButterfly::new(c, k, n)
        .expect("sweep shapes are valid")
        .build_fabric();
    let hosts = fabric.num_hosts() as u32;
    let source = UniformRandom::builder(hosts)
        .offered_load(point.load)
        .horizon(point.horizon)
        .build();
    let options = RunOptions {
        epoch,
        ..RunOptions::default()
    };
    let sim = Simulator::with_options(fabric, SimConfig::default(), source, options);
    let start = Instant::now();
    let report = sim.run_until(point.horizon);
    let wall = start.elapsed();
    let controller_wall_ms = report
        .phases
        .iter()
        .filter(|p| p.name == "controller")
        .map(|p| p.wall_ns as f64 / 1e6)
        .sum();
    let run = ModeRun {
        wall_ms: wall.as_secs_f64() * 1e3,
        sim_events: report.events_processed,
        epoch_ticks: report.epoch_ticks,
        controller_decisions: report.controller_decisions,
        controller_wall_ms,
    };
    let serialized = serde_json::to_string_pretty(&report).expect("report serializes");
    (run, serialized)
}

/// Runs one sweep point in both epoch modes (sweep first) and asserts
/// their serialized reports agree byte for byte.
///
/// # Panics
///
/// Panics if the two modes' reports differ — that is a correctness bug
/// in the active-set path, and a benchmark of it would be meaningless.
pub fn measure(point: &LoadPoint) -> LoadRun {
    let (c, k, n) = point.shape;
    let fabric = FlattenedButterfly::new(c, k, n)
        .expect("sweep shapes are valid")
        .build_fabric();
    let (hosts, channels) = (fabric.num_hosts() as u64, fabric.num_channels() as u64);
    drop(fabric);
    let (swept, swept_report) = run_mode(point, EpochMode::Sweep);
    let (active, active_report) = run_mode(point, EpochMode::ActiveSet);
    assert_eq!(
        swept_report, active_report,
        "{}: epoch modes must serialize byte-identical reports",
        point.name
    );
    LoadRun {
        name: point.name.clone(),
        hosts,
        channels,
        load: point.load,
        sweep: swept,
        active,
    }
}

/// Renders runs as the `BENCH_load.json` document.
pub fn render(runs: &[LoadRun]) -> String {
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        (
            "scenario".into(),
            Value::Str(
                "uniform-random 512KiB load sweep, epoch sweep vs active-set, interleaved".into(),
            ),
        ),
        (
            "benches".into(),
            Value::Seq(runs.iter().map(LoadRun::to_value).collect()),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&doc).expect("value tree serializes");
    out.push('\n');
    out
}

/// Path of `BENCH_load.json` at the repository root.
pub fn output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_load.json")
}

/// Validates a `BENCH_load.json` document; returns its bench names.
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
        let load = b
            .get("offered_load")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench '{name}' missing 'offered_load'"))?;
        if !(load > 0.0 && load <= 1.0) {
            return Err(format!("bench '{name}' has out-of-range 'offered_load'"));
        }
        for field in ["hosts", "channels"] {
            if b.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("bench '{name}' missing '{field}'"));
            }
        }
        for mode in ["sweep", "active"] {
            let m = b
                .get(mode)
                .ok_or_else(|| format!("bench '{name}' missing '{mode}'"))?;
            for field in ["wall_ms", "events_per_sec"] {
                let rate = m
                    .get(field)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("bench '{name}' {mode} missing '{field}'"))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("bench '{name}' {mode} has non-positive '{field}'"));
                }
            }
            for field in ["decisions_per_tick", "controller_wall_ms"] {
                let x = m
                    .get(field)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("bench '{name}' {mode} missing '{field}'"))?;
                if !(x.is_finite() && x >= 0.0) {
                    return Err(format!("bench '{name}' {mode} has invalid '{field}'"));
                }
            }
            for field in ["epoch_ticks", "controller_decisions", "sim_events"] {
                if m.get(field).and_then(Value::as_u64).is_none() {
                    return Err(format!("bench '{name}' {mode} missing '{field}'"));
                }
            }
            if m.get("epoch_ticks").and_then(Value::as_u64) == Some(0) {
                return Err(format!("bench '{name}' {mode} processed no epochs"));
            }
        }
        let speedup = b
            .get("decisions_speedup")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench '{name}' missing 'decisions_speedup'"))?;
        if !(speedup.is_finite() && speedup > 0.0) {
            return Err(format!("bench '{name}' has invalid 'decisions_speedup'"));
        }
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mode(decisions: u64) -> ModeRun {
        ModeRun {
            wall_ms: 10.0,
            sim_events: 1_000,
            epoch_ticks: 100,
            controller_decisions: decisions,
            controller_wall_ms: 0.5,
        }
    }

    fn sample_run(name: &str) -> LoadRun {
        LoadRun {
            name: name.to_string(),
            hosts: 16,
            channels: 88,
            load: 0.025,
            sweep: sample_mode(8_800),
            active: sample_mode(880),
        }
    }

    #[test]
    fn rendered_document_validates() {
        let runs = vec![
            sample_run("fbfly_2x8x2@2.5%"),
            sample_run("fbfly_2x8x2@25%"),
        ];
        let doc = render(&runs);
        let names = validate(&doc).expect("schema holds");
        assert_eq!(names, vec!["fbfly_2x8x2@2.5%", "fbfly_2x8x2@25%"]);
    }

    #[test]
    fn speedup_is_the_decisions_quotient() {
        let run = sample_run("x");
        assert_eq!(run.sweep.decisions_per_tick(), 88.0);
        assert_eq!(run.active.decisions_per_tick(), 8.8);
        assert!((run.decisions_speedup() - 10.0).abs() < 1e-12);
        // A fully quiescent active run reports the sweep's work.
        let mut q = sample_run("q");
        q.active.controller_decisions = 0;
        assert_eq!(q.decisions_speedup(), 88.0);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"schema": "epnet-bench-load/v1"}"#).is_err());
        assert!(
            validate(r#"{"schema": "epnet-bench-load/v1", "benches": []}"#).is_err(),
            "empty bench list must be rejected"
        );
        // Dropping either mode object must fail.
        let doc = render(&[sample_run("x")]);
        let broken = doc.replace("\"active\"", "\"inactive\"");
        assert!(validate(&broken).is_err());
    }

    #[test]
    fn sweep_covers_low_load_on_the_paper_fabric() {
        let full = sweep(false);
        assert!(full.iter().any(|p| p.shape == (15, 15, 2) && p.load <= 0.1));
        assert!(full.iter().any(|p| p.shape == (2, 8, 2) && p.load == 1.0));
        let reduced = sweep(true);
        assert!(reduced.len() < full.len());
        assert!(reduced.iter().all(|p| p.shape == (2, 8, 2)));
    }
}
