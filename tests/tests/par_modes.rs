//! Parallel-engine cross-check: the sharded engine is an execution
//! detail, never a behavior. Every configuration must serialize a
//! byte-identical `SimReport` whether the run executes on the serial
//! event loop (`par: Some(0)`) or on 1, 2, 4, or 8 coordinator-ordered
//! worker shards — and that identity must hold composed with every
//! other execution option (per-hop routing, the full epoch sweep),
//! since the parallel coordinator replays those same code paths per
//! shard. All options are passed as `RunOptions` values; the one test
//! that touches the process environment pins how `EPNET_MODEL` and
//! `EPNET_PAR` interact with them.
//!
//! The workload is bursty at low offered load with the dynamic-topology
//! extension on: epoch rate transitions, power-off, and reactivation
//! all cross the coordinator's window barriers, which is exactly where
//! a lookahead or replay-ordering bug would diverge the reports.
//!
//! The simulation model is its own axis (hybrid composed with every
//! mode and width): the coordinator makes all flow regime decisions at
//! phase barriers over gathered shard state, so the hybrid engine owes
//! the same byte-identity the packet engine does.

use epnet::prelude::*;
use epnet::sim::{MemorySink, TraceCategory, Tracer};
use epnet_telemetry::{parse_jsonl, validate_jsonl, TraceRecord};
use proptest::prelude::*;

/// Worker widths the matrix proves byte-identical to serial.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Execution options composed with the parallel axis: the defaults,
/// per-hop routing, and the full epoch sweep.
const MODES: [(&str, Routes, EpochMode); 3] = [
    ("defaults", Routes::Table, EpochMode::ActiveSet),
    ("routes=dynamic", Routes::Dynamic, EpochMode::ActiveSet),
    ("epoch=sweep", Routes::Table, EpochMode::Sweep),
];

/// The run options for `model` under `mode` at parallel width `par`
/// (0 is the serial engine).
fn options(model: SimModel, mode: (&str, Routes, EpochMode), par: usize) -> RunOptions {
    let (_, routes, epoch) = mode;
    RunOptions {
        model,
        par: Some(par),
        routes,
        epoch,
        trace: None,
    }
}

/// Packet-model defaults at width `par`.
fn at_width(par: usize) -> RunOptions {
    options(SimModel::Packet, MODES[0], par)
}

/// One run on an FBFLY(c, k, n) with the dynamic-topology extension
/// on, serialized. Mirrors `epoch_modes.rs` so the two determinism
/// suites exercise the same reference workload.
fn run_case(c: u16, k: u16, n: usize, load: f64, seed: u64, options: RunOptions) -> String {
    let fabric = FlattenedButterfly::new(c, k, n)
        .expect("valid shape")
        .build_fabric();
    let config = SimConfig::builder().build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(load)
        .seed(seed)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::with_options(fabric.clone(), config, src, options);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// The headline matrix: widths {1, 2, 4, 8} × modes {defaults,
/// dynamic routes, epoch sweep} on the canonical FBFLY(2, 8, 2) bursty
/// run with dynamic topology.
#[test]
fn parallel_reports_are_byte_identical_across_widths_and_modes() {
    for mode in MODES {
        let run = |par| run_case(2, 8, 2, 0.08, 11, options(SimModel::Packet, mode, par));
        let serial = run(0);
        for width in WIDTHS {
            assert_eq!(
                serial,
                run(width),
                "serialized report differs between serial and width {width} for {}",
                mode.0
            );
        }
    }
}

/// Simulation models composed with the parallel axis. `Hybrid` makes
/// the coordinator absorb large messages into fluid flows at workload
/// phases and advance/demote them at epoch barriers — the regime
/// decisions all read gathered shard state, so the reports must stay
/// byte-identical to the serial hybrid engine.
const MODELS: [SimModel; 2] = [SimModel::Packet, SimModel::Hybrid];

/// Flow-heavy variant of the canonical run: 256 KiB messages (4× the
/// hybrid absorption threshold) on the same FBFLY dynamic topology, so
/// the hybrid model absorbs flows at coordinator workload phases,
/// advances them at epoch ticks, and demotes them back into the packet
/// path when dynamic-topology drains puncture their steadiness gate.
fn run_flow_case(
    c: u16,
    k: u16,
    n: usize,
    load: f64,
    seed: u64,
    options: RunOptions,
) -> (String, SimReport) {
    let fabric = FlattenedButterfly::new(c, k, n)
        .expect("valid shape")
        .build_fabric();
    let config = SimConfig::builder().build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(load)
        .message_bytes(256 * 1024)
        .seed(seed)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::with_options(fabric.clone(), config, src, options);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, report)
}

/// The model axis: {packet, hybrid} × widths {1, 2, 4, 8} × reference
/// modes on the flow-heavy FBFLY(2, 8, 2) run. The hybrid serial
/// reference must actually exercise the fluid regime (absorptions and
/// demotions both nonzero) or the axis would vacuously pass.
#[test]
fn model_axis_reports_are_byte_identical_across_widths_and_modes() {
    for model in MODELS {
        for mode in MODES {
            let label = format!("{model:?} {}", mode.0);
            let run = |par| run_flow_case(2, 8, 2, 0.3, 17, options(model, mode, par));
            let (serial, serial_report) = run(0);
            if model == SimModel::Hybrid {
                let absorbed = serial_report.diagnostics.get("flows_absorbed");
                assert!(
                    absorbed.is_some_and(|&a| a > 0),
                    "flow-heavy hybrid reference absorbed no flows for {label}"
                );
                let demoted = serial_report.diagnostics.get("flows_demoted");
                assert!(
                    demoted.is_some_and(|&d| d > 0),
                    "flow-heavy hybrid reference demoted no flows for {label}"
                );
            }
            for width in WIDTHS {
                let (parallel, parallel_report) = run(width);
                assert_eq!(
                    serial, parallel,
                    "serialized report differs between serial and width {width} for {label}"
                );
                assert_eq!(
                    serial_report.diagnostics.get("flows_absorbed"),
                    parallel_report.diagnostics.get("flows_absorbed"),
                    "flow absorption diverged at width {width} for {label}"
                );
                assert_eq!(
                    serial_report.diagnostics.get("flows_demoted"),
                    parallel_report.diagnostics.get("flows_demoted"),
                    "flow demotion diverged at width {width} for {label}"
                );
            }
        }
    }
}

/// The canonical bursty run with a tracer installed under `mask`;
/// returns the serialized report, the trace text, and the in-memory
/// report (for its `diagnostics`).
fn run_traced(mask: u32, par: usize) -> (String, String, SimReport) {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(0.08)
        .seed(11)
        .horizon(horizon)
        .build();
    let config = SimConfig::builder().build();
    let mut sim = Simulator::with_options(fabric.clone(), config, src, at_width(par));
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let sink = MemorySink::new();
    sim.set_tracer(Tracer::new(sink.clone(), mask));
    let report = sim.run_until(horizon);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, sink.contents(), report)
}

/// Strips the execution-shape categories (`routes`: wall-clock build
/// times; `parallel`: exists only on the parallel engine) — the lines the
/// serial↔parallel byte-identity contract covers.
fn behavior_lines(trace: &str) -> Vec<&str> {
    trace
        .lines()
        .filter(|l| !l.contains("\"cat\":\"routes\"") && !l.contains("\"cat\":\"parallel\""))
        .collect()
}

/// Traced parallel runs: the behavior categories stay line-identical
/// to serial, `parallel` window records appear iff the category is
/// masked in, the merged trace stays schema-valid and time-monotone,
/// and the per-window counters sum to the engine's own diagnostics.
#[test]
fn traced_parallel_runs_gate_window_records_behind_the_mask() {
    let (serial_json, serial_trace, _) = run_traced(TraceCategory::ALL_MASK, 0);
    assert!(
        !serial_trace.contains("\"cat\":\"parallel\""),
        "the serial engine must not emit parallel records"
    );

    let (par_json, par_trace, par_report) = run_traced(TraceCategory::ALL_MASK, 4);
    let masked = TraceCategory::ALL_MASK & !TraceCategory::Parallel.bit();
    let (par_masked_json, par_masked_trace, _) = run_traced(masked, 4);

    // The report contract is untouched by the new category, masked in
    // or out.
    assert_eq!(serial_json, par_json);
    assert_eq!(serial_json, par_masked_json);

    // Behavior categories are line-identical across all three runs;
    // the masked run writes no parallel lines at all.
    assert_eq!(behavior_lines(&serial_trace), behavior_lines(&par_trace));
    assert_eq!(
        behavior_lines(&serial_trace),
        behavior_lines(&par_masked_trace)
    );
    assert!(
        !par_masked_trace.contains("\"cat\":\"parallel\""),
        "masked-out category must not be written"
    );

    // The full parallel trace is schema-valid, time-monotone, and its
    // window records agree with the engine's diagnostics counters.
    let stats = validate_jsonl(&par_trace).expect("merged parallel trace is schema-valid");
    let windows = stats.count(TraceCategory::Parallel) as u64;
    assert!(windows > 0, "a width-4 traced run must record windows");
    assert_eq!(par_report.diagnostics.get("par_windows"), Some(&windows));
    let records = parse_jsonl(&par_trace).expect("parses");
    let (mut events, mut replays, mut batches, mut crossings) = (0u64, 0u64, 0u64, 0u64);
    let mut last = 0u64;
    for r in &records {
        assert!(r.at_ps() >= last, "merged trace went backwards in time");
        last = r.at_ps();
        if let TraceRecord::Parallel {
            at_ps,
            start_ps,
            shards,
            events: ev,
            replay_events,
            cross_batches,
            cross_events,
        } = r
        {
            assert!(start_ps <= at_ps, "window closes after it opens");
            assert!((1..=4).contains(shards), "touched shards within width");
            events += ev;
            replays += replay_events;
            batches += cross_batches;
            crossings += cross_events;
        }
    }
    assert_eq!(
        par_report.diagnostics.get("par_window_events"),
        Some(&events)
    );
    assert_eq!(
        par_report.diagnostics.get("par_replay_events"),
        Some(&replays)
    );
    assert_eq!(
        par_report.diagnostics.get("par_cross_batches"),
        Some(&batches)
    );
    assert_eq!(
        par_report.diagnostics.get("par_cross_events"),
        Some(&crossings)
    );
}

/// `EPNET_PAR=off` parses to the serial engine, and runs exactly like
/// the library default.
#[test]
fn par_off_is_the_serial_engine() {
    let off = RunOptions::from_vars(|var| (var == "EPNET_PAR").then(|| "off".to_string()));
    assert_eq!(off, RunOptions::default());
    let serial = run_case(2, 4, 2, 0.1, 7, RunOptions::default());
    assert_eq!(serial, run_case(2, 4, 2, 0.1, 7, off));
}

/// The two environment contracts, in one test because they set
/// process-global variables (no other test in this binary reads the
/// environment): `EPNET_PAR` set *after* construction still selects the
/// parallel engine when `run_until` starts — the reference benchmark
/// relies on this — and explicit `RunOptions` beat a conflicting
/// `EPNET_MODEL`/`EPNET_PAR`.
#[test]
fn env_par_is_read_at_run_start_and_explicit_options_win() {
    let fabric = FlattenedButterfly::new(2, 4, 2)
        .expect("valid shape")
        .build_fabric();
    let horizon = SimTime::from_us(300);
    let bulk = || {
        UniformRandom::builder(fabric.num_hosts() as u32)
            .offered_load(0.3)
            .message_bytes(256 * 1024)
            .seed(5)
            .horizon(horizon)
            .build()
    };
    let config = SimConfig::builder().build();

    let sim = Simulator::with_model(fabric.clone(), config.clone(), bulk(), SimModel::Packet);
    std::env::set_var("EPNET_PAR", "2");
    let late = sim.run_until(horizon);
    assert!(
        late.diagnostics["par_windows"] > 0,
        "EPNET_PAR set before run_until must select the parallel engine"
    );

    std::env::set_var("EPNET_MODEL", "hybrid");
    let env_driven = Simulator::new(fabric.clone(), config.clone(), bulk()).run_until(horizon);
    let explicit = Simulator::with_options(fabric.clone(), config, bulk(), RunOptions::default())
        .run_until(horizon);
    std::env::remove_var("EPNET_MODEL");
    std::env::remove_var("EPNET_PAR");
    // A fully absorbed bulk load leaves the shards no packet events, so
    // the engine in use shows in its lookahead floor, set only by a
    // parallel run.
    assert!(env_driven.diagnostics["flows_absorbed"] > 0);
    assert!(env_driven.diagnostics["par_lookahead_ps"] > 0);
    assert_eq!(
        explicit.diagnostics["flows_absorbed"], 0,
        "explicit packet model"
    );
    assert_eq!(
        explicit.diagnostics["par_lookahead_ps"], 0,
        "explicit serial engine"
    );
}

/// A run with an explicit `SimConfig`, returning the serialized report
/// plus the in-memory report — whose non-serialized `diagnostics` map
/// records which engine actually executed the run.
fn run_fallback_case(config: SimConfig, seed: u64, par: usize) -> (String, SimReport) {
    let fabric = FlattenedButterfly::new(2, 4, 2)
        .expect("valid shape")
        .build_fabric();
    let horizon = SimTime::from_us(300);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(0.1)
        .seed(seed)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::with_options(fabric.clone(), config, src, at_width(par));
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, report)
}

/// Asserts that `config` makes the parallel engine fall back to the
/// serial loop: report bytes equal at every width, and the run is
/// flagged `par_fallback_serial = 1` in the diagnostics.
fn assert_falls_back(label: &str, config: &SimConfig) {
    let (serial, serial_report) = run_fallback_case(config.clone(), 13, 0);
    assert_eq!(
        serial_report.diagnostics.get("par_fallback_serial"),
        Some(&0),
        "serial run must not set the fallback flag for {label}"
    );
    for width in WIDTHS {
        let (parallel, parallel_report) = run_fallback_case(config.clone(), 13, width);
        assert_eq!(
            serial, parallel,
            "fallback report differs from serial at width {width} for {label}"
        );
        assert_eq!(
            parallel_report.diagnostics.get("par_fallback_serial"),
            Some(&1),
            "width {width} must report the serial fallback for {label}"
        );
        assert_eq!(
            parallel_report.diagnostics.get("par_windows"),
            Some(&0),
            "the fallback must not open coordinator windows for {label}"
        );
    }
}

/// Zero propagation delay collapses every lookahead bound to nothing:
/// no conservative window can make progress, so the engine must run
/// the serial loop and say so.
#[test]
fn zero_lookahead_falls_back_to_serial() {
    let config = SimConfig::builder()
        .propagation(SimTime::ZERO, SimTime::ZERO)
        .build();
    assert_falls_back("zero propagation", &config);
}

/// A zero reactivation floor means a power-gated switch can wake
/// instantaneously, which punctures the window bound the same way —
/// serial fallback, byte-identical report. The epoch is pinned
/// explicitly because `reactivation(t)` derives the default epoch from
/// `t`.
#[test]
fn zero_reactivation_floor_falls_back_to_serial() {
    let config = SimConfig::builder()
        .reactivation(SimTime::ZERO)
        .epoch(SimTime::from_us(10))
        .build();
    assert_falls_back("zero reactivation floor", &config);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small topologies, seeds, loads, and a random width —
    /// shapes where shards end up uneven (k not divisible by the
    /// width) are the interesting ones.
    #[test]
    fn parallel_agrees_on_random_topologies(
        seed in any::<u64>(),
        load in 0.02f64..0.5,
        c in 1u16..=3,
        k in 2u16..=6,
        n in 2usize..=3,
        width_pick in 0usize..4,
    ) {
        let serial = run_case(c, k, n, load, seed, at_width(0));
        let width = WIDTHS[width_pick];
        let parallel = run_case(c, k, n, load, seed, at_width(width));
        prop_assert_eq!(
            serial, parallel,
            "reports diverged for fbfly({},{},{}) load={} seed={} width={}",
            c, k, n, load, seed, width
        );
    }

    /// The same random sweep under the hybrid model with flow-heavy
    /// loads: 256 KiB messages put nearly every injection through the
    /// absorb gate, and dynamic-topology churn forces demotions through
    /// the coordinator's mirrored-slot reconciliation.
    #[test]
    fn hybrid_parallel_agrees_on_flow_heavy_loads(
        seed in any::<u64>(),
        load in 0.05f64..0.4,
        c in 1u16..=3,
        k in 2u16..=6,
        n in 2usize..=3,
        width_pick in 0usize..4,
    ) {
        let hybrid = |par| options(SimModel::Hybrid, MODES[0], par);
        let (serial, _) = run_flow_case(c, k, n, load, seed, hybrid(0));
        let width = WIDTHS[width_pick];
        let (parallel, _) = run_flow_case(c, k, n, load, seed, hybrid(width));
        prop_assert_eq!(
            serial, parallel,
            "hybrid reports diverged for fbfly({},{},{}) load={} seed={} width={}",
            c, k, n, load, seed, width
        );
    }
}
