//! Run-option cross-check: the epoch-tick implementation is an
//! execution detail, never a behavior. Every configuration must
//! serialize a byte-identical `SimReport` under the defaults and the
//! full epoch sweep, for both simulation models. All options are passed as `RunOptions` values;
//! the one test that touches the process environment pins how
//! `EPNET_MODEL` and the retired `EPNET_PAR` interact with them.
//!
//! The workload is bursty at low offered load with the dynamic-topology
//! extension on, so epoch rate transitions, power-off and reactivation
//! all happen inside the compared runs.

use epnet::prelude::*;

/// Execution options compared against the defaults: the full epoch
/// sweep.
const MODES: [(&str, EpochMode); 2] = [
    ("defaults", EpochMode::ActiveSet),
    ("epoch=sweep", EpochMode::Sweep),
];

/// Simulation models composed with every mode.
const MODELS: [SimModel; 2] = [SimModel::Packet, SimModel::Hybrid];

/// The run options for `model` under `mode`.
fn options(model: SimModel, mode: (&str, EpochMode)) -> RunOptions {
    let (_, epoch) = mode;
    RunOptions {
        model,
        epoch,
        trace: None,
    }
}

/// One 1 ms run on FBFLY(2, 8, 2) with the dynamic-topology extension
/// on, serialized; `message_bytes` overrides the generator's default
/// message size.
fn run_case(
    load: f64,
    seed: u64,
    message_bytes: Option<u64>,
    options: RunOptions,
) -> (String, SimReport) {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let horizon = SimTime::from_ms(1);
    let mut src = UniformRandom::builder(fabric.num_hosts() as u32);
    src.offered_load(load).seed(seed).horizon(horizon);
    if let Some(bytes) = message_bytes {
        src.message_bytes(bytes);
    }
    let mut sim = Simulator::with_options(
        fabric.clone(),
        SimConfig::builder().build(),
        src.build(),
        options,
    );
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, report)
}

/// The canonical bursty packet run under every mode.
#[test]
fn packet_reports_are_byte_identical_across_modes() {
    let run = |mode| run_case(0.08, 11, None, options(SimModel::Packet, mode)).0;
    let defaults = run(MODES[0]);
    for mode in &MODES[1..] {
        assert_eq!(defaults, run(*mode), "report differs for {}", mode.0);
    }
}

/// The model axis: {packet, hybrid} × modes on a flow-heavy run —
/// 256 KiB messages, 4× the hybrid absorption threshold, so the hybrid
/// model absorbs flows, advances them at epoch ticks, and demotes them
/// when dynamic-topology drains puncture their steadiness gate. The
/// hybrid reference must actually exercise the fluid regime
/// (absorptions and demotions both nonzero) or the axis would
/// vacuously pass.
#[test]
fn model_axis_reports_are_byte_identical_across_modes() {
    for model in MODELS {
        let run = |mode| run_case(0.3, 17, Some(256 * 1024), options(model, mode));
        let (defaults, report) = run(MODES[0]);
        if model == SimModel::Hybrid {
            assert!(
                report.diagnostics["flows_absorbed"] > 0,
                "flow-heavy hybrid reference absorbed no flows"
            );
            assert!(
                report.diagnostics["flows_demoted"] > 0,
                "flow-heavy hybrid reference demoted no flows"
            );
        }
        for mode in &MODES[1..] {
            let (json, other) = run(*mode);
            assert_eq!(defaults, json, "{model:?} report differs for {}", mode.0);
            assert_eq!(
                report.diagnostics, other.diagnostics,
                "{model:?} flow regime diverged for {}",
                mode.0
            );
        }
    }
}

/// The environment contracts, in one test because they set
/// process-global variables (no other test in this binary reads the
/// environment): a set `EPNET_PAR` no longer changes anything — the run
/// is the serial engine's, byte for byte — and explicit `RunOptions`
/// beat a conflicting `EPNET_MODEL`.
#[test]
fn env_par_is_ignored_and_explicit_options_win() {
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
    let serialized = |r: &SimReport| serde_json::to_string(r).expect("report serializes");

    let serial = Simulator::with_options(
        fabric.clone(),
        config.clone(),
        bulk(),
        RunOptions::default(),
    )
    .run_until(horizon);
    std::env::set_var("EPNET_PAR", "2");
    let env_par = Simulator::new(fabric.clone(), config.clone(), bulk()).run_until(horizon);
    assert_eq!(serialized(&serial), serialized(&env_par));

    std::env::set_var("EPNET_MODEL", "hybrid");
    let env_driven = Simulator::new(fabric.clone(), config.clone(), bulk()).run_until(horizon);
    let explicit = Simulator::with_options(fabric.clone(), config, bulk(), RunOptions::default())
        .run_until(horizon);
    std::env::remove_var("EPNET_MODEL");
    std::env::remove_var("EPNET_PAR");
    assert!(env_driven.diagnostics["flows_absorbed"] > 0);
    assert_eq!(
        explicit.diagnostics["flows_absorbed"], 0,
        "explicit packet model"
    );
    assert_eq!(serialized(&serial), serialized(&explicit));
}
