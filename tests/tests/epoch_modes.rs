//! Epoch-mode cross-check: the active-set epoch path is an execution
//! detail, never a behavior. Every configuration must serialize a
//! byte-identical `SimReport` whether epoch ticks sweep all channels
//! (`EpochMode::Sweep`) or visit only the active set (the default).
//!
//! The workload is deliberately bursty at low offered load — long idle
//! gaps are exactly where the active-set path skips work, so any
//! resting-condition bug (skipping a channel whose decision would not
//! have been "hold", or retiring one with a queued byte) diverges the
//! reports here.

use epnet::prelude::*;
use proptest::prelude::*;

const POLICIES: [RatePolicy; 4] = [
    RatePolicy::HalveDouble,
    RatePolicy::JumpToExtremes,
    RatePolicy::Hysteresis {
        low: 0.25,
        high: 0.75,
    },
    RatePolicy::LaneAware,
];

const CONTROLS: [ControlMode; 3] = [
    ControlMode::AlwaysFull,
    ControlMode::IndependentChannel,
    ControlMode::PairedLink,
];

const STRATEGIES: [ReactivationStrategy; 2] = [
    ReactivationStrategy::RouteAround,
    ReactivationStrategy::DrainFirst,
];

/// One run on a small FBFLY with the dynamic-topology extension on
/// (its power-off/reactivate transitions exercise the incremental
/// asymmetry counter and the F_OFF resting exemption).
fn run_packet(
    control: ControlMode,
    policy: RatePolicy,
    strategy: ReactivationStrategy,
    load: f64,
    seed: u64,
    epoch: EpochMode,
) -> SimReport {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let mut b = SimConfig::builder();
    b.control(control)
        .policy(policy)
        .reactivation_strategy(strategy);
    let config = b.build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(load)
        .seed(seed)
        .horizon(horizon)
        .build();
    let options = RunOptions {
        epoch,
        ..RunOptions::default()
    };
    let mut sim = Simulator::with_options(fabric.clone(), config, src, options);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    sim.run_until(horizon)
}

/// [`run_packet`], serialized.
fn run_serialized(
    control: ControlMode,
    policy: RatePolicy,
    strategy: ReactivationStrategy,
    load: f64,
    seed: u64,
    epoch: EpochMode,
) -> String {
    let report = run_packet(control, policy, strategy, load, seed, epoch);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// Runs `f` once per epoch mode and asserts byte identity.
fn assert_modes_agree(label: &str, f: impl Fn(EpochMode) -> String) {
    assert_eq!(
        f(EpochMode::Sweep),
        f(EpochMode::ActiveSet),
        "serialized report differs between epoch modes for {label}"
    );
}

/// The full configuration matrix: every control mode × rate policy ×
/// reactivation strategy, low bursty load, dynamic topology enabled.
#[test]
fn sweep_and_active_set_reports_are_byte_identical_across_the_matrix() {
    for control in CONTROLS {
        for policy in POLICIES {
            for strategy in STRATEGIES {
                let label = format!("{control:?}/{policy:?}/{strategy:?}");
                assert_modes_agree(&label, |epoch| {
                    run_serialized(control, policy, strategy, 0.08, 11, epoch)
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds and loads — including loads high enough that most
    /// channels stay permanently active — through a random slice of
    /// the matrix.
    #[test]
    fn sweep_and_active_set_agree_on_random_workloads(
        seed in any::<u64>(),
        load in 0.02f64..0.7,
        control_pick in 0usize..3,
        policy_pick in 0usize..4,
        strategy_pick in 0usize..2,
    ) {
        let control = CONTROLS[control_pick];
        let policy = POLICIES[policy_pick];
        let strategy = STRATEGIES[strategy_pick];
        let run = |epoch| run_serialized(control, policy, strategy, load, seed, epoch);
        let swept = run(EpochMode::Sweep);
        let active = run(EpochMode::ActiveSet);
        prop_assert_eq!(
            swept, active,
            "epoch modes diverged for {:?}/{:?}/{:?} load={} seed={}",
            control, policy, strategy, load, seed
        );
    }
}

/// One hybrid-model run of bulk messages (128 KiB, twice the fluid
/// regime's 64 KiB absorption threshold) with the dynamic topology on,
/// so flows absorb, advance, complete, and demote when a path link
/// powers off, drains or queues.
fn run_hybrid(control: ControlMode, strategy: ReactivationStrategy, epoch: EpochMode) -> SimReport {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let mut b = SimConfig::builder();
    b.control(control).reactivation_strategy(strategy);
    let config = b.build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .message_bytes(128 * 1024)
        .offered_load(0.1)
        .seed(5)
        .horizon(horizon)
        .build();
    let options = RunOptions {
        model: SimModel::Hybrid,
        epoch,
    };
    let mut sim = Simulator::with_options(fabric.clone(), config, src, options);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    sim.run_until(horizon)
}

/// The hybrid model under both controlled modes and both reactivation
/// strategies: absorption, demotion on power-off or drain, the sharer
/// counts released at the end of each advancement pass, and the
/// planned decisions must all leave the report byte-identical between
/// epoch modes.
#[test]
fn hybrid_bulk_flows_are_byte_identical_across_epoch_modes() {
    for control in [ControlMode::PairedLink, ControlMode::IndependentChannel] {
        for strategy in STRATEGIES {
            let swept = run_hybrid(control, strategy, EpochMode::Sweep);
            let active = run_hybrid(control, strategy, EpochMode::ActiveSet);
            let label = format!("{control:?}/{strategy:?}");
            assert!(
                swept.diagnostics["flows_absorbed"] > 0,
                "{label}: no flows absorbed"
            );
            assert!(
                swept.diagnostics["flows_demoted"] > 0,
                "{label}: no flows demoted"
            );
            assert_eq!(
                serde_json::to_string_pretty(&swept).expect("report serializes"),
                serde_json::to_string_pretty(&active).expect("report serializes"),
                "hybrid report differs between epoch modes for {label}"
            );
        }
    }
}

/// One hybrid-model run of 4 MiB bulk flows with no dynamic topology:
/// flows outlive many epochs, so their channels settle into holds and
/// rest after them — the steady path of the active-set tick. With host
/// links untuned, the injection and ejection channels carry fluid load
/// but make no decisions.
fn run_steady_hybrid(
    control: ControlMode,
    policy: RatePolicy,
    strategy: ReactivationStrategy,
    tune_host_links: bool,
    epoch: EpochMode,
) -> SimReport {
    let fabric = FlattenedButterfly::new(4, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let mut b = SimConfig::builder();
    b.control(control)
        .policy(policy)
        .reactivation_strategy(strategy)
        .tune_host_links(tune_host_links);
    let config = b.build();
    let horizon = SimTime::from_ms(2);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .message_bytes(4 * 1024 * 1024)
        .offered_load(0.5)
        .seed(7)
        .horizon(horizon)
        .build();
    let options = RunOptions {
        model: SimModel::Hybrid,
        epoch,
    };
    Simulator::with_options(fabric, config, src, options).run_until(horizon)
}

/// Every rate policy under both controlled modes (and both reactivation
/// strategies, with host links tuned or not): channels resting after a
/// hold must leave the report byte-identical to the sweep, and the
/// active-set tick must actually take that path.
#[test]
fn hybrid_steady_flows_are_byte_identical_across_epoch_modes() {
    for control in [ControlMode::IndependentChannel, ControlMode::PairedLink] {
        for policy in POLICIES {
            for strategy in STRATEGIES {
                for tune_hosts in [true, false] {
                    let label = format!("{control:?}/{policy:?}/{strategy:?}/hosts={tune_hosts}");
                    let run =
                        |epoch| run_steady_hybrid(control, policy, strategy, tune_hosts, epoch);
                    let swept = run(EpochMode::Sweep);
                    let active = run(EpochMode::ActiveSet);
                    assert!(
                        active.diagnostics["flows_completed"] > 0,
                        "{label}: no flow completed"
                    );
                    assert!(
                        active.diagnostics["epoch_steady_holds"] > 0,
                        "{label}: no channel rested after a hold"
                    );
                    assert_eq!(
                        serde_json::to_string_pretty(&swept).expect("report serializes"),
                        serde_json::to_string_pretty(&active).expect("report serializes"),
                        "hybrid report differs between epoch modes for {label}"
                    );
                }
            }
        }
    }
}

/// The controller's decision counts, which the serialized report
/// leaves out because they depend on the epoch mode: the sweep counts
/// every decision it visits, the active-set tick adds one hold per
/// channel resting after a hold (`epoch_steady_holds`) without a visit.
/// Pinned per control mode and epoch mode, on the steady hybrid run
/// (HalveDouble, RouteAround, host links tuned) and on one packet run,
/// so a walker that counts holds differently fails here.
#[test]
fn decision_counts_are_pinned() {
    let steady = |control, epoch| {
        let r = run_steady_hybrid(
            control,
            RatePolicy::HalveDouble,
            ReactivationStrategy::RouteAround,
            true,
            epoch,
        );
        (r.controller_decisions, r.diagnostics["epoch_steady_holds"])
    };
    let packet = |control, epoch| {
        let r = run_packet(
            control,
            RatePolicy::HalveDouble,
            ReactivationStrategy::RouteAround,
            0.08,
            11,
            epoch,
        );
        (r.controller_decisions, r.diagnostics["epoch_steady_holds"])
    };
    use ControlMode::{IndependentChannel, PairedLink};
    use EpochMode::{ActiveSet, Sweep};
    assert_eq!(steady(IndependentChannel, Sweep), (24_000, 0));
    assert_eq!(steady(IndependentChannel, ActiveSet), (7_147, 4_774));
    assert_eq!(steady(PairedLink, Sweep), (24_000, 0));
    assert_eq!(steady(PairedLink, ActiveSet), (11_756, 8_560));
    assert_eq!(packet(IndependentChannel, Sweep), (5_574, 0));
    assert_eq!(packet(IndependentChannel, ActiveSet), (1_473, 0));
    assert_eq!(packet(PairedLink, Sweep), (5_298, 0));
    assert_eq!(packet(PairedLink, ActiveSet), (2_264, 0));
}
