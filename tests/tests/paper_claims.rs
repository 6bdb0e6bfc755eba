//! End-to-end checks of the paper's quantitative claims, spanning the
//! topology, power, simulation, and workload crates.

use epnet::exp::figures;
use epnet::prelude::*;

#[test]
fn table1_reproduces_exactly() {
    let t = figures::table1();
    assert_eq!(t.clos.switch_chips, 8_192.0);
    assert_eq!(t.fbfly.switch_chips, 4_096.0);
    assert_eq!(t.clos.total_power_watts, 1_146_880.0);
    assert_eq!(t.fbfly.total_power_watts, 737_280.0);
    assert_eq!(t.clos.electrical_links, 49_152);
    assert_eq!(t.clos.optical_links, 65_536);
    assert_eq!(t.fbfly.electrical_links, 47_104);
    assert_eq!(t.fbfly.optical_links, 43_008);
    assert_eq!(t.savings_watts(), 409_600.0);
    assert!((t.clos.watts_per_gbps() - 1.75).abs() < 1e-9);
    assert!((t.fbfly.watts_per_gbps() - 1.125).abs() < 1e-9);
}

#[test]
fn figure1_network_shares_match_paper() {
    let f = figures::figure1();
    // 12% of power at full utilization, ~48% at 15% with EP servers.
    assert!((f.scenarios[0].network_fraction() - 0.123).abs() < 0.005);
    assert!((0.47..0.50).contains(&f.scenarios[1].network_fraction()));
    assert!((f.savings_at_15pct_watts - 974_848.0).abs() < 1.0);
}

#[test]
fn dollar_claims_within_rounding() {
    let c = figures::cost_summary();
    assert!((c.topology_savings_dollars / 1.6e6 - 1.0).abs() < 0.05);
    assert!((c.baseline_fbfly_cost_dollars / 2.89e6 - 1.0).abs() < 0.05);
    assert!((c.ep_network_at_15pct_dollars / 3.8e6 - 1.0).abs() < 0.05);
    assert!((c.six_x_reduction_dollars / 2.4e6 - 1.0).abs() < 0.05);
    assert!((c.six_point_six_x_reduction_dollars / 2.5e6 - 1.0).abs() < 0.05);
}

#[test]
fn slowest_mode_network_power_is_42_percent() {
    // §4.2.1: "A flattened butterfly network that always operated in the
    // slowest and lowest power mode would consume 42% of the baseline
    // power (or 6.1% assuming ideal channels)."
    let profile = LinkPowerProfile::Measured;
    assert_eq!(profile.relative_power(LinkRate::R2_5), 0.42);
    assert_eq!(
        LinkPowerProfile::Ideal.relative_power(LinkRate::R2_5),
        0.0625
    );
}

#[test]
fn energy_proportionality_headline_holds_at_small_scale() {
    // The paper's headline: a 6x ("up to 6.6x") power reduction on
    // trace workloads with ideal channels and only a small latency hit.
    let outcome = epnet_integration::tiny_search().run();
    let p = outcome.report.relative_power(&LinkPowerProfile::Ideal);
    assert!(
        p < 0.30,
        "search-like workload should cut ideal-channel power >3x, got {p:.3}"
    );
    // Power can never beat the ideal floor (§4.2.1).
    assert!(p >= outcome.ideal_power_floor() * 0.99);
    // Latency penalty stays within the paper's "tolerable" regime
    // (tens of microseconds at 50% target / 1 µs reactivation).
    assert!(
        outcome.added_latency() < SimTime::from_us(200),
        "added latency {}",
        outcome.added_latency()
    );
}

#[test]
fn independent_channels_never_worse_than_paired() {
    // §3.3.1 / Figure 7-8: independent channel control strictly expands
    // what the controller can turn down.
    let experiment = epnet_integration::tiny_search();
    let paired = experiment.run_ep();
    let mut cfg = SimConfig::builder();
    cfg.control(ControlMode::IndependentChannel);
    let independent = experiment.with_config(cfg.build()).run_ep();
    let pp = paired.relative_power(&LinkPowerProfile::Ideal);
    let ip = independent.relative_power(&LinkPowerProfile::Ideal);
    assert!(
        ip <= pp * 1.02,
        "independent {ip:.4} should not exceed paired {pp:.4}"
    );
}

#[test]
fn links_spend_majority_of_time_in_lowest_mode() {
    // Figure 7: "in a workload with low average utilization, most links
    // spend a majority of their time in the lowest power/performance
    // state."
    let report = epnet_integration::tiny_search().run_ep();
    let fr = report.time_at_speed_fractions();
    assert!(
        fr[LinkRate::R2_5.index()] > 0.5,
        "lowest-mode fraction {:.3}",
        fr[LinkRate::R2_5.index()]
    );
}

#[test]
fn raising_target_utilization_raises_latency() {
    // Figure 9(a): latency increases substantially more at 75% target
    // than at 25%.
    let experiment = epnet_integration::tiny_search();
    let baseline = experiment.run_baseline();
    let added = |target: f64| {
        let mut cfg = SimConfig::builder();
        cfg.target_utilization(target);
        experiment
            .clone()
            .with_config(cfg.build())
            .run_ep()
            .added_latency_vs(&baseline)
    };
    let low = added(0.25);
    let high = added(0.75);
    assert!(
        high > low,
        "75% target ({high}) should cost more latency than 25% ({low})"
    );
}

/// Ideal-channel relative power of one EP run at the tiny scale, cut to
/// 1 ms.
fn one_ms_ideal_power(kind: WorkloadKind, config: SimConfig) -> f64 {
    let mut scale = EvalScale::tiny();
    scale.duration = SimTime::from_ms(1);
    Experiment::new(scale, kind)
        .with_config(config)
        .run_ep()
        .relative_power(&LinkPowerProfile::Ideal)
}

#[test]
fn every_rate_heuristic_saves_power() {
    // §3.3's halve/double and §5.1's alternatives each turn links down
    // on a low-utilization trace.
    for policy in [
        RatePolicy::HalveDouble,
        RatePolicy::JumpToExtremes,
        RatePolicy::Hysteresis {
            low: 0.2,
            high: 0.8,
        },
        RatePolicy::LaneAware,
    ] {
        let mut cfg = SimConfig::builder();
        cfg.policy(policy);
        let p = one_ms_ideal_power(WorkloadKind::Search, cfg.build());
        assert!(p < 1.0, "{policy:?} must save power, got {p:.4}");
    }
}

#[test]
fn independent_channels_save_power_on_every_workload() {
    // Figure 8: with independent channel control every workload draws
    // less than the always-full-rate network.
    for kind in WorkloadKind::ALL {
        let mut cfg = SimConfig::builder();
        cfg.control(ControlMode::IndependentChannel);
        let p = one_ms_ideal_power(kind, cfg.build());
        assert!(p < 1.0, "{} must save power, got {p:.4}", kind.name());
    }
}
