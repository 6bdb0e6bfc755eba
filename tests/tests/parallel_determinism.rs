//! Determinism guarantees of the execution machinery: worker-pool
//! width and route mode must never change results, only wall clock.

use epnet::exp::campaign::Campaign;
use epnet::exp::sweep::SensitivitySweep;
use epnet::exp::{EvalScale, Experiment, WorkloadKind};
use epnet::prelude::*;

fn tiny() -> EvalScale {
    let mut s = EvalScale::tiny();
    s.duration = SimTime::from_ms(1);
    s
}

fn small_sweep() -> SensitivitySweep {
    let mut sweep = SensitivitySweep::paper_grid(tiny(), WorkloadKind::Search);
    sweep.targets = vec![0.25, 0.75];
    sweep.reactivations = vec![SimTime::from_us(1), SimTime::from_us(10)];
    sweep
}

/// The tiny Search run under `routes`, optionally with the dynamic
/// topology extension on, serialized.
fn run_routes(routes: Routes, dyntopo: bool) -> String {
    let scale = tiny();
    let fabric = scale.fabric();
    let options = RunOptions {
        routes,
        ..RunOptions::default()
    };
    let mut sim = Simulator::with_options(
        fabric.clone(),
        SimConfig::default(),
        WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
        options,
    );
    if dyntopo {
        sim.enable_dynamic_topology(DynamicTopology::new(
            &fabric,
            DynamicTopologyConfig::default(),
        ));
    }
    serde_json::to_string_pretty(&sim.run_until(scale.duration)).expect("report serializes")
}

/// `EPNET_THREADS` is the only variable this binary sets, and no other
/// test here reads the environment.
#[test]
fn sweep_and_campaign_are_byte_identical_across_thread_counts() {
    let sweep = small_sweep();

    let mut campaign = Campaign::new();
    let base = Experiment::new(tiny(), WorkloadKind::Advert);
    campaign.push("paired", base.clone());
    let mut cfg = SimConfig::builder();
    cfg.control(ControlMode::IndependentChannel);
    campaign.push("independent", base.with_config(cfg.build()));

    let mut sweep_json = Vec::new();
    let mut campaign_tables = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("EPNET_THREADS", threads);
        sweep_json.push(serde_json::to_string_pretty(&sweep.run()).expect("sweep cells serialize"));
        campaign_tables.push(campaign.run().to_table());
    }
    std::env::remove_var("EPNET_THREADS");

    assert_eq!(
        sweep_json[0], sweep_json[1],
        "sweep JSON must not depend on worker-pool width"
    );
    assert_eq!(
        campaign_tables[0], campaign_tables[1],
        "campaign table must not depend on worker-pool width"
    );
}

#[test]
fn route_mode_does_not_change_simulation_output() {
    assert_eq!(
        run_routes(Routes::Dynamic, false),
        run_routes(Routes::Table, false),
        "precomputed route tables and per-hop routing must produce bit-identical runs"
    );
}

/// Dynamic topology mutates the link mask at epoch ticks, exercising
/// the lazy route-table rebuild path; the rebuilt tables must still
/// match per-hop routing byte for byte.
#[test]
fn route_mode_is_identical_under_dynamic_topology() {
    assert_eq!(
        run_routes(Routes::Dynamic, true),
        run_routes(Routes::Table, true),
        "route tables must stay bit-identical across mask reconfigurations"
    );
}
