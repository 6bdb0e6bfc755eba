//! Determinism guarantees of the execution machinery: worker-pool
//! width must never change results, only wall clock.

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
