//! The hybrid flow/packet model's acceptance contract.
//!
//! Two promises hold simultaneously:
//!
//! * **Packet mode is untouched.** The default run options serialize a
//!   byte-identical `SimReport` to a pre-hybrid build — asserted here
//!   by comparing `RunOptions::default()` against an explicit
//!   `SimModel::Packet`, and transitively by the golden fixture in
//!   `golden_report.rs`.
//! * **Hybrid mode agrees with packet ground truth.** On small
//!   validation fabrics the fluid abstraction must reproduce the
//!   packet model's delivered bytes and relative network power within
//!   [`scalebench::HYBRID_TOLERANCE`] — the same documented bound the
//!   `BENCH_scale.json` models axis is held to.

use epnet::power::LinkPowerProfile;
use epnet::sim::{MergedSource, RunOptions, SimConfig, SimModel, SimTime, Simulator};
use epnet::topology::{FlattenedButterfly, TwoTierClos};
use epnet::workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};
use epnet_bench::scalebench;

const HORIZON: SimTime = SimTime::from_ms(2);

/// The canonical validation recipe: 30% uniform-random (512 KiB
/// messages, above the flow absorption threshold) merged with
/// search-like bursts (mostly below it) — both regimes exercised.
fn canonical_source(hosts: u32) -> MergedSource<UniformRandom, ServiceTrace> {
    MergedSource::new(
        UniformRandom::builder(hosts)
            .offered_load(0.3)
            .horizon(HORIZON)
            .build(),
        ServiceTrace::builder(hosts, ServiceTraceConfig::search_like())
            .horizon(HORIZON)
            .build(),
    )
}

#[test]
fn packet_mode_report_is_byte_identical_to_the_default_constructor() {
    let fabric = || {
        FlattenedButterfly::new(2, 8, 2)
            .expect("toy fbfly")
            .build_fabric()
    };
    let run = |options| {
        Simulator::with_options(
            fabric(),
            SimConfig::default(),
            canonical_source(16),
            options,
        )
        .run_until(HORIZON)
    };
    let default_report = run(RunOptions::default());
    let explicit_report = run(RunOptions {
        model: SimModel::Packet,
        ..RunOptions::default()
    });
    assert_eq!(
        serde_json::to_string_pretty(&default_report).unwrap(),
        serde_json::to_string_pretty(&explicit_report).unwrap(),
        "explicit packet model must be the default, byte for byte"
    );
    assert!(default_report.pod_delivered_bytes.is_empty());
    assert_eq!(default_report.diagnostics["flows_absorbed"], 0);
}

#[test]
fn hybrid_agrees_with_packet_within_the_documented_tolerance() {
    let run = |model| {
        Simulator::with_options(
            TwoTierClos::non_blocking(4)
                .expect("toy clos")
                .build_fabric(),
            SimConfig::default(),
            canonical_source(32),
            RunOptions {
                model,
                ..RunOptions::default()
            },
        )
        .run_until(HORIZON)
    };
    let packet = run(SimModel::Packet);
    let hybrid = run(SimModel::Hybrid);

    assert!(hybrid.diagnostics["flows_absorbed"] > 0, "nothing absorbed");
    assert!(
        hybrid.packets_delivered < packet.packets_delivered,
        "absorption must shrink the packet population"
    );

    let bytes_err = (hybrid.delivered_bytes as f64 - packet.delivered_bytes as f64).abs()
        / packet.delivered_bytes as f64;
    assert!(
        bytes_err <= scalebench::HYBRID_TOLERANCE,
        "delivered-bytes error {bytes_err:.4} exceeds tolerance {}",
        scalebench::HYBRID_TOLERANCE
    );
    let profile = LinkPowerProfile::Measured;
    let power_err = (hybrid.relative_power(&profile) - packet.relative_power(&profile)).abs();
    assert!(
        power_err <= scalebench::HYBRID_TOLERANCE,
        "relative-power error {power_err:.4} exceeds tolerance {}",
        scalebench::HYBRID_TOLERANCE
    );

    // The per-pod rollup: bounded (<= 64 pods), non-empty in hybrid
    // mode, and accounting real bytes.
    assert!(!hybrid.pod_delivered_bytes.is_empty());
    assert!(hybrid.pod_delivered_bytes.len() <= 64);
    assert!(hybrid.pod_delivered_bytes.iter().sum::<u64>() > 0);
}

/// `EPNET_MODEL=hybrid`, through the run-options parser, reaches the
/// flow table; unset stays on the packet model.
#[test]
fn env_model_selects_the_hybrid_engine() {
    let bulk = || {
        UniformRandom::builder(16)
            .message_bytes(512 * 1024)
            .offered_load(0.2)
            .horizon(SimTime::from_us(500))
            .build()
    };
    let fabric = || {
        FlattenedButterfly::new(2, 8, 2)
            .expect("toy fbfly")
            .build_fabric()
    };
    let run = |model: Option<&str>| {
        let options =
            RunOptions::from_vars(|var| model.filter(|_| var == "EPNET_MODEL").map(str::to_string));
        Simulator::with_options(fabric(), SimConfig::default(), bulk(), options)
            .run_until(SimTime::from_us(500))
    };
    let hybrid = run(Some("hybrid"));
    let packet = run(None);
    assert!(
        hybrid.diagnostics["flows_absorbed"] > 0,
        "EPNET_MODEL=hybrid must reach the flow table"
    );
    assert_eq!(packet.diagnostics["flows_absorbed"], 0);
    assert!(!hybrid.pod_delivered_bytes.is_empty());
    assert!(packet.pod_delivered_bytes.is_empty());
}
