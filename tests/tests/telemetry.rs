//! Telemetry integration: tracing and metrics must observe the
//! simulation without perturbing it.
//!
//! The load-bearing guarantee is byte-identical serialized reports —
//! metrics map included — across every combination of epoch mode and
//! tracing on/off, and byte-identical trace files across repeated runs.
//! Wall-clock phase timings are exempt by construction: the report
//! serializer excludes them.

use epnet::exp::{EvalScale, WorkloadKind};
use epnet::prelude::*;
use epnet::sim::{FileSink, MemorySink, TraceCategory, Tracer};
use epnet_telemetry::{parse_jsonl, validate_jsonl, TraceRecord};

fn tiny() -> EvalScale {
    let mut s = EvalScale::tiny();
    s.duration = SimTime::from_ms(1);
    s
}

/// The tiny Search scenario under `options`.
fn tiny_sim(options: RunOptions) -> Simulator<impl TrafficSource> {
    let scale = tiny();
    Simulator::with_options(
        scale.fabric(),
        SimConfig::default(),
        WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
        options,
    )
}

/// Runs the tiny Search scenario under `options`, optionally traced;
/// returns the serialized report and the trace text.
fn run_traced(options: RunOptions, traced: bool) -> (String, String) {
    let mut sim = tiny_sim(options);
    let sink = MemorySink::new();
    if traced {
        sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
    }
    let report = sim.run_until(tiny().duration);
    (
        serde_json::to_string_pretty(&report).expect("report serializes"),
        sink.contents(),
    )
}

#[test]
fn reports_are_byte_identical_across_modes_and_tracing() {
    let mut reports = Vec::new();
    for epoch in [EpochMode::ActiveSet, EpochMode::Sweep] {
        for traced in [false, true] {
            let options = RunOptions {
                epoch,
                ..RunOptions::default()
            };
            let (report, trace) = run_traced(options, traced);
            assert_eq!(traced, !trace.is_empty(), "tracer emits iff installed");
            reports.push((format!("{epoch:?}/traced={traced}"), report));
        }
    }
    let (base_label, base) = &reports[0];
    for (label, report) in &reports[1..] {
        assert_eq!(
            base, report,
            "serialized report differs between {base_label} and {label}"
        );
    }
}

/// The same guarantee beyond the toy fabric: an FBFLY(4,16,2) — 64
/// hosts, 16 switches, large enough to exercise multi-candidate
/// adaptive routing and credit backpressure — must also serialize
/// byte-identically across epoch modes. Guards the struct-of-arrays
/// hot-state layout and the free-list recycling at a scale where their
/// bugs would actually surface.
#[test]
fn reports_are_byte_identical_across_modes_at_scale() {
    let horizon = SimTime::from_ms(2);
    let run = |epoch| {
        let fabric = epnet::topology::FlattenedButterfly::new(4, 16, 2)
            .expect("valid shape")
            .build_fabric();
        let hosts = fabric.num_hosts() as u32;
        let options = RunOptions {
            epoch,
            ..RunOptions::default()
        };
        let sim = Simulator::with_options(
            fabric,
            SimConfig::default(),
            WorkloadKind::Search.source(hosts, 7, horizon),
            options,
        );
        let report = sim.run_until(horizon);
        serde_json::to_string_pretty(&report).expect("report serializes")
    };
    assert_eq!(
        run(EpochMode::ActiveSet),
        run(EpochMode::Sweep),
        "serialized report differs between epoch modes"
    );
}

/// Traces hold simulated quantities only, so two runs of one scenario
/// write byte-identical files — every category on, through a
/// `FileSink` attached before the run, with the dynamic topology
/// mutating the link mask mid-run.
#[test]
fn trace_files_are_byte_identical_across_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let run = |name: &str| {
        let path = dir.join(name);
        let mut sim = tiny_sim(RunOptions::default());
        let sink = FileSink::create(&path).expect("trace file created");
        sim.set_tracer(Tracer::new(sink, TraceCategory::ALL_MASK));
        sim.enable_dynamic_topology(DynamicTopology::new(
            sim.fabric(),
            DynamicTopologyConfig::default(),
        ));
        sim.run_until(tiny().duration);
        std::fs::read_to_string(&path).expect("trace written")
    };
    let first = run("telemetry_trace_a.jsonl");
    assert!(!first.is_empty(), "the traced run emitted records");
    assert_eq!(
        first,
        run("telemetry_trace_b.jsonl"),
        "two runs of one scenario must write the same trace"
    );
}

#[test]
fn trace_is_schema_valid_and_covers_the_controller() {
    let (report, trace) = run_traced(RunOptions::default(), true);
    let stats = validate_jsonl(&trace).expect("every emitted line passes the schema");
    assert!(stats.lines > 0);
    assert!(stats.count(TraceCategory::Controller) > 0, "epochs fired");
    assert!(
        stats.count(TraceCategory::Reactivation) > 0,
        "rate changes traced"
    );

    // Timestamps are monotone per file: the engine pops in time order.
    let records = parse_jsonl(&trace).expect("parses");
    let mut last = 0;
    for r in &records {
        assert!(r.at_ps() >= last, "timestamps must not go backwards");
        last = r.at_ps();
    }

    // The metrics map made it into the serialized report.
    let v: serde_json::Value = serde_json::from_str(&report).expect("report is JSON");
    let metrics = v.get("metrics").expect("metrics serialized");
    assert!(
        metrics.get("events_workload").is_some(),
        "event-kind counters present"
    );
    assert!(
        v.get("layers").is_none(),
        "wall-clock layers must not be serialized"
    );
}

#[test]
fn category_filter_narrows_emission() {
    let mut sim = tiny_sim(RunOptions::default());
    let sink = MemorySink::new();
    sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::Controller.bit()));
    sim.run_until(tiny().duration);
    let records = parse_jsonl(&sink.contents()).expect("parses");
    assert!(!records.is_empty());
    assert!(
        records
            .iter()
            .all(|r| matches!(r, TraceRecord::Controller { .. })),
        "filtered tracer must emit only the selected category"
    );
}

/// `epoch_queue_samples` deliberately counts *every* channel at every
/// tick, in both epoch modes: the active-set path skips visiting
/// resting channels but still credits them with an exact-zero sample,
/// so the derived mean queue depth keeps the same denominator. The
/// counter must therefore equal `events_epoch_tick × num_channels`
/// whichever implementation ran.
#[test]
fn epoch_queue_samples_count_every_channel_in_both_epoch_modes() {
    let mut snapshots = Vec::new();
    for epoch in [EpochMode::ActiveSet, EpochMode::Sweep] {
        let options = RunOptions {
            epoch,
            ..RunOptions::default()
        };
        let report = tiny_sim(options).run_until(tiny().duration);
        let ticks = report.metrics["events_epoch_tick"];
        let samples = report.metrics["epoch_queue_samples"];
        assert!(ticks > 0, "epochs fired under {epoch:?}");
        assert_eq!(
            samples,
            ticks * report.num_channels as u64,
            "every channel must be sampled every tick under {epoch:?}"
        );
        snapshots.push((samples, report.metrics["epoch_queue_bytes_sum"]));
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "queue metrics are mode-independent"
    );
}

/// The canonical traced run (`tracesmoke`'s scenario: every category,
/// FBFLY(2,8,2), 10 ms) is pinned byte for byte: its line count and the
/// FNV-1a 64 digest of its text. Any change to event order, credit
/// bookkeeping or an emitter's formatting shows up here.
#[test]
fn canonical_trace_is_pinned() {
    let mut sim = epnet_bench::enginebench::canonical_simulator(RunOptions::default());
    let sink = MemorySink::new();
    sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
    sim.run_until(epnet_bench::enginebench::HORIZON);
    let text = sink.contents();
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        (text.lines().count(), format!("{digest:016x}")),
        (107_678, "d972cd5c8ac329c1".to_string())
    );
}
