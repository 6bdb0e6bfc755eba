//! In-process twin of `scripts/bench_smoke.sh`: exercises one small
//! parallel sweep, reduced benchmark axes held to the same validator
//! the `benchrun` binary uses (also run here on the committed
//! `BENCH.json`, every axis required), and the traced canonical
//! run, asserting correctness (well-formed cells, schema validity)
//! rather than speed — wall-clock assertions
//! would flake on loaded machines, so the perf claims live in
//! `BENCH.json` and EXPERIMENTS.md.

use epnet::exp::sweep::SensitivitySweep;
use epnet::exp::{EvalScale, WorkloadKind};
use epnet::sim::{MemorySink, RunOptions, SimModel, SimTime, TraceCategory, Tracer};
use epnet_bench::axis::{self, Axis, Document, NoopMeter, Record};
use epnet_bench::{csv, enginebench, loadbench, scalebench};
use epnet_report::analysis;
use epnet_telemetry::export::chrome_trace;
use epnet_telemetry::{parse_jsonl, validate_jsonl};

#[test]
fn small_sweep_produces_well_formed_cells() {
    let mut scale = EvalScale::tiny();
    scale.duration = SimTime::from_ms(1);
    let mut sweep = SensitivitySweep::paper_grid(scale, WorkloadKind::Search);
    sweep.targets = vec![0.5];
    sweep.reactivations = vec![SimTime::from_us(1), SimTime::from_us(10)];

    let cells = sweep.run();
    assert_eq!(cells.len(), 2);
    for cell in &cells {
        assert_eq!(cell.workload, "Search");
        assert!(cell.delivery_ratio > 0.0 && cell.delivery_ratio <= 1.0 + 1e-9);
        assert!(cell.power_ideal > 0.0 && cell.power_ideal <= 1.0 + 1e-9);
    }
}

/// Runs `axes` once each in-process (no allocation meter) and holds the
/// document to the one validator.
fn measure(axes: &[Axis]) -> Document {
    let records: Vec<Record> = axes
        .iter()
        .flat_map(|a| axis::run(a, 1, &NoopMeter))
        .collect();
    let names: Vec<&str> = axes.iter().map(|a| a.name).collect();
    axis::validate(&axis::render(&names, 1, &records)).expect("measured document validates")
}

/// The reduced load sweep's low-load point: both epoch modes serialize
/// one report, and the active set does strictly less controller work
/// per tick than the channel count — the activity-proportional bound
/// the validator enforces.
#[test]
fn load_bench_document_is_well_formed_and_activity_bounded() {
    let mut load = loadbench::axis(true);
    load.cases.truncate(1);
    assert!(load.cases[0].0.recipe.offered_load() <= axis::LOW_LOAD);
    let doc = measure(&[load]);
    let [sweep, active] = &doc.records[..] else {
        panic!("one point, two epoch modes")
    };
    assert_eq!(sweep.epoch_ticks, active.epoch_ticks);
    assert!(
        sweep.decisions_per_tick() >= sweep.channels as f64 - 1e-9,
        "the sweep reference visits every tunable channel every tick"
    );
    assert!(
        active.decisions_per_tick() < active.channels as f64,
        "active-set work must be bounded by activity, not topology"
    );
    assert!(loadbench::decisions_speedup(sweep, active) >= axis::LOW_LOAD_DECISIONS_SPEEDUP);
}

/// The hybrid side of the sweep, reduced to what the test profile can
/// afford: the 960-host hybrid point completes fluid-only, the models
/// axis on the smallest packet point sits inside the tolerance, and the
/// committed `BENCH.json` — which carries the million-host point the
/// release `benchrun` measures — passes the validator with every axis
/// present.
#[test]
fn hybrid_scale_twin_completes_and_models_agree() {
    let points = scalebench::sweep(true);
    let cheap = points
        .iter()
        .find(|p| p.name == "hybrid_fbfly_15x8x3")
        .expect("reduced sweep keeps the cheap hybrid point");
    assert_eq!(cheap.model, SimModel::Hybrid);

    // Without a counting allocator a scale record fails the validator's
    // allocation check, so this point is measured but not validated.
    let cheap_axis = scalebench::scale_axis(std::slice::from_ref(cheap));
    let [r] = &axis::run(&cheap_axis, 1, &NoopMeter)[..] else {
        panic!("one point, one variant")
    };
    assert_eq!(r.hosts, 960);
    assert_eq!(r.packets, 0, "bulk flows must stay fluid");
    assert!(r.delivered_bytes > 0, "fluid flows delivered nothing");

    let doc = measure(&[scalebench::models_axis(&points[..1])]);
    assert_eq!(doc.records.iter().filter(|r| r.axis == "models").count(), 2);

    let committed = std::fs::read_to_string(axis::output_path())
        .expect("BENCH.json present at the repository root");
    let committed = axis::validate(&committed).expect("committed document validates");
    assert_eq!(
        committed.axes,
        axis::AXES,
        "committed document covers every axis"
    );
    assert!(
        committed.repeats >= 3,
        "committed numbers come from repeated runs"
    );
    assert!(committed
        .records
        .iter()
        .any(|r| r.axis == "scale" && r.hosts == axis::MILLION_HOSTS));
}

/// The canonical scenario, traced: every emitted JSONL line must pass
/// the documented schema (DESIGN.md "Observability"), and the two
/// categories this scenario is guaranteed to exercise must be present.
/// This is the in-process twin of `tracesmoke` in
/// `scripts/bench_smoke.sh` — it fails on any emitter/validator drift.
/// It then mirrors the binary's export + analysis checks in-process:
/// the chrome-trace export must be well-formed JSON whose event and
/// per-category record counts match the source `TraceStats`, and every
/// analysis CSV must reproduce its pinned header over the real capture.
#[test]
fn traced_canonical_run_matches_documented_schema() {
    let mut sim = enginebench::canonical_simulator(RunOptions::default());
    let sink = MemorySink::new();
    sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
    let report = sim.run_until(enginebench::HORIZON);
    assert!(report.events_processed > 0);

    let text = sink.contents();
    let stats = validate_jsonl(&text).expect("trace matches documented schema");
    assert!(stats.lines > 0);
    assert!(
        stats.count(TraceCategory::Controller) > 0,
        "epoch decisions"
    );
    assert!(stats.count(TraceCategory::Reactivation) > 0, "rate changes");

    // Chrome-trace export twin: valid JSON, event count equals the
    // exporter's own tally, and no record silently dropped per category.
    let records = parse_jsonl(&text).expect("trace parses into records");
    let export = chrome_trace(&records, Some(enginebench::canonical_layout()));
    let doc: serde_json::Value =
        serde_json::from_str(&export.json).expect("chrome-trace export is valid JSON");
    let n_events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_seq)
        .map_or(0, Vec::len);
    assert_eq!(n_events, export.trace_events + export.metadata_events);
    for cat in TraceCategory::ALL {
        assert_eq!(
            export.records.get(cat.name()).copied().unwrap_or(0),
            stats.count(cat),
            "export consumed a different number of '{}' records",
            cat.name()
        );
    }

    // Analysis twin: every CSV form runs over the real capture and
    // leads with the header `tracetool --csv` writes and downstream
    // plots key on; residency fractions must cover the whole horizon.
    let residency = analysis::residency(&records);
    let total: f64 = residency.rows.iter().map(|r| r.fraction).sum();
    assert!((total - 1.0).abs() < 1e-9, "residency sums to {total}");
    for (csv_text, header) in [
        (csv::residency_csv(&residency), "rate,fraction"),
        (
            csv::churn_csv(&analysis::churn(&records)),
            "channel,decisions,transitions,upshifts,downshifts,reversals",
        ),
        (
            csv::reactivation_csv(&analysis::reactivation_latency(&records)),
            "count,unmatched,min_ps,p50_ps,p90_ps,p99_ps,max_ps,mean_ps",
        ),
        (
            csv::credit_csv(&analysis::credit_stalls(&records)),
            "channel,stalls,total_ps,max_ps,unmatched",
        ),
        (
            csv::outcomes_csv(&analysis::outcomes(&records)),
            "reason,count,share",
        ),
    ] {
        assert_eq!(csv_text.lines().next(), Some(header));
    }
}
