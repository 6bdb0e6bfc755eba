//! Traced-run smoke check: runs the canonical engine-benchmark scenario
//! with every trace category enabled, then validates the emitted JSONL
//! against the documented schema (DESIGN.md "Observability").
//!
//! ```text
//! tracesmoke [TRACE.jsonl]     (default: target/tracesmoke.jsonl)
//! ```
//!
//! Exits non-zero if any line fails schema validation or if the run
//! produced no controller-decision or link-reactivation events — the
//! two categories the canonical scenario is guaranteed to exercise.
//! `scripts/bench_smoke.sh` and the in-process twin
//! (`tests/tests/bench_smoke.rs`) both lean on this to catch schema
//! drift between the emitters and the validator.
//!
//! Finally the chrome-trace exporter runs over the capture: the export
//! must be well-formed JSON whose per-category record counts match the
//! source `TraceStats` (written to `<path>.chrome.json` for loading
//! into Perfetto).
//!
//! This is also the way to capture the trace of a single run from the
//! command line.

use epnet_bench::enginebench::{canonical_layout, canonical_simulator, HORIZON};
use epnet_sim::{RunOptions, TraceCategory, Tracer};
use epnet_telemetry::export::chrome_trace;
use epnet_telemetry::{parse_jsonl, FileSink, TraceStats};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/tracesmoke.jsonl".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let sink = match FileSink::create(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let start = Instant::now();
    let mut sim = canonical_simulator(RunOptions::default());
    sim.set_tracer(Tracer::new(sink, TraceCategory::ALL_MASK));
    let report = sim.run_until(HORIZON);

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read back {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One parse checks the schema and feeds both the counts and the
    // export below.
    let records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace schema violation in {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = TraceStats::from_records(&records);

    println!("{path}: {} schema-valid trace lines", stats.lines);
    for cat in TraceCategory::ALL {
        println!("  {:<13} {}", cat.name(), stats.count(cat));
    }
    for cat in [TraceCategory::Controller, TraceCategory::Reactivation] {
        if stats.count(cat) == 0 {
            eprintln!(
                "canonical scenario produced no '{}' events — emitter regression?",
                cat.name()
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "sim: {} events, {} packets, {} bytes delivered",
        report.events_processed, report.packets_delivered, report.delivered_bytes
    );

    // ---- chrome-trace export checks ----
    // Full export: well-formed JSON, and the per-category record
    // counts embedded by the exporter must match the source TraceStats
    // exactly — an export that silently drops records fails here.
    let layout = canonical_layout();
    let export = chrome_trace(&records, Some(layout));
    let doc: serde_json::Value = match serde_json::from_str(&export.json) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("chrome-trace export is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n_events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_seq)
        .map_or(0, Vec::len);
    if n_events != export.trace_events + export.metadata_events {
        eprintln!(
            "chrome-trace export event count mismatch: {} in JSON vs {} + {} reported",
            n_events, export.trace_events, export.metadata_events
        );
        return ExitCode::FAILURE;
    }
    for cat in TraceCategory::ALL {
        let want = stats.count(cat);
        let got = export.records.get(cat.name()).copied().unwrap_or(0);
        if want != got {
            eprintln!(
                "chrome-trace export consumed {got} '{}' records, TraceStats says {want}",
                cat.name()
            );
            return ExitCode::FAILURE;
        }
    }
    let chrome_path = format!("{path}.chrome.json");
    if let Err(e) = std::fs::write(&chrome_path, &export.json) {
        eprintln!("cannot write {chrome_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{chrome_path}: {} trace events + {} metadata events, counts match TraceStats",
        export.trace_events, export.metadata_events
    );

    // Host time stays on stderr, off the machine-readable stdout.
    eprintln!(
        "tracesmoke: {:.2} s wall | run layers: {}",
        start.elapsed().as_secs_f64(),
        report.layers
    );
    ExitCode::SUCCESS
}
