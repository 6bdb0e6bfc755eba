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
//! The same scenario then re-runs on the parallel engine at width 4 into
//! `<path>.par4`, and the merged trace stream must be **line-identical**
//! to the serial trace — the sharded engine's replay step emits every
//! worker's trace bytes in global event order, so even a one-line
//! reordering is a coordinator bug. Only the execution-shape categories
//! are exempt from the comparison: `routes` lines carry wall-clock
//! rebuild nanoseconds (and per-shard tables rebuild independently),
//! and `parallel` lines exist only on the parallel engine (see
//! `crates/sim/src/par.rs` module docs). The canonical scenario emits
//! no mid-run routes lines, but the filter keeps the contract precise
//! rather than incidental.
//!
//! Finally the chrome-trace exporter runs over both captures: the full
//! serial export must be well-formed JSON whose per-category record
//! counts match the source `TraceStats` (written to `<path>.chrome.json`
//! for loading into Perfetto), and the behavior-only streams (shape
//! categories stripped) of the serial and width-4 captures must
//! export to byte-identical JSON.

use epnet_bench::enginebench::{canonical_layout, canonical_simulator, HORIZON};
use epnet_sim::{RunOptions, TraceCategory, Tracer};
use epnet_telemetry::export::{behavior_records, chrome_trace};
use epnet_telemetry::{parse_jsonl, summary, validate_jsonl, FileSink};
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
    let stats = match validate_jsonl(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace schema violation in {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

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

    // The parallel cross-check: the identical scenario at width 4 must
    // produce a line-identical merged trace (routes lines excepted —
    // wall-clock build times).
    let par_path = format!("{path}.par4");
    let par_sink = match FileSink::create(&par_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create {par_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut par_sim = canonical_simulator(RunOptions {
        par: Some(4),
        ..RunOptions::default()
    });
    par_sim.set_tracer(Tracer::new(par_sink, TraceCategory::ALL_MASK));
    let par_report = par_sim.run_until(HORIZON);
    let par_text = match std::fs::read_to_string(&par_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read back {par_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_jsonl(&par_text) {
        eprintln!("trace schema violation in {par_path}: {e}");
        return ExitCode::FAILURE;
    }
    if par_report.events_processed != report.events_processed
        || par_report.delivered_bytes != report.delivered_bytes
    {
        eprintln!("width-4 report diverged from serial");
        return ExitCode::FAILURE;
    }
    fn behavior_lines(t: &str) -> Vec<&str> {
        t.lines()
            .filter(|l| !l.contains("\"cat\":\"routes\"") && !l.contains("\"cat\":\"parallel\""))
            .collect()
    }
    let serial_lines = behavior_lines(&text);
    let par_lines = behavior_lines(&par_text);
    if serial_lines != par_lines {
        let diverge = serial_lines
            .iter()
            .zip(&par_lines)
            .position(|(a, b)| a != b)
            .unwrap_or(serial_lines.len().min(par_lines.len()));
        eprintln!(
            "width-4 trace diverged from serial at line {} ({} vs {} lines)",
            diverge + 1,
            serial_lines.len(),
            par_lines.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{par_path}: width-4 trace line-identical to serial ({} lines)",
        par_lines.len()
    );
    // The parallel run must actually exercise the new category — a
    // silent emitter regression would otherwise pass the filter above.
    if !par_text.contains("\"cat\":\"parallel\"") {
        eprintln!("width-4 run emitted no 'parallel' records — emitter regression?");
        return ExitCode::FAILURE;
    }

    // ---- chrome-trace export checks ----
    // Full serial export: well-formed JSON, and the per-category record
    // counts embedded by the exporter must match the source TraceStats
    // exactly — an export that silently drops records fails here.
    let layout = canonical_layout();
    let serial_records = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let export = chrome_trace(&serial_records, Some(layout));
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

    // Behavior-only streams (shape categories stripped) of the serial
    // and parallel captures must export to byte-identical JSON — the
    // export-level form of the line-identity contract.
    let par_records = match parse_jsonl(&par_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{par_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let serial_export = chrome_trace(&behavior_records(&serial_records), Some(layout));
    let par_export = chrome_trace(&behavior_records(&par_records), Some(layout));
    if serial_export.json != par_export.json {
        eprintln!("width-4 behavior-only chrome-trace export diverged from serial");
        return ExitCode::FAILURE;
    }
    println!("serial and width-4 behavior-only exports byte-identical");

    summary::eprint_summary("tracesmoke", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
