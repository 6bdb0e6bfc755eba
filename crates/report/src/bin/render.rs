//! Renders `repro --json` output into SVG figures.
//!
//! ```text
//! render RESULTS.json OUT_DIR
//! render --trace TRACE.jsonl OUT_DIR
//! ```
//!
//! The first form emits `figure7.svg`, `figure8a.svg`, `figure8b.svg`,
//! `figure9a.svg`, and `figure9b.svg` for whichever figures are present
//! in the JSON; a present but unreadable figure, or a failed write,
//! exits 1 after the rest are written. The second consumes a JSONL
//! trace (`tracesmoke <path>` captures one) and emits
//! `trace_residency.svg` (per-rate residency reconstructed from
//! controller decisions) and `trace_timeline.svg` (per-channel
//! controller-decision timeline).

use epnet::exp::figures::{Figure7, Figure8, Figure9aCell, Figure9bCell};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let ["--trace", trace, out_dir] = args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        return render_trace(trace, out_dir);
    }
    let [input, out_dir] = args.as_slice() else {
        eprintln!("usage: render RESULTS.json OUT_DIR\n       render --trace TRACE.jsonl OUT_DIR");
        return ExitCode::FAILURE;
    };
    let raw = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json: serde_json::Value = match serde_json::from_str(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }

    // A present but unreadable figure, or a failed write, fails the
    // run once every other figure is written.
    let mut svgs: Vec<(&str, String)> = Vec::new();
    let mut failed = false;
    let mut unreadable = |figure: &str, e: serde_json::Error| {
        eprintln!("{figure} present but unreadable: {e}");
        failed = true;
    };
    if let Some(v) = json.get("figure7") {
        match serde_json::from_value::<Figure7>(v.clone()) {
            Ok(f) => svgs.push(("figure7.svg", epnet_report::render_figure7(&f))),
            Err(e) => unreadable("figure7", e),
        }
    }
    if let Some(v) = json.get("figure8") {
        match serde_json::from_value::<Figure8>(v.clone()) {
            Ok(f) => {
                let (a, b) = epnet_report::render_figure8(&f);
                svgs.extend([("figure8a.svg", a), ("figure8b.svg", b)]);
            }
            Err(e) => unreadable("figure8", e),
        }
    }
    if let Some(v) = json.get("figure9a") {
        match serde_json::from_value::<Vec<Figure9aCell>>(v.clone()) {
            Ok(cells) => svgs.push(("figure9a.svg", epnet_report::render_figure9a(&cells))),
            Err(e) => unreadable("figure9a", e),
        }
    }
    if let Some(v) = json.get("figure9b") {
        match serde_json::from_value::<Vec<Figure9bCell>>(v.clone()) {
            Ok(cells) => svgs.push(("figure9b.svg", epnet_report::render_figure9b(&cells))),
            Err(e) => unreadable("figure9b", e),
        }
    }
    if svgs.is_empty() && !failed {
        eprintln!("no renderable figures found in {input} (run repro with figure7/8/9 targets)");
        return ExitCode::FAILURE;
    }

    for (name, svg) in svgs {
        let path = Path::new(out_dir).join(name);
        match std::fs::write(&path, svg) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Channels shown in the trace timeline: enough to see per-channel
/// behavior without producing an unmanageably tall SVG.
const TIMELINE_CHANNELS: u32 = 32;

fn render_trace(trace: &str, out_dir: &str) -> ExitCode {
    let raw = match std::fs::read_to_string(trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {trace}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records = match epnet_telemetry::parse_jsonl(&raw) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse {trace}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let derived = epnet_report::tracecharts::derive(&records);
    if derived.channels == 0 {
        eprintln!(
            "{trace} has no controller decisions — capture a trace with every \
             category with `tracesmoke <path>`"
        );
        return ExitCode::FAILURE;
    }
    let Some(timeline) =
        epnet_report::tracecharts::render_controller_timeline(&derived, TIMELINE_CHANNELS)
    else {
        eprintln!(
            "{trace} has no controller decisions on channels 0..{TIMELINE_CHANNELS}; \
             the timeline would be empty"
        );
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    for (name, svg) in [
        (
            "trace_residency.svg",
            epnet_report::tracecharts::render_trace_residency(&derived),
        ),
        ("trace_timeline.svg", timeline),
    ] {
        let path = Path::new(out_dir).join(name);
        if let Err(e) = std::fs::write(&path, svg) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
