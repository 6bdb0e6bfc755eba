//! Post-hoc trace toolkit: Perfetto export and offline analyses.
//!
//! ```text
//! tracetool export TRACE.jsonl OUT.json [--layout HOSTS,PORTS]
//! tracetool residency TRACE.jsonl [--csv]
//! tracetool churn TRACE.jsonl [--csv] [--top N]
//! tracetool reactivation TRACE.jsonl [--csv]
//! tracetool credit TRACE.jsonl [--csv] [--top N]
//! tracetool outcomes TRACE.jsonl [--csv]
//! ```
//!
//! `export` converts an `EPNET_TRACE` JSONL capture to the Chrome
//! Trace Event JSON object format; open the output at
//! <https://ui.perfetto.dev> (or `chrome://tracing`). `--layout`
//! supplies the fabric's host count and ports-per-switch so channel
//! tracks group into one process per switch — for the canonical
//! tracesmoke fabric that is `--layout 16,9`.
//!
//! The analysis commands print a table to stdout, or CSV with `--csv`
//! (headers pinned by `epnet-bench::csv` unit tests, so downstream
//! plots can rely on them). `residency` reproduces the
//! `render --trace` residency numbers exactly — both call the same
//! derivation. `--top N` truncates the table form of the per-channel
//! reports; CSV always carries every row.

use epnet_bench::csv;
use epnet_report::analysis;
use epnet_telemetry::export::{chrome_trace, TrackLayout};
use epnet_telemetry::{parse_jsonl, TraceRecord};
use std::process::ExitCode;

const USAGE: &str = "usage: tracetool export TRACE.jsonl OUT.json [--layout HOSTS,PORTS]\n       \
                     tracetool residency|churn|reactivation|credit|outcomes TRACE.jsonl \
                     [--csv] [--top N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tracetool: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let [cmd, trace_path, rest @ ..] = args else {
        return Err(USAGE.to_string());
    };
    if cmd == "export" {
        let [out_path, opts @ ..] = rest else {
            return Err(USAGE.to_string());
        };
        let layout = parse_layout(opts)?;
        let records = load(trace_path)?;
        let out = chrome_trace(&records, layout);
        std::fs::write(out_path, &out.json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
        eprintln!(
            "wrote {out_path}: {} trace events + {} metadata events from {} records",
            out.trace_events,
            out.metadata_events,
            out.records.values().sum::<usize>()
        );
        return Ok(());
    }
    let (want_csv, top) = parse_flags(rest)?;
    let records = load(trace_path)?;
    let text = match cmd.as_str() {
        "residency" => {
            let r = analysis::residency(&records);
            if want_csv {
                csv::residency_csv(&r)
            } else {
                analysis::format_residency(&r)
            }
        }
        "churn" => {
            let rows = analysis::churn(&records);
            if want_csv {
                csv::churn_csv(&rows)
            } else {
                analysis::format_churn(&rows, top)
            }
        }
        "reactivation" => {
            let s = analysis::reactivation_latency(&records);
            if want_csv {
                csv::reactivation_csv(&s)
            } else {
                analysis::format_reactivation(&s)
            }
        }
        "credit" => {
            let rows = analysis::credit_stalls(&records);
            if want_csv {
                csv::credit_csv(&rows)
            } else {
                analysis::format_credit(&rows, top)
            }
        }
        "outcomes" => {
            let rows = analysis::outcomes(&records);
            if want_csv {
                csv::outcomes_csv(&rows)
            } else {
                analysis::format_outcomes(&rows)
            }
        }
        other => return Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    print!("{text}");
    Ok(())
}

fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parses `[--layout HOSTS,PORTS]` from an export's trailing options.
fn parse_layout(opts: &[String]) -> Result<Option<TrackLayout>, String> {
    match opts {
        [] => Ok(None),
        [flag, value] if flag == "--layout" => {
            let (hosts, ports) = value
                .split_once(',')
                .ok_or_else(|| format!("--layout wants HOSTS,PORTS, got '{value}'"))?;
            let parse = |s: &str| {
                s.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("--layout wants HOSTS,PORTS, got '{value}'"))
            };
            let (hosts, ports) = (parse(hosts)?, parse(ports)?);
            if ports == 0 {
                return Err("--layout ports must be positive".to_string());
            }
            Ok(Some(TrackLayout {
                hosts,
                ports_per_switch: ports,
            }))
        }
        _ => Err(USAGE.to_string()),
    }
}

/// Parses `[--csv] [--top N]` in any order. `top == 0` means "all".
fn parse_flags(opts: &[String]) -> Result<(bool, usize), String> {
    let mut want_csv = false;
    let mut top = 0usize;
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--csv" => want_csv = true,
            "--top" => {
                let n = it.next().ok_or("--top wants a count")?;
                top = n
                    .parse()
                    .map_err(|_| format!("--top wants a count, got '{n}'"))?;
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok((want_csv, top))
}
