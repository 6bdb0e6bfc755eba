//! The benchmark runner: measures the axes of `epnet_bench::axis` and
//! writes one `epnet-bench/v4` document.
//!
//! ```text
//! cargo run --release -p epnet-bench --bin benchrun -- \
//!     [--reduced] [--axes load,scale,...] [--out PATH|-]
//! ```
//!
//! Every (point, variant) runs three times, interleaved with the
//! point's other variants (once under `--reduced`). The process runs under
//! a counting global allocator, so every run records the steady-state
//! allocation meter. The document is validated before it is written;
//! a document that fails (a variant whose report diverged, a budget
//! overrun) is printed to stderr with the reason and not written, and
//! the exit status is 1. `--reduced` trims every axis for smoke runs,
//! and also fails unless every hybrid `scale` record it measured
//! reproduces the report digest of the same point and variant in the
//! committed `BENCH.json` (`axis::check_digests`): those points run the
//! same horizon in both sweeps, and the 2^17- and 2^20-host ones are
//! beyond `cargo test`'s reach. `--out` defaults to `BENCH.json` at the
//! repository root, and `-` prints to stdout.

use epnet_bench::axis::{self, AXES};
use std::process::ExitCode;

epnet_bench::counting_allocator!();

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "benchrun: {err}\nusage: benchrun [--reduced] [--axes {}] [--out PATH|-]",
        AXES.join(",")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut reduced = false;
    let mut wanted: Vec<String> = AXES.iter().map(|a| a.to_string()).collect();
    let mut out = axis::output_path().display().to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--reduced" => reduced = true,
            "--axes" => match value() {
                Ok(v) => wanted = v.split(',').map(str::to_string).collect(),
                Err(e) => return usage(&e),
            },
            "--out" => match value() {
                Ok(v) => out = v,
                Err(e) => return usage(&e),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    if let Some(bad) = wanted.iter().find(|a| !AXES.contains(&a.as_str())) {
        return usage(&format!("unknown axis '{bad}'"));
    }

    let repeats = if reduced { 1 } else { axis::REPEATS };
    let axes: Vec<_> = axis::axes(reduced)
        .into_iter()
        .filter(|a| wanted.iter().any(|w| w == a.name))
        .collect();
    let mut records = Vec::new();
    for a in &axes {
        for r in axis::run(a, repeats, &counting::Meter) {
            eprintln!("{}", r.summary());
            records.push(r);
        }
    }
    let names: Vec<&str> = axes.iter().map(|a| a.name).collect();
    let doc = axis::render(&names, repeats, &records);
    let measured = match axis::validate(&doc) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("{doc}benchrun: the measured document fails validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reduced && names.contains(&"scale") {
        let committed = axis::output_path();
        let checked = std::fs::read_to_string(&committed)
            .map_err(|e| format!("cannot read {}: {e}", committed.display()))
            .and_then(|text| axis::validate(&text))
            .and_then(|reference| axis::check_digests(&measured, &reference));
        match checked {
            Ok(n) => eprintln!("{n} hybrid scale digests match the committed BENCH.json"),
            Err(e) => {
                eprintln!("benchrun: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if out == "-" {
        print!("{doc}");
    } else if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("benchrun: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    } else {
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}
