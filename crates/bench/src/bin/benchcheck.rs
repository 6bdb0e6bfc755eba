//! Validates complete benchmark documents, such as the committed
//! `BENCH.json`, with `epnet_bench::axis::validate`.
//!
//! ```text
//! cargo run --release -p epnet-bench --bin benchcheck -- FILE...
//! ```
//!
//! Prints one summary line per record, then `FILE: ok`; exits 1 at the
//! first document that fails or lacks an axis, naming the violation.

use epnet_bench::axis::{validate, AXES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: benchcheck FILE...");
        return ExitCode::from(2);
    }
    for file in &files {
        let checked = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| validate(&text))
            .and_then(
                |doc| match AXES.iter().find(|a| !doc.axes.iter().any(|d| d == *a)) {
                    Some(missing) => Err(format!("missing the '{missing}' axis")),
                    None => Ok(doc),
                },
            );
        let doc = match checked {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for r in &doc.records {
            println!("{}", r.summary());
        }
        println!(
            "{file}: ok ({} records, {} repeats, {} hw threads)",
            doc.records.len(),
            doc.repeats,
            doc.hw_threads
        );
    }
    ExitCode::SUCCESS
}
