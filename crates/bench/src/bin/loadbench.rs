//! Offered-load scaling benchmark: writes `BENCH_load.json`.
//!
//! ```text
//! cargo run --release -p epnet-bench --bin loadbench [-- --reduced]
//! ```
//!
//! Sweeps offered load from 2.5% to saturation on the fabrics in
//! `epnet_bench::loadbench::sweep`, running each point once per
//! epoch mode, interleaved, and recording throughput plus the
//! controller-work counters. The point of the document is the
//! `decisions_speedup` column: how many times fewer rate decisions the
//! active-set epoch path evaluates per tick than the full sweep. Every
//! point also cross-checks that both modes serialize byte-identical
//! reports — the benchmark doubles as a correctness harness at scales
//! the test suite never reaches.
//!
//! `--reduced` trims the sweep for smoke runs; `--stdout` prints the
//! document instead of writing `BENCH_load.json`.

use epnet_bench::loadbench;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reduced = args.iter().any(|a| a == "--reduced");
    let to_stdout = args.iter().any(|a| a == "--stdout");
    if let Some(bad) = args.iter().find(|a| *a != "--reduced" && *a != "--stdout") {
        eprintln!("unknown argument '{bad}' (expected --reduced and/or --stdout)");
        std::process::exit(2);
    }

    let mut runs = Vec::new();
    for point in loadbench::sweep(reduced) {
        let run = loadbench::measure(&point);
        eprintln!(
            "{:<20} ch={:<6} sweep {:>8.1} dec/tick  active {:>8.1} dec/tick  {:>6.1}x  \
             ({:.0} / {:.0} events/s)",
            run.name,
            run.channels,
            run.sweep.decisions_per_tick(),
            run.active.decisions_per_tick(),
            run.decisions_speedup(),
            run.sweep.events_per_sec(),
            run.active.events_per_sec(),
        );
        runs.push(run);
    }

    let doc = loadbench::render(&runs);
    loadbench::validate(&doc).expect("freshly rendered document validates");
    if to_stdout {
        print!("{doc}");
    } else {
        let path = loadbench::output_path();
        std::fs::write(&path, doc).expect("BENCH_load.json written");
        eprintln!("wrote {}", path.display());
    }
}
