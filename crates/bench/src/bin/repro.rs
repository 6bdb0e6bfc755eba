//! Regenerates every table and figure of *Energy Proportional
//! Datacenter Networks* (ISCA 2010).
//!
//! ```text
//! repro [--scale tiny|quick|paper] [--json FILE] [--csv-dir DIR] [TARGET...]
//!
//! TARGET: table1 table2 figure1 figure5 figure6 figure7 figure8
//!         figure9a figure9b costs topology-sim sensitivity
//!         (default: all)
//! ```
//!
//! `--json` writes every target's data to one file; `--csv-dir` also
//! writes one CSV per series into that directory.
//!
//! `--scale quick` (default) runs a 512-host 8-ary 3-flat for 8 ms per
//! experiment; `--scale paper` runs the paper's 15-ary 3-flat (3,375
//! hosts, 20 ms per run). A full `--scale paper all` has not been
//! timed; the two paper-scale Figure 7 runs together take about 30 s
//! on two hardware threads, and Figure 9(b) alone about 400 s.

use epnet::exp::{figures, EvalScale};
use epnet_bench::{parse_scale, TARGETS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started_all = Instant::now();
    let mut scale = EvalScale::quick();
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(v) = args.next() else {
                    eprintln!("--scale needs a value");
                    return ExitCode::FAILURE;
                };
                match parse_scale(&v) {
                    Ok(s) => scale = s,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => {
                let Some(v) = args.next() else {
                    eprintln!("--json needs a file path");
                    return ExitCode::FAILURE;
                };
                json_path = Some(v);
            }
            "--csv-dir" => {
                let Some(v) = args.next() else {
                    eprintln!("--csv-dir needs a directory");
                    return ExitCode::FAILURE;
                };
                csv_dir = Some(v);
            }
            "--help" | "-h" => {
                println!(
                    "repro [--scale tiny|quick|paper] [--json FILE] [--csv-dir DIR] [TARGET...]\nTARGETS: {} all",
                    TARGETS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            t => targets.push(t.trim_start_matches("--").to_owned()),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        // The sensitivity grid is ~40 simulations; run it only when
        // asked for by name.
        targets = TARGETS
            .iter()
            .filter(|t| **t != "sensitivity")
            .map(|s| (*s).to_owned())
            .collect();
    }

    println!("# Energy Proportional Datacenter Networks (ISCA 2010) reproduction",);
    println!(
        "# scale: {} hosts ({}-ary {}-flat, c={}), {} per run\n",
        scale.hosts(),
        scale.radix,
        scale.flat_n,
        scale.concentration,
        scale.duration,
    );

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut json = BTreeMap::new();
    for target in &targets {
        let started = Instant::now();
        let Some(value) = run_target(target, scale, csv_dir.as_deref()) else {
            eprintln!("unknown target '{target}' (see --help)");
            return ExitCode::FAILURE;
        };
        println!("  [{target} took {:.1?}]\n", started.elapsed());
        json.insert(target.clone(), value);
    }

    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&json) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&path, s) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize results: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // One line of run totals on stderr (suppress with EPNET_QUIET=1);
    // stdout stays clean for the tables and JSON above.
    epnet_telemetry::summary::eprint_summary("repro", started_all.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// Runs one target, prints its table, and returns its JSON value.
fn run_target(target: &str, scale: EvalScale, csv_dir: Option<&str>) -> Option<serde_json::Value> {
    let json = |v: serde_json::Value| Some(v);
    let write_csv = |name: &str, body: String| {
        if let Some(dir) = csv_dir {
            let path = format!("{dir}/{name}.csv");
            match std::fs::write(&path, body) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    };
    match target {
        "table1" => {
            let t = figures::table1();
            println!("Table 1: topology power comparison (fixed bisection bandwidth)");
            print!("{}", t.to_table());
            json(serde_json::to_value(&t).ok()?)
        }
        "table2" => {
            let t = figures::table2();
            println!("Table 2: InfiniBand data rates");
            for (name, gbps) in &t {
                println!("{name:<8} {gbps:>5.1} Gb/s");
            }
            json(serde_json::to_value(&t).ok()?)
        }
        "figure1" => {
            let f = figures::figure1();
            print!("{}", f.to_table());
            json(serde_json::to_value(&f).ok()?)
        }
        "figure5" => {
            let f = figures::figure5();
            print!("{}", f.to_table());
            json(serde_json::to_value(&f).ok()?)
        }
        "figure6" => {
            let f = figures::figure6();
            println!("Figure 6: ITRS bandwidth trends");
            println!(
                "{:<6} {:>12} {:>14} {:>10}",
                "Year", "I/O (Tb/s)", "Clock (Gb/s)", "Pins (k)"
            );
            for s in &f {
                println!(
                    "{:<6} {:>12.1} {:>14.1} {:>10.1}",
                    s.year, s.io_bandwidth_tbps, s.offchip_clock_gbps, s.package_pins_thousands
                );
            }
            json(serde_json::to_value(&f).ok()?)
        }
        "figure7" => {
            let f = figures::figure7(scale);
            print!("{}", f.to_table());
            write_csv("figure7", epnet_bench::csv::figure7_csv(&f));
            json(serde_json::to_value(&f).ok()?)
        }
        "figure8" => {
            let f = figures::figure8(scale);
            print!("{}", f.to_table());
            write_csv("figure8", epnet_bench::csv::figure8_csv(&f));
            json(serde_json::to_value(&f).ok()?)
        }
        "figure9a" => {
            let cells = figures::figure9a(scale);
            write_csv("figure9a", epnet_bench::csv::figure9a_csv(&cells));
            print!(
                "{}",
                figures::figure9_table(
                    "Figure 9(a): added mean latency vs target utilization (1 us reactivation)",
                    "us",
                    [25, 50, 75].iter().map(|t| format!("{t}%")),
                    cells
                        .iter()
                        .map(|c| (c.workload.as_str(), c.added_latency_us)),
                )
            );
            json(serde_json::to_value(&cells).ok()?)
        }
        "figure9b" => {
            let cells = figures::figure9b(scale);
            write_csv("figure9b", epnet_bench::csv::figure9b_csv(&cells));
            print!(
                "{}",
                figures::figure9_table(
                    "Figure 9(b): added mean latency vs reactivation time (50% target)",
                    "us",
                    ["100ns", "1us", "10us", "100us"]
                        .iter()
                        .map(|s| (*s).to_owned()),
                    cells
                        .iter()
                        .map(|c| (c.workload.as_str(), c.added_latency_us)),
                )
            );
            json(serde_json::to_value(&cells).ok()?)
        }
        "sensitivity" => {
            use epnet::exp::sweep::{sweep_tables, SensitivitySweep};
            use epnet::exp::WorkloadKind;
            let mut all = Vec::new();
            for kind in WorkloadKind::ALL {
                let cells = SensitivitySweep::paper_grid(scale, kind).run();
                print!("{}", sweep_tables(kind.name(), &cells));
                println!();
                all.extend(cells);
            }
            json(serde_json::to_value(&all).ok()?)
        }
        "topology-sim" => {
            let t = figures::simulated_topology_comparison(scale);
            print!("{}", t.to_table());
            json(serde_json::to_value(&t).ok()?)
        }
        "costs" => {
            let c = figures::cost_summary();
            print!("{}", c.to_table());
            json(serde_json::to_value(&c).ok()?)
        }
        _ => None,
    }
}
