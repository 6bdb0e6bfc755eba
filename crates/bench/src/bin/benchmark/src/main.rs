//! The repository's reference benchmark; README.md beside this package
//! documents the workloads, the metrics and what each layer metric
//! should move.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --smoke [--seed N]
//! benchmark --record OUT.json [--runs N] [--seed N] [--seconds S]
//! benchmark --compare OLD.json NEW.json
//! ```

mod alloc;
mod metrics;
mod run;
mod scenario;
mod sets;
mod stats;

use scenario::Scenario;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  benchmark --smoke [--seed N]
  benchmark --record OUT.json [--runs N] [--seed N] [--seconds S]
  benchmark --compare OLD.json NEW.json";

/// What one invocation does.
#[derive(Debug)]
enum Mode {
    Bench { workload: Scenario, trace: bool },
    Smoke,
    Record { out: PathBuf, runs: u64 },
    Compare { old: PathBuf, new: PathBuf },
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let mut mode = None;
    let (mut seed, mut seconds, mut trace, mut runs) = (2010, 10, false, 10);
    let mut workload = None;
    let mut record = None;
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag} takes a whole number, not '{v}'"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                workload = Some(scenario::find(name)?);
            }
            "--seed" => seed = number(arg, it.next())?,
            "--seconds" => seconds = number(arg, it.next())?,
            "--runs" => runs = number(arg, it.next())?,
            "--trace" => {
                trace = match it.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => mode = Some(Mode::Smoke),
            "--record" => record = Some(PathBuf::from(it.next().ok_or("--record needs a path")?)),
            "--compare" => {
                let (Some(old), Some(new)) = (it.next(), it.next()) else {
                    return Err("--compare needs OLD.json and NEW.json".into());
                };
                mode = Some(Mode::Compare {
                    old: old.into(),
                    new: new.into(),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let mode = match (mode, workload, record) {
        (None, Some(workload), None) => Mode::Bench { workload, trace },
        (None, None, Some(out)) => Mode::Record { out, runs },
        (Some(mode), None, None) => mode,
        _ => return Err("give exactly one of --workload, --smoke, --record, --compare".into()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// The contract's result line: `correct`, `attempted`, `failed`, and
/// each metric's value with its unit.
fn result_line(o: &run::Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = metrics::END_TO_END
                .iter()
                .chain(metrics::PER_LAYER)
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            let entry = Value::Map(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let doc = Value::Map(vec![
        ("correct".into(), Value::Bool(o.failed == 0)),
        ("attempted".into(), Value::U64(o.attempted)),
        ("failed".into(), Value::U64(o.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

/// Runs one workload and prints its record and result lines.
fn bench(sc: &Scenario, seed: u64, seconds: u64, trace: bool) -> bool {
    let o = run::bench(sc, seed, seconds, trace);
    for f in &o.failures {
        eprintln!("benchmark: {}: {f}", sc.name);
    }
    println!(
        "{}",
        serde_json::to_string(&o.record).expect("record serializes")
    );
    println!("{}", result_line(&o));
    o.failed == 0
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    // Every `EPNET_*` switch changes how the library runs; the workloads
    // fix all of them (the parallel width through `Scenario::par`).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EPNET_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.mode {
        Mode::Bench { workload, trace } => bench(workload, args.seed, args.seconds, *trace),
        Mode::Smoke => scenario::SMOKE
            .iter()
            .flat_map(|sc| [false, true].map(|trace| (sc, trace)))
            .fold(true, |ok, (sc, trace)| bench(sc, args.seed, 0, trace) && ok),
        Mode::Record { out, runs } => match sets::record(*runs, args.seed, args.seconds) {
            Ok(doc) => {
                let text = serde_json::to_string_pretty(&doc).expect("set serializes") + "\n";
                match std::fs::write(out, text) {
                    Ok(()) => {
                        eprintln!("benchmark: wrote {}", out.display());
                        true
                    }
                    Err(e) => {
                        eprintln!("benchmark: cannot write {}: {e}", out.display());
                        false
                    }
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                false
            }
        },
        Mode::Compare { old, new } => {
            match read_json(old).and_then(|o| sets::compare(&o, &read_json(new)?)) {
                Ok((lines, any_worse)) => {
                    for l in lines {
                        println!("{l}");
                    }
                    !any_worse
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    false
                }
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload hybrid_paper --seed 7 --seconds 3 --trace 1").unwrap();
        assert!(
            matches!(a.mode, Mode::Bench { workload, trace: true } if workload.name == "hybrid_paper")
        );
        assert_eq!((a.seed, a.seconds), (7, 3));
    }

    #[test]
    fn rejects_bad_input_naming_the_valid_choices() {
        let err = args("--workload nope").unwrap_err();
        assert!(err.contains("valid workloads: packet_paper"), "{err}");
        assert!(args("--workload packet_paper --trace 2").is_err());
        assert!(args("--workload packet_paper --seed -1").is_err());
        assert!(args("--smoke --workload packet_paper").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("").is_err());
    }

    /// The full pipeline on FBFLY(2,8,2): repeats, references, the
    /// chunked traced run and its byte-identity check, under both models
    /// and the parallel engine.
    #[test]
    fn smoke_passes_and_emits_exactly_the_declared_metrics() {
        for sc in &scenario::SMOKE {
            for (trace, declared) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
                let o = run::bench(sc, 2010, 0, trace);
                assert_eq!(o.failed, 0, "{} trace={trace}: {:?}", sc.name, o.failures);
                assert!(o.attempted >= 1);
                let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
                assert_eq!(names, want, "{} trace={trace}", sc.name);
                assert!(o.metrics.iter().all(|m| m.1.is_finite()));
                let line: Value = serde_json::from_str(&result_line(&o)).unwrap();
                assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
                if trace {
                    let coverage = o.metrics.iter().find(|m| m.0 == "trace.coverage").unwrap();
                    assert!(coverage.1 > 0.5, "{} coverage {}", sc.name, coverage.1);
                }
            }
        }
    }
}
