//! Sets of runs: `--record` runs every workload repeatedly, one process
//! per run, and writes a set file; `--compare` checks two set files
//! against the declared bounds.

use crate::metrics::{Better, END_TO_END};
use crate::scenario::WORKLOADS;
use crate::stats::Summary;
use serde_json::Value;
use std::process::{Command, Stdio};

/// Runs each workload `runs` times, round-robin so host drift hits
/// every workload alike, with seeds `seed`, `seed + 1`, …; returns the
/// set document.
pub fn record(runs: u64, seed: u64, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut per_workload: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..runs {
        for (w, sc) in WORKLOADS.iter().enumerate() {
            let run_seed = seed + round;
            let out = Command::new(&exe)
                .args(["--workload", sc.name, "--trace", "0"])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines = stdout.lines().rev();
            let (line, record) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
            let parse = |text: &str, what: &str| -> Result<Value, String> {
                serde_json::from_str(text)
                    .map_err(|e| format!("{} seed {run_seed}: bad {what} line: {e}", sc.name))
            };
            eprintln!(
                "benchmark: round {round} {} seed {run_seed}: {line}",
                sc.name
            );
            per_workload[w].push(Value::Map(vec![
                ("seed".into(), Value::U64(run_seed)),
                ("record".into(), parse(record, "record")?),
                ("result".into(), parse(line, "result")?),
            ]));
        }
    }
    let workloads = WORKLOADS
        .iter()
        .zip(per_workload)
        .map(|(sc, runs)| {
            let summary = END_TO_END
                .iter()
                .filter_map(|m| {
                    let s = Summary::of(&values(&runs, m.name))?;
                    Some((m.name.to_string(), summary_value(&s)))
                })
                .collect();
            Value::Map(vec![
                ("name".into(), Value::Str(sc.name.into())),
                ("summary".into(), Value::Map(summary)),
                ("runs".into(), Value::Seq(runs)),
            ])
        })
        .collect();
    Ok(Value::Map(vec![
        ("commit".into(), Value::Str(git_commit())),
        (
            "hw_threads".into(),
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("seconds".into(), Value::U64(seconds)),
        ("runs".into(), Value::U64(runs)),
        ("first_seed".into(), Value::U64(seed)),
        ("workloads".into(), Value::Seq(workloads)),
    ]))
}

fn summary_value(s: &Summary) -> Value {
    Value::Map(vec![
        ("median".into(), Value::F64(s.median)),
        ("min".into(), Value::F64(s.min)),
        ("max".into(), Value::F64(s.max)),
        ("q1".into(), Value::F64(s.q1)),
        ("q3".into(), Value::F64(s.q3)),
        ("spread".into(), Value::F64(s.spread())),
    ])
}

/// The commit being measured, or `unknown` outside a git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The values of metric `name` across the runs of one workload.
fn values(runs: &[Value], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// How a metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the old median by more than the bound.
    Worse,
    /// Better than the old median by more than the bound.
    Better,
    /// Within the bound either way.
    Within,
    /// The spread of either set exceeds the bound and the runs overlap,
    /// so the sets cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for a metric with direction `better` and
/// regression bound `bound` (a share of the old median).
pub fn verdict(old: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    // Positive `change` is a worsening, as a share of the old median.
    let (worse_ratio, all_better, all_worse) = match better {
        Better::Lower => (
            new.median / old.median,
            new.max < old.min,
            new.min > old.max,
        ),
        Better::Higher => (
            old.median / new.median,
            new.min > old.max,
            new.max < old.min,
        ),
    };
    let change = if worse_ratio.is_finite() {
        worse_ratio - 1.0
    } else {
        0.0
    };
    if old.spread().max(new.spread()) > bound {
        return if all_better {
            Verdict::Better
        } else if all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compares two set documents metric by metric; returns the report
/// lines and whether any metric got worse.
pub fn compare(old: &Value, new: &Value) -> Result<(Vec<String>, bool), String> {
    let workloads = |doc: &Value| -> Result<Vec<Value>, String> {
        doc.get("workloads")
            .and_then(Value::as_seq)
            .cloned()
            .ok_or_else(|| "set file has no 'workloads' list".to_string())
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut lines = vec![format!(
        "{:<18} {:<13} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "old median", "new median", "ratio", "old IQR", "new IQR"
    )];
    let mut any_worse = false;
    for o in &old_w {
        let name = o.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(n) = new_w
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some(name))
        else {
            lines.push(format!("{name:<18} missing from the new set"));
            continue;
        };
        let runs = |w: &Value| {
            w.get("runs")
                .and_then(Value::as_seq)
                .cloned()
                .unwrap_or_default()
        };
        let (old_runs, new_runs) = (runs(o), runs(n));
        for m in END_TO_END {
            let (Some(os), Some(ns)) = (
                Summary::of(&values(&old_runs, m.name)),
                Summary::of(&values(&new_runs, m.name)),
            ) else {
                lines.push(format!("{name:<18} {:<13} no values", m.name));
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&os, &ns, m.better, bound);
            any_worse |= v == Verdict::Worse;
            lines.push(format!(
                "{name:<18} {:<13} {:>12.6} {:>12.6} {:>8.4} {:>8.4} {:>8.4}  {} (bound {bound})",
                m.name,
                os.median,
                ns.median,
                ns.median / os.median,
                os.spread(),
                ns.spread(),
                v.as_str()
            ));
        }
    }
    Ok((lines, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn verdicts_against_the_bound() {
        let old = s(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(
            verdict(&old, &s(&[1.05; 4]), Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&old, &s(&[1.2; 4]), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&old, &s(&[0.8; 4]), Better::Lower, 0.1),
            Verdict::Better
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&old, &s(&[1.2; 4]), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&old, &s(&[0.8; 4]), Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_spreads_are_unresolved() {
        let old = s(&[0.6, 0.9, 1.1, 1.4]);
        let new = s(&[0.8, 1.1, 1.3, 1.6]);
        assert_eq!(verdict(&old, &new, Better::Lower, 0.1), Verdict::Unresolved);
        // Unless every new run beats every old one.
        let apart = s(&[0.2, 0.3, 0.4, 0.5]);
        assert_eq!(verdict(&old, &apart, Better::Lower, 0.1), Verdict::Better);
    }

    #[test]
    fn compare_reads_set_documents() {
        let set = |v: f64| {
            let run = |x: f64| {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        let value = Value::Map(vec![("value".into(), Value::F64(x))]);
                        (m.name.to_string(), value)
                    })
                    .collect();
                Value::Map(vec![(
                    "result".into(),
                    Value::Map(vec![("metrics".into(), Value::Map(metrics))]),
                )])
            };
            Value::Map(vec![(
                "workloads".into(),
                Value::Seq(vec![Value::Map(vec![
                    ("name".into(), Value::Str("w".into())),
                    ("runs".into(), Value::Seq(vec![run(v), run(v), run(v)])),
                ])]),
            )])
        };
        let (lines, worse) = compare(&set(1.0), &set(1.0)).unwrap();
        assert!(!worse);
        assert_eq!(lines.len(), 1 + END_TO_END.len());
        assert!(lines[1].contains("within"), "{}", lines[1]);
        let (_, worse) = compare(&set(1.0), &set(2.0)).unwrap();
        assert!(worse);
        assert!(compare(&Value::Map(vec![]), &set(1.0)).is_err());
    }
}
