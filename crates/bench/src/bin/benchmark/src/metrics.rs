//! Every metric the benchmark emits, with its unit, direction and
//! regression bound. `BENCHMARK.json` declares the same table; a test
//! keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name: `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`, measured untraced.
/// Every bound is the largest `BENCHMARK.json` may declare: on a 2-vCPU
/// virtual machine the median `run_s` of ten runs spread by up to 21%
/// (README.md, "Noise").
pub const END_TO_END: &[Metric] = &[
    // Host seconds from `prime` until `finalize` returns; median of the
    // repeats that fit in `--seconds`.
    e2e("run_s", "s", 0.25),
    // Host seconds to build fabric, generator and `Simulator`; median
    // of several builds.
    e2e("setup_s", "s", 0.25),
    // Peak live heap from set-up start until `finalize` returns, median
    // of the repeats. Containers grow by doubling, so across seeds the
    // peak jumps between levels (hybrid_paper: 159 or 196 MB).
    e2e("peak_heap_mb", "MB", 0.25),
];

/// Per-layer metrics, printed with `--trace 1`, from the traced run.
/// Each names the module whose calls it times or counts.
pub const PER_LAYER: &[Metric] = &[
    layer("engine.events_s", "s", Lower),
    layer("engine.events", "count", Lower),
    layer("engine.ns_per_event", "ns", Lower),
    layer("engine.allocs_per_event", "count", Lower),
    layer("epoch.tick_s", "s", Lower),
    layer("epoch.ticks", "count", Lower),
    layer("epoch.tick_max_ms", "ms", Lower),
    layer("epoch.cotimed_events", "count", Lower),
    layer("controller.decisions", "count", Lower),
    layer("controller.decisions_per_tick", "count", Lower),
    layer("flows.absorbed", "count", Higher),
    layer("flows.demoted", "count", Lower),
    layer("flows.completed", "count", Higher),
    layer("flows.demote_ratio", "ratio", Lower),
    layer("flows.table_peak", "count", Lower),
    layer("flows.bytes_err", "ratio", Lower),
    layer("flows.power_err", "ratio", Lower),
    layer("par.windows", "count", Lower),
    layer("par.events_per_window", "count", Higher),
    layer("par.replay_events", "count", Lower),
    layer("par.cross_events", "count", Lower),
    layer("par.cross_batches", "count", Lower),
    layer("par.speedup_vs_serial", "ratio", Higher),
    layer("topology.build_s", "s", Lower),
    layer("sim.build_s", "s", Lower),
    layer("workloads.build_s", "s", Lower),
    layer("workloads.next_s", "s", Lower),
    layer("workloads.messages", "count", Lower),
    layer("sim.finalize_s", "s", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Whether `name` fits the metric-name grammar: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, the first a letter or digit.
    fn valid_name(name: &str) -> bool {
        let b = name.as_bytes();
        !b.is_empty()
            && b.len() <= 64
            && b[0].is_ascii_alphanumeric()
            && b.iter()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    fn better(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["run_s", "engine.events_s", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
    }

    /// `BENCHMARK.json` at the repository root, parsed.
    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = declared();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_seq).expect(key);
            let names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
                .collect();
            let ours: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, ours, "{key} differs from BENCHMARK.json");
            for (m, d) in table.iter().zip(listed) {
                assert_eq!(d.get("unit").and_then(Value::as_str), Some(m.unit));
                assert_eq!(
                    d.get("better").and_then(Value::as_str),
                    Some(better(m.better))
                );
                assert_eq!(
                    d.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let doc = declared();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::scenario::WORKLOADS.iter().map(|s| s.name).collect();
        assert_eq!(names, ours);
    }
}
