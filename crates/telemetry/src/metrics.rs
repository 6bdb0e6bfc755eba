//! A small metrics registry: named monotonic counters and gauges.
//!
//! Names are registered once (at simulator construction), yielding a
//! dense [`CounterId`] so hot-path updates are a bounds-checked array
//! add — no hashing, no string comparison. The final snapshot sorts
//! by name so reports serialize deterministically.
//!
//! Metrics come in two visibility classes: regular entries feed the
//! serialized report surface ([`MetricsRegistry::snapshot`]), while
//! *diagnostic* entries ([`MetricsRegistry::diagnostic`]) describe how
//! a run executed rather than what it simulated — e.g. the hybrid
//! model's flow-table counters, which a packet-model report must not
//! grow. They surface separately via
//! [`MetricsRegistry::diagnostics_snapshot`].

use std::collections::BTreeMap;

/// Handle to a registered counter or gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Registry of named `u64` metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, u64)>,
    /// Parallel to `entries`: whether each metric is diagnostic-only.
    diag: Vec<bool>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers `name`, returning its id. Metrics exist to be read
    /// by humans, so a duplicate registration is a programming error
    /// and panics rather than silently aliasing two call sites.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.register(name, false)
    }

    /// Registers `name` as a diagnostic-only metric: excluded from
    /// [`MetricsRegistry::snapshot`] (and therefore from serialized
    /// reports), visible in [`MetricsRegistry::diagnostics_snapshot`].
    pub fn diagnostic(&mut self, name: &str) -> CounterId {
        self.register(name, true)
    }

    fn register(&mut self, name: &str, diagnostic: bool) -> CounterId {
        assert!(
            self.entries.iter().all(|(n, _)| n != name),
            "metric '{name}' registered twice"
        );
        self.entries.push((name.to_owned(), 0));
        self.diag.push(diagnostic);
        CounterId(self.entries.len() as u32 - 1)
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.entries[id.0 as usize].1 += delta;
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.entries[id.0 as usize].1 = value;
    }

    /// Raises a high-watermark gauge to `value` if it is larger.
    #[inline]
    pub fn observe_max(&mut self, id: CounterId, value: u64) {
        let slot = &mut self.entries[id.0 as usize].1;
        if value > *slot {
            *slot = value;
        }
    }

    /// Current value of a metric.
    pub fn get(&self, id: CounterId) -> u64 {
        self.entries[id.0 as usize].1
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All report-surface metrics as a name-sorted map. Diagnostic
    /// entries are excluded — they describe the execution strategy,
    /// not the simulation, and must not reach serialized reports.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.entries
            .iter()
            .zip(&self.diag)
            .filter(|(_, &d)| !d)
            .map(|(e, _)| e.clone())
            .collect()
    }

    /// All diagnostic metrics as a name-sorted map.
    pub fn diagnostics_snapshot(&self) -> BTreeMap<String, u64> {
        self.entries
            .iter()
            .zip(&self.diag)
            .filter(|(_, &d)| d)
            .map(|(e, _)| e.clone())
            .collect()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let mut reg = MetricsRegistry::new();
        let b = reg.counter("zz_last");
        let a = reg.counter("aa_first");
        reg.add(b, 2);
        reg.add(b, 3);
        reg.set(a, 10);
        reg.observe_max(a, 7);
        reg.observe_max(a, 12);
        assert_eq!(reg.get(a), 12);
        assert_eq!(reg.get(b), 5);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["aa_first", "zz_last"]);
        assert_eq!(snap["zz_last"], 5);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("events_popped");
        reg.counter("events_popped");
    }

    #[test]
    fn diagnostics_split_from_the_report_snapshot() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("events");
        let d = reg.diagnostic("flows_absorbed");
        reg.add(c, 3);
        reg.set(d, 42);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1, "diagnostics stay off the report surface");
        assert_eq!(snap["events"], 3);
        let diag = reg.diagnostics_snapshot();
        assert_eq!(diag.len(), 1);
        assert_eq!(diag["flows_absorbed"], 42);
        // Reads treat both classes identically.
        assert_eq!(reg.get(d), 42);
    }
}
