//! Wall-clock phase profiling.
//!
//! A [`Profiler`] accumulates host time by phase name — warmup,
//! measurement, controller, fluid advance, report finalization — from
//! explicitly measured [`std::time::Duration`]s (the run loop
//! straddles the warmup/measurement boundary, so the engine times its
//! phases itself and records them). Phases keep first-use order,
//! which matches a run's chronology.
//!
//! Wall-clock numbers are inherently nondeterministic, so phase
//! breakdowns are *excluded* from serialized reports; they surface
//! only through binaries' stderr summaries and bench output.

use std::time::Duration;

/// One named phase and its accumulated wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name, e.g. `fluid_advance`.
    pub name: &'static str,
    /// Accumulated wall-clock nanoseconds.
    pub wall_ns: u64,
}

impl Phase {
    /// Accumulated wall time in (fractional) milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
}

/// Accumulates wall time per phase name.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Vec<Phase>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Adds `wall` to the named phase, creating it on first use.
    pub fn record(&mut self, name: &'static str, wall: Duration) {
        let ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => p.wall_ns = p.wall_ns.saturating_add(ns),
            None => self.phases.push(Phase { name, wall_ns: ns }),
        }
    }

    /// Recorded phases, in first-use order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Consumes the profiler, yielding its phases.
    pub fn into_phases(self) -> Vec<Phase> {
        self.phases
    }
}

/// Renders phases as `name 1.23ms, name2 0.45ms` for summaries.
pub fn format_phases(phases: &[Phase]) -> String {
    phases
        .iter()
        .map(|p| format!("{} {:.2}ms", p.name, p.wall_ms()))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_name_in_first_use_order() {
        let mut prof = Profiler::new();
        prof.record("warmup", Duration::from_nanos(10));
        prof.record("measurement", Duration::from_nanos(5));
        prof.record("warmup", Duration::from_nanos(7));
        let names: Vec<&str> = prof.phases().iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["warmup", "measurement"]);
        assert_eq!(prof.phases()[0].wall_ns, 17);
        assert_eq!(prof.phases()[1].wall_ns, 5);
    }

    #[test]
    fn wall_ms_is_fractional_milliseconds() {
        let p = Phase {
            name: "x",
            wall_ns: 1_234_567,
        };
        assert!((p.wall_ms() - 1.234567).abs() < 1e-12);
        assert_eq!(
            Phase {
                name: "x",
                wall_ns: 0
            }
            .wall_ms(),
            0.0
        );
    }

    #[test]
    fn accumulation_saturates_instead_of_wrapping() {
        let mut prof = Profiler::new();
        // A duration whose nanosecond count exceeds u64 clamps on
        // entry, and further accumulation pins at the ceiling.
        prof.record("big", Duration::from_secs(u64::MAX));
        assert_eq!(prof.phases()[0].wall_ns, u64::MAX);
        prof.record("big", Duration::from_nanos(1));
        assert_eq!(prof.phases()[0].wall_ns, u64::MAX);
    }

    #[test]
    fn into_phases_yields_first_use_order() {
        let mut prof = Profiler::new();
        prof.record("c", Duration::from_nanos(3));
        prof.record("a", Duration::from_nanos(1));
        prof.record("b", Duration::from_nanos(2));
        let phases = prof.into_phases();
        let names: Vec<&str> = phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["c", "a", "b"],
            "order is chronology, not sorted"
        );
    }

    #[test]
    fn formatting_is_stable() {
        let phases = vec![
            Phase {
                name: "warmup",
                wall_ns: 1_500_000,
            },
            Phase {
                name: "measurement",
                wall_ns: 250_000,
            },
        ];
        assert_eq!(format_phases(&phases), "warmup 1.50ms, measurement 0.25ms");
        assert_eq!(format_phases(&[]), "");
    }
}
