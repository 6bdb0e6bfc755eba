//! Host-time profile of one run, by engine layer.
//!
//! A [`Profile`] charges wall time into a fixed array with one slot
//! per [`Layer`]. The layers do not overlap: a span that encloses
//! other layers' spans is charged with [`Profile::charge_since`], which
//! subtracts whatever they took, so the six slots add up to the run's
//! wall time. The engine times at batch boundaries (one `advance_until`
//! call, one epoch sub-step), never per event, and the profile never
//! allocates.
//!
//! Wall-clock numbers are inherently nondeterministic, so the profile
//! is *excluded* from serialized reports; it surfaces only through
//! bench records and binaries' stderr.

use std::fmt;
use std::time::{Duration, Instant};

/// One engine layer of a run's host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Event dispatch and the packet handlers: each `advance_until`
    /// call's wall time less the epoch layers inside it, plus priming.
    Events,
    /// Fluid flows moving their bytes (hybrid model), at each epoch
    /// tick and once more at the horizon.
    FluidAdvance,
    /// The epoch controller's rate decisions.
    Controller,
    /// The epoch's link-asymmetry and queue-depth samples, overhang
    /// recharge and active-set retire.
    EpochSample,
    /// The dynamic-topology pass.
    Dyntopo,
    /// Closing the run into a report, and dropping the engine state
    /// the report does not keep.
    Finalize,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 6;

    /// Every layer, in slot order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Events,
        Layer::FluidAdvance,
        Layer::Controller,
        Layer::EpochSample,
        Layer::Dyntopo,
        Layer::Finalize,
    ];

    /// The layer's name in bench records and summaries.
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Events => "events",
            Layer::FluidAdvance => "fluid_advance",
            Layer::Controller => "controller",
            Layer::EpochSample => "epoch_sample",
            Layer::Dyntopo => "dyntopo",
            Layer::Finalize => "finalize",
        }
    }
}

/// The profile total when an enclosing span opened
/// ([`Profile::mark`]).
#[derive(Debug, Clone, Copy)]
pub struct Mark(u64);

/// Accumulated wall nanoseconds per [`Layer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    ns: [u64; Layer::COUNT],
}

fn nanos(wall: Duration) -> u64 {
    u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX)
}

impl Profile {
    /// Adds `wall` to `layer`.
    pub fn charge(&mut self, layer: Layer, wall: Duration) {
        let slot = &mut self.ns[layer as usize];
        *slot = slot.saturating_add(nanos(wall));
    }

    /// Charges `layer` with the time since `since` and returns now, the
    /// start of the next sub-step.
    pub fn lap(&mut self, layer: Layer, since: Instant) -> Instant {
        let now = Instant::now();
        self.charge(layer, now - since);
        now
    }

    /// Marks the opening of an enclosing span, for
    /// [`Profile::charge_since`].
    pub fn mark(&self) -> Mark {
        Mark(self.total_ns())
    }

    /// Charges `layer` with an enclosing span's `wall` time less what
    /// other layers were charged since `mark`: the span's exclusive
    /// time.
    pub fn charge_since(&mut self, layer: Layer, mark: Mark, wall: Duration) {
        let nested = self.total_ns().saturating_sub(mark.0);
        self.charge(
            layer,
            Duration::from_nanos(nanos(wall).saturating_sub(nested)),
        );
    }

    /// Nanoseconds charged to `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Milliseconds charged to `layer`.
    pub fn ms(&self, layer: Layer) -> f64 {
        self.ns(layer) as f64 / 1e6
    }

    /// Nanoseconds charged to every layer together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0, |a, &b| a.saturating_add(b))
    }
}

/// `events 1.23ms, fluid_advance 0.00ms, …`: every layer, in slot
/// order.
impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{} {:.2}ms", layer.name(), self.ms(layer))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_charging_is_exclusive() {
        let mut p = Profile::default();
        p.charge(Layer::Events, Duration::from_nanos(5));
        let mark = p.mark();
        p.charge(Layer::FluidAdvance, Duration::from_nanos(20));
        p.charge(Layer::Controller, Duration::from_nanos(30));
        p.charge_since(Layer::Events, mark, Duration::from_nanos(100));
        // The enclosing span kept only its own 50 ns of its 100 ns.
        assert_eq!(p.ns(Layer::Events), 5 + 50);
        assert_eq!(p.ns(Layer::FluidAdvance), 20);
        assert_eq!(p.ns(Layer::Controller), 30);
        assert_eq!(p.total_ns(), 5 + 100);
        // Children that outlast their parent leave it nothing, not a
        // wrapped negative.
        let mark = p.mark();
        p.charge(Layer::Dyntopo, Duration::from_nanos(10));
        p.charge_since(Layer::Finalize, mark, Duration::from_nanos(7));
        assert_eq!(p.ns(Layer::Finalize), 0);
    }

    #[test]
    fn wall_ms_is_fractional_milliseconds() {
        let mut p = Profile::default();
        p.charge(Layer::Finalize, Duration::from_nanos(1_234_567));
        assert!((p.ms(Layer::Finalize) - 1.234567).abs() < 1e-12);
        assert_eq!(p.ms(Layer::Events), 0.0);
    }

    #[test]
    fn accumulation_saturates_instead_of_wrapping() {
        let mut p = Profile::default();
        // A duration whose nanosecond count exceeds u64 clamps on
        // entry, and further accumulation pins at the ceiling.
        p.charge(Layer::Events, Duration::from_secs(u64::MAX));
        assert_eq!(p.ns(Layer::Events), u64::MAX);
        p.charge(Layer::Events, Duration::from_nanos(1));
        assert_eq!(p.ns(Layer::Events), u64::MAX);
        p.charge(Layer::Controller, Duration::from_nanos(1));
        assert_eq!(p.total_ns(), u64::MAX);
    }

    #[test]
    fn formatting_is_stable() {
        let mut p = Profile::default();
        p.charge(Layer::Events, Duration::from_micros(1_500));
        p.charge(Layer::Finalize, Duration::from_micros(250));
        assert_eq!(
            p.to_string(),
            "events 1.50ms, fluid_advance 0.00ms, controller 0.00ms, \
             epoch_sample 0.00ms, dyntopo 0.00ms, finalize 0.25ms"
        );
    }

    #[test]
    fn names_are_distinct_and_in_slot_order() {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            assert_eq!(layer as usize, i);
            assert!(!Layer::ALL[..i].iter().any(|l| l.name() == layer.name()));
        }
    }
}
