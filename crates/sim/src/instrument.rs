//! The engine's telemetry bundle: tracer and layer profile.
//!
//! Everything the hot path needs is condensed into one cached bitmask
//! check ([`Instruments::on`]) so an untraced run pays a
//! single predictable branch per potential trace point. Trace emission
//! only spends effort when enabled, and the layer profile is charged at
//! batch boundaries, never per event; the engine's counters are plain
//! `Stats` fields.

use epnet_telemetry::{Profile, TraceCategory, Tracer};

/// The simulator's telemetry state.
#[derive(Debug, Default)]
pub(crate) struct Instruments {
    /// Cached copy of the tracer's category mask; 0 without a tracer,
    /// so `on()` is one load-and-test regardless of configuration.
    mask: u32,
    tracer: Option<Tracer>,
    pub profile: Profile,
}

impl Instruments {
    /// Attaches `tracer`, replacing any earlier one.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mask = tracer.mask();
        self.tracer = Some(tracer);
    }

    /// Whether `cat` is traced — the hot-path gate.
    #[inline]
    pub fn on(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }

    /// The tracer; call only under an [`Instruments::on`] check.
    #[inline]
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer.as_mut().expect("tracer checked via on()")
    }

    /// Flushes the tracer, if any.
    pub fn flush(&mut self) {
        if let Some(t) = &mut self.tracer {
            t.flush();
        }
    }
}
