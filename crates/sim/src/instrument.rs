//! The engine's telemetry bundle: tracer and phase profiler.
//!
//! Everything the hot path needs is condensed into one cached bitmask
//! check ([`Instruments::on`]) so an untraced run pays a
//! single predictable branch per potential trace point. Trace emission
//! and the wall-clock profiler only spend effort when enabled or at run
//! granularity; the engine's counters are plain `Stats` fields.

use epnet_telemetry::{FileSink, Profiler, TraceCategory, Tracer};

use crate::env::TraceOptions;

/// The simulator's telemetry state.
#[derive(Debug)]
pub(crate) struct Instruments {
    /// Cached copy of the tracer's category mask; 0 without a tracer,
    /// so `on()` is one load-and-test regardless of configuration.
    mask: u32,
    tracer: Option<Tracer>,
    pub profiler: Profiler,
}

impl TraceOptions {
    /// Opens the trace file. An unwritable path is reported on stderr
    /// and yields no tracer, so a bad trace destination never aborts a
    /// run.
    pub(crate) fn open(&self) -> Option<Tracer> {
        match FileSink::create(&self.path) {
            Ok(sink) => Some(Tracer::new(sink, self.mask)),
            Err(e) => {
                eprintln!(
                    "epnet: cannot create EPNET_TRACE file '{}': {e}",
                    self.path.display()
                );
                None
            }
        }
    }
}

impl Instruments {
    pub fn with_tracer(tracer: Option<Tracer>) -> Self {
        Self {
            mask: tracer.as_ref().map_or(0, Tracer::mask),
            tracer,
            profiler: Profiler::new(),
        }
    }

    /// Replaces the tracer (programmatic sinks; tests).
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
