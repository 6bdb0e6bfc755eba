//! The engine's telemetry bundle: tracer, metrics, and phase profiler.
//!
//! Everything the hot path needs is condensed into one cached bitmask
//! check ([`Instruments::on`]) so an untraced run pays a
//! single predictable branch per potential trace point. The metrics
//! registry is always on — its
//! counters are plain array adds and feed `SimReport.metrics`
//! unconditionally — while trace emission and the wall-clock profiler
//! only spend effort when enabled or at run granularity.

use epnet_telemetry::{CounterId, FileSink, MetricsRegistry, Profiler, TraceCategory, Tracer};

use crate::env::TraceOptions;

/// Dense ids of every metric the engine maintains.
///
/// Registered once at simulator construction; all values are derived
/// purely from simulated behavior, so the snapshot is byte-identical
/// across route modes, epoch modes, and tracing on/off — the determinism tests compare full serialized reports,
/// metrics included.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricIds {
    /// `Workload` events popped.
    pub ev_workload: CounterId,
    /// `TxDone` events popped.
    pub ev_tx_done: CounterId,
    /// `Arrive` events popped.
    pub ev_arrive: CounterId,
    /// `CreditWake` events popped.
    pub ev_credit_wake: CounterId,
    /// `Retry` events popped.
    pub ev_retry: CounterId,
    /// `EpochTick` events popped.
    pub ev_epoch_tick: CounterId,
    /// Times `try_tx` found the head packet short on credits.
    pub credit_blocked_tries: CounterId,
    /// Transmission trains completed (`TxDone` batches).
    pub tx_trains: CounterId,
    /// Packets carried by completed trains (mean batch size =
    /// `tx_train_packets / tx_trains`).
    pub tx_train_packets: CounterId,
    /// Largest completed train, in packets.
    pub tx_train_max_packets: CounterId,
    /// UGAL detours actually taken.
    pub detours_taken: CounterId,
    /// Channel queue-depth samples taken at epoch boundaries.
    pub epoch_queue_samples: CounterId,
    /// Sum of sampled queue depths, bytes (mean depth =
    /// `epoch_queue_bytes_sum / epoch_queue_samples`).
    pub epoch_queue_bytes_sum: CounterId,
    /// Largest queue depth seen at an epoch boundary, bytes.
    pub epoch_queue_bytes_peak: CounterId,
    /// Channel-time per ladder rate, picoseconds (slowest first), set
    /// once at finish from the residency totals.
    pub residency_ps: [CounterId; 5],
    /// Channel-time powered off, picoseconds.
    pub residency_off_ps: CounterId,
    // ---- hybrid-model diagnostics ----
    // Also diagnostic: they are zero in packet mode, and a new *counter*
    // would change the serialized metrics map and break packet-mode
    // byte-identity with pre-hybrid reports.
    /// Messages absorbed into the fluid regime (hybrid model).
    pub flows_absorbed: CounterId,
    /// Flows demoted back to packets at a regime boundary.
    pub flows_demoted: CounterId,
    /// Flows that completed entirely in the fluid regime.
    pub flows_completed: CounterId,
    /// Bytes delivered by fluid flow advancement.
    pub flow_fluid_bytes: CounterId,
    /// High-water mark of concurrently live fluid flows.
    pub flow_table_peak: CounterId,
    /// Flow-table column capacity (slots ever allocated); equals the
    /// peak because the free list recycles released slots.
    pub flow_table_capacity: CounterId,
}

impl MetricIds {
    fn register(m: &mut MetricsRegistry) -> Self {
        Self {
            ev_workload: m.counter("events_workload"),
            ev_tx_done: m.counter("events_tx_done"),
            ev_arrive: m.counter("events_arrive"),
            ev_credit_wake: m.counter("events_credit_wake"),
            ev_retry: m.counter("events_retry"),
            ev_epoch_tick: m.counter("events_epoch_tick"),
            credit_blocked_tries: m.counter("credit_blocked_tries"),
            tx_trains: m.counter("tx_trains"),
            tx_train_packets: m.counter("tx_train_packets"),
            tx_train_max_packets: m.counter("tx_train_max_packets"),
            detours_taken: m.counter("detours_taken"),
            epoch_queue_samples: m.counter("epoch_queue_samples"),
            epoch_queue_bytes_sum: m.counter("epoch_queue_bytes_sum"),
            epoch_queue_bytes_peak: m.counter("epoch_queue_bytes_peak"),
            residency_ps: [
                m.counter("residency_ps_2500mbps"),
                m.counter("residency_ps_5000mbps"),
                m.counter("residency_ps_10000mbps"),
                m.counter("residency_ps_20000mbps"),
                m.counter("residency_ps_40000mbps"),
            ],
            residency_off_ps: m.counter("residency_ps_off"),
            flows_absorbed: m.diagnostic("flows_absorbed"),
            flows_demoted: m.diagnostic("flows_demoted"),
            flows_completed: m.diagnostic("flows_completed"),
            flow_fluid_bytes: m.diagnostic("flow_fluid_bytes"),
            flow_table_peak: m.diagnostic("flow_table_peak"),
            flow_table_capacity: m.diagnostic("flow_table_capacity"),
        }
    }
}

/// The simulator's telemetry state.
#[derive(Debug)]
pub(crate) struct Instruments {
    /// Cached copy of the tracer's category mask; 0 without a tracer,
    /// so `on()` is one load-and-test regardless of configuration.
    mask: u32,
    tracer: Option<Tracer>,
    pub metrics: MetricsRegistry,
    pub ids: MetricIds,
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
        let mut metrics = MetricsRegistry::new();
        let ids = MetricIds::register(&mut metrics);
        Self {
            mask: tracer.as_ref().map_or(0, Tracer::mask),
            tracer,
            metrics,
            ids,
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
