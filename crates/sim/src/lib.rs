//! Event-driven simulator for energy-proportional datacenter networks.
//!
//! This crate is the evaluation vehicle of Abts et&nbsp;al., *Energy
//! Proportional Datacenter Networks* (ISCA 2010, §4): a discrete-event,
//! packet-granularity simulator of a flattened-butterfly fabric whose
//! plesiochronous links can be retuned at runtime between 40, 20, 10, 5
//! and 2.5&nbsp;Gb/s.
//!
//! The pieces:
//!
//! * [`Simulator`] — the engine: credit-based flow control, adaptive
//!   routing on output-queue depth, and the per-epoch link-rate
//!   controller of §3.3 (paired or independent channel control).
//! * [`SimConfig`] — all the §4 knobs: reactivation latency, epoch,
//!   target utilization, control mode, rate policy.
//! * [`TrafficSource`] / [`Message`] — the workload interface
//!   (generators live in `epnet-workloads`).
//! * [`SimReport`] — per-run results: latency, utilization, per-rate
//!   channel residency (Figure 7), and relative network power under any
//!   [`LinkPowerProfile`](epnet_power::LinkPowerProfile) (Figure 8).
//! * [`DynamicTopology`] — the §5.2 extension: powering whole links off
//!   to morph the butterfly into a torus or mesh, and back.
//! * [`Scheduler`] — the pending-event set: a binary heap of 16-byte
//!   entries popping in deterministic `(time, insertion seq)` order,
//!   over any item that packs into 32 bits ([`Payload`]). There is one
//!   engine and it is serial.
//! * [`RunOptions`] — the per-run execution choices, passed explicitly
//!   to [`Simulator::with_options`]; [`Simulator::new`] runs the
//!   defaults. This crate reads no environment variable. None of the
//!   options changes a report except the model: active-set vs sweep
//!   epoch ticks are byte-identical, enforced by
//!   `tests/tests/run_modes.rs` and `tests/tests/epoch_modes.rs`. A
//!   trace is attached with [`Simulator::set_tracer`].
//!
//! # Example
//!
//! ```
//! use epnet_sim::{Message, ReplaySource, SimConfig, SimTime, Simulator};
//! use epnet_topology::{FlattenedButterfly, HostId};
//!
//! let fabric = FlattenedButterfly::new(2, 4, 2)?.build_fabric();
//! let traffic = ReplaySource::new(vec![Message {
//!     at: SimTime::from_us(1),
//!     src: HostId::new(0),
//!     dst: HostId::new(5),
//!     bytes: 16 * 1024,
//! }]);
//! let report = Simulator::new(fabric, SimConfig::default(), traffic)
//!     .run_until(SimTime::from_ms(1));
//! assert_eq!(report.delivered_bytes, 16 * 1024);
//! assert!(report.reconfigurations > 0, "idle links detune");
//! # Ok::<(), epnet_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod channels;
mod config;
mod controller;
mod dyntopo;
mod engine;
mod event;
mod flows;
mod instrument;
mod options;
mod packet;
pub mod sched;
mod stats;
mod time;
mod traffic;

pub use config::{
    ControlMode, RatePolicy, ReactivationModel, ReactivationStrategy, RoutingPolicy, SimConfig,
    SimConfigBuilder,
};
pub use dyntopo::{DynamicTopology, DynamicTopologyConfig};
pub use engine::Simulator;
pub use options::{EpochMode, RunOptions, SimModel};
pub use packet::MessageId;
pub use sched::{Payload, Scheduler};
pub use stats::{LatencyHistogram, RateResidency, SimReport, TimelineEvent};
pub use time::SimTime;
pub use traffic::{MergedSource, Message, ReplaySource, TrafficSource};

// Telemetry types that appear in this crate's public API
// (`Simulator::set_tracer`, `SimReport.layers`) or that embedders need
// to build trace sinks.
pub use epnet_telemetry::{FileSink, Layer, MemorySink, Profile, TraceCategory, Tracer};
