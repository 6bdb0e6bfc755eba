//! Observability layer for the epnet simulator.
//!
//! Two independent facilities: tracing costs one branch per trace
//! point when off, and the profile a few clock reads per epoch tick.
//!
//! - [`trace`] — a structured trace layer: typed, sim-timestamped
//!   events (controller decisions, link reactivations, credit
//!   block/unblock, adaptive-routing detours)
//!   written as JSONL through a pluggable [`trace::TraceSink`]. A run
//!   is traced by attaching a [`Tracer`] (a [`FileSink`] or
//!   [`MemorySink`] and a category mask) with the simulator's
//!   `set_tracer`.
//! - [`profile`] — a run's host time by engine layer: six fixed,
//!   non-overlapping slots (events, fluid advance, controller, epoch
//!   sample, dyntopo, finalize) that add up to the run's wall time.
//!
//! [`schema`] validates trace files against the documented per-category
//! key sets (see DESIGN.md "Observability"), and [`export`] converts
//! parsed traces to the Chrome Trace Event / Perfetto JSON format for
//! interactive viewing.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod export;
pub mod profile;
pub mod schema;
pub mod trace;

pub use export::{chrome_trace, chrome_trace_from_jsonl, ChromeTrace, TrackLayout};
pub use profile::{Layer, Profile};
pub use schema::{parse_jsonl, validate_jsonl, TraceRecord, TraceStats};
pub use trace::{FileSink, MemorySink, TraceCategory, TraceSink, Tracer};
