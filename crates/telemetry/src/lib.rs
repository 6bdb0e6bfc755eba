//! Observability layer for the epnet simulator.
//!
//! Two independent facilities, designed so each costs nothing when
//! unused:
//!
//! - [`trace`] — a structured trace layer: typed, sim-timestamped
//!   events (controller decisions, link reactivations, credit
//!   block/unblock, adaptive-routing detours)
//!   written as JSONL through a pluggable [`trace::TraceSink`].
//!   Enabled per run by `EPNET_TRACE=<path>` and narrowed with
//!   `EPNET_TRACE_FILTER=<cat>,<cat>,...` (parsed by the simulator's
//!   run options, through [`trace::parse_filter`]).
//! - [`profile`] — a wall-clock phase profiler that accumulates
//!   explicitly measured durations by phase name, attributing host
//!   time to the coarse phases of a run: warmup, measurement,
//!   controller, fluid advance, report finalization.
//!
//! [`schema`] validates trace files against the documented per-category
//! key sets (see DESIGN.md "Observability"), [`export`] converts parsed
//! traces to the Chrome Trace Event / Perfetto JSON format for
//! interactive viewing, and [`summary`] renders the one-line end-of-run
//! summary the CLI and bench binaries print to stderr unless
//! `EPNET_QUIET=1`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod export;
pub mod profile;
pub mod schema;
pub mod summary;
pub mod trace;

pub use export::{chrome_trace, chrome_trace_from_jsonl, ChromeTrace, TrackLayout};
pub use profile::{Phase, Profiler};
pub use schema::{parse_jsonl, validate_jsonl, TraceRecord, TraceStats};
pub use summary::RunTotals;
pub use trace::{FileSink, MemorySink, TraceCategory, TraceSink, Tracer};
