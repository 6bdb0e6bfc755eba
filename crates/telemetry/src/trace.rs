//! Structured trace layer: typed simulator events serialized as JSONL.
//!
//! Every record is one JSON object per line with two common keys —
//! `at_ps` (simulated picoseconds) and `cat` (the category name) —
//! followed by the category's own fields. The full schema is
//! documented in DESIGN.md ("Observability") and enforced by
//! [`crate::schema::validate_jsonl`].
//!
//! A [`Tracer`] owns a category bitmask and a sink; emitters are
//! no-ops for masked-out categories. The simulator keeps the mask
//! cached so that a disabled tracer costs a single branch on the hot
//! path.

use serde::Value;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Trace event categories, one bit each in the tracer's filter mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Per-epoch link-rate controller decisions (§3.3 heuristics).
    Controller,
    /// Link reactivation windows: a `start` when a rate change begins
    /// charging its penalty, an `end` when the link carries traffic
    /// again.
    Reactivation,
    /// Channel flow control: `block` when a packet stalls on credits,
    /// `unblock` when the credit wake fires.
    Credit,
    /// Adaptive-routing (UGAL) detours chosen over the minimal path.
    Detour,
}

impl TraceCategory {
    /// Every category, in mask-bit order.
    pub const ALL: [TraceCategory; 4] = [
        TraceCategory::Controller,
        TraceCategory::Reactivation,
        TraceCategory::Credit,
        TraceCategory::Detour,
    ];

    /// Mask with every category enabled.
    pub const ALL_MASK: u32 = (1 << Self::ALL.len()) - 1;

    /// This category's bit in a filter mask.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << self as u32
    }

    /// Stable lowercase name, used as the `cat` field and accepted by
    /// `EPNET_TRACE_FILTER`.
    pub const fn name(self) -> &'static str {
        match self {
            TraceCategory::Controller => "controller",
            TraceCategory::Reactivation => "reactivation",
            TraceCategory::Credit => "credit",
            TraceCategory::Detour => "detour",
        }
    }

    /// Parses a category name as written in `EPNET_TRACE_FILTER`.
    pub fn from_name(name: &str) -> Option<TraceCategory> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Every valid category name, comma-separated — the vocabulary
    /// quoted by [`parse_filter`]'s error message.
    pub fn name_list() -> String {
        Self::ALL
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Parses a comma-separated `EPNET_TRACE_FILTER` value into a mask.
///
/// Whitespace around entries is ignored; an empty string (or only
/// separators) means "everything".
///
/// # Errors
///
/// An unknown name is rejected with a message naming the offender and
/// listing every valid category — a typo must fail loudly rather than
/// silently narrowing the filter and producing a trace that is missing
/// the categories the user asked for.
pub fn parse_filter(filter: &str) -> Result<u32, String> {
    let mut mask = 0u32;
    let mut saw_any = false;
    for part in filter.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        saw_any = true;
        match TraceCategory::from_name(part) {
            Some(cat) => mask |= cat.bit(),
            None => {
                return Err(format!(
                    "unknown trace category '{part}' in EPNET_TRACE_FILTER; \
                     valid categories: {}",
                    TraceCategory::name_list()
                ))
            }
        }
    }
    Ok(if saw_any {
        mask
    } else {
        TraceCategory::ALL_MASK
    })
}

/// Destination for rendered trace lines (no trailing newline).
pub trait TraceSink: Send {
    /// Writes one JSONL record.
    fn line(&mut self, line: &str);
    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// Buffered file sink; flushed on drop.
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
}

impl FileSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error when the file cannot be
    /// created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<FileSink> {
        Ok(FileSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl TraceSink for FileSink {
    fn line(&mut self, line: &str) {
        // A full disk mid-trace should not abort a simulation that is
        // otherwise deterministic; drop the line instead.
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        TraceSink::flush(self);
    }
}

/// In-memory sink for tests and programmatic consumers. Cloning
/// shares the buffer, so keep a clone to read what the tracer wrote.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    buf: Arc<Mutex<String>>,
}

impl MemorySink {
    /// An empty shared buffer.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Everything written so far, newline-terminated per record.
    pub fn contents(&self) -> String {
        self.buf.lock().expect("trace buffer lock").clone()
    }
}

impl TraceSink for MemorySink {
    fn line(&mut self, line: &str) {
        let mut buf = self.buf.lock().expect("trace buffer lock");
        buf.push_str(line);
        buf.push('\n');
    }
}

/// Emits typed trace records for enabled categories into a sink.
pub struct Tracer {
    mask: u32,
    sink: Box<dyn TraceSink>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("mask", &self.mask).finish()
    }
}

impl Tracer {
    /// A tracer writing categories in `mask` to `sink`.
    pub fn new(sink: impl TraceSink + 'static, mask: u32) -> Tracer {
        Tracer {
            mask,
            sink: Box::new(sink),
        }
    }

    /// The category filter mask.
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether `cat` passes the filter.
    #[inline]
    pub fn enabled(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }

    fn emit(&mut self, cat: TraceCategory, at_ps: u64, fields: Vec<(String, Value)>) {
        if !self.enabled(cat) {
            return;
        }
        let mut record = Vec::with_capacity(fields.len() + 2);
        record.push(("at_ps".into(), Value::U64(at_ps)));
        record.push(("cat".into(), Value::Str(cat.name().into())));
        record.extend(fields);
        let line = serde_json::to_string(&Value::Map(record)).expect("value tree serializes");
        self.sink.line(&line);
    }

    /// Records an epoch controller decision on one channel.
    pub fn controller(
        &mut self,
        at_ps: u64,
        channel: u32,
        utilization: f64,
        old_rate: &str,
        new_rate: &str,
        reason: &str,
    ) {
        self.emit(
            TraceCategory::Controller,
            at_ps,
            vec![
                ("channel".into(), Value::U64(channel as u64)),
                ("utilization".into(), Value::F64(utilization)),
                ("old_rate".into(), Value::Str(old_rate.into())),
                ("new_rate".into(), Value::Str(new_rate.into())),
                ("reason".into(), Value::Str(reason.into())),
            ],
        );
    }

    /// Records a reactivation window boundary (`phase` is `start` or
    /// `end`); `until_ps` carries the scheduled end for `start`
    /// records.
    pub fn reactivation(
        &mut self,
        at_ps: u64,
        channel: u32,
        phase: &str,
        rate: &str,
        until_ps: Option<u64>,
    ) {
        let mut fields = vec![
            ("channel".into(), Value::U64(channel as u64)),
            ("phase".into(), Value::Str(phase.into())),
            ("rate".into(), Value::Str(rate.into())),
        ];
        if let Some(until) = until_ps {
            fields.push(("until_ps".into(), Value::U64(until)));
        }
        self.emit(TraceCategory::Reactivation, at_ps, fields);
    }

    /// Records a channel stalling on credits (`block`) or waking after
    /// a credit return (`unblock`).
    pub fn credit(&mut self, at_ps: u64, channel: u32, phase: &str, needed: u64, credits: u64) {
        self.emit(
            TraceCategory::Credit,
            at_ps,
            vec![
                ("channel".into(), Value::U64(channel as u64)),
                ("phase".into(), Value::Str(phase.into())),
                ("needed".into(), Value::U64(needed)),
                ("credits".into(), Value::U64(credits)),
            ],
        );
    }

    /// Records an adaptive-routing detour: the switch where it was
    /// taken, the output port chosen, and the occupancies that tipped
    /// the UGAL comparison.
    pub fn detour(
        &mut self,
        at_ps: u64,
        switch: u32,
        port: u32,
        detour_occupancy: u64,
        minimal_occupancy: u64,
    ) {
        self.emit(
            TraceCategory::Detour,
            at_ps,
            vec![
                ("switch".into(), Value::U64(switch as u64)),
                ("port".into(), Value::U64(port as u64)),
                ("detour_occupancy".into(), Value::U64(detour_occupancy)),
                ("minimal_occupancy".into(), Value::U64(minimal_occupancy)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing_covers_names_blanks_and_unknowns() {
        assert_eq!(parse_filter(""), Ok(TraceCategory::ALL_MASK));
        assert_eq!(parse_filter(" , ,"), Ok(TraceCategory::ALL_MASK));
        assert_eq!(
            parse_filter("controller"),
            Ok(TraceCategory::Controller.bit())
        );
        assert_eq!(
            parse_filter("controller, reactivation"),
            Ok(TraceCategory::Controller.bit() | TraceCategory::Reactivation.bit())
        );
    }

    /// An unknown name must be rejected with a message naming the
    /// offender and the full valid vocabulary — pinned exactly so the
    /// error stays useful.
    #[test]
    fn filter_parsing_rejects_unknown_names_listing_the_vocabulary() {
        let err = parse_filter("bogus").unwrap_err();
        assert_eq!(
            err,
            "unknown trace category 'bogus' in EPNET_TRACE_FILTER; valid categories: \
             controller, reactivation, credit, detour"
        );
        // Valid names before the offender don't rescue the parse, and
        // case matters (names are stable lowercase identifiers).
        assert!(parse_filter("credit,bogus").is_err());
        assert!(parse_filter("Controller").is_err());
    }

    #[test]
    fn category_names_round_trip() {
        for cat in TraceCategory::ALL {
            assert_eq!(TraceCategory::from_name(cat.name()), Some(cat));
        }
        assert_eq!(TraceCategory::from_name("Controller"), None);
    }

    #[test]
    fn masked_categories_are_not_written() {
        let sink = MemorySink::new();
        let mut tracer = Tracer::new(sink.clone(), TraceCategory::Controller.bit());
        tracer.controller(10, 3, 0.75, "10 Gb/s", "20 Gb/s", "upshift");
        tracer.detour(20, 1, 2, 5, 9);
        let lines: Vec<String> = sink.contents().lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 1, "masked detour record must not appear");
        assert!(lines[0].contains("\"cat\":\"controller\""));
        assert!(lines[0].contains("\"at_ps\":10"));
    }

    #[test]
    fn records_parse_back_as_json() {
        let sink = MemorySink::new();
        let mut tracer = Tracer::new(sink.clone(), TraceCategory::ALL_MASK);
        tracer.controller(1, 0, 0.5, "10 Gb/s", "5 Gb/s", "downshift");
        tracer.reactivation(2, 0, "start", "5 Gb/s", Some(12));
        tracer.reactivation(12, 0, "end", "5 Gb/s", None);
        tracer.credit(3, 7, "block", 2048, 100);
        tracer.detour(5, 3, 1, 4, 9);
        let text = sink.contents();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("line parses");
            assert!(v.get("at_ps").and_then(serde::Value::as_u64).is_some());
            assert!(v.get("cat").and_then(serde::Value::as_str).is_some());
        }
    }
}
