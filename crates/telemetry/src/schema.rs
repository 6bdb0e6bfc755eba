//! Trace-file schema: typed parsing and validation of JSONL traces.
//!
//! The documented contract (DESIGN.md "Observability") is: every line
//! is a JSON object carrying `at_ps` (u64) and `cat` (a known
//! category name), plus the category's required keys. This module is
//! the single source of truth the smoke suite validates against, so
//! emitter drift fails fast instead of silently producing charts from
//! garbage.

use crate::trace::TraceCategory;
use serde::Value;
use std::collections::BTreeMap;

/// One parsed trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A per-epoch controller decision.
    Controller {
        /// Simulated time of the epoch boundary, picoseconds.
        at_ps: u64,
        /// Channel index the decision applies to.
        channel: u32,
        /// Measured utilization over the closing epoch, 0.0..=1.0.
        utilization: f64,
        /// Rate before the decision (display form, e.g. `10 Gb/s`).
        old_rate: String,
        /// Rate chosen by the policy.
        new_rate: String,
        /// Why: `hold`, `upshift`, `downshift`, `drain_deferred`, or
        /// `drain_cancelled`.
        reason: String,
    },
    /// A reactivation window boundary.
    Reactivation {
        /// Simulated time, picoseconds.
        at_ps: u64,
        /// Channel index.
        channel: u32,
        /// `start` or `end`.
        phase: String,
        /// Rate the link is transitioning to.
        rate: String,
        /// Scheduled end of the window (on `start` records).
        until_ps: Option<u64>,
    },
    /// A credit-flow stall or wake.
    Credit {
        /// Simulated time, picoseconds.
        at_ps: u64,
        /// Channel index.
        channel: u32,
        /// `block` or `unblock`.
        phase: String,
        /// Bytes of credit the stalled packet needs.
        needed: u64,
        /// Credits available when the record was emitted.
        credits: u64,
    },
    /// An adaptive-routing detour.
    Detour {
        /// Simulated time, picoseconds.
        at_ps: u64,
        /// Switch where the detour was taken.
        switch: u32,
        /// Output port chosen.
        port: u32,
        /// Queue occupancy of the detour port (bytes).
        detour_occupancy: u64,
        /// Queue occupancy of the best minimal port (bytes).
        minimal_occupancy: u64,
    },
}

impl TraceRecord {
    /// Simulated timestamp of the record.
    pub fn at_ps(&self) -> u64 {
        match *self {
            TraceRecord::Controller { at_ps, .. }
            | TraceRecord::Reactivation { at_ps, .. }
            | TraceRecord::Credit { at_ps, .. }
            | TraceRecord::Detour { at_ps, .. } => at_ps,
        }
    }

    /// The record's category.
    pub fn category(&self) -> TraceCategory {
        match self {
            TraceRecord::Controller { .. } => TraceCategory::Controller,
            TraceRecord::Reactivation { .. } => TraceCategory::Reactivation,
            TraceRecord::Credit { .. } => TraceCategory::Credit,
            TraceRecord::Detour { .. } => TraceCategory::Detour,
        }
    }
}

/// Per-category line counts from a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total records parsed.
    pub lines: usize,
    /// Records per category name.
    pub per_category: BTreeMap<String, usize>,
}

impl TraceStats {
    /// Counts parsed records per category.
    pub fn from_records(records: &[TraceRecord]) -> TraceStats {
        let mut stats = TraceStats {
            lines: records.len(),
            per_category: BTreeMap::new(),
        };
        for r in records {
            *stats
                .per_category
                .entry(r.category().name().to_owned())
                .or_insert(0) += 1;
        }
        stats
    }

    /// Records counted for `cat`.
    pub fn count(&self, cat: TraceCategory) -> usize {
        self.per_category.get(cat.name()).copied().unwrap_or(0)
    }
}

fn req_u64(v: &Value, line_no: usize, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing or non-integer '{key}'"))
}

fn req_u32(v: &Value, line_no: usize, key: &str) -> Result<u32, String> {
    u32::try_from(req_u64(v, line_no, key)?)
        .map_err(|_| format!("line {line_no}: '{key}' out of u32 range"))
}

fn req_f64(v: &Value, line_no: usize, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line {line_no}: missing or non-numeric '{key}'"))
}

fn req_str(v: &Value, line_no: usize, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("line {line_no}: missing or non-string '{key}'"))
}

fn req_one_of(v: &Value, line_no: usize, key: &str, allowed: &[&str]) -> Result<String, String> {
    let s = req_str(v, line_no, key)?;
    if allowed.contains(&s.as_str()) {
        Ok(s)
    } else {
        Err(format!(
            "line {line_no}: '{key}' is '{s}', expected one of {allowed:?}"
        ))
    }
}

/// Parses a JSONL trace into typed records, rejecting the first
/// malformed line.
///
/// # Errors
///
/// Describes the first offending line (1-based) and what it is
/// missing. Blank lines are allowed (and skipped) so a trailing
/// newline never fails a trace.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("line {line_no}: not JSON: {e}"))?;
        let at_ps = req_u64(&v, line_no, "at_ps")?;
        let cat_name = req_str(&v, line_no, "cat")?;
        let cat = TraceCategory::from_name(&cat_name)
            .ok_or_else(|| format!("line {line_no}: unknown category '{cat_name}'"))?;
        let record = match cat {
            TraceCategory::Controller => TraceRecord::Controller {
                at_ps,
                channel: req_u32(&v, line_no, "channel")?,
                utilization: req_f64(&v, line_no, "utilization")?,
                old_rate: req_str(&v, line_no, "old_rate")?,
                new_rate: req_str(&v, line_no, "new_rate")?,
                reason: req_str(&v, line_no, "reason")?,
            },
            TraceCategory::Reactivation => TraceRecord::Reactivation {
                at_ps,
                channel: req_u32(&v, line_no, "channel")?,
                phase: req_one_of(&v, line_no, "phase", &["start", "end"])?,
                rate: req_str(&v, line_no, "rate")?,
                until_ps: v.get("until_ps").and_then(Value::as_u64),
            },
            TraceCategory::Credit => TraceRecord::Credit {
                at_ps,
                channel: req_u32(&v, line_no, "channel")?,
                phase: req_one_of(&v, line_no, "phase", &["block", "unblock"])?,
                needed: req_u64(&v, line_no, "needed")?,
                credits: req_u64(&v, line_no, "credits")?,
            },
            TraceCategory::Detour => TraceRecord::Detour {
                at_ps,
                switch: req_u32(&v, line_no, "switch")?,
                port: req_u32(&v, line_no, "port")?,
                detour_occupancy: req_u64(&v, line_no, "detour_occupancy")?,
                minimal_occupancy: req_u64(&v, line_no, "minimal_occupancy")?,
            },
        };
        records.push(record);
    }
    Ok(records)
}

/// Validates a JSONL trace against the documented schema, returning
/// per-category counts.
///
/// # Errors
///
/// Same contract as [`parse_jsonl`].
pub fn validate_jsonl(text: &str) -> Result<TraceStats, String> {
    parse_jsonl(text).map(|records| TraceStats::from_records(&records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemorySink, Tracer};

    fn sample_trace() -> String {
        let sink = MemorySink::new();
        let mut t = Tracer::new(sink.clone(), TraceCategory::ALL_MASK);
        t.controller(1_000, 2, 0.82, "10 Gb/s", "20 Gb/s", "upshift");
        t.reactivation(1_000, 2, "start", "20 Gb/s", Some(2_000));
        t.reactivation(2_000, 2, "end", "20 Gb/s", None);
        t.credit(1_500, 4, "block", 2048, 512);
        t.credit(1_700, 4, "unblock", 2048, 4096);
        t.detour(1_800, 3, 5, 100, 900);
        sink.contents()
    }

    #[test]
    fn emitted_records_round_trip_through_the_parser() {
        let text = sample_trace();
        let records = parse_jsonl(&text).expect("emitter output validates");
        assert_eq!(records.len(), 6);
        assert_eq!(
            records[0],
            TraceRecord::Controller {
                at_ps: 1_000,
                channel: 2,
                utilization: 0.82,
                old_rate: "10 Gb/s".into(),
                new_rate: "20 Gb/s".into(),
                reason: "upshift".into(),
            }
        );
        assert_eq!(records[1].category(), TraceCategory::Reactivation);
        assert_eq!(records[1].at_ps(), 1_000);
    }

    /// The schema-drift tripwire: every `TraceRecord` variant, emitted
    /// through its `Tracer` method, must parse back to exactly the
    /// record that describes the emission — field for field, including
    /// optional keys in both states. A mismatch means `trace.rs` and
    /// `schema.rs` disagree about the wire format.
    #[test]
    fn every_variant_round_trips_exactly() {
        let expected = vec![
            TraceRecord::Controller {
                at_ps: 1_000,
                channel: 2,
                utilization: 0.82,
                old_rate: "10 Gb/s".into(),
                new_rate: "20 Gb/s".into(),
                reason: "upshift".into(),
            },
            TraceRecord::Reactivation {
                at_ps: 1_000,
                channel: 2,
                phase: "start".into(),
                rate: "20 Gb/s".into(),
                until_ps: Some(2_000),
            },
            TraceRecord::Reactivation {
                at_ps: 2_000,
                channel: 2,
                phase: "end".into(),
                rate: "20 Gb/s".into(),
                until_ps: None,
            },
            TraceRecord::Credit {
                at_ps: 1_500,
                channel: 4,
                phase: "block".into(),
                needed: 2048,
                credits: 512,
            },
            TraceRecord::Credit {
                at_ps: 1_700,
                channel: 4,
                phase: "unblock".into(),
                needed: 2048,
                credits: 4096,
            },
            TraceRecord::Detour {
                at_ps: 1_800,
                switch: 3,
                port: 5,
                detour_occupancy: 100,
                minimal_occupancy: 900,
            },
        ];
        let parsed = parse_jsonl(&sample_trace()).expect("emitter output validates");
        assert_eq!(parsed, expected, "emitters and schema drifted apart");
        // Each emitted variant carries the category its record claims.
        for (r, cat) in parsed.iter().zip([
            TraceCategory::Controller,
            TraceCategory::Reactivation,
            TraceCategory::Reactivation,
            TraceCategory::Credit,
            TraceCategory::Credit,
            TraceCategory::Detour,
        ]) {
            assert_eq!(r.category(), cat);
        }
    }

    #[test]
    fn stats_count_per_category_and_tolerate_blank_lines() {
        let mut text = sample_trace();
        text.push('\n');
        let stats = validate_jsonl(&text).expect("validates");
        assert_eq!(stats.lines, 6);
        assert_eq!(stats.count(TraceCategory::Controller), 1);
        assert_eq!(stats.count(TraceCategory::Reactivation), 2);
        assert_eq!(stats.count(TraceCategory::Credit), 2);
        assert_eq!(stats.count(TraceCategory::Detour), 1);
        assert_eq!(validate_jsonl("").expect("empty is valid").lines, 0);
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = validate_jsonl("not json").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = validate_jsonl(r#"{"cat":"controller"}"#).unwrap_err();
        assert!(err.contains("at_ps"), "{err}");
        let err = validate_jsonl(r#"{"at_ps":5,"cat":"nope"}"#).unwrap_err();
        assert!(err.contains("unknown category"), "{err}");
        // A controller record missing its reason must fail.
        let err = validate_jsonl(
            r#"{"at_ps":5,"cat":"controller","channel":1,"utilization":0.5,"old_rate":"a","new_rate":"b"}"#,
        )
        .unwrap_err();
        assert!(err.contains("reason"), "{err}");
        // Phase fields are constrained to their vocabulary.
        let err = validate_jsonl(
            r#"{"at_ps":5,"cat":"credit","channel":1,"phase":"stall","needed":1,"credits":0}"#,
        )
        .unwrap_err();
        assert!(err.contains("expected one of"), "{err}");
        // The retired parallel-engine window and route-table rebuild
        // records are not in the vocabulary.
        for retired in [
            r#"{"at_ps":5,"cat":"parallel","start_ps":1,"shards":2,"events":3}"#,
            r#"{"at_ps":0,"cat":"routes","generation":0,"build_ns":1,"entries":2}"#,
        ] {
            let err = validate_jsonl(retired).unwrap_err();
            assert!(err.contains("unknown category"), "{err}");
        }
    }
}
