//! Chrome Trace Event / Perfetto export of structured JSONL traces.
//!
//! Converts parsed [`TraceRecord`]s into the Chrome Trace Event JSON
//! object format (the format `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) both load), so a
//! captured `EPNET_TRACE` run can be scrubbed interactively instead of
//! grepped. The export is purely post-hoc: it reads a finished trace
//! and never touches the simulator, so enabling it cannot perturb a
//! run.
//!
//! # Record → track mapping (normative; mirrored in DESIGN.md)
//!
//! | record | event | track (process / thread) |
//! |---|---|---|
//! | `controller` | instant (`ph:"i"`), named by `reason` | `engine` / `controller decisions` |
//! | `controller` | counter sample (`ph:"C"`) `ch<N> Gb/s` = new rate | owning channel's process |
//! | `reactivation` `start`→`end` | duration slice (`ph:"X"`) `reactivation` | channel's thread |
//! | `credit` `block`→`unblock` | duration slice (`ph:"X"`) `credit stall` | channel's thread |
//! | `detour` | instant `detour` | switch process / `detours` (or `engine` / `detours` without a layout) |
//!
//! Channels are grouped into one process per switch when a
//! [`TrackLayout`] is provided (channel numbering is positional:
//! `0..hosts` are host injection channels, then `ports_per_switch`
//! consecutive output channels per switch — see
//! `epnet_topology::Fabric::output_channel`), which is what keeps a
//! 15-ary 2-flat trace with thousands of channels navigable. Without a
//! layout every channel lands in one flat `channels` process.
//!
//! Timestamps are microseconds (the Chrome trace unit) as exact
//! `f64`s: a picosecond is 1e-6 µs, far inside `f64` resolution for
//! any simulated horizon this engine reaches. Slices are appended when
//! their *closing* record arrives, so the array is not globally
//! ts-sorted — both consumers sort on load, as the format allows.
//!
//! The top-level object carries an `epnet` key with per-category
//! source-record counts; `tracesmoke` cross-checks them against the
//! [`crate::schema::TraceStats`] of the input so an export that
//! silently drops records fails the smoke suite.

use crate::schema::TraceRecord;
use serde::Value;
use std::collections::{BTreeMap, HashSet};

/// Process id for controller decisions.
const PID_ENGINE: u64 = 1;
/// Process id for host injection channels (with a layout) or for the
/// single flat channel group (without one).
const PID_CHANNELS: u64 = 2;
/// First switch process id; switch `s` is `PID_SWITCH_BASE + s`.
const PID_SWITCH_BASE: u64 = 3;

/// Positional channel numbering of the fabric, used to group channel
/// tracks into one process per switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackLayout {
    /// Host count: channels `0..hosts` are injection channels.
    pub hosts: u32,
    /// Output channels per switch, consecutive after the hosts.
    pub ports_per_switch: u32,
}

impl TrackLayout {
    /// `(pid, tid, process name, thread name)` of a channel's track.
    fn channel_home(&self, channel: u32) -> (u64, u64, String, String) {
        if channel < self.hosts {
            (
                PID_CHANNELS,
                u64::from(channel) + 1,
                "hosts".to_string(),
                format!("ch{channel} host{channel}"),
            )
        } else {
            let local = channel - self.hosts;
            let switch = local / self.ports_per_switch;
            let port = local % self.ports_per_switch;
            (
                PID_SWITCH_BASE + u64::from(switch),
                u64::from(port) + 1,
                format!("switch {switch}"),
                format!("ch{channel} port{port}"),
            )
        }
    }

    /// `(pid, tid, process name, thread name)` of a switch's marker
    /// thread (detours); sorts after the channel threads.
    fn switch_markers(&self, switch: u32) -> (u64, u64, String, String) {
        (
            PID_SWITCH_BASE + u64::from(switch),
            u64::from(self.ports_per_switch) + 1,
            format!("switch {switch}"),
            "detours".to_string(),
        )
    }
}

/// A rendered chrome-trace export plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    /// The trace as one JSON object (`traceEvents`, `displayTimeUnit`,
    /// `epnet` stats).
    pub json: String,
    /// Trace events emitted (instants, slices, counter samples).
    pub trace_events: usize,
    /// Metadata events emitted (process/thread names).
    pub metadata_events: usize,
    /// Source records consumed, per category name — comparable to
    /// [`crate::schema::TraceStats::per_category`].
    pub records: BTreeMap<String, usize>,
}

/// Picoseconds → chrome-trace microseconds.
fn us(ps: u64) -> Value {
    Value::F64(ps as f64 / 1e6)
}

/// Parses the numeric prefix of a rate's display form (`"2.5 Gb/s"`).
fn parse_gbps(rate: &str) -> Option<f64> {
    rate.split_whitespace().next()?.parse().ok()
}

/// Incremental builder: events plus lazily registered track metadata.
struct Builder {
    layout: Option<TrackLayout>,
    events: Vec<Value>,
    meta: Vec<Value>,
    named_processes: HashSet<u64>,
    named_threads: HashSet<(u64, u64)>,
    /// Open reactivation window per channel: `(start_ps, rate, until)`.
    open_reactivation: BTreeMap<u32, (u64, String, Option<u64>)>,
    /// Open credit stall per channel: `(block_ps, needed, credits)`.
    open_credit: BTreeMap<u32, (u64, u64, u64)>,
}

impl Builder {
    fn new(layout: Option<TrackLayout>) -> Builder {
        Builder {
            layout,
            events: Vec::new(),
            meta: Vec::new(),
            named_processes: HashSet::new(),
            named_threads: HashSet::new(),
            open_reactivation: BTreeMap::new(),
            open_credit: BTreeMap::new(),
        }
    }

    /// Registers process/thread names the first time a track is used.
    /// Metadata lands at the front of `traceEvents` in first-use
    /// order, which is deterministic for a given record stream.
    fn name_track(&mut self, pid: u64, tid: u64, process: &str, thread: &str) {
        if self.named_processes.insert(pid) {
            self.meta.push(Value::Map(vec![
                ("name".into(), Value::Str("process_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::U64(pid)),
                (
                    "args".into(),
                    Value::Map(vec![("name".into(), Value::Str(process.into()))]),
                ),
            ]));
        }
        if tid != 0 && self.named_threads.insert((pid, tid)) {
            self.meta.push(Value::Map(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::U64(pid)),
                ("tid".into(), Value::U64(tid)),
                (
                    "args".into(),
                    Value::Map(vec![("name".into(), Value::Str(thread.into()))]),
                ),
            ]));
        }
    }

    /// One thread-scoped instant event.
    fn instant(&mut self, name: &str, at_ps: u64, pid: u64, tid: u64, args: Vec<(String, Value)>) {
        self.events.push(Value::Map(vec![
            ("name".into(), Value::Str(name.into())),
            ("ph".into(), Value::Str("i".into())),
            ("ts".into(), us(at_ps)),
            ("pid".into(), Value::U64(pid)),
            ("tid".into(), Value::U64(tid)),
            ("s".into(), Value::Str("t".into())),
            ("args".into(), Value::Map(args)),
        ]));
    }

    /// One complete duration slice (`ph:"X"`).
    fn slice(
        &mut self,
        name: &str,
        start_ps: u64,
        end_ps: u64,
        pid: u64,
        tid: u64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(Value::Map(vec![
            ("name".into(), Value::Str(name.into())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), us(start_ps)),
            ("dur".into(), us(end_ps.saturating_sub(start_ps))),
            ("pid".into(), Value::U64(pid)),
            ("tid".into(), Value::U64(tid)),
            ("args".into(), Value::Map(args)),
        ]));
    }

    /// One counter sample (`ph:"C"`; counters are per-process tracks).
    fn counter(&mut self, name: &str, at_ps: u64, pid: u64, key: &str, value: f64) {
        self.events.push(Value::Map(vec![
            ("name".into(), Value::Str(name.into())),
            ("ph".into(), Value::Str("C".into())),
            ("ts".into(), us(at_ps)),
            ("pid".into(), Value::U64(pid)),
            (
                "args".into(),
                Value::Map(vec![(key.into(), Value::F64(value))]),
            ),
        ]));
    }

    /// The channel's track, registering its names on first use.
    fn channel_track(&mut self, channel: u32) -> (u64, u64) {
        let (pid, tid, process, thread) = match self.layout {
            Some(l) => l.channel_home(channel),
            None => (
                PID_CHANNELS,
                u64::from(channel) + 1,
                "channels".to_string(),
                format!("ch{channel}"),
            ),
        };
        self.name_track(pid, tid, &process, &thread);
        (pid, tid)
    }
}

/// Converts parsed trace records to a chrome-trace JSON object.
///
/// Pass a [`TrackLayout`] to group channel tracks into one process per
/// switch; without one, channels share a flat process. The conversion
/// is a pure function of the record stream: identical records always
/// render identical bytes.
pub fn chrome_trace(records: &[TraceRecord], layout: Option<TrackLayout>) -> ChromeTrace {
    let mut b = Builder::new(layout);
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for rec in records {
        *counts.entry(rec.category().name().to_owned()).or_insert(0) += 1;
        match rec {
            TraceRecord::Controller {
                at_ps,
                channel,
                utilization,
                old_rate,
                new_rate,
                reason,
            } => {
                b.name_track(PID_ENGINE, 1, "engine", "controller decisions");
                b.instant(
                    reason,
                    *at_ps,
                    PID_ENGINE,
                    1,
                    vec![
                        ("channel".into(), Value::U64(u64::from(*channel))),
                        ("utilization".into(), Value::F64(*utilization)),
                        ("old_rate".into(), Value::Str(old_rate.clone())),
                        ("new_rate".into(), Value::Str(new_rate.clone())),
                    ],
                );
                if let Some(gbps) = parse_gbps(new_rate) {
                    let (pid, _) = b.channel_track(*channel);
                    b.counter(&format!("ch{channel} Gb/s"), *at_ps, pid, "Gb/s", gbps);
                }
            }
            TraceRecord::Reactivation {
                at_ps,
                channel,
                phase,
                rate,
                until_ps,
            } => {
                let (pid, tid) = b.channel_track(*channel);
                if phase == "start" {
                    // A start over an open window should not happen;
                    // flush the stale one so no record is dropped.
                    if let Some((s, r, u)) = b.open_reactivation.remove(channel) {
                        flush_reactivation(&mut b, *channel, s, &r, u);
                    }
                    b.open_reactivation
                        .insert(*channel, (*at_ps, rate.clone(), *until_ps));
                } else {
                    match b.open_reactivation.remove(channel) {
                        Some((start, r, _)) => b.slice(
                            "reactivation",
                            start,
                            *at_ps,
                            pid,
                            tid,
                            vec![("rate".into(), Value::Str(r))],
                        ),
                        // An end with no start (e.g. a filtered or
                        // truncated capture) degrades to a marker.
                        None => b.instant(
                            "reactivation end",
                            *at_ps,
                            pid,
                            tid,
                            vec![("rate".into(), Value::Str(rate.clone()))],
                        ),
                    }
                }
            }
            TraceRecord::Credit {
                at_ps,
                channel,
                phase,
                needed,
                credits,
            } => {
                let (pid, tid) = b.channel_track(*channel);
                if phase == "block" {
                    if let Some((s, n, c)) = b.open_credit.remove(channel) {
                        flush_credit(&mut b, *channel, s, n, c);
                    }
                    b.open_credit.insert(*channel, (*at_ps, *needed, *credits));
                } else {
                    match b.open_credit.remove(channel) {
                        Some((start, n, c)) => b.slice(
                            "credit stall",
                            start,
                            *at_ps,
                            pid,
                            tid,
                            vec![
                                ("needed".into(), Value::U64(n)),
                                ("credits_blocked".into(), Value::U64(c)),
                                ("credits_wake".into(), Value::U64(*credits)),
                            ],
                        ),
                        None => b.instant(
                            "credit unblock",
                            *at_ps,
                            pid,
                            tid,
                            vec![("credits".into(), Value::U64(*credits))],
                        ),
                    }
                }
            }
            TraceRecord::Detour {
                at_ps,
                switch,
                port,
                detour_occupancy,
                minimal_occupancy,
            } => {
                let (pid, tid, process, thread) = match b.layout {
                    Some(l) => l.switch_markers(*switch),
                    None => (PID_ENGINE, 3, "engine".to_string(), "detours".to_string()),
                };
                b.name_track(pid, tid, &process, &thread);
                b.instant(
                    "detour",
                    *at_ps,
                    pid,
                    tid,
                    vec![
                        ("switch".into(), Value::U64(u64::from(*switch))),
                        ("port".into(), Value::U64(u64::from(*port))),
                        ("detour_occupancy".into(), Value::U64(*detour_occupancy)),
                        ("minimal_occupancy".into(), Value::U64(*minimal_occupancy)),
                    ],
                );
            }
        }
    }

    // Flush windows left open at end of capture (deterministic: the
    // maps iterate in channel order).
    for (ch, (start, rate, until)) in std::mem::take(&mut b.open_reactivation) {
        flush_reactivation(&mut b, ch, start, &rate, until);
    }
    for (ch, (start, needed, credits)) in std::mem::take(&mut b.open_credit) {
        flush_credit(&mut b, ch, start, needed, credits);
    }

    let trace_events = b.events.len();
    let metadata_events = b.meta.len();
    let mut all = b.meta;
    all.extend(b.events);
    let stats = Value::Map(vec![
        (
            "records".into(),
            Value::Map(
                counts
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::U64(v as u64)))
                    .collect(),
            ),
        ),
        ("trace_events".into(), Value::U64(trace_events as u64)),
        ("metadata_events".into(), Value::U64(metadata_events as u64)),
    ]);
    let doc = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(all)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
        ("epnet".into(), stats),
    ]);
    ChromeTrace {
        json: serde_json::to_string(&doc).expect("value tree serializes"),
        trace_events,
        metadata_events,
        records: counts,
    }
}

/// Emits a reactivation window whose `end` never arrived: the
/// scheduled `until_ps` bounds the slice when present, else the window
/// degrades to a zero-length slice at its start.
fn flush_reactivation(b: &mut Builder, channel: u32, start: u64, rate: &str, until: Option<u64>) {
    let (pid, tid) = b.channel_track(channel);
    let end = until.filter(|&u| u >= start).unwrap_or(start);
    b.slice(
        "reactivation",
        start,
        end,
        pid,
        tid,
        vec![
            ("rate".into(), Value::Str(rate.to_string())),
            ("truncated".into(), Value::Bool(true)),
        ],
    );
}

/// Emits a credit stall whose `unblock` never arrived as a zero-length
/// truncated slice.
fn flush_credit(b: &mut Builder, channel: u32, start: u64, needed: u64, credits: u64) {
    let (pid, tid) = b.channel_track(channel);
    b.slice(
        "credit stall",
        start,
        start,
        pid,
        tid,
        vec![
            ("needed".into(), Value::U64(needed)),
            ("credits_blocked".into(), Value::U64(credits)),
            ("truncated".into(), Value::Bool(true)),
        ],
    );
}

/// Convenience: `TraceStats`-shaped per-category counts of `records`,
/// for asserting an export consumed everything its source held.
pub fn count_by_category(records: &[TraceRecord]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for r in records {
        *counts.entry(r.category().name().to_owned()).or_insert(0) += 1;
    }
    counts
}

/// Convenience: parse + export in one step.
///
/// # Errors
///
/// Propagates [`crate::schema::parse_jsonl`]'s description of the
/// first malformed line.
pub fn chrome_trace_from_jsonl(
    text: &str,
    layout: Option<TrackLayout>,
) -> Result<ChromeTrace, String> {
    Ok(chrome_trace(&crate::schema::parse_jsonl(text)?, layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemorySink, TraceCategory, Tracer};

    fn sample_records() -> Vec<TraceRecord> {
        let sink = MemorySink::new();
        let mut t = Tracer::new(sink.clone(), TraceCategory::ALL_MASK);
        t.controller(1_000, 2, 0.82, "10 Gb/s", "20 Gb/s", "upshift");
        t.reactivation(1_000, 2, "start", "20 Gb/s", Some(2_000));
        t.credit(1_500, 4, "block", 2048, 512);
        t.credit(1_700, 4, "unblock", 2048, 4096);
        t.reactivation(2_000, 2, "end", "20 Gb/s", None);
        t.detour(1_800, 3, 5, 100, 900);
        crate::schema::parse_jsonl(&sink.contents()).expect("sample parses")
    }

    #[test]
    fn export_is_valid_json_and_counts_every_record() {
        let records = sample_records();
        let out = chrome_trace(&records, None);
        let doc: Value = serde_json::from_str(&out.json).expect("export is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_seq)
            .expect("traceEvents array");
        assert_eq!(events.len(), out.trace_events + out.metadata_events);
        assert_eq!(out.records, count_by_category(&records));
        // The embedded stats mirror the returned bookkeeping.
        let embedded = doc.get("epnet").expect("epnet stats");
        assert_eq!(
            embedded.get("trace_events").and_then(Value::as_u64),
            Some(out.trace_events as u64)
        );
        for (cat, &n) in &out.records {
            assert_eq!(
                embedded
                    .get("records")
                    .and_then(|r| r.get(cat))
                    .and_then(Value::as_u64),
                Some(n as u64),
                "embedded count for {cat}"
            );
        }
    }

    #[test]
    fn pairing_produces_slices_and_counters() {
        let records = sample_records();
        let out = chrome_trace(&records, None);
        let doc: Value = serde_json::from_str(&out.json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        let named = |name: &str| -> Vec<&Value> {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .collect()
        };
        // start(1000)→end(2000) paired into one 1000 ps = 0.001 µs slice.
        let react = named("reactivation");
        assert_eq!(react.len(), 1);
        assert_eq!(react[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(react[0].get("ts").and_then(Value::as_f64), Some(0.001));
        assert_eq!(react[0].get("dur").and_then(Value::as_f64), Some(0.001));
        // block(1500)→unblock(1700) paired likewise.
        let stall = named("credit stall");
        assert_eq!(stall.len(), 1);
        assert_eq!(
            stall[0]
                .get("args")
                .and_then(|a| a.get("credits_wake"))
                .and_then(Value::as_u64),
            Some(4096)
        );
        // The controller decision yields an instant named by reason
        // plus a rate counter sample parsed from the display form.
        assert_eq!(named("upshift").len(), 1);
        let counter = named("ch2 Gb/s");
        assert_eq!(counter.len(), 1);
        assert_eq!(counter[0].get("ph").and_then(Value::as_str), Some("C"));
        assert_eq!(
            counter[0]
                .get("args")
                .and_then(|a| a.get("Gb/s"))
                .and_then(Value::as_f64),
            Some(20.0)
        );
    }

    #[test]
    fn layout_groups_channels_by_switch() {
        // 4 hosts, 3 ports per switch: ch2 is host 2, ch4+3·1+2 = 9 is
        // switch 1 port 2; the detour's switch 3 gets a marker thread
        // past its channel tids.
        let layout = TrackLayout {
            hosts: 4,
            ports_per_switch: 3,
        };
        assert_eq!(
            layout.channel_home(2),
            (PID_CHANNELS, 3, "hosts".into(), "ch2 host2".into())
        );
        assert_eq!(
            layout.channel_home(9),
            (
                PID_SWITCH_BASE + 1,
                3,
                "switch 1".into(),
                "ch9 port2".into()
            )
        );
        assert_eq!(
            layout.switch_markers(3),
            (PID_SWITCH_BASE + 3, 4, "switch 3".into(), "detours".into())
        );

        let records = sample_records();
        let out = chrome_trace(&records, Some(layout));
        let doc: Value = serde_json::from_str(&out.json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        let process_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert!(process_names.contains(&"hosts"), "{process_names:?}");
        assert!(process_names.contains(&"switch 3"), "{process_names:?}");
    }

    #[test]
    fn unmatched_windows_flush_as_truncated_slices() {
        let records = vec![
            TraceRecord::Reactivation {
                at_ps: 100,
                channel: 1,
                phase: "start".into(),
                rate: "40 Gb/s".into(),
                until_ps: Some(600),
            },
            TraceRecord::Credit {
                at_ps: 200,
                channel: 2,
                phase: "block".into(),
                needed: 512,
                credits: 0,
            },
        ];
        let out = chrome_trace(&records, None);
        let doc: Value = serde_json::from_str(&out.json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
        let truncated: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("args").and_then(|a| a.get("truncated")).is_some())
            .collect();
        assert_eq!(truncated.len(), 2, "both open windows flushed");
        // The reactivation uses its scheduled end: 100→600 ps.
        let react = truncated
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("reactivation"))
            .expect("truncated reactivation");
        assert_eq!(react.get("dur").and_then(Value::as_f64), Some(0.0005));
    }

    #[test]
    fn rate_display_forms_parse() {
        assert_eq!(parse_gbps("2.5 Gb/s"), Some(2.5));
        assert_eq!(parse_gbps("40 Gb/s"), Some(40.0));
        assert_eq!(parse_gbps("off"), None);
    }
}
