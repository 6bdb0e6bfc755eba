//! Post-hoc trace analyses: the numbers behind the `tracetool` bin.
//!
//! Each analysis consumes parsed [`TraceRecord`]s and returns plain
//! data: per-rate residency (delegating to [`crate::tracecharts`] so
//! the numbers match `render --trace` exactly), per-channel transition
//! churn with flap detection, the reactivation-latency distribution,
//! per-channel credit-stall attribution, and controller outcome
//! breakdowns. Formatting is split off into `format_*` table renderers
//! so the same structs can feed CSV writers (see `epnet-bench::csv`).
//!
//! Everything here is a pure function of the record stream: analyses
//! of a deterministic trace are themselves deterministic.

use crate::tracecharts::{self, parse_rate};
use epnet::power::RATE_LADDER;
use epnet_telemetry::TraceRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-rate channel-time residency derived from controller decisions.
#[derive(Debug, Clone)]
pub struct RateResidency {
    /// One row per ladder rate, fastest first (presentation order).
    pub rows: Vec<ResidencyRow>,
    /// Distinct channels with at least one controller decision.
    pub channels: usize,
    /// Latest timestamp in the trace, picoseconds.
    pub horizon_ps: u64,
}

/// One rate's share of total channel-time.
#[derive(Debug, Clone)]
pub struct ResidencyRow {
    /// The rate's display form (`"40 Gb/s"`).
    pub rate: String,
    /// Fraction of channel-time spent at this rate, `0.0..=1.0`.
    pub fraction: f64,
}

/// Per-rate residency, via the same derivation `render --trace` uses
/// ([`tracecharts::derive`]) — the two consumers agree to the bit.
pub fn residency(records: &[TraceRecord]) -> RateResidency {
    let d = tracecharts::derive(records);
    RateResidency {
        rows: RATE_LADDER
            .iter()
            .rev()
            .map(|r| ResidencyRow {
                rate: r.to_string(),
                fraction: d.residency_fraction[r.index()],
            })
            .collect(),
        channels: d.channels,
        horizon_ps: d.horizon.as_ps(),
    }
}

/// One channel's controller-decision churn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRow {
    /// Channel id.
    pub channel: u32,
    /// Controller decisions recorded for the channel (holds included).
    pub decisions: u64,
    /// Applied rate changes (`new_rate != old_rate`).
    pub transitions: u64,
    /// Transitions to a faster rate.
    pub upshifts: u64,
    /// Transitions to a slower rate.
    pub downshifts: u64,
    /// Direction reversals: a transition opposite in direction to the
    /// channel's previous one. High reversal counts are the flap
    /// signature — the controller oscillating around a threshold.
    pub reversals: u64,
}

/// Per-channel transition churn, most-churning channels first
/// (transitions desc, then channel asc for determinism).
pub fn churn(records: &[TraceRecord]) -> Vec<ChurnRow> {
    struct Acc {
        row: ChurnRow,
        last_dir: Option<bool>, // true = up
    }
    let mut per_channel: BTreeMap<u32, Acc> = BTreeMap::new();
    for rec in records {
        let TraceRecord::Controller {
            channel,
            old_rate,
            new_rate,
            ..
        } = rec
        else {
            continue;
        };
        let acc = per_channel.entry(*channel).or_insert_with(|| Acc {
            row: ChurnRow {
                channel: *channel,
                decisions: 0,
                transitions: 0,
                upshifts: 0,
                downshifts: 0,
                reversals: 0,
            },
            last_dir: None,
        });
        acc.row.decisions += 1;
        let (Some(old), Some(new)) = (parse_rate(old_rate), parse_rate(new_rate)) else {
            continue;
        };
        if new == old {
            continue;
        }
        acc.row.transitions += 1;
        let up = new.index() > old.index();
        if up {
            acc.row.upshifts += 1;
        } else {
            acc.row.downshifts += 1;
        }
        if acc.last_dir == Some(!up) {
            acc.row.reversals += 1;
        }
        acc.last_dir = Some(up);
    }
    let mut rows: Vec<ChurnRow> = per_channel.into_values().map(|a| a.row).collect();
    rows.sort_by(|a, b| {
        b.transitions
            .cmp(&a.transitions)
            .then(a.channel.cmp(&b.channel))
    });
    rows
}

/// Distribution of reactivation-window lengths (`start`→`end` pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactivationStats {
    /// Completed windows (a `start` matched by an `end`).
    pub count: u64,
    /// Unpaired boundaries: `end`s with no open window plus windows
    /// still open at end of trace.
    pub unmatched: u64,
    /// Shortest window, picoseconds (0 when `count == 0`).
    pub min_ps: u64,
    /// Longest window, picoseconds.
    pub max_ps: u64,
    /// Mean window, picoseconds (integer division).
    pub mean_ps: u64,
    /// Median (nearest-rank), picoseconds.
    pub p50_ps: u64,
    /// 90th percentile (nearest-rank), picoseconds.
    pub p90_ps: u64,
    /// 99th percentile (nearest-rank), picoseconds.
    pub p99_ps: u64,
}

/// Pairs reactivation `start`/`end` records per channel and summarizes
/// the latency distribution.
pub fn reactivation_latency(records: &[TraceRecord]) -> ReactivationStats {
    let mut open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut lat: Vec<u64> = Vec::new();
    let mut unmatched = 0u64;
    for rec in records {
        let TraceRecord::Reactivation {
            at_ps,
            channel,
            phase,
            ..
        } = rec
        else {
            continue;
        };
        if phase == "start" {
            if open.insert(*channel, *at_ps).is_some() {
                unmatched += 1;
            }
        } else {
            match open.remove(channel) {
                Some(start) => lat.push(at_ps.saturating_sub(start)),
                None => unmatched += 1,
            }
        }
    }
    unmatched += open.len() as u64;
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            let idx = ((lat.len() - 1) as f64 * q).round() as usize;
            lat[idx]
        }
    };
    let sum: u128 = lat.iter().map(|&v| u128::from(v)).sum();
    ReactivationStats {
        count: lat.len() as u64,
        unmatched,
        min_ps: lat.first().copied().unwrap_or(0),
        max_ps: lat.last().copied().unwrap_or(0),
        mean_ps: if lat.is_empty() {
            0
        } else {
            (sum / lat.len() as u128) as u64
        },
        p50_ps: pct(0.50),
        p90_ps: pct(0.90),
        p99_ps: pct(0.99),
    }
}

/// One channel's credit-stall attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditStallRow {
    /// Channel id.
    pub channel: u32,
    /// Completed stalls (`block` matched by `unblock`).
    pub stalls: u64,
    /// Unpaired boundaries on this channel.
    pub unmatched: u64,
    /// Total blocked time, picoseconds.
    pub total_ps: u64,
    /// Longest single stall, picoseconds.
    pub max_ps: u64,
}

/// Pairs credit `block`/`unblock` records per channel, attributing
/// blocked time; worst offenders first (total desc, then channel asc).
pub fn credit_stalls(records: &[TraceRecord]) -> Vec<CreditStallRow> {
    struct Acc {
        row: CreditStallRow,
        open: Option<u64>,
    }
    let mut per_channel: BTreeMap<u32, Acc> = BTreeMap::new();
    for rec in records {
        let TraceRecord::Credit {
            at_ps,
            channel,
            phase,
            ..
        } = rec
        else {
            continue;
        };
        let acc = per_channel.entry(*channel).or_insert_with(|| Acc {
            row: CreditStallRow {
                channel: *channel,
                stalls: 0,
                unmatched: 0,
                total_ps: 0,
                max_ps: 0,
            },
            open: None,
        });
        if phase == "block" {
            if acc.open.replace(*at_ps).is_some() {
                acc.row.unmatched += 1;
            }
        } else {
            match acc.open.take() {
                Some(start) => {
                    let dur = at_ps.saturating_sub(start);
                    acc.row.stalls += 1;
                    acc.row.total_ps = acc.row.total_ps.saturating_add(dur);
                    acc.row.max_ps = acc.row.max_ps.max(dur);
                }
                None => acc.row.unmatched += 1,
            }
        }
    }
    let mut rows: Vec<CreditStallRow> = per_channel
        .into_values()
        .map(|mut a| {
            if a.open.is_some() {
                a.row.unmatched += 1;
            }
            a.row
        })
        .collect();
    rows.sort_by(|a, b| b.total_ps.cmp(&a.total_ps).then(a.channel.cmp(&b.channel)));
    rows
}

/// One controller outcome (`reason`) and its share of all decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeRow {
    /// Decision reason as recorded (`hold`, `upshift`, …).
    pub reason: String,
    /// Decisions with this reason.
    pub count: u64,
    /// Share of all controller decisions, `0.0..=1.0`.
    pub share: f64,
}

/// Controller decisions broken down by `reason`, most common first
/// (count desc, then reason asc).
pub fn outcomes(records: &[TraceRecord]) -> Vec<OutcomeRow> {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for rec in records {
        if let TraceRecord::Controller { reason, .. } = rec {
            *counts.entry(reason.as_str()).or_insert(0) += 1;
            total += 1;
        }
    }
    let mut rows: Vec<OutcomeRow> = counts
        .into_iter()
        .map(|(reason, count)| OutcomeRow {
            reason: reason.to_string(),
            count,
            share: if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.reason.cmp(&b.reason)));
    rows
}

/// Renders rows as a padded two-dimensional text table: a header, a
/// rule, then each row, columns right-aligned except the first.
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, (h, w)) in header.iter().zip(&widths).enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        if i == 0 {
            let _ = write!(out, "{h:<w$}");
        } else {
            let _ = write!(out, "{h:>w$}");
        }
    }
    out.push('\n');
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                let _ = write!(out, "{cell:<w$}");
            } else {
                let _ = write!(out, "{cell:>w$}");
            }
        }
        out.push('\n');
    }
    out
}

/// Residency as a printable table.
pub fn format_residency(r: &RateResidency) -> String {
    let mut out = format!(
        "Per-rate residency ({} channels, horizon {} ps)\n",
        r.channels, r.horizon_ps
    );
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| vec![row.rate.clone(), format!("{:.3}", row.fraction * 100.0)])
        .collect();
    out.push_str(&table(&["rate", "% of channel-time"], &rows));
    out
}

/// Churn as a printable table (top `limit` rows; 0 means all).
pub fn format_churn(rows: &[ChurnRow], limit: usize) -> String {
    let shown = if limit == 0 {
        rows.len()
    } else {
        limit.min(rows.len())
    };
    let mut out = format!(
        "Transition churn per channel ({} channels, showing {})\n",
        rows.len(),
        shown
    );
    let body: Vec<Vec<String>> = rows[..shown]
        .iter()
        .map(|r| {
            vec![
                format!("ch{}", r.channel),
                r.decisions.to_string(),
                r.transitions.to_string(),
                r.upshifts.to_string(),
                r.downshifts.to_string(),
                r.reversals.to_string(),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "channel",
            "decisions",
            "transitions",
            "up",
            "down",
            "reversals",
        ],
        &body,
    ));
    out
}

/// Reactivation-latency distribution as a printable table.
pub fn format_reactivation(s: &ReactivationStats) -> String {
    let mut out = format!(
        "Reactivation latency ({} windows, {} unmatched)\n",
        s.count, s.unmatched
    );
    let body = vec![vec![
        "ps".to_string(),
        s.min_ps.to_string(),
        s.p50_ps.to_string(),
        s.p90_ps.to_string(),
        s.p99_ps.to_string(),
        s.max_ps.to_string(),
        s.mean_ps.to_string(),
    ]];
    out.push_str(&table(
        &["unit", "min", "p50", "p90", "p99", "max", "mean"],
        &body,
    ));
    out
}

/// Credit-stall attribution as a printable table (top `limit` rows;
/// 0 means all).
pub fn format_credit(rows: &[CreditStallRow], limit: usize) -> String {
    let shown = if limit == 0 {
        rows.len()
    } else {
        limit.min(rows.len())
    };
    let mut out = format!(
        "Credit-stall attribution ({} channels, showing {})\n",
        rows.len(),
        shown
    );
    let body: Vec<Vec<String>> = rows[..shown]
        .iter()
        .map(|r| {
            vec![
                format!("ch{}", r.channel),
                r.stalls.to_string(),
                r.total_ps.to_string(),
                r.max_ps.to_string(),
                r.unmatched.to_string(),
            ]
        })
        .collect();
    out.push_str(&table(
        &["channel", "stalls", "total_ps", "max_ps", "unmatched"],
        &body,
    ));
    out
}

/// Controller outcome breakdown as a printable table.
pub fn format_outcomes(rows: &[OutcomeRow]) -> String {
    let total: u64 = rows.iter().map(|r| r.count).sum();
    let mut out = format!("Controller outcomes ({total} decisions)\n");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.reason.clone(),
                r.count.to_string(),
                format!("{:.3}", r.share * 100.0),
            ]
        })
        .collect();
    out.push_str(&table(&["reason", "count", "share %"], &body));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(at_ps: u64, channel: u32, old: &str, new: &str, reason: &str) -> TraceRecord {
        TraceRecord::Controller {
            at_ps,
            channel,
            utilization: 0.5,
            old_rate: old.to_string(),
            new_rate: new.to_string(),
            reason: reason.to_string(),
        }
    }

    fn react(at_ps: u64, channel: u32, phase: &str) -> TraceRecord {
        TraceRecord::Reactivation {
            at_ps,
            channel,
            phase: phase.to_string(),
            rate: "20 Gb/s".to_string(),
            until_ps: None,
        }
    }

    fn credit(at_ps: u64, channel: u32, phase: &str) -> TraceRecord {
        TraceRecord::Credit {
            at_ps,
            channel,
            phase: phase.to_string(),
            needed: 1024,
            credits: 0,
        }
    }

    #[test]
    fn residency_matches_tracecharts_derive_exactly() {
        let records = vec![
            decision(1_000, 0, "40 Gb/s", "40 Gb/s", "hold"),
            decision(25_000, 0, "40 Gb/s", "20 Gb/s", "downshift"),
            decision(100_000, 0, "20 Gb/s", "20 Gb/s", "hold"),
        ];
        let r = residency(&records);
        let d = tracecharts::derive(&records);
        assert_eq!(r.channels, d.channels);
        assert_eq!(r.horizon_ps, d.horizon.as_ps());
        // Same bits, not merely close: both sides call derive().
        for (row, rate) in r.rows.iter().zip(RATE_LADDER.iter().rev()) {
            assert_eq!(row.rate, rate.to_string());
            assert_eq!(
                row.fraction.to_bits(),
                d.residency_fraction[rate.index()].to_bits()
            );
        }
    }

    #[test]
    fn churn_counts_directions_and_reversals() {
        // ch0 flaps: up, down, up — two reversals. ch1 only holds.
        let records = vec![
            decision(1, 0, "10 Gb/s", "20 Gb/s", "upshift"),
            decision(2, 0, "20 Gb/s", "10 Gb/s", "downshift"),
            decision(3, 0, "10 Gb/s", "20 Gb/s", "upshift"),
            decision(4, 1, "10 Gb/s", "10 Gb/s", "hold"),
        ];
        let rows = churn(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            ChurnRow {
                channel: 0,
                decisions: 3,
                transitions: 3,
                upshifts: 2,
                downshifts: 1,
                reversals: 2,
            }
        );
        assert_eq!(rows[1].transitions, 0);
        let text = format_churn(&rows, 1);
        assert!(text.contains("showing 1"));
        assert!(text.contains("ch0"));
        assert!(!text.contains("ch1"));
    }

    #[test]
    fn reactivation_pairs_per_channel_and_summarizes() {
        // ch0: 100 ps and 300 ps windows; ch1: interleaved 50 ps
        // window; one trailing unmatched start, one orphan end.
        let records = vec![
            react(1_000, 0, "start"),
            react(1_020, 1, "start"),
            react(1_070, 1, "end"),
            react(1_100, 0, "end"),
            react(2_000, 0, "start"),
            react(2_300, 0, "end"),
            react(3_000, 2, "end"),
            react(4_000, 3, "start"),
        ];
        let s = reactivation_latency(&records);
        assert_eq!(s.count, 3);
        assert_eq!(s.unmatched, 2, "orphan end + trailing start");
        assert_eq!(s.min_ps, 50);
        assert_eq!(s.max_ps, 300);
        assert_eq!(s.p50_ps, 100);
        assert_eq!(s.mean_ps, 150);
        let text = format_reactivation(&s);
        assert!(text.contains("3 windows"));
    }

    #[test]
    fn credit_attribution_ranks_by_total_blocked_time() {
        let records = vec![
            credit(100, 5, "block"),
            credit(150, 5, "unblock"),
            credit(200, 2, "block"),
            credit(500, 2, "unblock"),
            credit(600, 5, "block"),
            credit(610, 5, "unblock"),
            credit(700, 9, "unblock"), // orphan
        ];
        let rows = credit_stalls(&records);
        assert_eq!(rows[0].channel, 2, "ch2 blocked longest in total");
        assert_eq!(rows[0].total_ps, 300);
        let ch5 = rows.iter().find(|r| r.channel == 5).unwrap();
        assert_eq!(ch5.stalls, 2);
        assert_eq!(ch5.total_ps, 60);
        assert_eq!(ch5.max_ps, 50);
        let ch9 = rows.iter().find(|r| r.channel == 9).unwrap();
        assert_eq!(ch9.unmatched, 1);
    }

    #[test]
    fn outcome_breakdown_orders_by_count() {
        let records = vec![
            decision(1, 0, "10 Gb/s", "10 Gb/s", "hold"),
            decision(2, 1, "10 Gb/s", "10 Gb/s", "hold"),
            decision(3, 0, "10 Gb/s", "20 Gb/s", "upshift"),
        ];
        let rows = outcomes(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].reason, "hold");
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].share - 2.0 / 3.0).abs() < 1e-12);
        let text = format_outcomes(&rows);
        assert!(text.contains("3 decisions"));
        assert!(text.contains("upshift"));
    }

    #[test]
    fn tables_render_with_aligned_headers() {
        let t = table(
            &["channel", "n"],
            &[vec!["ch0".to_string(), "12".to_string()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3, "header, rule, one row");
        assert!(lines[0].starts_with("channel"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }
}
