//! Charts derived from a structured JSONL trace file.
//!
//! The trace layer records every per-epoch controller decision and
//! every link reactivation; from those alone, this module reconstructs
//! per-channel rate timelines and the aggregate per-rate residency —
//! the same quantities `SimReport` carries, but recomputed *from the
//! trace*, so a rendered chart doubles as an end-to-end check that the
//! trace captured what the simulator did.

use crate::charts::{self, Series};
use epnet::power::{LinkRate, RATE_LADDER};
use epnet::sim::{SimTime, TimelineEvent};
use epnet_telemetry::TraceRecord;

/// Parses a rate's `Display` form (`"2.5 Gb/s"`, … `"40 Gb/s"`) as
/// written into trace records.
pub fn parse_rate(s: &str) -> Option<LinkRate> {
    RATE_LADDER.into_iter().find(|r| r.to_string() == s)
}

/// Rate timelines and residency reconstructed from trace records.
#[derive(Debug, Clone)]
pub struct TraceDerived {
    /// Per-channel rate-change events, timeline order.
    pub timeline: Vec<TimelineEvent>,
    /// Fraction of channel-time at each ladder rate, slowest first.
    pub residency_fraction: [f64; LinkRate::COUNT],
    /// Distinct channels seen in controller events.
    pub channels: usize,
    /// Latest timestamp in the trace.
    pub horizon: SimTime,
}

/// Derives timelines and residency from controller-decision records.
///
/// Each channel's rate is taken as its first decision's `old_rate`
/// from time zero, then follows every applied decision's `new_rate`.
/// Reactivation ramp time is credited to the target rate — matching
/// how the engine accounts residency.
pub fn derive(records: &[TraceRecord]) -> TraceDerived {
    #[derive(Clone)]
    struct ChannelTrack {
        rate: LinkRate,
        changes: Vec<(u64, LinkRate)>,
    }
    let mut horizon_ps = 0u64;
    let mut per_channel: Vec<Option<ChannelTrack>> = Vec::new();
    for rec in records {
        horizon_ps = horizon_ps.max(rec.at_ps());
        let TraceRecord::Controller {
            at_ps,
            channel,
            old_rate,
            new_rate,
            ..
        } = rec
        else {
            continue;
        };
        let (Some(old), Some(new)) = (parse_rate(old_rate), parse_rate(new_rate)) else {
            continue;
        };
        let ch = *channel as usize;
        if per_channel.len() <= ch {
            per_channel.resize(ch + 1, None);
        }
        let entry = per_channel[ch].get_or_insert_with(|| ChannelTrack {
            rate: old,
            changes: vec![(0, old)],
        });
        if new != entry.rate {
            entry.rate = new;
            entry.changes.push((*at_ps, new));
        }
    }

    let mut timeline = Vec::new();
    let mut at_rate_ps = [0u128; LinkRate::COUNT];
    let mut channels = 0usize;
    for (ch, entry) in per_channel.iter().enumerate() {
        let Some(ChannelTrack { changes, .. }) = entry else {
            continue;
        };
        channels += 1;
        for (i, &(at, rate)) in changes.iter().enumerate() {
            timeline.push(TimelineEvent {
                at: SimTime::from_ps(at),
                channel: ch as u32,
                rate: Some(rate),
            });
            let end = changes.get(i + 1).map_or(horizon_ps, |&(next, _)| next);
            at_rate_ps[rate.index()] += u128::from(end.saturating_sub(at));
        }
    }
    let total: u128 = at_rate_ps.iter().sum();
    let mut residency_fraction = [0.0; LinkRate::COUNT];
    if total > 0 {
        for (f, ps) in residency_fraction.iter_mut().zip(at_rate_ps) {
            *f = ps as f64 / total as f64;
        }
    }
    TraceDerived {
        timeline,
        residency_fraction,
        channels,
        horizon: SimTime::from_ps(horizon_ps),
    }
}

/// Per-rate residency bar chart (the trace-derived Figure 7 analogue).
pub fn render_trace_residency(d: &TraceDerived) -> String {
    let categories: Vec<String> = RATE_LADDER.iter().rev().map(|r| r.to_string()).collect();
    let values: Vec<f64> = RATE_LADDER
        .iter()
        .rev()
        .map(|r| d.residency_fraction[r.index()] * 100.0)
        .collect();
    charts::grouped_bars(
        &format!(
            "Trace-derived per-rate residency ({} channels, {})",
            d.channels, d.horizon
        ),
        "% of channel-time",
        &categories,
        &[Series {
            name: "traced".into(),
            values,
        }],
        100.0,
    )
}

/// Controller-decision timeline for the first `max_channels` channels,
/// drawn with the same Gantt strips as the report timeline chart;
/// `None` if the trace has no controller decision on those channels
/// (nothing to draw).
pub fn render_controller_timeline(d: &TraceDerived, max_channels: u32) -> Option<String> {
    let events: Vec<TimelineEvent> = d
        .timeline
        .iter()
        .copied()
        .filter(|e| e.channel < max_channels)
        .collect();
    (!events.is_empty()).then(|| crate::render_timeline(&events, d.horizon))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(at_ps: u64, channel: u32, old: &str, new: &str, reason: &str) -> TraceRecord {
        TraceRecord::Controller {
            at_ps,
            channel,
            utilization: 0.3,
            old_rate: old.to_string(),
            new_rate: new.to_string(),
            reason: reason.to_string(),
        }
    }

    #[test]
    fn rates_round_trip_through_display() {
        for r in RATE_LADDER {
            assert_eq!(parse_rate(&r.to_string()), Some(r));
        }
        assert_eq!(parse_rate("11 Gb/s"), None);
    }

    #[test]
    fn derive_reconstructs_residency_and_timeline() {
        // Channel 0: R40 for 25% of the horizon, then R20.
        // Channel 1: R10 throughout (holds only).
        let records = vec![
            decision(1_000, 0, "40 Gb/s", "40 Gb/s", "hold"),
            decision(1_000, 1, "10 Gb/s", "10 Gb/s", "hold"),
            decision(25_000, 0, "40 Gb/s", "20 Gb/s", "downshift"),
            decision(100_000, 0, "20 Gb/s", "20 Gb/s", "hold"),
            decision(100_000, 1, "10 Gb/s", "10 Gb/s", "hold"),
        ];
        let d = derive(&records);
        assert_eq!(d.channels, 2);
        assert_eq!(d.horizon, SimTime::from_ps(100_000));
        // ch0: 25k ps at R40 + 75k at R20; ch1: 100k at R10.
        assert!((d.residency_fraction[LinkRate::R40.index()] - 0.125).abs() < 1e-9);
        assert!((d.residency_fraction[LinkRate::R20.index()] - 0.375).abs() < 1e-9);
        assert!((d.residency_fraction[LinkRate::R10.index()] - 0.5).abs() < 1e-9);
        assert_eq!(d.timeline.len(), 3, "one start per channel + one change");

        let svg = render_trace_residency(&d);
        assert!(svg.contains("per-rate residency"));
        let svg = render_controller_timeline(&d, 8).expect("channels 0 and 1 decided");
        assert!(svg.contains("ch0") && svg.contains("ch1"));
    }

    #[test]
    fn empty_selection_rejected() {
        assert_eq!(render_controller_timeline(&derive(&[]), 4), None);
        let high = derive(&[decision(1_000, 40, "40 Gb/s", "20 Gb/s", "downshift")]);
        assert_eq!(high.channels, 1);
        assert_eq!(render_controller_timeline(&high, 32), None);
    }
}
