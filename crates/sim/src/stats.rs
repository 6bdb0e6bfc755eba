//! Measurement collection and the end-of-run report.

use crate::flows::FlowTable;
use crate::SimTime;
use epnet_power::{LinkPowerProfile, LinkRate, RATE_LADDER};
use epnet_telemetry::Profile;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Log₂-bucketed latency histogram (nanosecond buckets), good enough for
/// the factor-of-two latency comparisons of Figure 9.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl LatencyHistogram {
    fn new() -> Self {
        Self {
            buckets: vec![0; 64],
            count: 0,
        }
    }

    fn record_ns(&mut self, ns: u64) {
        let idx = 64 - u64::leading_zeros(ns.max(1)) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
    }

    /// Approximate quantile (`0.0..=1.0`) in nanoseconds: the upper edge
    /// of the bucket containing the q-th sample.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << 63
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exclusive upper edges of the log₂ buckets, nanoseconds.
    ///
    /// `edges[i]` is the value [`quantile_ns`](Self::quantile_ns)
    /// returns when the selected sample lands in bucket `i`: samples
    /// whose `ns.max(1)` lies in `[edges[i] / 2, edges[i])` — i.e. has
    /// bit length `i` — fall in bucket `i`, so every reported quantile
    /// overstates the true sample by less than 2×. Bucket 0 is
    /// therefore never populated, and the last bucket (edge `1 << 63`)
    /// absorbs everything at or above `edges[63] / 2`.
    pub fn bucket_edges(&self) -> Vec<u64> {
        (0..self.buckets.len() as u32).map(|i| 1u64 << i).collect()
    }
}

/// Running measurement state inside the engine.
#[derive(Debug)]
pub(crate) struct Stats {
    pub warmup: SimTime,
    pub packets: u64,
    pub packet_latency_sum_ps: u128,
    pub packet_hist: LatencyHistogram,
    pub messages: u64,
    pub message_latency_sum_ps: u128,
    pub offered_bytes: u64,
    pub delivered_bytes: u64,
    pub measured_delivered_bytes: u64,
    pub busy_ps_total: u128,
    pub reconfigurations: u64,
    pub dropped_for_warmup: u64,
    /// Events popped from the scheduler over the run.
    pub events: u64,
    /// Link-epoch samples where the two channels of a link sat at
    /// different rates (§3.3.1's asymmetry evidence).
    pub asymmetric_link_samples: u64,
    /// Total link-epoch samples taken.
    pub link_samples: u64,
    /// Largest output-queue occupancy observed, in bytes.
    pub peak_queue_bytes: u64,
    /// Epoch ticks processed.
    pub epoch_ticks: u64,
    /// Controller rate decisions taken (`decide_rate` calls). Under the
    /// active-set epoch mode this counts only visited channels, plus
    /// one hold per channel resting after a hold, so — unlike every
    /// serialized quantity — it is mode-*dependent* by design: it is
    /// the measure of controller work the load benchmark reports.
    pub controller_decisions: u64,
    /// Holds counted for channels resting after a hold (active-set ticks
    /// only; a diagnostic of how much decision work those ticks skip).
    pub epoch_steady_holds: u64,
    /// Rate timeline of recorded channels.
    pub timeline: Vec<TimelineEvent>,
    /// Channels `0..timeline_channels` are recorded.
    pub timeline_channels: u32,
    /// The counters behind `SimReport.metrics` and `.diagnostics`.
    pub counters: Counters,
}

/// Engine counters, each bumped where its event happens (the per-kind
/// event counts once per `advance_until` batch) and named only in
/// [`Stats::metric_maps`]. Every value derives purely from simulated
/// behavior, so the maps are identical across epoch modes and tracing
/// on/off.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// `Workload` events popped.
    pub ev_workload: u64,
    /// `TxDone` events popped.
    pub ev_tx_done: u64,
    /// `Arrive` events popped.
    pub ev_arrive: u64,
    /// `CreditWake` events popped.
    pub ev_credit_wake: u64,
    /// `Retry` events popped.
    pub ev_retry: u64,
    /// Times `try_tx` found the head packet short on credits.
    pub credit_blocked_tries: u64,
    /// Transmission trains completed (`TxDone` batches).
    pub tx_trains: u64,
    /// Packets carried by completed trains.
    pub tx_train_packets: u64,
    /// Largest completed train, in packets.
    pub tx_train_max_packets: u64,
    /// UGAL detours actually taken.
    pub detours_taken: u64,
    /// Channel queue-depth samples taken at epoch boundaries.
    pub epoch_queue_samples: u64,
    /// Sum of sampled queue depths, bytes.
    pub epoch_queue_bytes_sum: u64,
    /// Largest queue depth seen at an epoch boundary, bytes.
    pub epoch_queue_bytes_peak: u64,
    /// Messages absorbed into the fluid regime (hybrid model).
    pub flows_absorbed: u64,
    /// Flows demoted back to packets at a regime boundary.
    pub flows_demoted: u64,
    /// Flows that completed entirely in the fluid regime.
    pub flows_completed: u64,
    /// Bytes delivered by fluid flow advancement.
    pub flow_fluid_bytes: u64,
}

impl Stats {
    pub fn new(warmup: SimTime) -> Self {
        Self {
            warmup,
            packets: 0,
            packet_latency_sum_ps: 0,
            packet_hist: LatencyHistogram::new(),
            messages: 0,
            message_latency_sum_ps: 0,
            offered_bytes: 0,
            delivered_bytes: 0,
            measured_delivered_bytes: 0,
            busy_ps_total: 0,
            reconfigurations: 0,
            dropped_for_warmup: 0,
            events: 0,
            asymmetric_link_samples: 0,
            link_samples: 0,
            peak_queue_bytes: 0,
            epoch_ticks: 0,
            controller_decisions: 0,
            epoch_steady_holds: 0,
            timeline: Vec::new(),
            timeline_channels: 0,
            counters: Counters::default(),
        }
    }

    /// Builds the report's `(metrics, diagnostics)` maps at finish.
    /// Per-rate residency comes from the finished `residency` and the
    /// epoch-tick count from `epoch_ticks`. The hybrid model's flow
    /// counters are diagnostics: zero in packet mode, and kept off the
    /// serialized map so packet-model reports stay byte-identical to
    /// pre-hybrid ones.
    pub fn metric_maps(
        &self,
        residency: &RateResidency,
        flows: &FlowTable,
    ) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
        let c = &self.counters;
        let clamp = |ps: u128| u64::try_from(ps).unwrap_or(u64::MAX);
        let mut metrics: BTreeMap<String, u64> = [
            ("events_workload", c.ev_workload),
            ("events_tx_done", c.ev_tx_done),
            ("events_arrive", c.ev_arrive),
            ("events_credit_wake", c.ev_credit_wake),
            ("events_retry", c.ev_retry),
            ("events_epoch_tick", self.epoch_ticks),
            ("credit_blocked_tries", c.credit_blocked_tries),
            ("tx_trains", c.tx_trains),
            ("tx_train_packets", c.tx_train_packets),
            ("tx_train_max_packets", c.tx_train_max_packets),
            ("detours_taken", c.detours_taken),
            ("epoch_queue_samples", c.epoch_queue_samples),
            ("epoch_queue_bytes_sum", c.epoch_queue_bytes_sum),
            ("epoch_queue_bytes_peak", c.epoch_queue_bytes_peak),
            ("residency_ps_off", clamp(residency.off_ps)),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
        for r in RATE_LADDER {
            let ps = clamp(residency.at_rate_ps[r.index()]);
            metrics.insert(format!("residency_ps_{}mbps", r.mbps()), ps);
        }
        let diagnostics = [
            ("flows_absorbed", c.flows_absorbed),
            ("flows_demoted", c.flows_demoted),
            ("flows_completed", c.flows_completed),
            ("flow_fluid_bytes", c.flow_fluid_bytes),
            ("flow_table_peak", flows.peak_live() as u64),
            ("epoch_steady_holds", self.epoch_steady_holds),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
        (metrics, diagnostics)
    }

    /// Records a rate transition for channels under the timeline limit.
    pub fn record_rate(&mut self, at: SimTime, channel: u32, rate: Option<LinkRate>) {
        if channel < self.timeline_channels {
            self.timeline.push(TimelineEvent { at, channel, rate });
        }
    }

    pub fn record_packet(&mut self, created: SimTime, delivered: SimTime, bytes: u32) {
        self.delivered_bytes += u64::from(bytes);
        if created < self.warmup {
            self.dropped_for_warmup += 1;
            return;
        }
        self.measured_delivered_bytes += u64::from(bytes);
        let lat = delivered - created;
        self.packets += 1;
        self.packet_latency_sum_ps += u128::from(lat.as_ps());
        self.packet_hist.record_ns(lat.as_ns());
    }

    /// Records bytes delivered by the hybrid model's fluid flow
    /// advancement: they count toward delivery totals (and the
    /// measurement window when the flow was offered after warmup)
    /// without packet-latency samples — fluid flows carry no
    /// per-packet timing. Flow completion goes through
    /// [`Stats::record_message`] like any other message.
    pub fn record_flow_bytes(&mut self, offered_at: SimTime, bytes: u64) {
        self.delivered_bytes += bytes;
        if offered_at >= self.warmup {
            self.measured_delivered_bytes += bytes;
        }
    }

    pub fn record_message(&mut self, created: SimTime, completed: SimTime) {
        if created < self.warmup {
            return;
        }
        self.messages += 1;
        self.message_latency_sum_ps += u128::from((completed - created).as_ps());
    }
}

/// One rate-timeline sample: channel `channel` switched to `rate`
/// (`None` = powered off) at time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// When the transition took effect.
    pub at: SimTime,
    /// Channel index (dense id).
    pub channel: u32,
    /// New rate, or `None` for powered off.
    pub rate: Option<LinkRate>,
}

/// Aggregated per-rate residency of every channel over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RateResidency {
    /// Picoseconds of channel-time at each ladder rate, slowest first
    /// (index with [`LinkRate::index`]).
    pub at_rate_ps: [u128; LinkRate::COUNT],
    /// Picoseconds of channel-time powered off (dynamic topologies).
    pub off_ps: u128,
}

impl RateResidency {
    /// Total channel-time covered.
    pub fn total_ps(&self) -> u128 {
        self.at_rate_ps.iter().sum::<u128>() + self.off_ps
    }

    /// Fraction of channel-time at `rate`.
    pub fn fraction_at(&self, rate: LinkRate) -> f64 {
        let t = self.total_ps();
        if t == 0 {
            0.0
        } else {
            self.at_rate_ps[rate.index()] as f64 / t as f64
        }
    }

    /// Fraction of channel-time powered off.
    pub fn off_fraction(&self) -> f64 {
        let t = self.total_ps();
        if t == 0 {
            0.0
        } else {
            self.off_ps as f64 / t as f64
        }
    }
}

/// The result of a simulation run: everything needed to regenerate the
/// paper's Figures 7–9 for one configuration.
///
/// `Serialize`/`Deserialize` are written by hand (not derived) for two
/// reasons: [`layers`](Self::layers) holds wall-clock timings that
/// would break the byte-identical-report determinism checks, so it is
/// excluded from serialization entirely; and
/// [`metrics`](Self::metrics) is new, so deserialization defaults it
/// to empty when absent instead of rejecting older reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated duration.
    pub duration: SimTime,
    /// Unidirectional channels in the fabric.
    pub num_channels: usize,
    /// Packets delivered inside the measurement window.
    pub packets_delivered: u64,
    /// Messages fully delivered inside the measurement window.
    pub messages_delivered: u64,
    /// Mean packet latency.
    pub mean_packet_latency: SimTime,
    /// Packet latency histogram.
    pub packet_latency_hist: LatencyHistogram,
    /// Mean message (last-packet) latency.
    pub mean_message_latency: SimTime,
    /// Total bytes offered by the workload over the run.
    pub offered_bytes: u64,
    /// Total bytes delivered over the run (including warm-up).
    pub delivered_bytes: u64,
    /// Average utilization across every channel — this *is* the power of
    /// an ideally energy-proportional network relative to baseline
    /// (§4.2.1: "the energy consumed by the network would exactly equal
    /// the average utilization of all links in the network").
    pub avg_channel_utilization: f64,
    /// Channel-time per rate (Figure 7's raw data).
    pub residency: RateResidency,
    /// Number of rate reconfigurations performed.
    pub reconfigurations: u64,
    /// Discrete events processed by the engine over the run — the
    /// denominator-free measure of simulation effort behind the
    /// events/sec numbers in `BENCH.json`.
    pub events_processed: u64,
    /// High-water mark of packets in flight.
    pub peak_live_packets: usize,
    /// Fraction of link-epoch samples in which a link's two opposing
    /// channels sat at *different* rates — direct evidence for the
    /// paper's §3.3.1 claim that "the load on the link may be
    /// asymmetric". Always 0 under [`ControlMode::PairedLink`]
    /// (the pair is tuned together) and for the baseline.
    ///
    /// [`ControlMode::PairedLink`]: crate::ControlMode::PairedLink
    pub asymmetric_link_fraction: f64,
    /// Largest output-queue occupancy observed, in bytes.
    pub peak_queue_bytes: u64,
    /// Rate timeline of the first `timeline_channels` channels
    /// (empty unless enabled in the configuration).
    pub timeline: Vec<TimelineEvent>,
    /// Engine counters and gauges, keyed by metric name (event pops
    /// per kind, credit-wake fires, TxDone batch sizes, per-rate
    /// residency, epoch-sampled queue depths). Every value derives
    /// purely from simulated behavior, so the map is identical across
    /// epoch modes and tracing on/off.
    pub metrics: BTreeMap<String, u64>,
    /// Host time of the run by engine layer (events, fluid advance,
    /// controller, epoch sample, dyntopo, finalize); the layers do not
    /// overlap. Host-time diagnostics only — never serialized, so
    /// reports stay byte-identical across hosts and runs.
    pub layers: Profile,
    /// Epoch ticks the controller processed. Diagnostics only — never
    /// serialized (it is derivable from duration and epoch length, and
    /// keeping it out of the report keeps the serialization surface
    /// purely behavioral).
    pub epoch_ticks: u64,
    /// Rate decisions the controller evaluated across the run. Under
    /// the active-set epoch path (the default `EpochMode`) only channels
    /// that did something since their last decision are visited (those
    /// resting after a hold count one hold per tick unvisited), so
    /// this counter is *mode-dependent* by design and — exactly like
    /// [`layers`](Self::layers) — is never serialized. It is the
    /// controller-work numerator behind the decisions-per-tick bound of
    /// the benchmark's `load` axis.
    pub controller_decisions: u64,
    /// Diagnostics, keyed by metric name — the hybrid model's flow
    /// counters (`flows_absorbed`, `flows_demoted`, …) and
    /// `epoch_steady_holds`, the holds counted for channels resting
    /// after a hold (zero under `EpochMode::Sweep`). Like
    /// [`layers`](Self::layers) they are never serialized, so
    /// packet-model reports stay byte-identical to pre-hybrid ones.
    pub diagnostics: BTreeMap<String, u64>,
    /// Delivered bytes rolled up per pod (contiguous switch groups, at
    /// most 64) — the hybrid model's bounded-memory substitute for
    /// per-entity telemetry at 10^5-host scale. Empty in packet mode,
    /// and serialized only when non-empty, so packet-mode reports stay
    /// byte-identical to pre-hybrid ones.
    pub pod_delivered_bytes: Vec<u64>,
}

impl Serialize for SimReport {
    fn to_value(&self) -> Value {
        // `layers` is deliberately absent: wall-clock times differ
        // across hosts and runs, and the determinism suite compares
        // serialized reports byte for byte.
        let mut fields = vec![
            ("duration".to_string(), self.duration.to_value()),
            ("num_channels".to_string(), self.num_channels.to_value()),
            (
                "packets_delivered".to_string(),
                self.packets_delivered.to_value(),
            ),
            (
                "messages_delivered".to_string(),
                self.messages_delivered.to_value(),
            ),
            (
                "mean_packet_latency".to_string(),
                self.mean_packet_latency.to_value(),
            ),
            (
                "packet_latency_hist".to_string(),
                self.packet_latency_hist.to_value(),
            ),
            (
                "mean_message_latency".to_string(),
                self.mean_message_latency.to_value(),
            ),
            ("offered_bytes".to_string(), self.offered_bytes.to_value()),
            (
                "delivered_bytes".to_string(),
                self.delivered_bytes.to_value(),
            ),
            (
                "avg_channel_utilization".to_string(),
                self.avg_channel_utilization.to_value(),
            ),
            ("residency".to_string(), self.residency.to_value()),
            (
                "reconfigurations".to_string(),
                self.reconfigurations.to_value(),
            ),
            (
                "events_processed".to_string(),
                self.events_processed.to_value(),
            ),
            (
                "peak_live_packets".to_string(),
                self.peak_live_packets.to_value(),
            ),
            (
                "asymmetric_link_fraction".to_string(),
                self.asymmetric_link_fraction.to_value(),
            ),
            (
                "peak_queue_bytes".to_string(),
                self.peak_queue_bytes.to_value(),
            ),
            ("timeline".to_string(), self.timeline.to_value()),
            ("metrics".to_string(), self.metrics.to_value()),
        ];
        // Appended last, and only when present (hybrid runs), so the
        // packet-mode byte stream is unchanged from pre-hybrid reports.
        if !self.pod_delivered_bytes.is_empty() {
            fields.push((
                "pod_delivered_bytes".to_string(),
                self.pod_delivered_bytes.to_value(),
            ));
        }
        Value::Map(fields)
    }
}

impl Deserialize for SimReport {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn req<T: Deserialize>(v: &Value, field: &'static str) -> Result<T, DeError> {
            T::from_value(
                v.get(field)
                    .ok_or_else(|| DeError::missing(&format!("SimReport.{field}")))?,
            )
        }
        Ok(Self {
            duration: req(v, "duration")?,
            num_channels: req(v, "num_channels")?,
            packets_delivered: req(v, "packets_delivered")?,
            messages_delivered: req(v, "messages_delivered")?,
            mean_packet_latency: req(v, "mean_packet_latency")?,
            packet_latency_hist: req(v, "packet_latency_hist")?,
            mean_message_latency: req(v, "mean_message_latency")?,
            offered_bytes: req(v, "offered_bytes")?,
            delivered_bytes: req(v, "delivered_bytes")?,
            avg_channel_utilization: req(v, "avg_channel_utilization")?,
            residency: req(v, "residency")?,
            reconfigurations: req(v, "reconfigurations")?,
            events_processed: req(v, "events_processed")?,
            peak_live_packets: req(v, "peak_live_packets")?,
            asymmetric_link_fraction: req(v, "asymmetric_link_fraction")?,
            peak_queue_bytes: req(v, "peak_queue_bytes")?,
            timeline: req(v, "timeline")?,
            // Absent in reports written before the metrics map.
            metrics: match v.get("metrics") {
                Some(m) => Deserialize::from_value(m)?,
                None => BTreeMap::new(),
            },
            // Absent in packet-mode and pre-hybrid reports.
            pod_delivered_bytes: match v.get("pod_delivered_bytes") {
                Some(p) => Deserialize::from_value(p)?,
                None => Vec::new(),
            },
            // Wall-clock and mode-dependent diagnostics are never
            // serialized.
            layers: Profile::default(),
            epoch_ticks: 0,
            controller_decisions: 0,
            diagnostics: BTreeMap::new(),
        })
    }
}

impl SimReport {
    /// Network power relative to the all-links-full-rate baseline, under
    /// a given channel power profile — the quantity plotted in
    /// Figure 8(a) (measured channels) and 8(b) (ideal channels).
    pub fn relative_power(&self, profile: &LinkPowerProfile) -> f64 {
        let total = self.residency.total_ps();
        if total == 0 {
            return 1.0;
        }
        let mut power = self.residency.off_ps as f64 * profile.idle_relative_power();
        for rate in epnet_power::RATE_LADDER {
            power += self.residency.at_rate_ps[rate.index()] as f64 * profile.relative_power(rate);
        }
        power / total as f64 / profile.relative_power(LinkRate::MAX)
    }

    /// Mean packet latency increase relative to a baseline run — the
    /// y-axis of Figure 9.
    pub fn added_latency_vs(&self, baseline: &SimReport) -> SimTime {
        self.mean_packet_latency
            .saturating_sub(baseline.mean_packet_latency)
    }

    /// Median packet latency (bucketed; see [`LatencyHistogram`]).
    pub fn p50_packet_latency(&self) -> SimTime {
        SimTime::from_ns(self.packet_latency_hist.quantile_ns(0.50))
    }

    /// 99th-percentile packet latency (bucketed).
    pub fn p99_packet_latency(&self) -> SimTime {
        SimTime::from_ns(self.packet_latency_hist.quantile_ns(0.99))
    }

    /// Delivered divided by offered bytes; below ~1.0 the network is not
    /// keeping up with the offered load.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered_bytes == 0 {
            1.0
        } else {
            self.delivered_bytes as f64 / self.offered_bytes as f64
        }
    }

    /// Fraction of channel-time at each ladder rate, slowest first —
    /// the bars of Figure 7.
    pub fn time_at_speed_fractions(&self) -> [f64; LinkRate::COUNT] {
        let mut out = [0.0; LinkRate::COUNT];
        for rate in epnet_power::RATE_LADDER {
            out[rate.index()] = self.residency.fraction_at(rate);
        }
        out
    }

    /// A multi-line human-readable summary of the run.
    pub fn to_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "simulated {}: {} packets / {} messages delivered ({:.1} MB, {:.1}% of offered)",
            self.duration,
            self.packets_delivered,
            self.messages_delivered,
            self.delivered_bytes as f64 / 1e6,
            self.delivery_ratio() * 100.0,
        );
        let _ = writeln!(
            s,
            "latency: mean {} / p50 {} / p99 {}",
            self.mean_packet_latency,
            self.p50_packet_latency(),
            self.p99_packet_latency(),
        );
        let _ = writeln!(
            s,
            "power vs baseline: {:.1}% measured / {:.1}% ideal channels (utilization floor {:.1}%)",
            self.relative_power(&LinkPowerProfile::Measured) * 100.0,
            self.relative_power(&LinkPowerProfile::Ideal) * 100.0,
            self.avg_channel_utilization * 100.0,
        );
        let fr = self.time_at_speed_fractions();
        let _ = write!(s, "time at speed:");
        for rate in epnet_power::RATE_LADDER {
            let _ = write!(s, " {}={:.1}%", rate, fr[rate.index()] * 100.0);
        }
        if self.residency.off_ps > 0 {
            let _ = write!(s, " off={:.1}%", self.residency.off_fraction() * 100.0);
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "{} reconfigurations; {:.1}% of link samples rate-asymmetric",
            self.reconfigurations,
            self.asymmetric_link_fraction * 100.0,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epnet_telemetry::Layer;

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        // Median falls in the bucket containing 400 ns.
        let q50 = h.quantile_ns(0.5);
        assert!((256..=512).contains(&q50), "got {q50}");
        // Tail reflects the 100 µs outlier.
        assert!(h.quantile_ns(1.0) >= 65_536);
        assert_eq!(LatencyHistogram::new().quantile_ns(0.5), 0);
    }

    #[test]
    fn bucket_edges_pin_quantile_semantics() {
        let h = LatencyHistogram::new();
        let edges = h.bucket_edges();
        assert_eq!(edges.len(), 64);
        assert_eq!(edges[0], 1);
        assert_eq!(edges[1], 2);
        assert_eq!(edges[63], 1u64 << 63);
        // Empty histogram: any quantile is 0, below every edge.
        assert_eq!(h.quantile_ns(0.0), 0);
        assert_eq!(h.quantile_ns(1.0), 0);

        // A single sample lands in the bucket whose edge is the
        // smallest power of two strictly above it, and every quantile
        // returns that same edge.
        let mut h = LatencyHistogram::new();
        h.record_ns(300);
        assert_eq!(h.quantile_ns(0.0), 512);
        assert_eq!(h.quantile_ns(0.5), 512);
        assert_eq!(h.quantile_ns(1.0), 512);
        assert!(edges.contains(&512));

        // Zero records like 1 ns (bucket of edge 2); the quantile never
        // returns edge[0] = 1.
        let mut h = LatencyHistogram::new();
        h.record_ns(0);
        assert_eq!(h.quantile_ns(1.0), 2);

        // An exact power of two belongs to the *next* bucket up: edges
        // are exclusive upper bounds.
        let mut h = LatencyHistogram::new();
        h.record_ns(512);
        assert_eq!(h.quantile_ns(0.5), 1024);

        // Overflow: anything at or above 2^62 saturates into the last
        // bucket, reported as its 2^63 edge.
        let mut h = LatencyHistogram::new();
        h.record_ns(u64::MAX);
        assert_eq!(h.quantile_ns(1.0), 1u64 << 63);
    }

    #[test]
    fn stats_window_excludes_warmup() {
        let mut s = Stats::new(SimTime::from_us(10));
        s.record_packet(SimTime::from_us(5), SimTime::from_us(6), 1000);
        s.record_packet(SimTime::from_us(15), SimTime::from_us(17), 1000);
        assert_eq!(s.packets, 1);
        assert_eq!(s.dropped_for_warmup, 1);
        assert_eq!(s.delivered_bytes, 2000);
        assert_eq!(s.measured_delivered_bytes, 1000);
        assert_eq!(s.packet_latency_sum_ps, 2_000_000);
        s.record_message(SimTime::from_us(5), SimTime::from_us(20));
        assert_eq!(s.messages, 0);
        s.record_message(SimTime::from_us(15), SimTime::from_us(20));
        assert_eq!(s.messages, 1);
    }

    fn report_with(residency: RateResidency) -> SimReport {
        SimReport {
            duration: SimTime::from_ms(1),
            num_channels: 10,
            packets_delivered: 0,
            messages_delivered: 0,
            mean_packet_latency: SimTime::ZERO,
            packet_latency_hist: LatencyHistogram::new(),
            mean_message_latency: SimTime::ZERO,
            offered_bytes: 0,
            delivered_bytes: 0,
            avg_channel_utilization: 0.0,
            residency,
            reconfigurations: 0,
            events_processed: 0,
            peak_live_packets: 0,
            asymmetric_link_fraction: 0.0,
            peak_queue_bytes: 0,
            timeline: Vec::new(),
            metrics: BTreeMap::new(),
            layers: Profile::default(),
            epoch_ticks: 0,
            controller_decisions: 0,
            diagnostics: BTreeMap::new(),
            pod_delivered_bytes: Vec::new(),
        }
    }

    #[test]
    fn relative_power_all_full_is_one() {
        let mut at = [0u128; LinkRate::COUNT];
        at[LinkRate::R40.index()] = 1_000;
        let r = report_with(RateResidency {
            at_rate_ps: at,
            off_ps: 0,
        });
        assert!((r.relative_power(&LinkPowerProfile::Measured) - 1.0).abs() < 1e-12);
        assert!((r.relative_power(&LinkPowerProfile::Ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_power_all_slow_matches_profiles() {
        let mut at = [0u128; LinkRate::COUNT];
        at[LinkRate::R2_5.index()] = 1_000;
        let r = report_with(RateResidency {
            at_rate_ps: at,
            off_ps: 0,
        });
        // §4.2.1: all-slowest consumes 42% (measured) or 6.25% (ideal).
        assert!((r.relative_power(&LinkPowerProfile::Measured) - 0.42).abs() < 1e-12);
        assert!((r.relative_power(&LinkPowerProfile::Ideal) - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn off_time_uses_idle_power() {
        let r = report_with(RateResidency {
            at_rate_ps: [0; LinkRate::COUNT],
            off_ps: 1_000,
        });
        assert!((r.relative_power(&LinkPowerProfile::Ideal) - 0.0).abs() < 1e-12);
        assert!((r.relative_power(&LinkPowerProfile::Measured) - 0.36).abs() < 1e-12);
        assert_eq!(r.residency.off_fraction(), 1.0);
    }

    #[test]
    fn time_at_speed_fractions_sum_to_one() {
        let r = report_with(RateResidency {
            at_rate_ps: [100, 200, 300, 150, 250],
            off_ps: 0,
        });
        let sum: f64 = r.time_at_speed_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_key_quantities() {
        let mut at = [0u128; LinkRate::COUNT];
        at[LinkRate::R2_5.index()] = 750;
        at[LinkRate::R40.index()] = 250;
        let mut r = report_with(RateResidency {
            at_rate_ps: at,
            off_ps: 0,
        });
        r.packets_delivered = 42;
        r.offered_bytes = 1000;
        r.delivered_bytes = 1000;
        let s = r.to_summary();
        assert!(s.contains("42 packets"));
        assert!(s.contains("100.0% of offered"));
        assert!(s.contains("2.5 Gb/s=75.0%"));
        assert!(s.contains("reconfigurations"));
    }

    #[test]
    fn report_serde_excludes_layers_and_defaults_metrics() {
        let mut r = report_with(RateResidency {
            at_rate_ps: [0; LinkRate::COUNT],
            off_ps: 0,
        });
        r.metrics.insert("events_workload".to_string(), 7);
        r.layers
            .charge(Layer::Events, std::time::Duration::from_nanos(123));
        r.epoch_ticks = 99;
        r.controller_decisions = 1234;
        r.diagnostics.insert("flows_absorbed".to_string(), 42);
        let v = r.to_value();
        assert!(v.get("metrics").is_some());
        assert!(
            v.get("pod_delivered_bytes").is_none(),
            "an empty pod rollup must not appear — packet-mode reports \
             stay byte-identical to pre-hybrid ones"
        );
        assert!(
            v.get("layers").is_none(),
            "wall-clock layers must never be serialized"
        );
        assert!(
            v.get("epoch_ticks").is_none() && v.get("controller_decisions").is_none(),
            "mode-dependent controller-work counters must never be serialized"
        );
        assert!(
            v.get("diagnostics").is_none(),
            "execution-strategy diagnostics must never be serialized"
        );
        let back = SimReport::from_value(&v).unwrap();
        assert_eq!(back.metrics.get("events_workload"), Some(&7));
        assert_eq!(back.layers, Profile::default());
        assert_eq!(back.epoch_ticks, 0);
        assert_eq!(back.controller_decisions, 0);
        assert!(back.diagnostics.is_empty());

        // Reports written before the metrics map existed still
        // deserialize, with an empty map.
        let Value::Map(mut fields) = v else {
            panic!("report serializes as a map")
        };
        fields.retain(|(k, _)| k != "metrics");
        let old = SimReport::from_value(&Value::Map(fields)).unwrap();
        assert!(old.metrics.is_empty());
        assert!(old.pod_delivered_bytes.is_empty());

        // A hybrid report's pod rollup round-trips, appended after the
        // stable packet-mode field tail.
        r.pod_delivered_bytes = vec![3, 5];
        let v = r.to_value();
        assert!(v.get("pod_delivered_bytes").is_some());
        let back = SimReport::from_value(&v).unwrap();
        assert_eq!(back.pod_delivered_bytes, vec![3, 5]);
    }

    #[test]
    fn delivery_ratio_and_added_latency() {
        let mut a = report_with(RateResidency {
            at_rate_ps: [0; LinkRate::COUNT],
            off_ps: 0,
        });
        a.offered_bytes = 1000;
        a.delivered_bytes = 900;
        assert!((a.delivery_ratio() - 0.9).abs() < 1e-12);
        let mut b = a.clone();
        a.mean_packet_latency = SimTime::from_us(12);
        b.mean_packet_latency = SimTime::from_us(10);
        assert_eq!(a.added_latency_vs(&b), SimTime::from_us(2));
        assert_eq!(b.added_latency_vs(&a), SimTime::ZERO);
    }
}
