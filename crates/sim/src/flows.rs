//! Fluid per-flow state for the hybrid simulation model
//! ([`SimModel::Hybrid`](crate::SimModel::Hybrid); see DESIGN.md "Hybrid flow/packet model").
//!
//! The packet engine's cost is proportional to *bytes moved*: a 4 MiB
//! transfer at the paper's scale is two thousand packet events before
//! it even contends. The hybrid model absorbs large messages whose path
//! is currently *steady* — no channel powered off, draining, or
//! congested — into a compact table and advances them analytically
//! once per controller epoch: each flow moves
//! `min_over_path(window / (serialize_ps_per_byte · sharers))` bytes.
//! That is an equal split of each channel among the flows crossing it,
//! minimised over the flow's fixed path — not a max-min fair
//! allocation, which would hand capacity a flow bottlenecked elsewhere
//! leaves unused to the channel's other flows. What a flow moved is
//! its share of each path channel's fluid load (bytes per epoch, in
//! `Channels::fluid`), which the controller reads as busy time
//! (`Channels::epoch_busy_ps`) right after the advance, so the §3.3
//! rate controller, the power model, and telemetry run unmodified on
//! top of either regime.
//!
//! A tick pays for what changed since the last one. Each flow caches
//! its full-epoch budget `min_over_path(epoch / (ps_per_byte ·
//! sharers))`; a per-channel change bitmap, written wherever a rate,
//! `available_at` or sharer count changes, tells a flow whether that
//! cache still holds. A flow with an unchanged path moves
//! `min(remaining, full)` without reading any channel state, and the
//! fluid load persists across ticks: only a flow whose budget moved
//! adjusts it on its path (marking those channels active for the
//! controller). Per-flow statistics stay per flow and exact.
//!
//! Regime boundaries are explicit and conservative:
//!
//! * **Absorb** (promotion to fluid) happens at injection, only for
//!   messages of at least [`FLOW_MIN_BYTES`] whose greedy minimal path
//!   (at most [`MAX_FLOW_HOPS`] channels) is steady. Everything else —
//!   small messages, paths through transitioning or congested channels
//!   — takes the packet path unchanged.
//! * **Reactivation windows** do not demote: a channel unavailable
//!   until `available_at` simply contributes a shorter capacity window
//!   (`now − max(last_advance, available_at)`), which is exactly the
//!   §3.2 cost a packet stream would pay waiting out the relock.
//! * **Demote** (back to packets) happens when a path channel powers
//!   off / starts draining, or develops a standing queue above the
//!   congestion threshold — the dynamics the packet model must own.
//!   The flow's remaining bytes re-enter the injection queue as
//!   ordinary packets carrying the original offer time, so latency and
//!   warmup accounting match a message that had always been packets.

use crate::channels::{Channels, F_UNSTEADY};
use crate::engine::Core;
use crate::traffic::Message;
use crate::SimTime;
use epnet_topology::{ChannelId, HostId, PortIndex, PortTarget};

/// Smallest message the hybrid model will absorb as a fluid flow.
/// Below this, per-packet dynamics dominate and aggregation saves
/// little; 64 KiB is 32 packets at the default 2 KiB packet size.
pub(crate) const FLOW_MIN_BYTES: u64 = 64 * 1024;

/// Longest absorbable path, in channels (injection + switch hops +
/// ejection). Both simulated families are diameter-2 fabrics (≤ 5
/// channels); 8 leaves headroom and keeps a flow's row one 64-byte
/// cache line.
pub(crate) const MAX_FLOW_HOPS: usize = 8;

/// A flow's path channel occupancy beyond this many packet payloads
/// counts as congestion onset and forces the packet regime.
const CONGESTION_PACKETS: u64 = 4;

/// One live fluid flow: a 64-byte row, one cache line.
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Bytes still to deliver.
    remaining: u64,
    /// Original workload offer time (warmup gating, message latency).
    offered_at: SimTime,
    /// Simulated time up to which this flow has been advanced.
    last_advance: SimTime,
    /// Destination host (raw id).
    dst: u32,
    /// Channels used, `path[..path_len]` (raw channel ids).
    path: [u32; MAX_FLOW_HOPS],
    path_len: u8,
}

const _: () = assert!(std::mem::size_of::<Flow>() == 64);

impl Flow {
    fn path(&self) -> &[u32] {
        &self.path[..self.path_len as usize]
    }
}

/// A live flow's cached fluid state, kept beside its [`Flow`] row.
#[derive(Debug, Clone, Copy)]
struct FlowLoad {
    /// Bytes the flow moves in a full epoch while nothing on its path
    /// changes: `min_over_path(epoch_ps / (ps_per_byte · sharers))`.
    full: u64,
    /// The budget the last pass moved: this flow's share of every path
    /// channel's `Channels::fluid`.
    charged: u64,
    /// Busy picoseconds one byte costs summed over the path.
    path_ps_per_byte: u64,
    /// Pod of the destination host (the delivered-bytes rollup).
    pod: u32,
    /// Whether `full` holds at the next pass if no path channel changes:
    /// false until the first pass, and while a path channel is still
    /// reactivating.
    valid: bool,
}

/// The live fluid flows, dense in live order: absorption appends and
/// release is a `swap_remove`, so the order flows advance in is a pure
/// function of the absorb/release sequence. Storage grows by amortized
/// doubling up to the high-water mark of concurrently live flows and
/// is never shrunk, so a warmed-up run allocates only when that mark
/// moves.
#[derive(Debug, Default)]
pub(crate) struct FlowTable {
    live: Vec<Flow>,
    /// Cached fluid state, in lockstep with `live`.
    loads: Vec<FlowLoad>,
    /// Live flows crossing each channel (indexed by channel, sized at
    /// construction in hybrid mode; empty in packet mode). Raised at
    /// absorption; a flow released during an advancement pass is still
    /// counted until the pass ends, so every flow in a pass sees the
    /// sharer counts as they stood when the pass began.
    per_channel: Vec<u32>,
    /// Path channels of the flows released by the last pass, each with
    /// the bytes the flow still has charged there: the sharer counts
    /// drop when that pass ends, the charges when the next one starts.
    retired: Vec<(u32, u64)>,
    /// Scratch for the absorb-time greedy path walk.
    path_scratch: Vec<PortIndex>,
    /// High-water mark of `live.len()` (diagnostics).
    peak_live: usize,
}

impl FlowTable {
    /// An empty table whose sharer counts cover `num_channels` (pass 0
    /// in packet mode — the table is never consulted there).
    pub(crate) fn new(num_channels: usize) -> Self {
        Self {
            per_channel: vec![0; num_channels],
            ..Self::default()
        }
    }

    /// Flows currently in the fluid regime (test observability).
    #[cfg(test)]
    pub(crate) fn live_count(&self) -> usize {
        self.live.len()
    }

    /// High-water mark of concurrently live flows over the run.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    fn alloc(&mut self, flow: Flow, pod: u32, channels: &mut Channels) {
        for &c in flow.path() {
            self.per_channel[c as usize] += 1;
            channels.mark_changed(c as usize);
        }
        self.live.push(flow);
        self.loads.push(FlowLoad {
            full: 0,
            charged: 0,
            path_ps_per_byte: 0,
            pod,
            valid: false,
        });
        self.peak_live = self.peak_live.max(self.live.len());
    }

    /// Releases the flow at `live_idx` (the tail flow takes its place),
    /// deferring its sharer-count drop to the end of the pass and the
    /// removal of its charge to the start of the next.
    fn release(&mut self, live_idx: usize) {
        let flow = self.live.swap_remove(live_idx);
        let charged = self.loads.swap_remove(live_idx).charged;
        let retired = flow.path().iter().map(|&c| (c, charged));
        self.retired.extend(retired);
    }

    /// Whether every channel's sharer count and fluid load equal a
    /// recount over the live and just-released flows (the sweep-mode
    /// cross-check; true between passes).
    #[cfg(debug_assertions)]
    pub(crate) fn loads_match_live(&self, fluid: &[u64]) -> bool {
        let mut count = vec![0u32; self.per_channel.len()];
        let mut bytes = vec![0u64; fluid.len()];
        for (flow, load) in self.live.iter().zip(&self.loads) {
            for &c in flow.path() {
                count[c as usize] += 1;
                bytes[c as usize] += load.charged;
            }
        }
        for &(c, charged) in &self.retired {
            bytes[c as usize] += charged;
        }
        count == self.per_channel && bytes == fluid
    }

    /// Ends an advancement pass: drops the released flows' sharer
    /// counts, which changes the budgets of the flows still sharing
    /// those channels.
    fn settle_retired(&mut self, channels: &mut Channels) {
        for &(c, _) in &self.retired {
            self.per_channel[c as usize] -= 1;
            channels.mark_changed(c as usize);
        }
    }
}

impl Core {
    /// Standing-queue bytes beyond which a channel is "congestion
    /// onset" for regime decisions.
    fn flow_congestion_limit(&self) -> u64 {
        CONGESTION_PACKETS * u64::from(self.config.packet_bytes)
    }

    /// The greedy minimal path `m` would pin if absorbed — injection
    /// channel, switch hops, ejection channel. `None` when the walk
    /// exceeds [`MAX_FLOW_HOPS`] or dead-ends under the dyntopo mask.
    fn flow_path(&mut self, m: &Message) -> Option<([u32; MAX_FLOW_HOPS], u8)> {
        let dst_switch = self.host_switch[m.dst.index()];
        let mut path = [0u32; MAX_FLOW_HOPS];
        path[0] = self.fabric.injection_channel(m.src).raw();
        let mut len = 1usize;
        let mut at = self.host_switch[m.src.index()];
        let mut scratch = std::mem::take(&mut self.flows.path_scratch);
        let mut routable = true;
        while at != dst_switch {
            // The ejection channel still needs a slot after this walk.
            if len + 1 >= MAX_FLOW_HOPS {
                routable = false;
                break;
            }
            self.fabric
                .candidate_ports_masked(at, m.dst, self.mask.as_ref(), &mut scratch);
            let Some(&port) = scratch.first() else {
                routable = false;
                break;
            };
            let ch = self.fabric.output_channel(at, port);
            path[len] = ch.raw();
            len += 1;
            match self.targets[ch.index()] {
                PortTarget::Switch { switch, .. } => at = switch,
                PortTarget::Host(_) => {
                    routable = false;
                    break;
                }
            }
        }
        self.flows.path_scratch = scratch;
        if !routable {
            return None;
        }
        path[len] = self.eject_channel[m.dst.index()].raw();
        Some((path, (len + 1) as u8))
    }

    /// Attempts to absorb `m` into the fluid regime. Returns `false` —
    /// send it down the packet path — when the greedy minimal path
    /// exceeds [`MAX_FLOW_HOPS`] or crosses a channel that is powered
    /// off, draining, or congested. Caller has already gated on the
    /// hybrid model and [`FLOW_MIN_BYTES`].
    pub(crate) fn try_absorb_flow(&mut self, m: &Message) -> bool {
        let Some((path, len)) = self.flow_path(m) else {
            return false;
        };
        // Steadiness gate: any interesting dynamics on the path keep
        // the message at packet fidelity.
        let limit = self.flow_congestion_limit();
        let steady = path[..len as usize].iter().all(|&c| {
            let i = c as usize;
            self.channels.flags[i] & F_UNSTEADY == 0 && self.channels.occupancy[i] <= limit
        });
        if !steady {
            return false;
        }
        let flow = Flow {
            remaining: m.bytes,
            offered_at: m.at,
            last_advance: m.at,
            dst: m.dst.raw(),
            path,
            path_len: len,
        };
        let pod = self.pod_of_host[m.dst.index()];
        self.flows.alloc(flow, pod, &mut self.channels);
        self.stats.counters.flows_absorbed += 1;
        true
    }

    /// Advances every live flow to `self.now` — called at the top of
    /// each epoch tick (before the controller reads per-channel
    /// utilization) and once more at finish for the partial window up
    /// to the horizon.
    ///
    /// Each flow moves an equal split of every path channel among the
    /// flows crossing it, limited by the tightest channel:
    /// `min_over_path(capacity_window / (ps_per_byte · sharers))`, where
    /// a channel mid-reactivation contributes only the window after
    /// `available_at`. What a flow moved is its share of each path
    /// channel's fluid load, which the controller reads as busy time
    /// exactly as it would packet serialization, so `epoch_utilization`
    /// is regime-independent.
    ///
    /// A flow whose last pass was a full epoch ago, whose cache is valid
    /// and none of whose path channels changed since moves
    /// `min(remaining, full)` without reading its path's channel state;
    /// any other flow walks its path and refreshes the cache. Only a
    /// flow whose budget differs from the last pass's touches the fluid
    /// load, marking those channels active. While the network-wide
    /// bounds show no queue above the congestion limit and no channel
    /// off or draining, no channel can fail the steadiness check; a
    /// demotion earlier in the pass queues packets, so the bounds are
    /// re-read per flow, and a flow that must check walks its path.
    pub(crate) fn advance_flows(&mut self) {
        // The flows the last pass released leave the fluid load now.
        for &(c, charged) in &self.flows.retired {
            if charged > 0 {
                self.channels.fluid[c as usize] -= charged;
                self.channels.mark_active(c as usize);
            }
        }
        self.flows.retired.clear();
        if self.flows.live.is_empty() {
            return;
        }
        let now = self.now;
        let epoch_ps = self.config.epoch.as_ps();
        let limit = self.flow_congestion_limit();
        let mut k = 0usize;
        while k < self.flows.live.len() {
            let flow = self.flows.live[k];
            let check = self.channels.queued_total() > limit || self.channels.unsteady() > 0;
            let load = self.flows.loads[k];
            let cached = !check
                && load.valid
                && (now - flow.last_advance).as_ps() == epoch_ps
                && flow
                    .path()
                    .iter()
                    .all(|&c| !self.channels.changed(c as usize));
            let budget = if cached {
                flow.remaining.min(load.full)
            } else if let Some(budget) = self.refresh_flow(k, check, epoch_ps, limit) {
                budget
            } else {
                // Unsteady path: the flow's charge leaves now, and
                // `swap_remove` moves the tail flow into index k, so k
                // does not advance.
                self.charge_flow(k, 0);
                self.flows.release(k);
                let dst = HostId::new(flow.dst);
                let inj = ChannelId::new(flow.path[0]);
                self.inject_packets(inj, dst, flow.remaining, flow.offered_at);
                self.stats.counters.flows_demoted += 1;
                continue;
            };
            self.charge_flow(k, budget);
            if budget > 0 {
                let load = &self.flows.loads[k];
                let busy = u128::from(budget) * u128::from(load.path_ps_per_byte);
                self.stats.busy_ps_total += busy;
                self.stats.record_flow_bytes(flow.offered_at, budget);
                self.stats.counters.flow_fluid_bytes += budget;
                self.pod_bytes[load.pod as usize] += budget;
            }
            if flow.remaining == budget {
                self.stats.record_message(flow.offered_at, now);
                self.stats.counters.flows_completed += 1;
                self.flows.release(k);
                continue;
            }
            let live = &mut self.flows.live[k];
            live.remaining -= budget;
            live.last_advance = now;
            k += 1;
        }
        self.channels.clear_changed();
        self.flows.settle_retired(&mut self.channels);
    }

    /// Walks flow `k`'s path: refreshes its cached full-epoch budget,
    /// path cost and validity, and returns this pass's budget — or
    /// `None` when `check` is set and a path channel is powered off,
    /// draining or congested.
    fn refresh_flow(&mut self, k: usize, check: bool, epoch_ps: u64, limit: u64) -> Option<u64> {
        let now = self.now;
        let flow = self.flows.live[k];
        let mut budget = flow.remaining;
        let mut full = u64::MAX;
        let mut path_ps_per_byte = 0;
        let mut valid = true;
        for &c in flow.path() {
            let i = c as usize;
            if check
                && (self.channels.flags[i] & F_UNSTEADY != 0 || self.channels.occupancy[i] > limit)
            {
                return None;
            }
            let available_at = self.channels.available_at[i];
            let from = flow.last_advance.max(available_at).min(now);
            let window_ps = (now - from).as_ps();
            let ppb = self.channels.rate[i].serialize_ps(1);
            let split = ppb * u64::from(self.flows.per_channel[i]);
            full = full.min(epoch_ps / split);
            budget = budget.min(window_ps / split);
            path_ps_per_byte += ppb;
            valid &= available_at <= now;
        }
        let load = &mut self.flows.loads[k];
        load.full = full;
        load.path_ps_per_byte = path_ps_per_byte;
        load.valid = valid;
        Some(budget)
    }

    /// Sets flow `k`'s share of its path channels' fluid load to
    /// `budget`, marking the channels active when it changes.
    fn charge_flow(&mut self, k: usize, budget: u64) {
        let charged = self.flows.loads[k].charged;
        if budget == charged {
            return;
        }
        for &c in self.flows.live[k].path() {
            let i = c as usize;
            self.channels.fluid[i] = self.channels.fluid[i] - charged + budget;
            self.channels.mark_active(i);
        }
        self.flows.loads[k].charged = budget;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::F_DRAINING;
    use crate::config::SimConfig;
    use crate::options::SimModel;
    use crate::traffic::ReplaySource;
    use crate::Simulator;
    use epnet_power::LinkRate;
    use epnet_topology::FlattenedButterfly;

    fn hybrid_sim(messages: Vec<Message>) -> Simulator<ReplaySource> {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        Simulator::with_model(
            fabric,
            SimConfig::default(),
            ReplaySource::new(messages),
            SimModel::Hybrid,
        )
    }

    #[test]
    fn large_steady_message_is_absorbed_and_delivered_as_fluid() {
        let m = Message {
            at: SimTime::from_us(60),
            src: HostId::new(0),
            dst: HostId::new(7),
            bytes: 512 * 1024,
        };
        let report = hybrid_sim(vec![m]).run_until(SimTime::from_ms(2));
        assert_eq!(report.delivered_bytes, 512 * 1024);
        assert_eq!(report.messages_delivered, 1);
        // Fluid delivery produces no packet-latency samples.
        assert_eq!(report.packets_delivered, 0);
        assert_eq!(report.diagnostics["flows_absorbed"], 1);
        assert_eq!(report.diagnostics["flows_completed"], 1);
        assert_eq!(report.diagnostics["flows_demoted"], 0);
        assert_eq!(report.diagnostics["flow_fluid_bytes"], 512 * 1024);
        // Per-pod rollups account for every delivered byte.
        assert_eq!(
            report.pod_delivered_bytes.iter().sum::<u64>(),
            report.delivered_bytes
        );
    }

    #[test]
    fn pod_rollup_clamps_at_sixty_four_pods_and_covers_them_all() {
        // FBFLY(1, 16, 3) has 256 switches — past the 64-pod clamp —
        // so the hybrid report's per-pod vector must stay exactly 64
        // entries (the bound that keeps reports O(1) at the bench's
        // 2^20-host grouped(32, 32, 4) point, where 32,768 switches
        // fold into the same 64 pods).
        let fabric = FlattenedButterfly::new(1, 16, 3).unwrap().build_fabric();
        let sim = Simulator::with_model(
            fabric,
            SimConfig::default(),
            ReplaySource::new(Vec::new()),
            SimModel::Hybrid,
        );
        let report = sim.run_until(SimTime::from_us(1));
        assert_eq!(report.pod_delivered_bytes.len(), 64);
        // The mapping `switch * pods / num_switches` lands every
        // switch in range and leaves no pod unreachable.
        let (ns, pods) = (256usize, 64usize);
        let mut hit = [false; 64];
        for sw in 0..ns {
            let pod = sw * pods / ns;
            assert!(pod < pods, "switch {sw} maps out of range");
            hit[pod] = true;
        }
        assert!(hit.iter().all(|&h| h), "a pod is unreachable");
    }

    #[test]
    fn small_messages_keep_packet_fidelity() {
        let m = Message {
            at: SimTime::from_us(60),
            src: HostId::new(0),
            dst: HostId::new(7),
            bytes: FLOW_MIN_BYTES - 1,
        };
        let report = hybrid_sim(vec![m]).run_until(SimTime::from_ms(1));
        assert_eq!(report.delivered_bytes, FLOW_MIN_BYTES - 1);
        assert!(
            report.packets_delivered > 0,
            "below-threshold stays packets"
        );
        assert_eq!(report.diagnostics["flows_absorbed"], 0);
    }

    #[test]
    fn fluid_utilization_drives_the_controller_like_packets_would() {
        // A single long-lived flow must keep its path channels busy in
        // the controller's eyes: utilization-driven retuning (and hence
        // residency/power) has to see fluid movement. Saturate one
        // host pair for the whole horizon and check the fabric does not
        // collapse to the floor rate everywhere.
        let m = Message {
            at: SimTime::ZERO,
            src: HostId::new(0),
            dst: HostId::new(7),
            bytes: 100 * 1024 * 1024, // far more than the horizon can move
        };
        let report = hybrid_sim(vec![m]).run_until(SimTime::from_ms(1));
        assert!(report.delivered_bytes > 0);
        assert!(
            report.avg_channel_utilization > 0.0,
            "fluid busy time must reach the utilization rollup"
        );
        // The flow's channels ride above the floor while idle channels
        // still detune — the energy-proportional shape survives.
        assert!(report.reconfigurations > 0);
    }

    #[test]
    fn free_list_recycles_slots_under_absorb_demote_churn() {
        // Two flows live sequentially: the second must reuse the row
        // the first released (demotion), so the table's high-water
        // stays at one while two absorptions happened.
        let mk = |at_us: u64| Message {
            at: SimTime::from_us(at_us),
            src: HostId::new(0),
            dst: HostId::new(7),
            bytes: 256 * 1024,
        };
        // The second offer waits out the first flow's demoted packets
        // (256 KiB serializes in well under 900 µs even at the floor
        // rate), so its path is steady again when it arrives.
        let mut sim = hybrid_sim(vec![mk(60), mk(1000)]);
        sim.prime(SimTime::from_ms(2));
        sim.advance_until(SimTime::from_us(61));
        assert_eq!(sim.core.flows.live_count(), 1);
        let inj = sim.core.fabric.injection_channel(HostId::new(0));
        sim.core.channels.set_flag(inj.index(), F_DRAINING);
        sim.advance_until(SimTime::from_us(75));
        assert_eq!(sim.core.flows.live_count(), 0, "first flow must demote");
        sim.core.channels.clear_flag(inj.index(), F_DRAINING);
        sim.advance_until(SimTime::from_us(1001));
        assert_eq!(sim.core.flows.live_count(), 1, "second flow absorbed");
        assert_eq!(
            sim.core.flows.peak_live(),
            1,
            "the released row must be reused, not the table grown"
        );
        sim.advance_until(SimTime::from_ms(2));
        let report = sim.finalize();
        assert_eq!(report.diagnostics["flows_absorbed"], 2);
        assert_eq!(report.diagnostics["flow_table_peak"], 1);
        assert!(report.delivered_bytes >= 2 * 256 * 1024);
    }

    #[test]
    fn cached_budget_follows_path_rate_and_sharer_changes() {
        // Rates stay put without a controller, so every change to flow
        // A's cached full-epoch budget below comes from the test's own
        // rate writes and from flow B joining and leaving A's
        // injection channel.
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let config = SimConfig::builder()
            .control(crate::config::ControlMode::AlwaysFull)
            .build();
        let mk = |at_us: u64, dst: u32, bytes: u64| Message {
            at: SimTime::from_us(at_us),
            src: HostId::new(0),
            dst: HostId::new(dst),
            bytes,
        };
        let messages = vec![mk(0, 7, 100 * 1024 * 1024), mk(40, 6, 300_000)];
        let source = ReplaySource::new(messages);
        let mut sim = Simulator::with_model(fabric, config, source, SimModel::Hybrid);
        let full_of_a = |sim: &Simulator<ReplaySource>| sim.core.flows.loads[0].full;
        // 10 µs epoch at 40 Gb/s (200 ps/byte), path unshared.
        let alone = 50_000;
        sim.prime(SimTime::from_ms(1));
        sim.advance_until(SimTime::from_us(15));
        assert_eq!(full_of_a(&sim), alone);
        // A path channel halves its rate: the next pass recomputes.
        let eject = sim.core.eject_channel[7].index();
        sim.core.channels.set_rate(eject, LinkRate::R20);
        sim.advance_until(SimTime::from_us(25));
        assert_eq!(full_of_a(&sim), alone / 2, "rate change ignored");
        sim.core.channels.set_rate(eject, LinkRate::R40);
        sim.advance_until(SimTime::from_us(35));
        assert_eq!(full_of_a(&sim), alone);
        // B joins A's injection channel at 40 µs...
        sim.advance_until(SimTime::from_us(55));
        assert_eq!(sim.core.flows.live_count(), 2);
        assert_eq!(full_of_a(&sim), alone / 2, "sharer join ignored");
        // ...and leaves once its 300 kB are through.
        sim.advance_until(SimTime::from_us(400));
        assert_eq!(sim.core.flows.live_count(), 1);
        assert_eq!(full_of_a(&sim), alone, "sharer leave ignored");
        let report = sim.finalize();
        assert_eq!(report.diagnostics["flows_completed"], 1);
    }

    #[test]
    fn draining_path_channel_demotes_the_flow_to_packets() {
        // Offered after the 50 µs warmup so the demoted packets land in
        // the measured window.
        let m = Message {
            at: SimTime::from_us(60),
            src: HostId::new(0),
            dst: HostId::new(7),
            bytes: 256 * 1024,
        };
        let mut sim = hybrid_sim(vec![m]);
        sim.prime(SimTime::from_ms(2));
        // Deliver the workload pull, then force the flow's injection
        // channel into a draining state before the next epoch tick.
        sim.advance_until(SimTime::from_us(61));
        assert_eq!(sim.core.flows.live_count(), 1);
        let inj = sim.core.fabric.injection_channel(HostId::new(0));
        sim.core.channels.set_flag(inj.index(), F_DRAINING);
        sim.advance_until(SimTime::from_us(75));
        assert_eq!(sim.core.flows.live_count(), 0, "flow must demote");
        sim.core.channels.clear_flag(inj.index(), F_DRAINING);
        sim.advance_until(SimTime::from_ms(2));
        let report = sim.finalize();
        assert_eq!(report.delivered_bytes, 256 * 1024);
        assert_eq!(report.diagnostics["flows_demoted"], 1);
        assert!(
            report.packets_delivered > 0,
            "demoted bytes travel as packets"
        );
    }
}
