//! The event-driven simulator engine.
//!
//! # Modelling notes (see DESIGN.md for the full rationale)
//!
//! * Packet granularity with virtual cut-through approximated by a fixed
//!   per-hop router latency. All headline results of the paper are
//!   *deltas* against a baseline run using the identical forwarding
//!   model.
//! * Credit-based link-level flow control: a channel may only start
//!   serializing a packet when the downstream input buffer has space;
//!   credits return after a propagation delay once the packet moves on.
//!   Output queues are unbounded (switches are "both input and output
//!   buffered", §4.1 — we give the output side elastic depth, which keeps
//!   the fabric deadlock-free without virtual channels while preserving
//!   the congestion signal adaptive routing needs).
//! * Adaptive routing: at each hop the packet picks, among the minimal
//!   candidate ports, the one with the smallest output-queue occupancy
//!   ("adaptively route on each hop based solely on the output queue
//!   depth", §4.1), with a deterministic rotating tie-break.
//! * Link-rate control runs at the end of every epoch (§3.3). A rate
//!   change makes the channel unavailable for the reactivation latency;
//!   traffic routed toward it queues up and adaptive routing steers
//!   around the congestion, exactly the second tolerance strategy of
//!   §3.2. The control plane — the epoch tick and its one decision
//!   walker — is an `impl Core` block in `controller.rs`, as the fluid
//!   plane is in `flows.rs`; this file holds the core, the run loop and
//!   the packet plane.
//!
//! # Memory layout
//!
//! Per-channel state is struct-of-arrays ([`crate::channels::Channels`]):
//! the fields every event touches live in dense parallel `Vec`s indexed
//! by channel, and residency is network-wide. Output queues share one
//! pool of fixed-size chunks, each channel holding only a 4-byte handle
//! into it ([`crate::fifo::Fifos`]); wire delays come from a four-entry
//! table indexed by two flag bits; and a channel's receiving endpoint,
//! like a host's switch and its ejection channel, is one read of the
//! fabric's channel-target table. An event is 32 bits in a 16-byte
//! queue entry, and each wire has at most one `Arrive` queued: packets
//! launched behind it wait in a chain through their packet records,
//! under the keys they reserved at launch ([`Core::launch`]). A channel's earliest credit return sits inline
//! in its hot arrays; later ones spill into a second chunk pool.
//! Message records, packet slots and queue chunks recycle through free
//! lists, so a warmed-up run performs no steady-state heap allocation
//! (see DESIGN.md "Memory layout").

use crate::channels::{
    wire_delays, Channels, F_BUSY, F_CREDIT_WAKE, F_DRAINING, F_OFF, F_OPTICAL, F_RETRY,
    F_TO_SWITCH,
};
use crate::config::{ControlMode, RoutingPolicy, SimConfig};
use crate::controller::{PlannedDecision, PLAN_CHUNK};
use crate::dyntopo::DynamicTopology;
use crate::event::{Event, MAX_INDEX};
use crate::flows::FlowTable;
use crate::instrument::Instruments;
use crate::options::{EpochMode, RunOptions, SimModel};
use crate::packet::{MessageId, Packet, PacketArena, PacketId, NO_PACKET};
use crate::sched::Scheduler;
use crate::stats::{SimReport, Stats};
use crate::traffic::{Message, TrafficSource};
use crate::SimTime;
use epnet_telemetry::{Layer, TraceCategory, Tracer};
use epnet_topology::{
    ChannelId, FabricGraph, HostId, LinkMask, Medium, PortIndex, PortTarget, RoutingTopology,
    SwitchId,
};
use std::time::Instant;

/// Record of an in-flight message for completion tracking. Slots are
/// recycled through a free list once the last packet delivers, so the
/// table is bounded by concurrently in-flight messages.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MessageRec {
    pub(crate) remaining: u32,
    pub(crate) offered_at: SimTime,
}

/// The event-driven network simulator (§4.1: "an in-house event-driven
/// network simulator, which has been heavily modified to support future
/// high-performance networks").
///
/// Build one per run: [`Simulator::run_until`] consumes the simulator and
/// returns a [`SimReport`]. Harnesses that need to observe the engine
/// mid-run (e.g. to snapshot allocator counters after warmup) can use
/// the phased equivalents [`Simulator::prime`],
/// [`Simulator::advance_until`], and [`Simulator::finalize`] —
/// `run_until` is exactly their composition.
///
/// ```
/// use epnet_sim::{Message, ReplaySource, SimConfig, SimTime, Simulator};
/// use epnet_topology::{FlattenedButterfly, HostId};
///
/// let fabric = FlattenedButterfly::new(2, 4, 2)?.build_fabric();
/// let traffic = ReplaySource::new(vec![Message {
///     at: SimTime::from_us(1),
///     src: HostId::new(0),
///     dst: HostId::new(7),
///     bytes: 64 * 1024,
/// }]);
/// let report = Simulator::new(fabric, SimConfig::baseline(), traffic)
///     .run_until(SimTime::from_ms(1));
/// assert_eq!(report.delivered_bytes, 64 * 1024);
/// # Ok::<(), epnet_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<S> {
    /// The non-generic engine core: all simulation state except the
    /// traffic source.
    pub(crate) core: Core,
    source: S,
    pending: Option<Message>,
    /// Whether [`Simulator::prime`] has run.
    primed: bool,
}

/// The engine core: every piece of simulation state except the traffic
/// source, with all event handlers. Non-generic, so the handlers are
/// compiled once whatever the traffic source.
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) fabric: FabricGraph,
    pub(crate) config: SimConfig,
    pub(crate) queue: Scheduler<Event>,
    pub(crate) now: SimTime,
    pub(crate) end: SimTime,
    pub(crate) channels: Channels,
    pub(crate) arena: PacketArena,
    pub(crate) messages: Vec<MessageRec>,
    /// Retired message slots awaiting reuse.
    pub(crate) msg_free: Vec<u32>,
    pub(crate) stats: Stats,
    pub(crate) mask: Option<LinkMask>,
    pub(crate) dyntopo: Option<DynamicTopology>,
    /// `route()`'s reused candidate-port buffer.
    pub(crate) scratch: Vec<PortIndex>,
    /// Which epoch-tick implementation runs ([`RunOptions::epoch`]; see
    /// [`Core::on_epoch`]).
    pub(crate) epoch_mode: EpochMode,
    /// A paired active-set tick's link set, one bit per link: filled
    /// from the active channels, cleared as it is scanned.
    pub(crate) link_bits: Vec<u64>,
    /// An epoch tick's retained plan (see [`Core::retune`]).
    pub(crate) plan: Vec<PlannedDecision>,
    /// End of the current utilization-measurement epoch.
    pub(crate) epoch_end: SimTime,
    /// Whether epoch ticks run (rate controller or dynamic topology):
    /// bounds transmission trains at the epoch so no rate or mask
    /// change can land mid-train.
    pub(crate) controller_active: bool,
    /// Which simulation regime this core runs ([`RunOptions::model`]).
    pub(crate) model: SimModel,
    /// Fluid per-flow state (hybrid model; empty in packet mode).
    pub(crate) flows: FlowTable,
    /// Delivered bytes per pod, indexed by [`Core::pod_of`] (hybrid
    /// model only; empty in packet mode, which keeps packet-mode
    /// reports byte-identical).
    pub(crate) pod_bytes: Vec<u64>,
    /// Telemetry: tracer and layer profile.
    pub(crate) inst: Instruments,
}

impl<S: TrafficSource> Simulator<S> {
    /// Creates a simulator over `fabric` driven by `source`, with the
    /// default run options ([`RunOptions::default`]).
    pub fn new(fabric: FabricGraph, config: SimConfig, source: S) -> Self {
        Self::with_options(fabric, config, source, RunOptions::default())
    }

    /// Creates a simulator with an explicit simulation model and the
    /// default epoch ticks.
    pub fn with_model(fabric: FabricGraph, config: SimConfig, source: S, model: SimModel) -> Self {
        let options = RunOptions {
            model,
            ..RunOptions::default()
        };
        Self::with_options(fabric, config, source, options)
    }

    /// Creates a simulator with explicit run options. Benches and tests
    /// comparing configurations within one process use this.
    pub fn with_options(
        fabric: FabricGraph,
        config: SimConfig,
        source: S,
        options: RunOptions,
    ) -> Self {
        Self {
            core: Core::build(fabric, config, options),
            source,
            pending: None,
            primed: false,
        }
    }
}

impl Core {
    /// Builds an engine core over `fabric`, untraced.
    fn build(fabric: FabricGraph, config: SimConfig, options: RunOptions) -> Self {
        config.validate();
        let model = options.model;
        let n = fabric.num_channels();
        assert!(
            n <= MAX_INDEX as usize + 1,
            "{n} channels: an event's channel index has 29 bits (at most 2^29 channels)"
        );
        let delays = wire_delays(
            config.electrical_propagation,
            config.optical_propagation,
            config.router_latency,
        );
        let mut channels = Channels::with_capacity(n, delays);
        for ch in 0..n {
            let id = ChannelId::new(ch as u32);
            let tunable = config.tune_host_links || !fabric.is_host_channel(id);
            let optical = match fabric.channel_medium(id) {
                Medium::Electrical => 0,
                Medium::Optical => F_OPTICAL,
            };
            let to_switch = match fabric.channel_target(id) {
                PortTarget::Host(_) => 0,
                PortTarget::Switch { .. } => F_TO_SWITCH,
            };
            let wire = optical | to_switch;
            channels.push(config.max_rate, config.input_buffer_bytes, tunable, wire);
        }
        // Peer wiring: the incremental asymmetric-link counter compares
        // each channel against the opposing channel of its link.
        let num_links = fabric.num_links();
        for link in 0..num_links {
            let (a, b) = fabric.link_channels(epnet_topology::LinkId::new(link as u32));
            channels.set_peers(a.index(), b.index());
        }
        if model == SimModel::Hybrid {
            channels.enable_fluid();
        }
        let warmup = config.warmup;
        let first_epoch_end = config.epoch;
        // Pods partition the switch range into at most 64 contiguous
        // groups, so the rollup stays bounded however large the fabric
        // grows; built only for the hybrid model, whose per-pod vector
        // is the only report field that scales with topology size.
        let pod_bytes = if model == SimModel::Hybrid {
            vec![0u64; fabric.num_switches().clamp(1, 64)]
        } else {
            Vec::new()
        };
        Self {
            queue: Scheduler::new(),
            fabric,
            config,
            now: SimTime::ZERO,
            end: SimTime::ZERO,
            channels,
            arena: PacketArena::new(),
            messages: Vec::new(),
            msg_free: Vec::new(),
            stats: Stats::new(warmup),
            mask: None,
            dyntopo: None,
            scratch: Vec::new(),
            epoch_mode: options.epoch,
            link_bits: vec![0; num_links.div_ceil(64)],
            plan: Vec::with_capacity(PLAN_CHUNK + 128),
            epoch_end: first_epoch_end,
            controller_active: false,
            model,
            flows: FlowTable::new(if model == SimModel::Hybrid { n } else { 0 }),
            pod_bytes,
            inst: Instruments::default(),
        }
    }
}

impl<S: TrafficSource> Simulator<S> {
    /// Attaches a tracer to this run (a
    /// [`FileSink`](epnet_telemetry::FileSink) for a JSONL file, a
    /// [`MemorySink`](epnet_telemetry::MemorySink) in memory).
    /// Construction emits no record, so a tracer attached before the
    /// run captures all of it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.core.inst.set_tracer(tracer);
    }

    /// Enables the dynamic-topology extension (§5.2): links beyond the
    /// mesh tier may be powered off entirely under low load and
    /// re-enabled as demand grows.
    pub fn enable_dynamic_topology(&mut self, dt: DynamicTopology) {
        // Power transitions land between a tick's decisions and its
        // recharge, where no rest after a hold could notice them.
        self.core.channels.wake_steady();
        self.core.mask = Some(LinkMask::all_enabled(&self.core.fabric));
        self.core.dyntopo = Some(dt);
    }

    /// The fabric being simulated.
    pub fn fabric(&self) -> &FabricGraph {
        &self.core.fabric
    }

    /// Events popped so far — lets phased harnesses compute per-window
    /// deltas (e.g. allocations per event after warmup).
    pub fn events_processed(&self) -> u64 {
        self.core.stats.events
    }

    /// Runs the simulation until simulated time `end` and reports.
    pub fn run_until(mut self, end: SimTime) -> SimReport {
        self.prime(end);
        self.advance_until(end);
        self.finalize()
    }

    /// Seeds the run toward horizon `end`: initial rate samples, the
    /// first workload pull, and the first epoch tick. Call once, before
    /// [`Simulator::advance_until`].
    pub fn prime(&mut self, end: SimTime) {
        assert!(!self.primed, "prime() called twice");
        self.primed = true;
        let start = Instant::now();
        let core = &mut self.core;
        core.end = end;
        core.stats.timeline_channels = core
            .config
            .timeline_channels
            .min(core.channels.len() as u32);
        for ch in 0..core.stats.timeline_channels {
            let rate = core.channels.rate[ch as usize];
            core.stats.record_rate(SimTime::ZERO, ch, Some(rate));
        }
        self.pending = self.source.next_message();
        if let Some(m) = self.pending {
            self.core.queue.schedule(m.at, Event::Workload);
        }
        self.core.controller_active = self.core.config.control != ControlMode::AlwaysFull
            || self.core.dyntopo.is_some()
            || self.core.model == SimModel::Hybrid;
        if self.core.controller_active {
            let epoch = self.core.config.epoch;
            self.core.queue.schedule(epoch, Event::EpochTick);
        }
        self.core
            .inst
            .profile
            .charge(Layer::Events, start.elapsed());
    }

    /// Processes every event scheduled at or before
    /// `min(until, horizon)`. May be called repeatedly with
    /// nondecreasing times; [`Simulator::run_until`] is
    /// `prime(end)` + `advance_until(end)` + `finalize()`.
    pub fn advance_until(&mut self, until: SimTime) {
        assert!(self.primed, "advance_until() before prime()");
        let cap = if until < self.core.end {
            until
        } else {
            self.core.end
        };
        // The call is one `Layer::Events` span; the epoch ticks inside
        // it charge their own layers, which the span then excludes.
        let start = Instant::now();
        let mark = self.core.inst.profile.mark();
        // Peek before popping: events beyond the horizon stay queued
        // (the queue is dropped wholesale with the engine) and the
        // monotonic-pop invariant is checked without consuming.
        // Event-kind counts accumulate in registers and flush into
        // `stats.counters` once per call: incrementing the fields in
        // the pop loop ran ~5% slower on the reference benchmark's
        // packet workload (EXPERIMENTS.md "One counter store").
        let mut n_workload = 0u64;
        let mut n_tx_done = 0u64;
        let mut n_arrive = 0u64;
        let mut n_credit_wake = 0u64;
        let mut n_retry = 0u64;
        while let Some(t) = self.core.queue.peek_time() {
            if t > cap {
                break;
            }
            if self.core.queue.renumber_due() {
                self.core.renumber_seqs();
            }
            debug_assert!(t >= self.core.now, "time went backwards");
            let (t, ev) = self.core.queue.pop().expect("peeked event vanished");
            // The next arrival's packet record has usually left the
            // cache since its launch; loading it now overlaps that miss
            // with this event's work (EXPERIMENTS.md "Packet hot path").
            if let Some((_, Event::Arrive { slot })) = self.core.queue.peek() {
                self.core.arena.touch(slot);
            }
            self.core.now = t;
            self.core.stats.events += 1;
            // `on_epoch` counts its own ticks (`stats.epoch_ticks`).
            match ev {
                Event::Workload => {
                    n_workload += 1;
                    self.on_workload();
                }
                Event::TxDone { channel } => {
                    n_tx_done += 1;
                    self.core.on_tx_done(channel);
                }
                Event::Arrive { slot } => {
                    n_arrive += 1;
                    self.core.on_arrive(slot);
                }
                Event::CreditWake { channel } => {
                    n_credit_wake += 1;
                    self.core.on_credit_wake(channel);
                }
                Event::Retry { channel } => {
                    n_retry += 1;
                    self.core.on_retry(channel);
                }
                Event::EpochTick => self.core.on_epoch(),
            }
        }
        let counters = &mut self.core.stats.counters;
        counters.ev_workload += n_workload;
        counters.ev_tx_done += n_tx_done;
        counters.ev_arrive += n_arrive;
        counters.ev_credit_wake += n_credit_wake;
        counters.ev_retry += n_retry;
        let profile = &mut self.core.inst.profile;
        profile.charge_since(Layer::Events, mark, start.elapsed());
    }

    /// Closes the run at the horizon and produces the report. Consumes
    /// the simulator; events still queued past the horizon are dropped
    /// wholesale with it.
    pub fn finalize(mut self) -> SimReport {
        assert!(self.primed, "finalize() before prime()");
        self.core.now = self.core.end;
        // The `Layer::Finalize` span covers `finish` up to its return,
        // which drops the engine state the report does not keep.
        let start = Instant::now();
        let mark = self.core.inst.profile.mark();
        let mut report = self.core.finish();
        report
            .layers
            .charge_since(Layer::Finalize, mark, start.elapsed());
        report
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_workload(&mut self) {
        while let Some(m) = self.pending {
            if m.at > self.core.now {
                break;
            }
            self.core.inject(m);
            self.pending = self.source.next_message();
            if let Some(next) = self.pending {
                debug_assert!(next.at >= m.at, "traffic source went backwards in time");
            }
        }
        if let Some(m) = self.pending {
            if m.at <= self.core.end {
                self.core.queue.schedule(m.at, Event::Workload);
            }
        }
    }
}

impl Core {
    /// The pod `host` belongs to, an index into `pod_bytes`: pods split
    /// the switch range into `pod_bytes.len()` contiguous groups.
    pub(crate) fn pod_of(&self, host: HostId) -> usize {
        let switches = self.fabric.num_switches().max(1);
        self.fabric.host_switch(host).index() * self.pod_bytes.len() / switches
    }

    /// Offers one message to the network: segments it into packets,
    /// allocates the bookkeeping records, and starts transmission on
    /// the source host's injection channel.
    fn inject(&mut self, m: Message) {
        assert!(
            m.src.index() < self.fabric.num_hosts() && m.dst.index() < self.fabric.num_hosts(),
            "message endpoints outside the fabric"
        );
        debug_assert_ne!(m.src, m.dst, "self-sends are not meaningful");
        self.stats.offered_bytes += m.bytes;
        if self.model == SimModel::Hybrid
            && m.bytes >= crate::flows::FLOW_MIN_BYTES
            && self.try_absorb_flow(&m)
        {
            return;
        }
        let inj = self.fabric.injection_channel(m.src);
        self.inject_packets(inj, m.dst, m.bytes, m.at);
    }

    /// Segments `bytes` into packets on injection channel `inj` and
    /// starts transmission — the tail of [`Core::inject`], shared with
    /// the hybrid model's flow demotion, which re-injects a flow's
    /// remaining bytes with the original offer time so warmup gating
    /// and latency accounting match a message that was always packets.
    pub(crate) fn inject_packets(
        &mut self,
        inj: ChannelId,
        dst: epnet_topology::HostId,
        bytes: u64,
        offered_at: SimTime,
    ) {
        let pkt_size = u64::from(self.config.packet_bytes);
        let full = (bytes / pkt_size) as u32;
        let tail = (bytes % pkt_size) as u32;
        // A zero-byte message still travels as a single minimal packet.
        let count = (full + u32::from(tail > 0)).max(1);
        let rec = MessageRec {
            remaining: count,
            offered_at,
        };
        let message = match self.msg_free.pop() {
            Some(slot) => {
                self.messages[slot as usize] = rec;
                MessageId(slot)
            }
            None => {
                let slot = u32::try_from(self.messages.len()).expect("message table overflow");
                self.messages.push(rec);
                MessageId(slot)
            }
        };
        let budget = match self.config.routing {
            RoutingPolicy::MinimalAdaptive => 0,
            RoutingPolicy::Ugal {
                misroute_budget, ..
            } => misroute_budget,
        };
        for i in 0..count {
            let bytes = if i < full {
                pkt_size as u32
            } else {
                tail.max(1)
            };
            let id = self.arena.alloc(Packet::new(dst, bytes, message, budget));
            self.enqueue(inj, id, bytes);
        }
        self.try_tx(inj);
    }

    /// `bytes` is the packet's size — every caller already has it in a
    /// register, so the arena is not re-read here.
    pub(crate) fn enqueue(&mut self, ch: ChannelId, pkt: PacketId, bytes: u32) {
        debug_assert_eq!(bytes, self.arena.get(pkt).bytes);
        let bytes = u64::from(bytes);
        let i = ch.index();
        self.channels.queues.push_back(i, pkt);
        // Queued bytes make the channel the epoch controller's business.
        self.channels.mark_active(i);
        let occ = self.channels.add_occupancy(i, bytes);
        if occ > self.stats.peak_queue_bytes {
            self.stats.peak_queue_bytes = occ;
        }
    }

    /// Attempts to start serializing the head packet of `ch` — and any
    /// immediate *train* behind it: consecutive queued packets whose
    /// credits are already in hand and whose back-to-back serialization
    /// stays inside the current controller epoch ride under a single
    /// `TxDone` event, with per-packet `Arrive` fan-out at each
    /// packet's own tail time. Train timing is identical to per-packet
    /// scheduling (serialization is back-to-back either way); only the
    /// event count shrinks.
    pub(crate) fn try_tx(&mut self, ch: ChannelId) {
        let i = ch.index();
        let now = self.now;
        let flags = self.channels.flags[i];
        if flags & (F_BUSY | F_OFF) != 0 {
            return;
        }
        let Some(head) = self.channels.queues.front(i) else {
            return;
        };
        let available_at = self.channels.available_at[i];
        if now < available_at {
            if flags & F_RETRY == 0 {
                self.channels.set_flag(i, F_RETRY);
                self.queue
                    .schedule(available_at, Event::Retry { channel: ch });
            }
            return;
        }
        // Apply credit returns that have matured by now.
        let mut credits =
            self.channels
                .apply_matured_credits(i, now, self.config.input_buffer_bytes);
        let head_bytes = self.arena.get(head).bytes;
        if credits < head_bytes {
            self.stats.counters.credit_blocked_tries += 1;
            // Blocked on credits: wake exactly when the next pending
            // return matures. If none is booked yet, the arrival that
            // books one re-arms the wake (`on_arrive`).
            if flags & F_CREDIT_WAKE == 0 {
                if let Some(at) = self.channels.next_credit_at(i) {
                    self.channels.set_flag(i, F_CREDIT_WAKE);
                    if self.inst.on(TraceCategory::Credit) {
                        self.inst.tracer().credit(
                            now.as_ps(),
                            ch.raw(),
                            "block",
                            u64::from(head_bytes),
                            u64::from(credits),
                        );
                    }
                    self.queue.schedule(at, Event::CreditWake { channel: ch });
                }
            }
            return;
        }
        credits -= head_bytes;
        self.channels.set_flag(i, F_BUSY);
        let rate = self.channels.rate[i];
        let mut tail = now + SimTime::from_ps(rate.serialize_ps(u64::from(head_bytes)));
        self.launch(ch, head, tail);
        let mut train_len = 1u32;
        let mut train_bytes = u64::from(head_bytes);
        // The queue holds still until `on_tx_done`: read the train
        // behind the head through a cursor.
        let mut queued = self.channels.queues.cursor(i);
        self.channels.queues.next(&mut queued);
        // Extend the train. The epoch bound guarantees no rate change
        // can land mid-train: the controller (and the dynamic-topology
        // mask) only act at epoch ticks, and drain-first completions
        // need an empty queue. Without epoch ticks the horizon is the
        // only bound.
        let bound = if self.controller_active {
            self.epoch_end
        } else {
            self.end
        };
        while tail <= bound {
            let Some(next) = self.channels.queues.next(&mut queued) else {
                break;
            };
            let next_bytes = self.arena.get(next).bytes;
            if credits < next_bytes {
                break;
            }
            let next_tail = tail + SimTime::from_ps(rate.serialize_ps(u64::from(next_bytes)));
            if next_tail > bound {
                break;
            }
            credits -= next_bytes;
            tail = next_tail;
            train_len += 1;
            train_bytes += u64::from(next_bytes);
            self.launch(ch, next, tail);
        }
        self.channels.credits[i] = credits;
        let ser = tail - now;
        // Charge this epoch only for the busy time that falls inside it;
        // the remainder is pre-charged to later epochs at the tick (a
        // 2 KiB packet at 2.5 Gb/s outlasts a 1 µs epoch, and without the
        // split the controller would see a busy link as idle). Only a
        // single-packet train can span the boundary — extension stops at
        // the epoch bound. (`launch` left `busy_until` at `tail`.)
        let in_epoch = if tail <= self.epoch_end {
            ser
        } else {
            self.epoch_end.saturating_sub(now)
        };
        self.channels.busy_ps_epoch[i] += in_epoch.as_ps();
        self.channels.train_len[i] = train_len;
        self.channels.train_bytes[i] = train_bytes;
        self.stats.busy_ps_total += u128::from(ser.as_ps());
        self.queue.schedule(tail, Event::TxDone { channel: ch });
    }

    /// Puts `pkt` on `ch`'s wire, its serialization ending at `end`;
    /// its tail arrives the channel's `arrive_extra` later. The arrival
    /// takes its sequence number from the queue now, exactly as
    /// scheduling it would. If an earlier packet is still on the wire, the arrival's
    /// key goes into that packet's record instead of the queue, and its
    /// arrival handler schedules it unchanged ([`Core::on_arrive`]): a
    /// wire has at most one `Arrive` queued, and pop order is exactly
    /// that of scheduling every arrival here. A gap between the two
    /// arrivals too long for the record's 32-bit picoseconds (over
    /// 4.29 ms) is scheduled directly.
    #[inline]
    fn launch(&mut self, ch: ChannelId, pkt: PacketId, end: SimTime) {
        let i = ch.index();
        let slot = pkt.slot();
        let p = self.arena.get_mut(pkt);
        p.channel = ch;
        p.next = NO_PACKET;
        // Both arrivals trail their serialization ends by the same
        // `arrive_extra`, so the gap between them is the gap between
        // the ends; `busy_until` holds the previous launch's end.
        let last_end = std::mem::replace(&mut self.channels.busy_until[i], end);
        let tail = std::mem::replace(&mut self.channels.wire_tail[i], slot);
        if tail != NO_PACKET {
            if let Ok(dt) = u32::try_from((end - last_end).as_ps()) {
                let seq = self.queue.reserve();
                let prev = self.arena.id_at(tail);
                let prev = self.arena.get_mut(prev);
                prev.next = slot;
                prev.next_seq = seq;
                prev.next_dt = dt;
                return;
            }
        }
        let at = end + self.channels.arrive_extra(i);
        self.queue.schedule(at, Event::Arrive { slot });
    }

    /// Renumbers the event queue's sequence numbers together with the
    /// arrivals reserved in packet records: each chain starts at a
    /// packet whose `Arrive` is queued.
    fn renumber_seqs(&mut self) {
        let mut holders = Vec::new();
        let mut keys = Vec::new();
        for (at, ev) in self.queue.pending() {
            let Event::Arrive { slot } = ev else {
                continue;
            };
            let (mut at, mut slot) = (at, slot);
            loop {
                let p = self.arena.get(self.arena.id_at(slot));
                if p.next == NO_PACKET {
                    break;
                }
                at += SimTime::from_ps(u64::from(p.next_dt));
                keys.push((at, p.next_seq));
                holders.push(slot);
                slot = p.next;
            }
        }
        self.queue.renumber(&mut keys);
        for (slot, (_, seq)) in holders.into_iter().zip(keys) {
            let id = self.arena.id_at(slot);
            self.arena.get_mut(id).next_seq = seq;
        }
    }

    fn on_tx_done(&mut self, ch: ChannelId) {
        let i = ch.index();
        let train_len = self.channels.train_len[i];
        debug_assert!(train_len >= 1, "TxDone without a train");
        let train = u64::from(train_len);
        let counters = &mut self.stats.counters;
        counters.tx_trains += 1;
        counters.tx_train_packets += train;
        counters.tx_train_max_packets = counters.tx_train_max_packets.max(train);
        let queues = &mut self.channels.queues;
        queues.pop_front_n(i, train_len);
        let emptied = queues.is_empty(i);
        self.channels.sub_occupancy(i, self.channels.train_bytes[i]);
        self.channels.train_len[i] = 0;
        self.channels.train_bytes[i] = 0;
        self.channels.clear_flag(i, F_BUSY);
        if emptied && self.channels.has_flag(i, F_DRAINING) {
            self.finish_pending_rate(ch);
            return;
        }
        self.try_tx(ch);
    }

    /// A credit-blocked channel's pending return matured: clear the
    /// wake latch, trace the unblock, and retry transmission.
    fn on_credit_wake(&mut self, ch: ChannelId) {
        let i = ch.index();
        self.channels.clear_flag(i, F_CREDIT_WAKE);
        if self.inst.on(TraceCategory::Credit) {
            let needed = self.channels.queues.front(i);
            let needed = needed.map_or(0, |p| u64::from(self.arena.get(p).bytes));
            let credits = u64::from(self.channels.credits[i]);
            self.inst
                .tracer()
                .credit(self.now.as_ps(), ch.raw(), "unblock", needed, credits);
        }
        self.try_tx(ch);
    }

    /// A reconfiguring channel became available again: clear the retry
    /// latch and resume transmission.
    fn on_retry(&mut self, ch: ChannelId) {
        self.channels.clear_flag(ch.index(), F_RETRY);
        // A Retry matures exactly at `available_at`: the link carries
        // traffic again, closing the reactivation window — traced here
        // so tracing never schedules events of its own.
        if self.inst.on(TraceCategory::Reactivation) {
            let rate = self.channels.rate[ch.index()].to_string();
            self.inst
                .tracer()
                .reactivation(self.now.as_ps(), ch.raw(), "end", &rate, None);
        }
        self.try_tx(ch);
    }

    /// Handles the tail arrival of the packet in arena slot `slot`:
    /// queues the next arrival on its wire, books the return credit on
    /// the sending channel, then forwards (or delivers) the packet on
    /// the receiving side.
    fn on_arrive(&mut self, slot: u32) {
        let pkt = self.arena.id_at(slot);
        let p = *self.arena.get(pkt);
        let ch = p.channel;
        let i = ch.index();
        if p.next != NO_PACKET {
            let at = self.now + SimTime::from_ps(u64::from(p.next_dt));
            let next = Event::Arrive { slot: p.next };
            self.queue.schedule_reserved(at, p.next_seq, next);
        }
        if self.channels.wire_tail[i] == slot {
            self.channels.wire_tail[i] = NO_PACKET;
        }
        // Credits travel back once the packet has cleared the input
        // buffer; charging the propagation delay models the return
        // trip. The return is bookkept on the channel and applied
        // lazily in `try_tx` instead of costing a scheduled event
        // per packet; an idle channel with work waiting is parked on
        // exactly this credit, so arm its wake.
        let bytes = p.bytes;
        let matures = self.now + self.channels.prop(i);
        self.channels.push_credit(i, self.now, matures, bytes);
        if self.channels.flags[i] & (F_BUSY | F_CREDIT_WAKE) == 0
            && !self.channels.queues.is_empty(i)
            && self.now >= self.channels.available_at[i]
        {
            self.channels.set_flag(i, F_CREDIT_WAKE);
            if self.inst.on(TraceCategory::Credit) {
                let needed = self.channels.queues.front(i);
                let needed = needed.map_or(0, |p| u64::from(self.arena.get(p).bytes));
                let credits = u64::from(self.channels.credits[i]);
                self.inst
                    .tracer()
                    .credit(self.now.as_ps(), ch.raw(), "block", needed, credits);
            }
            self.queue
                .schedule(matures, Event::CreditWake { channel: ch });
        }
        match self.fabric.channel_target(ch) {
            PortTarget::Host(h) => {
                debug_assert_eq!(p.dst, h, "misrouted packet");
                self.arena.free(pkt);
                if !self.pod_bytes.is_empty() {
                    let pod = self.pod_of(h);
                    self.pod_bytes[pod] += u64::from(bytes);
                }
                let rec = &mut self.messages[p.message.index()];
                self.stats.record_packet(rec.offered_at, self.now, bytes);
                rec.remaining -= 1;
                if rec.remaining == 0 {
                    self.stats.record_message(rec.offered_at, self.now);
                    self.msg_free.push(p.message.raw());
                }
            }
            PortTarget::Switch { switch, .. } => self.route(switch, pkt),
        }
    }

    /// Picks the minimal-candidate output with the smallest queue
    /// occupancy and forwards the packet onto it; under
    /// [`RoutingPolicy::Ugal`] a congested minimal set may instead yield
    /// a detour through an intermediate switch.
    ///
    /// Candidate sets are enumerated per hop from the switch
    /// coordinates and the current link mask.
    fn route(&mut self, at: SwitchId, pkt: PacketId) {
        let (dst, bytes, hops, misroutes_left) = {
            let p = self.arena.get(pkt);
            (p.dst, p.bytes, p.hops, p.misroutes_left)
        };
        let dst_switch = self.fabric.host_switch(dst);
        if at == dst_switch {
            // Local delivery: the host's ejection channel is the sole
            // candidate.
            let p = self.arena.get_mut(pkt);
            p.hops = hops.saturating_add(1);
            let out = self.fabric.ejection_channel(dst);
            self.enqueue(out, pkt, bytes);
            self.try_tx(out);
            return;
        }
        // Rotating start index de-correlates tie-breaks between switches
        // and packets while staying deterministic.
        let start_key = usize::from(hops) + at.index() + pkt.index();
        self.fabric
            .candidate_ports_masked(at, dst, self.mask.as_ref(), &mut self.scratch);
        assert!(
            !self.scratch.is_empty(),
            "no route from {at} toward {dst}: fabric partitioned by link mask"
        );
        let (mut best, best_occ) =
            Self::pick_minimal(&self.channels, &self.fabric, at, start_key, &self.scratch);

        let mut misrouted = false;
        if let RoutingPolicy::Ugal { bias_bytes, .. } = self.config.routing {
            if misroutes_left > 0 {
                self.fabric.detour_ports_masked(
                    at,
                    dst_switch,
                    self.mask.as_ref(),
                    &mut self.scratch,
                );
                let detour = Self::pick_detour(&self.channels, &self.fabric, at, &self.scratch);
                if let Some((port, occ)) = detour {
                    // UGAL: take the detour only when it looks at least
                    // twice as cheap (the detour path is two hops long).
                    if 2 * occ + u64::from(bias_bytes) < best_occ {
                        best = port;
                        misrouted = true;
                        self.stats.counters.detours_taken += 1;
                        if self.inst.on(TraceCategory::Detour) {
                            self.inst.tracer().detour(
                                self.now.as_ps(),
                                at.raw(),
                                u32::from(port.raw()),
                                occ,
                                best_occ,
                            );
                        }
                    }
                }
            }
        }

        let p = self.arena.get_mut(pkt);
        p.hops = hops.saturating_add(1);
        if misrouted {
            p.misroutes_left -= 1;
        }
        let out = self.fabric.output_channel(at, best);
        self.enqueue(out, pkt, bytes);
        self.try_tx(out);
    }

    /// The least-occupied candidate, rotating the scan start for the
    /// tie-break. Channels draining toward a rate change are "removed
    /// from the list of legal adaptive routes" (§3.2) when any
    /// alternative exists.
    fn pick_minimal(
        channels: &Channels,
        fabric: &FabricGraph,
        at: SwitchId,
        start_key: usize,
        cands: &[PortIndex],
    ) -> (PortIndex, u64) {
        let len = cands.len();
        let start = start_key % len;
        let mut best: Option<(PortIndex, u64)> = None;
        let mut best_draining: Option<(PortIndex, u64)> = None;
        // Wrapping index instead of `(start + i) % len` — a variable
        // modulo per candidate is a hardware divide in the innermost
        // routing loop. Visit order is identical.
        let mut j = start;
        loop {
            let cand = cands[j];
            let idx = fabric.output_channel(at, cand).index();
            let occ = channels.occupancy[idx];
            let slot = if channels.flags[idx] & F_DRAINING != 0 {
                &mut best_draining
            } else {
                &mut best
            };
            if slot.map_or(true, |(_, o)| occ < o) {
                *slot = Some((cand, occ));
            }
            j += 1;
            if j == len {
                j = 0;
            }
            if j == start {
                break;
            }
        }
        best.or(best_draining).expect("candidate list is non-empty")
    }

    /// The least-occupied detour port (first-wins on ties, matching the
    /// enumeration order of [`FabricGraph::detour_ports_masked`]).
    fn pick_detour(
        channels: &Channels,
        fabric: &FabricGraph,
        at: SwitchId,
        cands: &[PortIndex],
    ) -> Option<(PortIndex, u64)> {
        let mut best: Option<(PortIndex, u64)> = None;
        for &port in cands {
            let occ = channels.occupancy[fabric.output_channel(at, port).index()];
            if best.map_or(true, |(_, o)| occ < o) {
                best = Some((port, occ));
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    pub(crate) fn finish(mut self) -> SimReport {
        if self.model == SimModel::Hybrid {
            // Close the partial window between the last epoch tick and
            // the horizon so fluid movement covers the full duration.
            let start = Instant::now();
            self.advance_flows();
            self.inst
                .profile
                .charge(Layer::FluidAdvance, start.elapsed());
        }
        let end = self.now;
        let residency = self.channels.residency(end);
        let s = &self.stats;
        let mean_packet_latency = if s.packets > 0 {
            SimTime::from_ps((s.packet_latency_sum_ps / u128::from(s.packets)) as u64)
        } else {
            SimTime::ZERO
        };
        let mean_message_latency = if s.messages > 0 {
            SimTime::from_ps((s.message_latency_sum_ps / u128::from(s.messages)) as u64)
        } else {
            SimTime::ZERO
        };
        let channel_time = u128::from(end.as_ps()) * self.channels.len() as u128;
        let avg_channel_utilization = if channel_time > 0 {
            (s.busy_ps_total as f64 / channel_time as f64).min(1.0)
        } else {
            0.0
        };
        let asymmetric_link_fraction = if s.link_samples > 0 {
            s.asymmetric_link_samples as f64 / s.link_samples as f64
        } else {
            0.0
        };
        let num_channels = self.channels.len();
        let peak_live_packets = self.arena.capacity();
        let (metrics, diagnostics) = s.metric_maps(&residency, &self.flows);
        self.inst.flush();
        // `finish` consumes the simulator, so the bulky per-run
        // collections (histogram, timeline) move into the report.
        let s = self.stats;
        SimReport {
            duration: end,
            num_channels,
            packets_delivered: s.packets,
            messages_delivered: s.messages,
            mean_packet_latency,
            packet_latency_hist: s.packet_hist,
            mean_message_latency,
            offered_bytes: s.offered_bytes,
            delivered_bytes: s.delivered_bytes,
            avg_channel_utilization,
            residency,
            reconfigurations: s.reconfigurations,
            events_processed: s.events,
            peak_live_packets,
            asymmetric_link_fraction,
            peak_queue_bytes: s.peak_queue_bytes,
            timeline: s.timeline,
            metrics,
            layers: self.inst.profile,
            epoch_ticks: s.epoch_ticks,
            controller_decisions: s.controller_decisions,
            diagnostics,
            pod_delivered_bytes: self.pod_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ReplaySource;
    use epnet_topology::FlattenedButterfly;

    /// A run whose event queue renumbers its sequence numbers every few
    /// hundred events, with wire arrivals reserved in packet records
    /// each time, pops exactly the order of a run that never does.
    #[test]
    fn renumbering_sequence_numbers_changes_nothing() {
        let run = |limit: Option<u64>| {
            let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
            let hosts = fabric.num_hosts() as u64;
            // Bursts of equal messages offered at the same instants, so
            // arrivals on different wires tie and FIFO order decides.
            let messages = (0..400u64)
                .map(|k| (k, k % hosts, (k * 5 + 3) % hosts))
                .filter(|&(_, src, dst)| src != dst)
                .map(|(k, src, dst)| Message {
                    at: SimTime::from_ns(k / 16 * 2_000),
                    src: epnet_topology::HostId::new(src as u32),
                    dst: epnet_topology::HostId::new(dst as u32),
                    bytes: 8 * 1024,
                })
                .collect();
            let config = SimConfig::builder()
                .control(ControlMode::IndependentChannel)
                .build();
            let source = ReplaySource::new(messages);
            let mut sim = Simulator::with_options(fabric, config, source, RunOptions::default());
            if let Some(limit) = limit {
                sim.core.queue = Scheduler::with_seq_limit(limit);
            }
            let sink = epnet_telemetry::MemorySink::new();
            sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
            let r = sim.run_until(SimTime::from_us(200));
            let hist = format!("{:?}", r.packet_latency_hist);
            let latency = (r.mean_packet_latency, r.mean_message_latency, hist);
            let counts = (r.events_processed, r.packets_delivered, r.delivered_bytes);
            (counts, latency, sink.contents())
        };
        let plain = run(None);
        assert!(plain.0 .0 > 20 * 256, "the run renumbers many times");
        assert_eq!(run(Some(256)), plain);
    }

    /// A launch more than 4.29 ms after the previous one on a wire that
    /// still carries it (a 10 ms propagation delay) cannot chain its
    /// arrival gap in 32 bits: its arrival is queued directly, and both
    /// packets still land.
    #[test]
    fn an_arrival_gap_past_32_bits_is_queued_directly() {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let prop = SimTime::from_ms(10);
        let config = SimConfig::builder()
            .control(ControlMode::AlwaysFull)
            .propagation(prop, prop)
            .build();
        let message = |at| Message {
            at,
            src: epnet_topology::HostId::new(0),
            dst: epnet_topology::HostId::new(7),
            bytes: 2048,
        };
        let source = ReplaySource::new(vec![message(SimTime::ZERO), message(SimTime::from_ms(5))]);
        let mut sim = Simulator::with_options(fabric, config, source, RunOptions::default());
        sim.prime(SimTime::from_ms(100));
        sim.advance_until(SimTime::from_ms(6));
        let arrivals = sim.core.queue.pending().map(|(_, ev)| ev);
        let arrivals: Vec<_> = arrivals.collect();
        assert_eq!(
            arrivals,
            [Event::Arrive { slot: 0 }, Event::Arrive { slot: 1 }],
            "both arrivals queued, none chained"
        );
        sim.advance_until(SimTime::from_ms(100));
        // Both messages land (only the second counts as measured: the
        // first is offered inside the warmup).
        assert_eq!(sim.finalize().delivered_bytes, 4096);
    }
}
