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
//!   §3.2.
//!
//! # Memory layout
//!
//! Per-channel state is struct-of-arrays ([`crate::channels::Channels`]):
//! the fields every event touches live in dense parallel `Vec`s indexed
//! by channel, and residency is network-wide. Output queues share one
//! pool of fixed-size chunks, each channel holding only a 4-byte handle
//! into it ([`crate::fifo::Fifos`]); wire delays come from a four-entry
//! table indexed by two flag bits; and a channel's receiving endpoint,
//! like a host's switch, is one read of the fabric's channel-target
//! table. An event is 32 bits
//! in a 16-byte queue entry, and each wire has at most one `Arrive`
//! queued: packets launched behind it wait in a chain through their
//! packet records, under the keys they reserved at launch
//! ([`Core::launch`]). A channel's earliest credit return sits inline
//! in its hot arrays; later ones spill into a second chunk pool.
//! Message records, packet slots and queue chunks recycle through free
//! lists, so a warmed-up run performs no steady-state heap allocation
//! (see DESIGN.md "Memory layout").

use crate::channels::{
    set_bits, wire_delays, Channels, F_BUSY, F_CREDIT_WAKE, F_DRAINING, F_OFF, F_OPTICAL, F_RETRY,
    F_TO_SWITCH, F_TUNABLE,
};
use crate::config::{ControlMode, RoutingPolicy, SimConfig};
use crate::controller::desired_rate;
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
use epnet_power::LinkRate;
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

/// What [`Core::apply_rate`] did with a controller decision —
/// the trace layer's `reason` derives from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RateOutcome {
    /// The channel already ran at the decided rate.
    Unchanged,
    /// The rate change took effect (reactivation charged).
    Applied,
    /// Downshift parked behind a drain (§3.2's first option).
    DrainDeferred,
    /// A pending drain-first change was cancelled by a reversal.
    DrainCancelled,
}

/// Controller decisions the active-set epoch paths plan before applying
/// them (see [`Core::retune_independent_active`]). Bounds the retained
/// plan however many channels change rate in one tick.
const PLAN_CHUNK: usize = 4096;

/// One controller decision: channel, measured utilization, decided
/// rate.
type PlannedDecision = (ChannelId, f64, LinkRate);

/// An active-set tick's plan (see [`Core::retune_independent_active`]).
#[derive(Debug, Default)]
pub(crate) struct TickPlan {
    /// Non-hold decisions awaiting [`Core::apply_plan`], in order.
    decisions: Vec<PlannedDecision>,
    /// Holds counted toward `controller_decisions`.
    holds: u64,
    /// Channels resting after a hold when the tick began.
    resting: u64,
    /// Of those, the ones the tick visited anyway.
    woken: u64,
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
    /// Ejection channel delivering to each host, precomputed.
    pub(crate) eject_channel: Vec<ChannelId>,
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
    /// The paired-link active path's per-tick link set, one bit per
    /// link: filled from the active channels, cleared as it is scanned.
    pub(crate) link_bits: Vec<u64>,
    /// The active-set epoch paths' retained plan.
    pub(crate) plan: TickPlan,
    pub(crate) last_offered_at: SimTime,
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
        let mut eject_channel = Vec::with_capacity(fabric.num_hosts());
        for h in 0..fabric.num_hosts() {
            let host = epnet_topology::HostId::new(h as u32);
            eject_channel
                .push(fabric.output_channel(fabric.host_switch(host), fabric.host_port(host)));
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
            eject_channel,
            arena: PacketArena::new(),
            messages: Vec::new(),
            msg_free: Vec::new(),
            stats: Stats::new(warmup),
            mask: None,
            dyntopo: None,
            scratch: Vec::new(),
            epoch_mode: options.epoch,
            link_bits: vec![0; num_links.div_ceil(64)],
            plan: TickPlan {
                decisions: Vec::with_capacity(PLAN_CHUNK + 128),
                ..TickPlan::default()
            },
            last_offered_at: SimTime::ZERO,
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
        self.last_offered_at = m.at;
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
            // Local delivery: the precomputed ejection channel is the
            // sole candidate.
            let p = self.arena.get_mut(pkt);
            p.hops = hops.saturating_add(1);
            let out = self.eject_channel[dst.index()];
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
    // The per-epoch controller (§3.3)
    // ------------------------------------------------------------------

    /// One epoch tick: rate decisions, the asymmetry sample, the
    /// dynamic-topology pass, and the queue-depth sample / overhang
    /// recharge — then the next tick is scheduled.
    ///
    /// Two implementations share this entry point. The default
    /// ([`EpochMode::ActiveSet`]) visits only the channels in the
    /// active set: everything outside it is *resting* — idle at the
    /// floor with an empty queue and no fluid load, which provably
    /// decides "hold" under every policy (`idle_at_floor_always_holds`),
    /// or resting after a hold whose inputs nothing has changed since
    /// (see [`Core::hold_unit`]) — contributes zero to every sample,
    /// and recharges zero overhang, so skipping it is exact, not
    /// approximate. [`EpochMode::Sweep`] visits every
    /// channel instead. Controller tracing forces the sweep:
    /// traced runs emit a per-decision line even for holds, and the
    /// trace stream is part of the byte-identical output contract.
    fn on_epoch(&mut self) {
        // Fluid flows advance before the controller reads per-channel
        // utilization: the epoch's busy time then includes the fluid
        // load exactly as it would packet serialization, keeping rate
        // decisions regime-independent. Each sub-step is charged to its
        // own layer at its boundary.
        let mut lap = Instant::now();
        if self.model == SimModel::Hybrid {
            self.advance_flows();
            lap = self.inst.profile.lap(Layer::FluidAdvance, lap);
        }
        let sweep = self.epoch_mode == EpochMode::Sweep || self.inst.on(TraceCategory::Controller);
        let decisions_enabled = self.config.control != ControlMode::AlwaysFull;
        match self.config.control {
            ControlMode::AlwaysFull => {}
            ControlMode::IndependentChannel if sweep => self.retune_independent(),
            ControlMode::IndependentChannel => self.retune_independent_active(),
            ControlMode::PairedLink if sweep => self.retune_paired(),
            ControlMode::PairedLink => self.retune_paired_active(),
        }
        lap = self.inst.profile.lap(Layer::Controller, lap);
        // Sample link asymmetry: how often do a link's two channels sit
        // at different speeds (§3.3.1)? The count is maintained
        // incrementally at every rate/F_OFF write (`Channels::set_rate`
        // and friends), so sampling it is a counter read; the sweep
        // mode recounts from scratch and cross-checks.
        if decisions_enabled {
            self.stats.link_samples += self.fabric.num_links() as u64;
            if sweep {
                let mut asymmetric = 0u64;
                for link in 0..self.fabric.num_links() {
                    let (a, b) = self
                        .fabric
                        .link_channels(epnet_topology::LinkId::new(link as u32));
                    let (ia, ib) = (a.index(), b.index());
                    if self.channels.rate[ia] != self.channels.rate[ib]
                        || self.channels.has_flag(ia, F_OFF) != self.channels.has_flag(ib, F_OFF)
                    {
                        asymmetric += 1;
                    }
                }
                debug_assert_eq!(
                    asymmetric,
                    self.channels.asymmetric_links(),
                    "incremental asymmetric-link counter drifted from the swept count"
                );
                self.stats.asymmetric_link_samples += asymmetric;
            } else {
                self.stats.asymmetric_link_samples += self.channels.asymmetric_links();
            }
        }
        #[cfg(debug_assertions)]
        if sweep {
            let queued: u64 = self.channels.occupancy.iter().sum();
            let flags = self.channels.flags.iter();
            let unsteady = flags.filter(|&&f| f & crate::channels::F_UNSTEADY != 0);
            debug_assert_eq!(
                queued,
                self.channels.queued_total(),
                "network-wide queued-bytes counter drifted from the swept sum"
            );
            debug_assert_eq!(
                unsteady.count() as u64,
                self.channels.unsteady(),
                "off/draining channel counter drifted from the swept count"
            );
            debug_assert!(
                self.flows.loads_match_live(&self.channels.fluid),
                "fluid sharer counts or loads drifted from the live flows"
            );
            debug_assert_eq!(
                self.channels.steady_recount(),
                self.channels.steady_count(),
                "resting-after-hold counter drifted from the swept count"
            );
            debug_assert!(
                self.channels.residency_counts_match(),
                "residency class counts drifted from the swept count"
            );
        }
        if let Some(mut dt) = self.dyntopo.take() {
            lap = self.inst.profile.lap(Layer::EpochSample, lap);
            let mask = self.mask.as_mut().expect("dyntopo requires a mask");
            dt.on_epoch(
                self.now,
                &self.fabric,
                &mut self.channels,
                mask,
                &self.config,
                &mut self.stats,
                &mut self.inst,
            );
            self.dyntopo = Some(dt);
            lap = self.inst.profile.lap(Layer::Dyntopo, lap);
        }
        let epoch = self.config.epoch;
        // Queue depth is sampled here, once per channel per epoch, so
        // the mean/peak metrics describe standing queues rather than
        // transient per-packet spikes. Resting channels "sample" an
        // exact zero without being visited, so the sums — and
        // `epoch_queue_samples`, which deliberately counts *every*
        // channel in both modes — stay mode-independent.
        let epoch_ps = epoch.as_ps();
        let (queued_sum, queued_peak) = if sweep {
            let mut queued_sum = 0u64;
            let mut queued_peak = 0u64;
            for i in 0..self.channels.len() {
                let occ = self.channels.occupancy[i];
                queued_sum += occ;
                queued_peak = queued_peak.max(occ);
                // Pre-charge the next epoch with the in-flight
                // transmission's overhang.
                let overhang = self.channels.busy_until[i].saturating_sub(self.now);
                debug_assert!(
                    self.channels.is_active(i) || (occ == 0 && overhang == SimTime::ZERO),
                    "ch{i} rests outside the active set but would sample non-zero"
                );
                self.channels.busy_ps_epoch[i] = overhang.as_ps().min(epoch_ps);
            }
            self.channels
                .retire_resting(self.config.min_rate, decisions_enabled);
            (queued_sum, queued_peak)
        } else {
            self.channels.sample_active_and_retire(
                self.now,
                epoch_ps,
                self.config.min_rate,
                decisions_enabled,
            )
        };
        let counters = &mut self.stats.counters;
        counters.epoch_queue_samples += self.channels.len() as u64;
        counters.epoch_queue_bytes_sum += queued_sum;
        counters.epoch_queue_bytes_peak = counters.epoch_queue_bytes_peak.max(queued_peak);
        let next = self.now + epoch;
        self.epoch_end = next;
        if next <= self.end {
            self.queue.schedule(next, Event::EpochTick);
        }
        self.stats.epoch_ticks += 1;
        self.inst.profile.lap(Layer::EpochSample, lap);
    }

    fn retune_independent(&mut self) {
        for ch in 0..self.channels.len() {
            let id = ChannelId::new(ch as u32);
            let decision = self
                .channel_decision(id)
                .map(|(util, rate)| (id, util, rate));
            self.sweep_unit(&[id], &[decision]);
        }
    }

    /// Active-set twin of [`Core::retune_independent`]: only set members
    /// can decide anything but "hold", and decisions run in ascending
    /// channel order — the same relative order as the sweep — because
    /// decision order fixes event insertion order, and FIFO
    /// tie-breaking makes that order observable in the report. The
    /// bitmap yields that order directly.
    ///
    /// Plan, then apply: a read-only pass decides every member, counts
    /// the holds (rate unchanged, nothing parked — `apply_rate` would do
    /// nothing) and plans the rest, which [`Core::apply_plan`] then
    /// applies in order. This is exact because applying a decision for
    /// channel `c` writes only `c`'s own state, which no other
    /// channel's decision reads. The plan is applied every
    /// [`PLAN_CHUNK`] decisions, so its retained size stays bounded.
    fn retune_independent_active(&mut self) {
        let mut plan = self.start_plan();
        for w in 0..self.channels.active_words().len() {
            let word = self.channels.active_words()[w];
            for i in set_bits(word, w * 64) {
                let ch = ChannelId::new(i as u32);
                let decision = self
                    .channel_decision(ch)
                    .map(|(util, rate)| (ch, util, rate));
                self.plan_unit(&mut plan, &[ch], &[decision]);
            }
            if plan.decisions.len() >= PLAN_CHUNK {
                self.apply_plan(&mut plan);
            }
        }
        self.finish_plan(plan);
    }

    fn retune_paired(&mut self) {
        // "The link pair must be reconfigured together to match the
        // requirements of the channel with the highest load" (§3.3.1).
        for link in 0..self.fabric.num_links() {
            let (unit, decisions) = self.link_decisions(link);
            self.sweep_unit(&unit, &decisions);
        }
    }

    /// Active-set twin of [`Core::retune_paired`]: a link is processed
    /// when *either* channel is in the active set (the paired rule can
    /// retune a resting channel to match its busy peer), in ascending
    /// link order to match the sweep's event insertion order. The
    /// active channels mark their links in a preallocated link bitmap,
    /// whose scan yields that order and clears it for the next tick.
    /// Decisions are planned and applied as in
    /// [`Core::retune_independent_active`]: applying a link's decision
    /// writes only its own two channels.
    fn retune_paired_active(&mut self) {
        let words = self.channels.active_words();
        for (w, &word) in words.iter().enumerate() {
            for i in set_bits(word, w * 64) {
                let link = self.fabric.link_of(ChannelId::new(i as u32)).index();
                self.link_bits[link / 64] |= 1u64 << (link % 64);
            }
        }
        let mut plan = self.start_plan();
        for w in 0..self.link_bits.len() {
            let word = std::mem::take(&mut self.link_bits[w]);
            for link in set_bits(word, w * 64) {
                let (unit, decisions) = self.link_decisions(link);
                self.plan_unit(&mut plan, &unit, &decisions);
            }
            if plan.decisions.len() >= PLAN_CHUNK {
                self.apply_plan(&mut plan);
            }
        }
        self.finish_plan(plan);
    }

    /// Takes the retained plan for an active-set tick.
    fn start_plan(&mut self) -> TickPlan {
        let mut plan = std::mem::take(&mut self.plan);
        plan.holds = 0;
        plan.resting = self.channels.steady_count();
        plan.woken = 0;
        plan
    }

    /// Applies what is left of an active-set tick's plan and counts its
    /// holds: the visited ones, plus one per channel resting after a
    /// hold that the tick did not visit.
    fn finish_plan(&mut self, mut plan: TickPlan) {
        self.apply_plan(&mut plan);
        let steady = plan.resting - plan.woken;
        self.stats.controller_decisions += plan.holds + steady;
        self.stats.epoch_steady_holds += steady;
        self.plan = plan;
    }

    /// Whether decision `d` is a hold: the rate is unchanged and no
    /// drain is parked, so [`Core::decide_rate`] would only count it.
    fn is_hold(&self, (ch, _, rate): PlannedDecision) -> bool {
        let i = ch.index();
        rate == self.channels.rate[i] && self.channels.flags[i] & F_DRAINING == 0
    }

    /// Plans one decision unit — a channel, or a paired link's two
    /// channels — that an active-set tick visits: ends its channels'
    /// rest after a hold (the tick decides them itself), plans its
    /// non-hold decisions and counts its holds.
    fn plan_unit(
        &mut self,
        plan: &mut TickPlan,
        unit: &[ChannelId],
        decisions: &[Option<PlannedDecision>],
    ) {
        let mut holds = 0;
        let mut all_hold = true;
        for &d in decisions.iter().flatten() {
            if self.is_hold(d) {
                holds += 1;
            } else {
                all_hold = false;
                plan.decisions.push(d);
            }
        }
        if self.channels.fluid.is_empty() {
            // Packet mode: no channel rests after a hold.
            plan.holds += holds;
            return;
        }
        for c in unit {
            plan.woken += u64::from(self.channels.clear_steady(c.index()));
        }
        if holds > 0 && (!all_hold || self.hold_unit(unit, decisions)) {
            plan.holds += holds;
        }
    }

    /// The sweep's visit of one decision unit: applies its decisions in
    /// order and keeps the rest-after-hold bookkeeping exactly as the
    /// active-set tick does, checking that a unit nothing touched since
    /// it came to rest decides hold again.
    fn sweep_unit(&mut self, unit: &[ChannelId], decisions: &[Option<PlannedDecision>]) {
        if !self.channels.fluid.is_empty() {
            self.sweep_steady(unit, decisions);
        }
        for &(ch, util, rate) in decisions.iter().flatten() {
            self.decide_rate(ch, util, rate);
        }
    }

    /// The sweep's rest-after-hold bookkeeping for one unit (hybrid
    /// model only), before its decisions apply.
    fn sweep_steady(&mut self, unit: &[ChannelId], decisions: &[Option<PlannedDecision>]) {
        let all_hold = decisions.iter().flatten().all(|&d| self.is_hold(d));
        let untouched = unit.iter().all(|c| !self.channels.is_active(c.index()));
        for c in unit {
            let rested = self.channels.clear_steady(c.index());
            debug_assert!(
                !rested || !untouched || all_hold,
                "{c} rested after a hold, unchanged, yet decides a change"
            );
        }
        if all_hold {
            self.hold_unit(unit, decisions);
        }
    }

    /// Bookkeeping for a visited unit whose every decision is a hold
    /// (hybrid model only). Returns whether those holds count toward
    /// `controller_decisions`: a unit the fluid pass marked only because a
    /// channel's fluid load fell to zero — every channel idle at the
    /// floor or exempt, with no fluid — is not counted, so the count
    /// matches a tick that marks only loaded channels (every unit counts
    /// on the first tick, when every channel starts active).
    ///
    /// An idle unit with load (fluid bytes, or a rate above the floor)
    /// comes to rest after the hold: its decided channels leave the
    /// active set at the recharge and decide "hold" each tick without a
    /// visit until something marks one of its channels. `desired_rate`
    /// is pure, and every input — rate, flags, transient busy time,
    /// fluid load — changes only at sites that mark the channel active.
    /// Not with the dynamic topology, whose power transitions land after
    /// the decisions.
    fn hold_unit(&mut self, unit: &[ChannelId], decisions: &[Option<PlannedDecision>]) -> bool {
        let min = self.config.min_rate;
        let mut idle = true;
        let mut loaded = false;
        for (c, d) in unit.iter().zip(decisions) {
            let i = c.index();
            idle &= self.channels.queued_at(i) == 0
                && self.channels.busy_ps_epoch[i] == 0
                && self.channels.flags[i] & F_DRAINING == 0;
            loaded |= self.channels.fluid[i] > 0 || (d.is_some() && self.channels.rate[i] != min);
        }
        if idle && loaded && self.dyntopo.is_none() {
            for (c, d) in unit.iter().zip(decisions) {
                if d.is_some() {
                    self.channels.set_steady(c.index());
                }
            }
        }
        !idle || loaded || self.stats.epoch_ticks == 0
    }

    /// Applies and empties a plan's decisions, in plan order.
    fn apply_plan(&mut self, plan: &mut TickPlan) {
        for &(ch, util, rate) in plan.decisions.iter() {
            self.decide_rate(ch, util, rate);
        }
        plan.decisions.clear();
    }

    /// The link's two channels and their §3.3.1 decisions, in channel
    /// order. When both
    /// channels are tunable the pair moves together to the faster of
    /// the two desired rates.
    /// When exactly one is exempt (powered off by the dynamic-topology
    /// controller, or a host channel with tuning disabled), the tunable
    /// channel is tuned *independently*: §3.3.1 pairs the channels only
    /// because "the link pair must be reconfigured together to match
    /// the requirements of the channel with the highest load", and a
    /// channel with no rate to match leaves the survivor governed by
    /// its own load. (The historical behavior — skipping the link
    /// entirely — froze the tunable channel at whatever rate it last
    /// held, forever.) No current topology produces a half-exempt link
    /// — host exemption and power-off both apply to whole links — so
    /// this arm is pinned by a unit test rather than the golden report.
    fn link_decisions(&self, link: usize) -> ([ChannelId; 2], [Option<PlannedDecision>; 2]) {
        let (a, b) = self
            .fabric
            .link_channels(epnet_topology::LinkId::new(link as u32));
        let decisions = match (self.channel_decision(a), self.channel_decision(b)) {
            (Some((ua, ra)), Some((ub, rb))) => {
                let rate = ra.max(rb);
                [Some((a, ua, rate)), Some((b, ub, rate))]
            }
            (da, db) => [da.map(|(u, r)| (a, u, r)), db.map(|(u, r)| (b, u, r))],
        };
        ([a, b], decisions)
    }

    /// The measured utilization and the rate the policy wants for this
    /// channel, or `None` when the channel is exempt from tuning (host
    /// link with tuning disabled, or powered off).
    fn channel_decision(&self, ch: ChannelId) -> Option<(f64, LinkRate)> {
        let i = ch.index();
        if self.channels.flags[i] & (F_TUNABLE | F_OFF) != F_TUNABLE {
            return None;
        }
        let util = self.channels.epoch_utilization(i, self.config.epoch);
        let rate = desired_rate(
            self.config.policy,
            self.channels.rate[i],
            util,
            self.config.target_utilization,
            self.config.min_rate,
            self.config.max_rate,
        );
        Some((util, rate))
    }

    /// Applies one controller decision and, when tracing, records it
    /// with the measured utilization and the outcome-derived reason.
    fn decide_rate(&mut self, ch: ChannelId, util: f64, rate: LinkRate) {
        self.stats.controller_decisions += 1;
        let old = self.channels.rate[ch.index()];
        let outcome = self.apply_rate(ch, rate);
        if self.inst.on(TraceCategory::Controller) {
            let reason = match outcome {
                RateOutcome::Unchanged => "hold",
                RateOutcome::Applied if rate > old => "upshift",
                RateOutcome::Applied => "downshift",
                RateOutcome::DrainDeferred => "drain_deferred",
                RateOutcome::DrainCancelled => "drain_cancelled",
            };
            let at = self.now.as_ps();
            let (old, new) = (old.to_string(), rate.to_string());
            self.inst
                .tracer()
                .controller(at, ch.raw(), util, &old, &new, reason);
        }
    }

    /// Applies a rate decision; a change costs the reactivation latency
    /// (§3.1). Under [`ReactivationStrategy::DrainFirst`] a busy channel
    /// is first removed from the legal routes and drained (§3.2's first
    /// option).
    ///
    /// [`ReactivationStrategy::DrainFirst`]: crate::config::ReactivationStrategy::DrainFirst
    fn apply_rate(&mut self, ch: ChannelId, rate: LinkRate) -> RateOutcome {
        let i = ch.index();
        let strategy = self.config.reactivation_strategy;
        // The F_DRAINING mirror gates the pending-rate take: the common
        // hold/no-drain decision — the bulk of every epoch sweep —
        // never touches `pending_rate` at all.
        if self.channels.has_flag(i, F_DRAINING)
            && self.channels.take_pending_rate(i).is_some()
            && self.channels.rate[i] == rate
        {
            // The controller changed its mind back before the drain
            // finished; cancel the pending change.
            return RateOutcome::DrainCancelled;
        }
        let old = self.channels.rate[i];
        if old == rate {
            return RateOutcome::Unchanged;
        }
        // Drain-first only defers *downshifts*: an upshift is what a
        // congested queue needs, and deferring it until the queue
        // empties could wait forever.
        if strategy == crate::config::ReactivationStrategy::DrainFirst
            && rate < self.channels.rate[i]
            && !self.channels.queue_is_idle(i)
        {
            self.channels.set_pending_rate(i, Some(rate));
            return RateOutcome::DrainDeferred;
        }
        self.channels.reprice_fluid(i, old, rate);
        self.commit_rate(ch, rate);
        // If traffic is waiting, make sure it resumes once the channel
        // relocks (the serializing packet, if any, completes at the old
        // timing — the change takes effect for subsequent packets). An
        // empty queue has nothing to resume, and `try_tx` would return
        // without acting.
        if self.channels.queued_at(i) != 0 {
            self.try_tx(ch);
        }
        RateOutcome::Applied
    }

    /// Completes a drain-first rate change once the queue has emptied.
    fn finish_pending_rate(&mut self, ch: ChannelId) {
        let i = ch.index();
        let Some(rate) = self.channels.take_pending_rate(i) else {
            return;
        };
        if !self.channels.queue_is_idle(i) {
            // New traffic slipped in before the drain completed (only
            // possible when this channel was the sole route); keep
            // waiting.
            self.channels.set_pending_rate(i, Some(rate));
            return;
        }
        self.commit_rate(ch, rate);
    }

    /// Switches `ch` to `rate` now: the channel is unavailable for the
    /// reactivation latency, and the change is counted, recorded on the
    /// timeline and traced.
    fn commit_rate(&mut self, ch: ChannelId, rate: LinkRate) {
        let i = ch.index();
        let now = self.now;
        let model = self.config.reactivation;
        let latency = model.latency(self.channels.rate[i], rate);
        self.channels.set_rate(i, now, rate);
        let until = now + latency;
        self.channels.available_at[i] = until;
        self.stats.reconfigurations += 1;
        self.stats.record_rate(now, ch.raw(), Some(rate));
        if self.inst.on(TraceCategory::Reactivation) {
            let rate = rate.to_string();
            self.inst.tracer().reactivation(
                now.as_ps(),
                ch.raw(),
                "start",
                &rate,
                Some(until.as_ps()),
            );
        }
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

    /// A link with exactly one exempt channel (here: powered off out
    /// from under the controller) must still tune the surviving channel
    /// by its own load. The historical `retune_paired` skipped such
    /// links entirely, freezing the tunable channel at whatever rate it
    /// last held — forever. No current topology produces a half-exempt
    /// link (host exemption and dyntopo power-off both cover whole
    /// links), so the fixed arm is pinned here rather than by the
    /// golden report.
    #[test]
    fn paired_link_with_one_exempt_channel_tunes_the_survivor() {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let config = SimConfig::builder()
            .control(ControlMode::PairedLink)
            .build();
        let epoch = config.epoch;
        let min = config.min_rate;
        let mut sim = Simulator::new(fabric, config, ReplaySource::new(Vec::new()));
        sim.prime(SimTime::from_ms(1));
        let (a, b) = sim
            .core
            .fabric
            .link_channels(epnet_topology::LinkId::new(0));
        sim.core.channels.set_off(b.index(), SimTime::ZERO, true);
        assert_eq!(sim.core.channels.asymmetric_links(), 1);
        assert_eq!(sim.core.channels.rate[a.index()], LinkRate::R40);
        // First tick: the idle survivor halves under HalveDouble even
        // though its peer yields no decision.
        sim.advance_until(epoch + SimTime::from_ns(1));
        assert_eq!(
            sim.core.channels.rate[a.index()],
            LinkRate::R20,
            "the tunable survivor of a half-exempt link must keep tuning"
        );
        // Later ticks walk it all the way down to the floor.
        sim.advance_until(SimTime::from_us(500));
        assert_eq!(sim.core.channels.rate[a.index()], min);
        assert_eq!(sim.core.channels.asymmetric_links(), 1);
    }

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

    /// Epoch ticks with no traffic must do O(active) controller work:
    /// after the first tick retires every idle channel, subsequent ticks
    /// evaluate zero rate decisions while the sweep reference evaluates
    /// every channel every tick.
    #[test]
    fn quiescent_network_makes_no_decisions_after_the_first_ticks() {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let config = SimConfig::builder()
            .control(ControlMode::IndependentChannel)
            .build();
        let epoch = config.epoch;
        let mut sim = Simulator::with_options(
            fabric,
            config,
            ReplaySource::new(Vec::new()),
            RunOptions::default(),
        );
        sim.prime(SimTime::from_ms(1));
        // Every channel starts active and takes a handful of ticks to
        // descend R40 → R2.5; give them ten epochs to settle.
        sim.advance_until(epoch.scaled(10) + SimTime::from_ns(1));
        let settled = sim.core.stats.controller_decisions;
        let ticks = sim.core.stats.epoch_ticks;
        sim.advance_until(epoch.scaled(20) + SimTime::from_ns(1));
        assert_eq!(
            sim.core.stats.controller_decisions, settled,
            "a quiescent network must decide nothing per tick"
        );
        assert_eq!(sim.core.stats.epoch_ticks, ticks + 10, "ticks still fire");
    }
}
