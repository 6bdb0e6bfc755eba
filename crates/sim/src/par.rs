//! The deterministic sharded parallel engine ([`RunOptions::par`], or
//! `EPNET_PAR`).
//!
//! A width of `N` partitions the fabric across `N` shards — contiguous
//! switch-group ranges, each owning its switches' output channels and
//! the hosts hanging off them (see [`epnet_topology::ShardMap`]) — and
//! executes shard-local events on worker threads. The hard contract:
//! the serialized [`SimReport`] (and, when tracing, the trace stream)
//! is **byte-identical to the serial engine at every width**.
//!
//! # How determinism is kept exact
//!
//! The coordinator owns the global event order. It holds every pending
//! event in two [`KeyedQueue`]s keyed by `(time, seq)` — `qlocal` for
//! shard-dispatchable events (`TxDone`, `Arrive`, `CreditWake`,
//! `Retry`) and `qcoord` for global ones (`Workload`, `EpochTick`) —
//! sharing one monotone `next_seq` counter that replicates the serial
//! event queue's FIFO tie-break exactly.
//!
//! The main loop alternates two steps:
//!
//! * **Coordinator phase** — when the globally-next event is
//!   `Workload` or `EpochTick`, it runs on the coordinator (injection
//!   replays the serial `inject` against a replica arena so global
//!   packet-slot numbers — and with them the routing tie-break keys —
//!   match the serial engine bit for bit; the epoch tick gathers all
//!   channel state onto the master core, runs the serial `on_epoch` in
//!   sweep mode, and scatters the result back to the owning shards).
//! * **Window** — otherwise, a batch of shard events is popped under a
//!   *pairwise lookahead* bound: the pop loop greedily tightens the
//!   window end to `min(t_s + B[s])` over every shard `s` it touches,
//!   where `t_s` is the first popped time touching `s` and `B[s]` is
//!   the smallest cross-shard *arrival bound* (propagation delay plus
//!   the router pipeline) over the cross channels `s` owns — computed
//!   once from [`ShardMap::for_each_cross_channel`]'s census, reduced
//!   per sending shard. Tightening during
//!   the pop loop is sound because pops ascend: a new constraint
//!   `t + B[s]` always exceeds every already-popped time. A shard with
//!   no cross channels contributes no bound at all, so a single-shard
//!   run executes each coordinator-to-coordinator stretch as **one
//!   unbounded window** — the width-1 overhead win. Intra-shard events
//!   generated inside the window (including `Arrive`s on intra-shard
//!   channels, which the longer pairwise bound now allows) execute
//!   locally in the same window; cross-shard `Arrive`s provably land
//!   at or past the window end.
//!
//! Shards execute their slices concurrently; a barrier **merge** then
//! reproduces the window's serial order on the coordinator — without
//! re-executing anything — in a single k-way pass over the shards'
//! execution logs, each pre-sorted by construction. The merge key is
//! `(time, true_seq, half)`: batch events carry their global sequence
//! number, events generated in-window carry per-shard pseudo numbers
//! that the merge resolves to true serial numbers at the moment their
//! *parent* dispatch merges (the parent always merges first — it
//! precedes its generations in the same shard's log). One pass assigns
//! sequence numbers to every generated event, counts popped events,
//! applies packet/message frees to the replica arena in serial order
//! (reproducing the serial free list, slot assignment, and
//! `peak_live_packets`), and emits per-event trace and timeline slices
//! in serial order.
//!
//! A cross-shard `Arrive` (the consuming channel is owned by one
//! shard, its target switch by another) is split at window-build time:
//! the sender's shard runs the credit half, the receiver's shard runs
//! the route half against a payload mirrored into its arena at the
//! same global slot. Splits are buffered during the pop loop and
//! applied **batched per (sender, receiver) shard pair**, so a
//! window's mirror copies for a pair land as one grouped pass instead
//! of interleaved single-packet pokes. The serial handler runs
//! credit-before-route, so the merge ranks the credit half first.
//!
//! # Exemptions and fallbacks
//!
//! * Route-table rebuild trace lines (`category: routes`) carry a
//!   wall-clock build time and are nondeterministic even between two
//!   serial runs; under a dynamic link mask each shard also rebuilds
//!   (and traces) its own table. These lines are exempt from the
//!   byte-identical trace contract.
//! * Window-shape trace lines (`category: parallel`) — one per
//!   coordinator window, emitted at the barrier with the window's span
//!   and event/replay/cross-batch counts — describe *how* the run
//!   executed, not what the network did: serial runs emit none and the
//!   records vary with width, so the category
//!   shares the `routes` exemption.
//! * A configuration with a zero minimum propagation delay (no
//!   lookahead) or a zero reactivation latency (a zero-latency retune
//!   would let the epoch phase's `try_tx` reach the serialization path
//!   on master state whose credit-return rings are only gathered for
//!   the hybrid demotion path) falls back to the serial pop loop —
//!   same report, no parallelism. The fallback is visible as
//!   `par_fallback_serial = 1` in [`SimReport::diagnostics`].
//!
//! # Hybrid model composition
//!
//! The hybrid model composes with the parallel engine: the flow table
//! lives on the coordinator's master core, and every regime decision
//! happens at a coordinator phase — where, all prior events having
//! merged, shard channel state *is* the serial state. Absorption runs
//! in the Workload phase: the greedy path walk on the master (it reads
//! only the fabric and the dyntopo mask), the steadiness gate against
//! the owning shards' channel copies, and the allocation on the
//! master-resident table — so the flows' live order, sharer counts and the
//! high-water diagnostics reproduce the serial engine bit for bit.
//! Flows advance inside the epoch phase's `on_epoch` over the gathered
//! all-channel state, so per-channel fluid busy picoseconds land in
//! the same gathered accumulators the controller reads and scatter
//! back with the rest of the channel state. A demotion re-enters the
//! packet path *on the master*: its `inject_packets` → `try_tx` runs
//! against the gathered queues plus (hybrid-only) the gathered pending
//! credit-return rings, making the serialization decision exact; the
//! created message record, packet payloads, and mutated queue then
//! mirror out to the owning shards (the injection channel of a flow's
//! source host is always shard-local), and the demotion's generated
//! events drain through the ordinary phase capture under exact serial
//! sequence numbers.
//!
//! # Diagnostics
//!
//! Window-shape counters — windows executed, events executed inside
//! windows, merge records walked, cross-shard batches and the arrivals
//! they carried, the effective lookahead floor — are registered as
//! *diagnostic* metrics: they land in [`SimReport::diagnostics`] (and
//! vary with width) but never in the serialized,
//! byte-identical report.

use std::sync::{mpsc, Arc};

use epnet_telemetry::{MemorySink, Tracer};
use epnet_topology::{ChannelId, HostId, RoutingTopology, ShardMap};

use crate::config::{ReactivationModel, RoutingPolicy};
use crate::engine::{Core, CoreQueue, MessageRec, RouteMode, Simulator};
use crate::env::{EpochMode, Routes, RunOptions};
use crate::event::Event;
use crate::instrument::Instruments;
use crate::packet::{MessageId, Packet, PacketId};
use crate::sched::KeyedQueue;
use crate::stats::SimReport;
use crate::time::SimTime;
use crate::traffic::{Message, TrafficSource};

/// Which halves of an `Arrive` a dispatch runs (see
/// [`Core::on_arrive`]): the serial engine always runs both; a
/// cross-shard arrival splits into a credit half on the sender's shard
/// and a route half on the receiver's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArriveHalf {
    /// Credit bookkeeping and forwarding/delivery (serial behavior).
    Full,
    /// Credit bookkeeping only (sending side of a cross-shard arrival).
    Credit,
    /// Forwarding/delivery only (receiving side).
    Route,
}

impl ArriveHalf {
    /// Merge rank among the two halves of one cross-shard arrival —
    /// they share `(time, seq)`, and the serial handler runs credit
    /// bookkeeping before routing.
    #[inline]
    fn rank(self) -> u8 {
        match self {
            ArriveHalf::Full | ArriveHalf::Credit => 0,
            ArriveHalf::Route => 1,
        }
    }

    /// Whether this half counts the event (each event is counted once;
    /// a cross-shard arrival's route half is its second record).
    #[inline]
    fn counts(self) -> bool {
        !matches!(self, ArriveHalf::Route)
    }
}

/// Event-kind tags recorded per dispatch so the barrier merge can
/// maintain the per-kind counters without decoding the event again.
pub(crate) const KIND_TX_DONE: u8 = 0;
pub(crate) const KIND_ARRIVE: u8 = 1;
pub(crate) const KIND_CREDIT_WAKE: u8 = 2;
pub(crate) const KIND_RETRY: u8 = 3;

/// One entry of a shard's in-window queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalEv {
    pub(crate) ev: Event,
    pub(crate) half: ArriveHalf,
}

/// One generated event, logged in generation order so the barrier
/// replay can assign it the exact serial sequence number.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenRec {
    pub(crate) at: SimTime,
    pub(crate) ev: Event,
}

/// Per-dispatch high-water marks of a shard's side-effect logs,
/// recorded by [`Core::exec_window`]. The barrier replay walks these
/// in replay order, applying each dispatch's slice of generated
/// events, frees, timeline entries, and trace bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecRec {
    /// Simulated time of the dispatch.
    pub(crate) t: SimTime,
    /// The popped key's sequence number: the *global* serial number
    /// for batch events (always below the window's sequence
    /// watermark), the shard's *pseudo* number for events generated
    /// and executed inside the window (at or above it). The merge
    /// resolves pseudo numbers through the per-shard assignment log.
    pub(crate) seq: u64,
    /// Event kind (`KIND_*`) for the merge's per-kind counters.
    pub(crate) kind: u8,
    /// Which halves this dispatch ran — the merge's tie-break rank
    /// between the two records of a cross-shard arrival.
    pub(crate) half: ArriveHalf,
    pub(crate) gen_end: u32,
    pub(crate) pkt_free_end: u32,
    pub(crate) msg_free_end: u32,
    pub(crate) timeline_end: u32,
    /// Trace-sink byte length after the dispatch (window-relative).
    pub(crate) trace_end: u32,
}

/// A window-mode core's event-capture state (the `Window` arm of
/// [`CoreQueue`]). During a window, generated events that land before
/// `window_end` join the shard-local ordered queue under pseudo
/// sequence numbers; *every* generated event is also logged for the
/// coordinator. During coordinator phases `window_end` is `ZERO`, so
/// everything is captured and nothing executes locally.
#[derive(Debug)]
pub(crate) struct WindowQueue {
    /// Shard-local `(time, seq)` heap for the current window.
    pub(crate) local: KeyedQueue<LocalEv>,
    /// Next pseudo sequence number. Reset each window to the global
    /// `next_seq` watermark, which exceeds every batch seq — so, like
    /// the serial queue, generated events order after pre-existing
    /// ones at the same time, and among themselves by generation
    /// order. The merge later assigns true seqs in the same relative
    /// order, so the shard's execution order is exactly serial.
    pub(crate) pseudo_seq: u64,
    /// Exclusive upper bound of the current window (`ZERO` outside).
    pub(crate) window_end: SimTime,
    /// Which channels cross a shard boundary (shared, read-only):
    /// [`WindowQueue::record`]'s in-window legality check — an
    /// `Arrive` may land inside a window only on an intra-shard
    /// channel. Empty on the master core, whose `window_end` never
    /// opens.
    cross: Arc<[bool]>,
    /// Every event generated this window/phase, in generation order.
    pub(crate) gens: Vec<GenRec>,
    /// One record per dispatch, in execution order.
    pub(crate) execs: Vec<ExecRec>,
    /// Global packet slots freed this window, in free order.
    pub(crate) freed_packets: Vec<u32>,
    /// Message slots freed this window, in free order.
    pub(crate) freed_messages: Vec<u32>,
    /// Packets created by a hybrid flow demotion during a coordinator
    /// epoch phase, as `(channel, id)` — logged by the master's
    /// `inject_packets` so the phase can place the payloads into the
    /// owning shard's arena and scatter the mutated queue back. Always
    /// empty on worker shards (they never inject).
    pub(crate) demoted_packets: Vec<(u32, PacketId)>,
    /// Message records created by those demotions, as
    /// `(message slot, destination host)` — mirrored to the delivering
    /// shard like a Workload-phase injection.
    pub(crate) demoted_msgs: Vec<(u32, u32)>,
}

impl WindowQueue {
    /// A capture queue with no cross-channel table — the master core's
    /// form, which only ever captures (its `window_end` never opens).
    pub(crate) fn new() -> Self {
        Self::with_cross(Vec::new().into())
    }

    /// A capture queue for a worker shard, sharing the partition's
    /// cross-channel bitmap.
    fn with_cross(cross: Arc<[bool]>) -> Self {
        Self {
            local: KeyedQueue::new(),
            pseudo_seq: 0,
            window_end: SimTime::ZERO,
            cross,
            gens: Vec::new(),
            execs: Vec::new(),
            freed_packets: Vec::new(),
            freed_messages: Vec::new(),
            demoted_packets: Vec::new(),
            demoted_msgs: Vec::new(),
        }
    }

    /// Captures one generated event — the window-mode body of
    /// [`Core::schedule`].
    pub(crate) fn record(&mut self, at: SimTime, ev: Event) {
        if at < self.window_end {
            // Only events that execute on this same shard can land
            // inside a window: TxDone/CreditWake/Retry are always
            // owner-local, and an Arrive only on an intra-shard
            // channel — a cross-shard arrival bound is part of the
            // window bound, so one landing inside would mean the
            // pairwise lookahead was violated.
            debug_assert!(
                match ev {
                    Event::TxDone { .. } | Event::CreditWake { .. } | Event::Retry { .. } => true,
                    Event::Arrive { channel, .. } => !self.cross[channel.index()],
                    Event::Workload | Event::EpochTick => false,
                },
                "non-local event generated inside a window"
            );
            let seq = self.pseudo_seq;
            self.pseudo_seq += 1;
            self.local.push(
                at,
                seq,
                LocalEv {
                    ev,
                    half: ArriveHalf::Full,
                },
            );
        }
        self.gens.push(GenRec { at, ev });
    }

    /// Marks this shard touched by the current window: pseudo sequence
    /// numbers start at the global watermark. The window's end is not
    /// known yet — the coordinator's pop loop is still tightening it —
    /// so `window_end` stays closed until [`Shard::open`] sets it just
    /// before execution.
    fn begin_window(&mut self, seq_watermark: u64) {
        debug_assert!(
            self.local.is_empty()
                && self.gens.is_empty()
                && self.execs.is_empty()
                && self.freed_packets.is_empty()
                && self.freed_messages.is_empty()
                && self.demoted_packets.is_empty()
                && self.demoted_msgs.is_empty(),
            "window state not drained"
        );
        self.pseudo_seq = seq_watermark;
    }

    /// Clears window state after the barrier merge consumed it.
    fn end_window(&mut self) {
        debug_assert!(self.local.is_empty(), "window left events unexecuted");
        self.window_end = SimTime::ZERO;
        self.gens.clear();
        self.execs.clear();
        self.freed_packets.clear();
        self.freed_messages.clear();
    }
}

/// One worker shard: a full engine core (mirror arena, full-size
/// channel state — only the owned ranges are authoritative) plus its
/// window-local trace sink.
#[derive(Debug)]
struct Shard {
    id: usize,
    core: Core,
    sink: Option<MemorySink>,
}

impl Shard {
    fn exec(&mut self) {
        self.core.exec_window(self.sink.as_ref());
    }

    fn wq(&mut self) -> &mut WindowQueue {
        match &mut self.core.queue {
            CoreQueue::Window(w) => w,
            CoreQueue::Serial(_) => unreachable!("shard core in serial mode"),
        }
    }

    /// Shared view of the window logs (the merge's read side).
    fn wq_ref(&self) -> &WindowQueue {
        match &self.core.queue {
            CoreQueue::Window(w) => w,
            CoreQueue::Serial(_) => unreachable!("shard core in serial mode"),
        }
    }

    /// Opens the (now finally bounded) window for execution.
    fn open(&mut self, window_end: SimTime) {
        self.wq().window_end = window_end;
    }
}

/// One cross-shard arrival, buffered during the window's pop loop and
/// applied per (sender, receiver) shard pair: a pair's payload mirrors
/// and half pushes land as one grouped batch instead of interleaved
/// single-packet copies.
#[derive(Debug, Clone, Copy)]
struct CrossRec {
    t: SimTime,
    seq: u64,
    channel: ChannelId,
    packet: PacketId,
    snd: usize,
    rcv: usize,
}

/// Per-shard merge cursors: how far into the shard's window logs the
/// barrier merge has advanced.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayCursor {
    exec: usize,
    gen: u32,
    pkt: u32,
    msg: u32,
    timeline: u32,
    trace: u32,
}

/// Pushes one event into the coordinator's global queues under the
/// next serial sequence number.
fn push_global(
    qlocal: &mut KeyedQueue<Event>,
    qcoord: &mut KeyedQueue<Event>,
    next_seq: &mut u64,
    at: SimTime,
    ev: Event,
) {
    let seq = *next_seq;
    *next_seq += 1;
    match ev {
        Event::Workload | Event::EpochTick => qcoord.push(at, seq, ev),
        _ => qlocal.push(at, seq, ev),
    }
}

/// Drains a core's phase capture — events generated while
/// `window_end == ZERO` — into the global queues in generation order
/// (which is the serial scheduling order), and forwards any trace
/// lines to the real tracer.
fn drain_phase_capture(
    core: &mut Core,
    sink: Option<&MemorySink>,
    real_tracer: &mut Option<Tracer>,
    qlocal: &mut KeyedQueue<Event>,
    qcoord: &mut KeyedQueue<Event>,
    next_seq: &mut u64,
) {
    let CoreQueue::Window(w) = &mut core.queue else {
        unreachable!("phase capture on a serial core")
    };
    debug_assert!(w.local.is_empty(), "phase generated an in-window event");
    debug_assert!(
        w.execs.is_empty() && w.freed_packets.is_empty() && w.freed_messages.is_empty(),
        "phase produced window-only side effects"
    );
    debug_assert!(
        w.demoted_packets.is_empty() && w.demoted_msgs.is_empty(),
        "demotion log must be reconciled before the phase drain"
    );
    for g in w.gens.drain(..) {
        push_global(qlocal, qcoord, next_seq, g.at, g.ev);
    }
    if let Some(s) = sink {
        if !s.is_empty() {
            let text = s.take_contents();
            let tr = real_tracer
                .as_mut()
                .expect("memory sinks exist only when a real tracer does");
            for line in text.lines() {
                tr.write_line(line);
            }
        }
    }
}

/// Runs a primed simulation to `end` on `width` shards and reports.
///
/// Called by [`Simulator::run_until`] after [`Simulator::prime`]; the
/// report is byte-identical to the serial engine's.
pub(crate) fn run<S: TrafficSource>(
    mut sim: Simulator<S>,
    end: SimTime,
    width: usize,
) -> SimReport {
    let min_prop = sim.core.channels.min_propagation().unwrap_or(SimTime::ZERO);
    let reactivation_floor = match sim.core.config.reactivation {
        ReactivationModel::Uniform(t) => t,
        ReactivationModel::TransitionAware {
            cdr_relock,
            lane_change,
        } => cdr_relock.min(lane_change),
    };
    if min_prop == SimTime::ZERO || reactivation_floor == SimTime::ZERO {
        // No usable lookahead, or the master's epoch-phase try_tx
        // could reach the serialization path (see module docs): run
        // the serial pop loop — the output contract is trivially met.
        let ids = sim.core.inst.ids;
        sim.core.inst.metrics.set(ids.par_fallback_serial, 1);
        sim.advance_until(end);
        return sim.finalize();
    }

    let map = ShardMap::build(&sim.core.fabric, width);
    let nsh = map.num_shards();
    let num_channels = sim.core.channels.len();

    // Per-shard window bounds: the minimum cross-shard *arrival*
    // bound (propagation plus the router pipeline — every cross channel
    // targets a switch, so its Arrives land at least `arrive_extra`
    // past their cause) over the cross channels each shard sends on; a
    // shard with no cross channels (always at width 1) bounds nothing.
    let mut row_bound = vec![None::<SimTime>; nsh];
    map.for_each_cross_channel(|ch, snd, _| {
        let bound = sim.core.arrive_extra[ch.index()];
        let cell = &mut row_bound[snd];
        *cell = Some(cell.map_or(bound, |b| b.min(bound)));
    });
    // Effective lookahead floor across shards (0 = unbounded windows).
    let floor_ps = row_bound
        .iter()
        .flatten()
        .copied()
        .min()
        .map_or(0, SimTime::as_ps);
    let cross_bitmap: Arc<[bool]> = (0..num_channels)
        .map(|ch| map.is_cross_shard(ChannelId::new(ch as u32)))
        .collect();
    // Events at exactly `end` still execute; the horizon key is the
    // first key strictly past it.
    let horizon_key = (SimTime::from_ps(end.as_ps() + 1), 0u64);

    // Re-number the primed serial queue into the coordinator's global
    // queues. Draining in pop order and re-seeding with seq 0, 1, …
    // preserves all relative orderings: the drain order *is* the
    // serial order among current events, and every later event gets a
    // larger seq under both numbering schemes.
    let mut next_seq: u64 = 0;
    let mut qlocal: KeyedQueue<Event> = KeyedQueue::new();
    let mut qcoord: KeyedQueue<Event> = KeyedQueue::new();
    while let Some((t, ev)) = sim.core.serial_pop() {
        push_global(&mut qlocal, &mut qcoord, &mut next_seq, t, ev);
    }
    sim.core.queue = CoreQueue::Window(WindowQueue::new());
    // The master core runs epoch ticks over gathered (all-active)
    // state; the sweep implementation is the one whose output is
    // independent of active-set bookkeeping, and the determinism suite
    // pins sweep ≡ active-set.
    sim.core.epoch_mode = EpochMode::Sweep;

    // Swap the real tracer out for per-core memory sinks; every line
    // reaches it in exact serial order via phase drains and the
    // barrier replay. (The construction-time route-table line already
    // went to the real tracer, as in the serial engine.)
    let mut real_tracer = sim.core.inst.take_tracer();
    let trace_mask = real_tracer.as_ref().map_or(0, Tracer::mask);
    let master_sink = if trace_mask != 0 {
        let sink = MemorySink::new();
        sim.core
            .inst
            .set_tracer(Tracer::new(sink.clone(), trace_mask));
        Some(sink)
    } else {
        None
    };

    // Shards inherit the model and route mode: hybrid shards route
    // dynamically and keep the pod rollup (demoted packets deliver on
    // shards), exactly like the serial core. Shards never run epoch
    // ticks, so their epoch mode is moot.
    let shard_options = RunOptions {
        model: sim.core.model,
        routes: match sim.core.routes {
            RouteMode::Table(_) => Routes::Table,
            RouteMode::Dynamic { .. } => Routes::Dynamic,
        },
        ..RunOptions::default()
    };
    let mut shards: Vec<Option<Box<Shard>>> = (0..nsh)
        .map(|id| {
            // Tracer-less construction suppresses the per-shard
            // route-table build line; the sink is installed after.
            let mut core = Core::build(
                sim.core.fabric.clone(),
                sim.core.config.clone(),
                Instruments::with_tracer(None),
                &shard_options,
            );
            // The flow table itself lives only on the master — flows
            // absorb and advance at coordinator phases — so drop the
            // per-channel sharer counts a hybrid build sizes.
            core.flows = crate::flows::FlowTable::new(0);
            core.queue = CoreQueue::Window(WindowQueue::with_cross(cross_bitmap.clone()));
            core.end = end;
            core.controller_active = sim.core.controller_active;
            core.epoch_end = sim.core.epoch_end;
            core.stats.timeline_channels = sim.core.stats.timeline_channels;
            // Mirrors see only their owned slice of each link; the
            // incremental asymmetry counter is recomputed on gathered
            // master state at each tick instead.
            core.channels.disable_asym_tracking();
            core.mask = sim.core.mask.clone();
            let sink = if trace_mask != 0 {
                let s = MemorySink::new();
                core.inst.set_tracer(Tracer::new(s.clone(), trace_mask));
                Some(s)
            } else {
                None
            };
            Some(Box::new(Shard { id, core, sink }))
        })
        .collect();

    // Event-kind counters flush into the metrics registry once at the
    // end, exactly like the serial pop loop's register accumulators.
    let mut n_workload = 0u64;
    let mut n_tx_done = 0u64;
    let mut n_arrive = 0u64;
    let mut n_credit_wake = 0u64;
    let mut n_retry = 0u64;
    let mut n_epoch_tick = 0u64;

    // Window-shape diagnostics (SimReport::diagnostics; never in the
    // serialized report).
    let mut n_windows = 0u64;
    let mut n_window_events = 0u64;
    let mut n_replay_events = 0u64;
    let mut n_cross_batches = 0u64;
    let mut n_cross_events = 0u64;

    // All per-window scratch is allocated once and recycled.
    let mut cross_buf: Vec<CrossRec> = Vec::new();
    let mut window_trace: Vec<String> = vec![String::new(); nsh];
    let mut cursors: Vec<ReplayCursor> = vec![ReplayCursor::default(); nsh];
    // True serial sequence numbers assigned to each shard's in-window
    // generations, indexed by `pseudo_seq - watermark`.
    let mut gen_seqs: Vec<Vec<u64>> = vec![Vec::new(); nsh];
    // Shards touched by the current window, in touch order.
    let mut touched: Vec<usize> = Vec::with_capacity(nsh);
    let mut touched_flag: Vec<bool> = vec![false; nsh];

    std::thread::scope(|scope| {
        // Persistent per-shard workers; shards ping-pong as boxes so a
        // window's handoff is two pointer sends. Windows with at most
        // one busy shard execute inline instead.
        let (res_tx, res_rx) = mpsc::channel::<Box<Shard>>();
        let mut work_tx: Vec<mpsc::Sender<Box<Shard>>> = Vec::with_capacity(nsh);
        for _ in 0..nsh {
            let (tx, rx) = mpsc::channel::<Box<Shard>>();
            let res = res_tx.clone();
            scope.spawn(move || {
                while let Ok(mut shard) = rx.recv() {
                    shard.exec();
                    if res.send(shard).is_err() {
                        break;
                    }
                }
            });
            work_tx.push(tx);
        }

        loop {
            let kl = qlocal.peek_key();
            let kg = qcoord.peek_key();
            let next = match (kl, kg) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if next.0 > end {
                break;
            }

            if kg == Some(next) {
                // ---- coordinator phase ----
                let ((t, _seq), ev) = qcoord.pop().expect("peeked event vanished");
                sim.core.now = t;
                sim.core.stats.events += 1;
                match ev {
                    Event::Workload => {
                        n_workload += 1;
                        workload_phase(
                            &mut sim,
                            &mut shards,
                            &map,
                            t,
                            end,
                            &mut real_tracer,
                            &mut qlocal,
                            &mut qcoord,
                            &mut next_seq,
                        );
                    }
                    Event::EpochTick => {
                        n_epoch_tick += 1;
                        epoch_phase(
                            &mut sim.core,
                            &mut shards,
                            &map,
                            master_sink.as_ref(),
                            &mut real_tracer,
                            &mut qlocal,
                            &mut qcoord,
                            &mut next_seq,
                        );
                    }
                    _ => unreachable!("only global events live in qcoord"),
                }
                continue;
            }

            // ---- window ----
            n_windows += 1;
            // Window-start time and counter snapshots for the
            // per-window `parallel` trace record emitted at the
            // barrier (deltas of the running totals).
            let wstart = next.0;
            let (ev0, rp0, cb0, ce0) = (
                n_window_events,
                n_replay_events,
                n_cross_batches,
                n_cross_events,
            );
            let watermark = next_seq;
            // The window bound starts at the next coordinator event /
            // horizon and tightens greedily as the pop loop touches
            // shards: the first event touching shard `s` at time `t`
            // caps the window at `t + row_bound[s]` — sound because
            // pops ascend, so a new cap always exceeds every
            // already-popped time. An untouched (or unbounded) shard
            // constrains nothing.
            let mut wkey = horizon_key;
            if let Some(g) = kg {
                if g < wkey {
                    wkey = g;
                }
            }
            debug_assert!(touched.is_empty() && cross_buf.is_empty());
            macro_rules! touch {
                ($s:expr, $t:expr) => {{
                    let s: usize = $s;
                    if !touched_flag[s] {
                        touched_flag[s] = true;
                        touched.push(s);
                        shards[s]
                            .as_mut()
                            .expect("shard at barrier")
                            .wq()
                            .begin_window(watermark);
                        if let Some(b) = row_bound[s] {
                            let cap = ($t + b, 0u64);
                            if cap < wkey {
                                wkey = cap;
                            }
                        }
                    }
                }};
            }
            while let Some(k) = qlocal.peek_key() {
                if k >= wkey {
                    break;
                }
                let (k, ev) = qlocal.pop().expect("peeked event vanished");
                match ev {
                    Event::Arrive { channel, packet } => {
                        let snd = map.channel_shard(channel);
                        let rcv = map.target_shard(channel);
                        if snd == rcv {
                            touch!(snd, k.0);
                            let sh = shards[snd].as_mut().expect("shard at barrier");
                            // Re-mint under the shard's generation: a
                            // hybrid demotion's Arrive was minted by
                            // the master (the identity for ids the
                            // shard minted itself).
                            let packet = sh.core.arena.adopt(packet.index() as u32);
                            sh.wq().local.push(
                                k.0,
                                k.1,
                                LocalEv {
                                    ev: Event::Arrive { channel, packet },
                                    half: ArriveHalf::Full,
                                },
                            );
                        } else {
                            // Buffered; the split halves and the
                            // payload mirror are applied per shard
                            // pair after the pop loop. The receiver
                            // is touched too: its route half executes
                            // this window and can generate cross
                            // arrivals of its own.
                            touch!(snd, k.0);
                            touch!(rcv, k.0);
                            cross_buf.push(CrossRec {
                                t: k.0,
                                seq: k.1,
                                channel,
                                packet,
                                snd,
                                rcv,
                            });
                        }
                    }
                    Event::TxDone { channel }
                    | Event::CreditWake { channel }
                    | Event::Retry { channel } => {
                        let s = map.channel_shard(channel);
                        touch!(s, k.0);
                        let sh = shards[s].as_mut().expect("shard at barrier");
                        sh.wq().local.push(
                            k.0,
                            k.1,
                            LocalEv {
                                ev,
                                half: ArriveHalf::Full,
                            },
                        );
                    }
                    Event::Workload | Event::EpochTick => {
                        unreachable!("global events live in qcoord")
                    }
                }
            }
            let wend = wkey.0;

            // ---- batched cross-shard mirror traffic ----
            // Grouping per (sender, receiver) pair turns a window's
            // mirror copies into one contiguous pass per pair. Safe to
            // read the sender's arena now: a crossing packet's payload
            // was last written in an earlier window (its forwarding
            // hop), and a slot cannot be re-injected until a later
            // Workload phase. Pushing the halves after the singles is
            // order-neutral — the shard-local queues order by key.
            cross_buf.sort_unstable_by_key(|c| (c.snd, c.rcv, c.t, c.seq));
            let mut i = 0usize;
            while i < cross_buf.len() {
                let (snd, rcv) = (cross_buf[i].snd, cross_buf[i].rcv);
                let mut j = i + 1;
                while j < cross_buf.len() && cross_buf[j].snd == snd && cross_buf[j].rcv == rcv {
                    j += 1;
                }
                // Take the sender's box out of the slice to read its
                // arena while the receiver's is borrowed mutably.
                let ssh = shards[snd].take().expect("shard at barrier");
                let rsh = shards[rcv].as_mut().expect("shard at barrier");
                for c in &cross_buf[i..j] {
                    let local_id = rsh.core.arena.mirror_from(&ssh.core.arena, c.packet);
                    rsh.wq().local.push(
                        c.t,
                        c.seq,
                        LocalEv {
                            ev: Event::Arrive {
                                channel: c.channel,
                                packet: local_id,
                            },
                            half: ArriveHalf::Route,
                        },
                    );
                }
                shards[snd] = Some(ssh);
                let ssh = shards[snd].as_mut().expect("shard at barrier");
                for c in &cross_buf[i..j] {
                    ssh.wq().local.push(
                        c.t,
                        c.seq,
                        LocalEv {
                            ev: Event::Arrive {
                                channel: c.channel,
                                packet: c.packet,
                            },
                            half: ArriveHalf::Credit,
                        },
                    );
                }
                n_cross_batches += 1;
                n_cross_events += (j - i) as u64;
                i = j;
            }
            cross_buf.clear();

            // Execute touched shards concurrently (inline when only
            // one was touched — no handoff cost at width 1). Every
            // touched shard has at least one queued event.
            for &s in &touched {
                shards[s].as_mut().expect("shard at barrier").open(wend);
            }
            if touched.len() == 1 {
                shards[touched[0]]
                    .as_mut()
                    .expect("shard at barrier")
                    .exec();
            } else {
                for &s in &touched {
                    let sh = shards[s].take().expect("shard at barrier");
                    work_tx[s].send(sh).expect("worker thread died");
                }
                for _ in 0..touched.len() {
                    let sh = res_rx.recv().expect("worker thread died");
                    let id = sh.id;
                    shards[id] = Some(sh);
                }
            }

            // ---- barrier merge ----
            // One k-way pass over the touched shards' execution logs,
            // each already sorted in (time, seq, half) order by
            // construction. Batch records carry global sequence
            // numbers; in-window generations carry per-shard pseudo
            // numbers resolved through `gen_seqs`, populated when
            // their parent dispatch merges — the parent always merges
            // first, since it precedes them in the same shard's log.
            for &s in &touched {
                let sh = shards[s].as_mut().expect("shard at barrier");
                if let Some(sink) = &sh.sink {
                    sink.take_into(&mut window_trace[s]);
                }
                cursors[s] = ReplayCursor::default();
                gen_seqs[s].clear();
            }
            let mut prev_key: Option<(SimTime, u64, u8)> = None;
            loop {
                // Linear min-scan over at most `touched` stream heads.
                let mut best: Option<(usize, (SimTime, u64, u8))> = None;
                for &s in &touched {
                    let w = shards[s].as_ref().expect("shard at barrier").wq_ref();
                    let Some(rec) = w.execs.get(cursors[s].exec) else {
                        continue;
                    };
                    let true_seq = if rec.seq < watermark {
                        rec.seq
                    } else {
                        gen_seqs[s][(rec.seq - watermark) as usize]
                    };
                    let key = (rec.t, true_seq, rec.half.rank());
                    if best.map_or(true, |(_, bk)| key < bk) {
                        best = Some((s, key));
                    }
                }
                let Some((s, key)) = best else { break };
                debug_assert!(prev_key.map_or(true, |p| p < key), "merge went backwards");
                prev_key = Some(key);
                n_replay_events += 1;
                let cur = cursors[s];
                let sh = shards[s].as_ref().expect("shard at barrier");
                let w = sh.wq_ref();
                let rec = w.execs[cur.exec];
                if rec.half.counts() {
                    sim.core.stats.events += 1;
                    n_window_events += 1;
                    match rec.kind {
                        KIND_TX_DONE => n_tx_done += 1,
                        KIND_ARRIVE => n_arrive += 1,
                        KIND_CREDIT_WAKE => n_credit_wake += 1,
                        _ => n_retry += 1,
                    }
                }
                if rec.trace_end > cur.trace {
                    let tr = real_tracer
                        .as_mut()
                        .expect("trace bytes exist only when tracing");
                    for line in window_trace[s][cur.trace as usize..rec.trace_end as usize].lines()
                    {
                        tr.write_line(line);
                    }
                }
                for i in cur.timeline..rec.timeline_end {
                    sim.core
                        .stats
                        .timeline
                        .push(sh.core.stats.timeline[i as usize]);
                }
                for i in cur.pkt..rec.pkt_free_end {
                    sim.core.arena.free_slot(w.freed_packets[i as usize]);
                }
                for i in cur.msg..rec.msg_free_end {
                    sim.core.msg_free.push(w.freed_messages[i as usize]);
                }
                for i in cur.gen..rec.gen_end {
                    let g = w.gens[i as usize];
                    let seq = next_seq;
                    next_seq += 1;
                    if g.at < wend {
                        // Generated and executed inside the window:
                        // its own execution record merges later under
                        // this sequence number.
                        gen_seqs[s].push(seq);
                    } else {
                        match g.ev {
                            Event::Workload | Event::EpochTick => qcoord.push(g.at, seq, g.ev),
                            _ => qlocal.push(g.at, seq, g.ev),
                        }
                    }
                }
                cursors[s] = ReplayCursor {
                    exec: cur.exec + 1,
                    gen: rec.gen_end,
                    pkt: rec.pkt_free_end,
                    msg: rec.msg_free_end,
                    timeline: rec.timeline_end,
                    trace: rec.trace_end,
                };
            }
            for &s in &touched {
                let sh = shards[s].as_mut().expect("shard at barrier");
                let cur = cursors[s];
                {
                    let w = sh.wq_ref();
                    debug_assert_eq!(cur.exec, w.execs.len(), "unmerged dispatches");
                    debug_assert_eq!(cur.gen as usize, w.gens.len(), "undelivered generations");
                    debug_assert_eq!(cur.pkt as usize, w.freed_packets.len(), "unapplied frees");
                    debug_assert_eq!(cur.msg as usize, w.freed_messages.len(), "unapplied frees");
                }
                debug_assert_eq!(
                    cur.trace as usize,
                    window_trace[s].len(),
                    "undelivered trace bytes"
                );
                debug_assert_eq!(cur.timeline as usize, sh.core.stats.timeline.len());
                sh.core.stats.timeline.clear();
                sh.wq().end_window();
                touched_flag[s] = false;
            }
            // One `parallel` trace record per window, written after
            // the window's replayed lines (all of which carry times
            // below `wend`, so the merged trace stays time-monotone).
            // The emitter's own mask check keeps the masked-out path
            // one branch; serial runs never reach this code at all.
            if let Some(tr) = real_tracer.as_mut() {
                tr.parallel_window(
                    wend.min(end).as_ps(),
                    wstart.as_ps(),
                    touched.len() as u32,
                    n_window_events - ev0,
                    n_replay_events - rp0,
                    n_cross_batches - cb0,
                    n_cross_events - ce0,
                );
            }
            touched.clear();
        }

        drop(work_tx);
    });

    // ---- finalize ----
    // Gather final channel state so `finish` computes cold residency
    // (its own `note_interval(i, end)`) over the authoritative copies.
    // Under hybrid the queues and credit rings come too: `finish` runs
    // one last `advance_flows` at the horizon, which can demote — its
    // enqueue/try_tx must see the exact serial queue state.
    let hybrid = sim.core.model == crate::env::SimModel::Hybrid;
    for ch in 0..num_channels {
        let owner = map.channel_shard(ChannelId::new(ch as u32));
        let sh = shards[owner].as_ref().expect("shard at barrier");
        sim.core
            .channels
            .copy_channel_from(&sh.core.channels, ch, hybrid);
        if hybrid {
            sim.core
                .channels
                .copy_pending_credits_from(&sh.core.channels, ch);
        }
    }
    #[cfg(debug_assertions)]
    if hybrid {
        // Gathered queue ids carry shard generations; adopt them into
        // the replica arena before finish() dereferences queue heads.
        let Core { arena, channels, .. } = &mut sim.core;
        for ch in 0..num_channels {
            for id in channels.queues[ch].iter_mut() {
                *id = arena.adopt(id.index() as u32);
            }
        }
    }
    let ids = sim.core.inst.ids;
    for slot in &mut shards {
        let sh = slot.take().expect("shard at barrier");
        sim.core.stats.merge_worker(&sh.core.stats);
        // Pod rollups accrue on shards for packet deliveries and on
        // the master for fluid advancement; element-wise sum = serial.
        for (dst, src) in sim.core.pod_bytes.iter_mut().zip(&sh.core.pod_bytes) {
            *dst += src;
        }
        // Shard registries share the master's registration order;
        // counters sum, watermarks take the max. (Shard event-kind
        // counters are zero — pops are counted once, at replay.)
        sim.core.inst.metrics.merge_from(
            &sh.core.inst.metrics,
            &[ids.tx_train_max_packets, ids.epoch_queue_bytes_peak],
        );
    }
    sim.core.inst.metrics.add(ids.ev_workload, n_workload);
    sim.core.inst.metrics.add(ids.ev_tx_done, n_tx_done);
    sim.core.inst.metrics.add(ids.ev_arrive, n_arrive);
    sim.core.inst.metrics.add(ids.ev_credit_wake, n_credit_wake);
    sim.core.inst.metrics.add(ids.ev_retry, n_retry);
    sim.core.inst.metrics.add(ids.ev_epoch_tick, n_epoch_tick);
    // Window-shape diagnostics (never serialized; see module docs).
    sim.core.inst.metrics.set(ids.par_windows, n_windows);
    sim.core
        .inst
        .metrics
        .set(ids.par_window_events, n_window_events);
    sim.core
        .inst
        .metrics
        .set(ids.par_replay_events, n_replay_events);
    sim.core
        .inst
        .metrics
        .set(ids.par_cross_batches, n_cross_batches);
    sim.core
        .inst
        .metrics
        .set(ids.par_cross_events, n_cross_events);
    sim.core.inst.metrics.set(ids.par_lookahead_ps, floor_ps);
    if let Some(tr) = real_tracer {
        if let Some(sink) = &master_sink {
            debug_assert!(sink.is_empty(), "undrained master trace lines");
        }
        // Restore the real tracer so finish() flushes it.
        sim.core.inst.set_tracer(tr);
    }
    sim.finalize()
}

/// The coordinator's `Workload` phase: the serial `on_workload` with
/// injection replayed against the master's replica arena (so global
/// slot numbers match the serial engine) and the enqueue/try_tx side
/// running on the source host's shard.
#[allow(clippy::too_many_arguments)]
fn workload_phase<S: TrafficSource>(
    sim: &mut Simulator<S>,
    shards: &mut [Option<Box<Shard>>],
    map: &ShardMap,
    t: SimTime,
    end: SimTime,
    real_tracer: &mut Option<Tracer>,
    qlocal: &mut KeyedQueue<Event>,
    qcoord: &mut KeyedQueue<Event>,
    next_seq: &mut u64,
) {
    while let Some(m) = sim.pending {
        if m.at > t {
            break;
        }
        inject_one(
            &mut sim.core,
            shards,
            map,
            m,
            t,
            real_tracer,
            qlocal,
            qcoord,
            next_seq,
        );
        sim.pending = sim.source.next_message();
        if let Some(next) = sim.pending {
            debug_assert!(next.at >= m.at, "traffic source went backwards in time");
        }
    }
    if let Some(m) = sim.pending {
        if m.at <= end {
            push_global(qlocal, qcoord, next_seq, m.at, Event::Workload);
        }
    }
}

/// Offers one message — the parallel twin of the serial `inject`. The
/// master's arena and message table do the authoritative allocation
/// (reproducing serial slot assignment and `peak_live_packets`); the
/// source shard mirrors the payloads and runs enqueue + try_tx, whose
/// generated events and trace lines drain immediately so sequence
/// numbers interleave exactly as the serial engine's.
#[allow(clippy::too_many_arguments)]
fn inject_one(
    master: &mut Core,
    shards: &mut [Option<Box<Shard>>],
    map: &ShardMap,
    m: Message,
    t: SimTime,
    real_tracer: &mut Option<Tracer>,
    qlocal: &mut KeyedQueue<Event>,
    qcoord: &mut KeyedQueue<Event>,
    next_seq: &mut u64,
) {
    assert!(
        m.src.index() < master.fabric.num_hosts() && m.dst.index() < master.fabric.num_hosts(),
        "message endpoints outside the fabric"
    );
    debug_assert_ne!(m.src, m.dst, "self-sends are not meaningful");
    master.stats.offered_bytes += m.bytes;
    master.last_offered_at = m.at;
    // Hybrid absorption — the parallel twin of the serial `inject`'s
    // gate. The path walk runs on the master (it reads only the fabric
    // and the dyntopo mask, both master-authoritative); the steadiness
    // gate reads each path channel from its owning shard, whose state
    // at a coordinator phase is exactly the serial state. The table
    // allocation itself is master-only, so the flows' live order and sharer counts
    // reproduce the serial order bit for bit.
    if master.model == crate::env::SimModel::Hybrid && m.bytes >= crate::flows::FLOW_MIN_BYTES {
        if let Some((path, len)) = master.flow_path(&m) {
            let limit = master.flow_congestion_limit();
            let steady = path[..len as usize].iter().all(|&c| {
                let owner = map.channel_shard(ChannelId::new(c));
                let ch = &shards[owner].as_ref().expect("shard at barrier").core.channels;
                let i = c as usize;
                ch.flags[i] & (crate::channels::F_OFF | crate::channels::F_DRAINING) == 0
                    && ch.occupancy[i] <= limit
            });
            if steady {
                master.absorb_flow(&m, path, len);
                return;
            }
        }
    }
    let pkt_size = u64::from(master.config.packet_bytes);
    let full = (m.bytes / pkt_size) as u32;
    let tail = (m.bytes % pkt_size) as u32;
    let count = (full + u32::from(tail > 0)).max(1);
    let rec = MessageRec {
        remaining: count,
        offered_at: m.at,
    };
    let message = match master.msg_free.pop() {
        Some(slot) => {
            master.messages[slot as usize] = rec;
            MessageId(slot)
        }
        None => {
            let slot = u32::try_from(master.messages.len()).expect("message table overflow");
            master.messages.push(rec);
            MessageId(slot)
        }
    };
    // The delivering shard decrements the live record; mirror it there.
    let dst_shard = map.host_shard(m.dst);
    {
        let msgs = &mut shards[dst_shard]
            .as_mut()
            .expect("shard at barrier")
            .core
            .messages;
        let idx = message.index();
        if idx >= msgs.len() {
            msgs.resize(idx + 1, rec);
        }
        msgs[idx] = rec;
    }
    let inj = master.fabric.injection_channel(m.src);
    let budget = match master.config.routing {
        RoutingPolicy::MinimalAdaptive => 0,
        RoutingPolicy::Ugal {
            misroute_budget, ..
        } => misroute_budget,
    };
    let src_shard = map.host_shard(m.src);
    debug_assert_eq!(src_shard, map.channel_shard(inj));
    let sh = shards[src_shard].as_mut().expect("shard at barrier");
    sh.core.now = t;
    for i in 0..count {
        let bytes = if i < full {
            pkt_size as u32
        } else {
            tail.max(1)
        };
        let packet = Packet {
            dst: m.dst,
            bytes,
            created: m.at,
            message,
            hops: 0,
            misroutes_left: budget,
        };
        let gid = master.arena.alloc(packet);
        let pid = sh.core.arena.place(gid.index() as u32, packet);
        sh.core.enqueue(inj, pid, bytes);
    }
    sh.core.try_tx(inj);
    drain_phase_capture(
        &mut sh.core,
        sh.sink.as_ref(),
        real_tracer,
        qlocal,
        qcoord,
        next_seq,
    );
}

/// The coordinator's `EpochTick` phase: gather every channel from its
/// owning shard onto the master core, run the serial epoch handler
/// there (sweep mode over all-active gathered state, with the
/// asymmetry counter recounted from scratch), then scatter the mutated
/// channel state, epoch bound, and link mask back to every shard.
#[allow(clippy::too_many_arguments)]
fn epoch_phase(
    master: &mut Core,
    shards: &mut [Option<Box<Shard>>],
    map: &ShardMap,
    master_sink: Option<&MemorySink>,
    real_tracer: &mut Option<Tracer>,
    qlocal: &mut KeyedQueue<Event>,
    qcoord: &mut KeyedQueue<Event>,
    next_seq: &mut u64,
) {
    let n = master.channels.len();
    let hybrid = master.model == crate::env::SimModel::Hybrid;
    for ch in 0..n {
        let owner = map.channel_shard(ChannelId::new(ch as u32));
        let sh = shards[owner].as_ref().expect("shard at barrier");
        master
            .channels
            .copy_channel_from(&sh.core.channels, ch, true);
        if hybrid {
            // A flow demotion re-enters the packet path through the
            // master's try_tx, which applies matured credit returns —
            // the ring must match the owning shard's exactly.
            master
                .channels
                .copy_pending_credits_from(&sh.core.channels, ch);
        }
    }
    #[cfg(debug_assertions)]
    if hybrid {
        // Gathered queue ids carry shard generations; adopt them into
        // the replica arena before a demotion's try_tx dereferences
        // queue heads (ids are bare slots in release builds).
        let Core { arena, channels, .. } = &mut *master;
        for ch in 0..n {
            for id in channels.queues[ch].iter_mut() {
                *id = arena.adopt(id.index() as u32);
            }
        }
    }
    master.channels.mark_all_active();
    master.channels.recount_asymmetry();
    master.on_epoch();
    // ---- hybrid demotion reconciliation ----
    // `advance_flows` (first thing in `on_epoch`) may have demoted
    // flows, whose remaining bytes were re-injected on the master.
    // Mirror what that created out to the owners: the message record
    // to the delivering shard, the packet payloads into the source
    // shard's arena at the master-assigned global slots, and — below,
    // via the queue=true scatter — the mutated injection queues plus
    // their consumed credit rings.
    let (demoted_pkts, demoted_msgs) = {
        let CoreQueue::Window(w) = &mut master.queue else {
            unreachable!("master core in serial mode")
        };
        (
            std::mem::take(&mut w.demoted_packets),
            std::mem::take(&mut w.demoted_msgs),
        )
    };
    for &(mid, dst) in &demoted_msgs {
        let rec = master.messages[mid as usize];
        let msgs = &mut shards[map.host_shard(HostId::new(dst))]
            .as_mut()
            .expect("shard at barrier")
            .core
            .messages;
        let idx = mid as usize;
        if idx >= msgs.len() {
            msgs.resize(idx + 1, rec);
        }
        msgs[idx] = rec;
    }
    let mut demoted_channels: Vec<u32> = Vec::with_capacity(demoted_pkts.len());
    for &(ch, pid) in &demoted_pkts {
        let owner = map.channel_shard(ChannelId::new(ch));
        let payload = *master.arena.get(pid);
        shards[owner]
            .as_mut()
            .expect("shard at barrier")
            .core
            .arena
            .place(pid.index() as u32, payload);
        demoted_channels.push(ch);
    }
    demoted_channels.sort_unstable();
    demoted_channels.dedup();
    drain_phase_capture(master, master_sink, real_tracer, qlocal, qcoord, next_seq);
    for ch in 0..n {
        let owner = map.channel_shard(ChannelId::new(ch as u32));
        let sh = shards[owner].as_mut().expect("shard at barrier");
        let demoted = demoted_channels.binary_search(&(ch as u32)).is_ok();
        sh.core
            .channels
            .copy_channel_from(&master.channels, ch, demoted);
        if demoted {
            sh.core
                .channels
                .copy_pending_credits_from(&master.channels, ch);
            #[cfg(debug_assertions)]
            {
                let Core { arena, channels, .. } = &mut sh.core;
                for id in channels.queues[ch].iter_mut() {
                    *id = arena.adopt(id.index() as u32);
                }
            }
        }
    }
    for slot in shards.iter_mut() {
        let sh = slot.as_mut().expect("shard at barrier");
        sh.core.epoch_end = master.epoch_end;
        sh.core.mask = master.mask.clone();
    }
}
