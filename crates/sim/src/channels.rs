//! Struct-of-arrays channel state.
//!
//! The engine touches a handful of channel fields on every event —
//! queue occupancy, flow-control credits, the configured rate, the
//! next-free time, and a few boolean latches. Keeping those in dense
//! parallel `Vec`s indexed by [`ChannelId::index`] packs the working
//! set of a paper-scale fabric into a few cache lines per event,
//! instead of striding across ~200-byte `Channel` structs for every
//! occupancy probe the adaptive router makes. Residency is not per-
//! channel state: the report needs only network-wide totals, so the
//! rate/`F_OFF` funnel keeps a count of the channels in each class (the
//! five ladder rates, then off) and one exact `u128` channel-time
//! integral per class, advanced to `now` before a channel moves.
//!
//! Output queues are not per-channel containers: every channel's queue
//! of packet ids lives in one chunk-pooled [`Fifos`], whose only
//! per-channel state is a 4-byte handle (see `fifo.rs`). A million
//! empty queues then cost 4 MB rather than a 32-byte `VecDeque` header
//! each, and the pool retains chunks for the peak number of packets
//! queued at once, not the largest capacity each queue ever served.
//!
//! Credit returns in flight back to a channel form a FIFO (each
//! matures one propagation delay after its packet landed). Its head —
//! the earliest unmatured return — sits inline in a 16-byte
//! [`CreditSlot`] in the hot arrays, beside a `matured` count: returns
//! that have matured by the time of a push fold into it, and `try_tx`
//! adds it to the credit balance. Only a channel with a second
//! unmatured return touches the spill queues, a second [`Fifos`] whose
//! chunks recycle through its free list, so steady-state operation
//! performs no heap allocation (verified by the counting allocator in
//! the benchmark's `scale` axis and the regression tests).
//!
//! Wire delays are not per-channel state either. A channel's
//! propagation delay depends only on its medium, and its tail-to-arrival
//! delay adds the router pipeline when the far end is a switch, so two
//! flag bits set at construction ([`F_OPTICAL`], [`F_TO_SWITCH`]) index
//! a four-entry table built from the configuration.
//!
//! # The active set
//!
//! Epoch ticks are O(change), not O(topology): a membership bitmap
//! (one bit per channel) tracks every channel that might need the
//! controller's attention — it transmitted, queued, blocked, drained,
//! powered on/off, its fluid load changed, or it sits above the floor
//! rate with inputs that changed since its last decision. A channel
//! outside the set is *resting*, in one of two ways:
//!
//! * idle at the floor with an empty queue and no fluid load, which
//!   provably decides "hold" under every rate policy (the
//!   `idle_at_floor_always_holds` invariant in `controller.rs`);
//! * *resting after a hold* (hybrid model): its decision unit decided
//!   hold with no queued bytes and no transient busy time, and nothing
//!   has marked it since. `desired_rate` is pure in the rate, flags and
//!   utilization, all of which change only at marking sites, so it
//!   decides hold again. These channels carry a bit in a steady bitmap
//!   whose count the engine adds to `controller_decisions` each tick.
//!
//! An active-set epoch tick skips resting channels entirely —
//! decision, queue-depth sample, and overhang pre-charge alike: the
//! controller's one decision walker (`Core::retune` in `controller.rs`)
//! reads this bitmap's words where the reference sweep reads all ones.
//! Channels enter the set at the mutation sites (`enqueue`, rate
//! writes, power transitions, fluid load changes) with one OR, and
//! retire only at epoch ticks once resting again, when the sampling
//! pass clears their bit. The bitmap is the whole set: scanning it word
//! by word yields the members in ascending channel order without
//! duplicates in O(words + members), which is the order controller
//! decisions must run in.
//!
//! The hybrid model adds three per-channel arrays, allocated only in
//! that mode: the fluid load, the change bitmap that invalidates the
//! flows' cached budgets (written in the same rate funnel that marks
//! the active set), and the steady bitmap.
//!
//! The same mutation sites maintain three more network-wide counters,
//! so per-epoch questions about the whole fabric are counter reads:
//!
//! * the rate/power-asymmetric links (via the [`Channels::peer`]
//!   table), replacing a per-epoch O(links) asymmetry sweep;
//! * [`Channels::queued_total`], the bytes queued anywhere — an upper
//!   bound on every channel's occupancy;
//! * [`Channels::unsteady`], the channels powered off or draining.
//!
//! `EpochMode::Sweep` keeps the full sweep alive and cross-checks them,
//! the steady count and the residency classes against a recount.

use crate::fifo::Fifos;
use crate::packet::{PacketId, NO_PACKET};
use crate::stats::RateResidency;
use crate::SimTime;
use epnet_power::LinkRate;

/// A packet is currently being serialized on the channel.
pub(crate) const F_BUSY: u8 = 1 << 0;
/// The channel is powered off (dynamic topologies, §5.2).
pub(crate) const F_OFF: u8 = 1 << 1;
/// A `Retry` event is already pending.
pub(crate) const F_RETRY: u8 = 1 << 2;
/// A `CreditWake` event is already pending.
pub(crate) const F_CREDIT_WAKE: u8 = 1 << 3;
/// A drain-first rate change is parked on this channel — mirrors
/// `Channels::pending_rate[i].is_some()` so the adaptive router's
/// "remove from the legal routes" check (§3.2) stays on the hot side.
pub(crate) const F_DRAINING: u8 = 1 << 4;
/// The controller may retune this channel (set once at construction).
/// Lives in the flags byte so the per-epoch decision sweep — every
/// channel, every tick — reads one byte for the channels it skips.
pub(crate) const F_TUNABLE: u8 = 1 << 5;
/// Either latch that takes a channel out of the fluid regime's steady
/// paths (powered off or draining); [`Channels::unsteady`] counts the
/// channels carrying one.
pub(crate) const F_UNSTEADY: u8 = F_OFF | F_DRAINING;
/// The channel's medium is optical (set once at construction): the
/// low bit of its wire class.
pub(crate) const F_OPTICAL: u8 = 1 << 6;
/// The channel's far end is a switch, not a host (set once at
/// construction): the high bit of its wire class.
pub(crate) const F_TO_SWITCH: u8 = 1 << 7;
/// Position of the wire-class bits in the flags byte.
const WIRE_SHIFT: u8 = 6;

/// The tail-to-arrival delay of each wire class, indexed by a channel's
/// class bits (`flags >> 6`: [`F_OPTICAL`], then [`F_TO_SWITCH`]): the
/// medium's propagation delay, plus the router pipeline when the far
/// end is a switch (hosts consume directly).
pub(crate) fn wire_delays(electrical: SimTime, optical: SimTime, router: SimTime) -> [SimTime; 4] {
    [electrical, optical, electrical + router, optical + router]
}

/// Ascending indices of the set bits of `word`, offset by `base` — one
/// bitmap word of an ordered set.
#[inline]
pub(crate) fn set_bits(word: u64, base: usize) -> impl Iterator<Item = usize> {
    let mut bits = word;
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(base + b)
    })
}

/// A channel's earliest unmatured credit return, and the returns that
/// matured since its last `try_tx`.
#[derive(Debug, Clone, Copy, Default)]
struct CreditSlot {
    /// When the return matures.
    at: SimTime,
    /// Bytes it returns; zero when no return is pending.
    bytes: u32,
    /// Bytes of returns that matured but are not yet in the balance.
    matured: u32,
}

/// Residency classes: the ladder rates (by [`LinkRate::index`]), then
/// powered off.
const CLASSES: usize = LinkRate::COUNT + 1;

/// All per-channel runtime state. Every `Vec` is indexed by
/// [`ChannelId::index`].
#[derive(Debug, Default)]
pub(crate) struct Channels {
    // ---- hot: touched on the per-event fast path ----
    /// Bytes in the output queue (including the packet being
    /// serialized) — the adaptive router's congestion signal. Written
    /// only through [`Channels::add_occupancy`] and
    /// [`Channels::sub_occupancy`], which keep `queued_total` exact.
    pub occupancy: Vec<u64>,
    /// Remaining downstream buffer credits, in bytes.
    pub credits: Vec<u32>,
    /// Configured rate.
    pub rate: Vec<LinkRate>,
    /// Channel unusable until this time (reactivation, §3.1).
    pub available_at: Vec<SimTime>,
    /// `F_*` latches and the wire-class bits. Written only through the
    /// flag setters, which keep `unsteady` exact.
    pub flags: Vec<u8>,
    /// End of the in-progress transmission, if any.
    pub busy_until: Vec<SimTime>,
    /// Busy picoseconds accumulated this epoch.
    pub busy_ps_epoch: Vec<u64>,
    /// Packets in the in-progress transmission train (0 when idle).
    pub train_len: Vec<u32>,
    /// Total bytes of the in-progress train.
    pub train_bytes: Vec<u64>,
    /// Output queue of each channel (elastic), in one chunk pool.
    pub queues: Fifos<PacketId>,
    /// Arena slot of the packet launched last on each channel while it
    /// is still on the wire, else [`NO_PACKET`]: the next launch chains
    /// its arrival behind it.
    pub wire_tail: Vec<u32>,
    /// Each channel's earliest unmatured credit return and matured
    /// bytes (see the module docs).
    credit: Vec<CreditSlot>,
    /// Each channel's second and later unmatured returns, as
    /// `(maturation time, bytes)` in nondecreasing time order.
    spill: Fifos<(SimTime, u32)>,
    /// Tail-to-arrival delay of each wire class (see [`wire_delays`]).
    wire_delay: [SimTime; 4],
    // ---- active set and network-wide counters (see module docs) ----
    /// The active set: one bit per channel, bit `i % 64` of word
    /// `i / 64`.
    active_bits: Vec<u64>,
    /// Σ `occupancy` over every channel.
    queued_total: u64,
    /// Channels whose flags carry [`F_UNSTEADY`].
    unsteady: u64,
    /// Opposing channel of the same link (self until the engine wires
    /// the fabric's link table; a self-peer is never asymmetric).
    peer: Vec<u32>,
    /// Links whose two channels currently differ in rate or powered
    /// state — maintained incrementally at every rate/`F_OFF` write, so
    /// `asymmetric_link_samples` no longer needs a per-epoch link sweep.
    asym_links: u64,
    // ---- hybrid model only: empty in packet mode ----
    /// Fluid bytes per epoch on each channel: the sum of the budgets the
    /// fluid flows crossing it moved at the last advancement pass
    /// (flows released by that pass included). Written only by the
    /// fluid advance, which marks the channel active on every change.
    pub fluid: Vec<u64>,
    /// Channels whose rate, `available_at` or fluid sharer count changed
    /// since the last advancement pass: the flows crossing them must
    /// recompute their cached budgets.
    changed_bits: Vec<u64>,
    /// Channels resting after a hold (see the module docs): outside the
    /// active set, yet each decides "hold" once per tick.
    steady_bits: Vec<u64>,
    /// Set bits in `steady_bits`.
    steady: u64,
    /// Rate change waiting for the queue to drain (§3.2's first
    /// tolerance option), mirrored by [`F_DRAINING`].
    pending_rate: Vec<Option<LinkRate>>,
    /// Channels in each residency class.
    class_count: [u64; CLASSES],
    /// Channel-time of each class up to `residency_at`.
    residency: RateResidency,
    /// Time `residency` was last advanced to.
    residency_at: SimTime,
}

impl Channels {
    /// No channels yet, with room for `n`; `wire_delay` is the table
    /// [`wire_delays`] builds.
    pub fn with_capacity(n: usize, wire_delay: [SimTime; 4]) -> Self {
        Self {
            occupancy: Vec::with_capacity(n),
            credits: Vec::with_capacity(n),
            rate: Vec::with_capacity(n),
            available_at: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            busy_until: Vec::with_capacity(n),
            busy_ps_epoch: Vec::with_capacity(n),
            train_len: Vec::with_capacity(n),
            train_bytes: Vec::with_capacity(n),
            queues: Fifos::with_capacity(n),
            wire_tail: Vec::with_capacity(n),
            credit: Vec::with_capacity(n),
            spill: Fifos::with_capacity(n),
            wire_delay,
            active_bits: Vec::with_capacity(n.div_ceil(64)),
            peer: Vec::with_capacity(n),
            pending_rate: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Allocates the hybrid model's per-channel state (fluid load,
    /// change and steady bitmaps) for the channels pushed so far.
    pub fn enable_fluid(&mut self) {
        let n = self.len();
        self.fluid = vec![0; n];
        self.changed_bits = vec![0; n.div_ceil(64)];
        self.steady_bits = vec![0; n.div_ceil(64)];
    }

    /// Appends one channel in its initial state; `wire` holds its
    /// wire-class bits ([`F_OPTICAL`], [`F_TO_SWITCH`]). New channels
    /// start in the active set (they sit at `rate`, typically above the
    /// floor); the first epoch tick retires the ones that turn out
    /// resting.
    pub fn push(&mut self, rate: LinkRate, credits: u32, tunable: bool, wire: u8) {
        debug_assert_eq!(wire & !(F_OPTICAL | F_TO_SWITCH), 0, "not a wire class");
        let i = self.flags.len();
        self.occupancy.push(0);
        self.credits.push(credits);
        self.rate.push(rate);
        self.available_at.push(SimTime::ZERO);
        self.flags
            .push(if tunable { F_TUNABLE | wire } else { wire });
        self.busy_until.push(SimTime::ZERO);
        self.busy_ps_epoch.push(0);
        self.train_len.push(0);
        self.train_bytes.push(0);
        self.queues.push_queue();
        self.wire_tail.push(NO_PACKET);
        self.credit.push(CreditSlot::default());
        self.spill.push_queue();
        if i % 64 == 0 {
            self.active_bits.push(0);
        }
        self.mark_active(i);
        self.peer.push(i as u32);
        self.pending_rate.push(None);
        self.class_count[rate.index()] += 1;
    }

    /// Number of channels.
    #[inline]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Wires the two channels of a link as peers (both directions).
    /// Called once per link at simulator construction; required for the
    /// incremental asymmetry counter to see real links.
    pub fn set_peers(&mut self, a: usize, b: usize) {
        self.peer[a] = b as u32;
        self.peer[b] = a as u32;
    }

    /// Propagation delay of channel `i`'s medium: a credit return's
    /// trip back.
    #[inline]
    pub fn prop(&self, i: usize) -> SimTime {
        self.wire_delay[usize::from((self.flags[i] >> WIRE_SHIFT) & 1)]
    }

    /// Delay from the end of a packet's serialization on channel `i`
    /// to its arrival (see [`wire_delays`]).
    #[inline]
    pub fn arrive_extra(&self, i: usize) -> SimTime {
        self.wire_delay[usize::from(self.flags[i] >> WIRE_SHIFT)]
    }

    /// Inserts channel `i` into the active set (idempotent).
    #[inline]
    pub fn mark_active(&mut self, i: usize) {
        self.active_bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether channel `i` is in the active set.
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active_bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The active-set bitmap, one bit per channel (see [`set_bits`]
    /// for walking a word in ascending order).
    #[inline]
    pub fn active_words(&self) -> &[u64] {
        &self.active_bits
    }

    /// Number of channels currently in the active set.
    #[cfg(test)]
    pub fn active_len(&self) -> usize {
        self.active_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The active set's members in ascending order.
    #[cfg(test)]
    pub fn active_ids(&self) -> Vec<usize> {
        let words = self.active_bits.iter().enumerate();
        words
            .flat_map(|(w, &word)| set_bits(word, w * 64))
            .collect()
    }

    /// Visits the active set in ascending channel order and drops every
    /// member for which `keep` returns `false`. `keep` must not insert
    /// channels into the set: each word is written back whole once its
    /// members are visited.
    #[inline]
    fn retain_active(&mut self, mut keep: impl FnMut(&mut Self, usize) -> bool) {
        for w in 0..self.active_bits.len() {
            let word = self.active_bits[w];
            let mut kept = word;
            for i in set_bits(word, w * 64) {
                if !keep(self, i) {
                    kept &= !(1u64 << (i % 64));
                }
            }
            self.active_bits[w] = kept;
        }
    }

    /// Bytes queued on every channel together — an upper bound on any
    /// one channel's occupancy.
    #[inline]
    pub fn queued_total(&self) -> u64 {
        self.queued_total
    }

    /// Bytes queued on channel `i`; skips the per-channel read while
    /// nothing is queued anywhere (the fluid-only steady state).
    #[inline]
    pub fn queued_at(&self, i: usize) -> u64 {
        if self.queued_total == 0 {
            0
        } else {
            self.occupancy[i]
        }
    }

    /// Channels currently powered off or draining ([`F_UNSTEADY`]).
    #[inline]
    pub fn unsteady(&self) -> u64 {
        self.unsteady
    }

    /// Adds `bytes` to channel `i`'s queue occupancy; returns the new
    /// occupancy.
    #[inline]
    pub fn add_occupancy(&mut self, i: usize, bytes: u64) -> u64 {
        self.queued_total += bytes;
        self.occupancy[i] += bytes;
        self.occupancy[i]
    }

    /// Removes `bytes` from channel `i`'s queue occupancy.
    #[inline]
    pub fn sub_occupancy(&mut self, i: usize, bytes: u64) {
        self.queued_total -= bytes;
        self.occupancy[i] -= bytes;
    }

    /// Links whose two channels currently differ in rate or powered
    /// state — the incrementally maintained replacement for the
    /// per-epoch asymmetry sweep (§3.3.1 sampling).
    #[inline]
    pub fn asymmetric_links(&self) -> u64 {
        self.asym_links
    }

    /// Whether the link through channel `i` is asymmetric: its two
    /// channels differ in rate or in powered state.
    #[inline]
    pub fn link_is_asymmetric(&self, i: usize) -> bool {
        let p = self.peer[i] as usize;
        self.rate[i] != self.rate[p] || (self.flags[i] ^ self.flags[p]) & F_OFF != 0
    }

    /// Channel `i`'s residency class.
    #[inline]
    fn class(&self, i: usize) -> usize {
        if self.flags[i] & F_OFF != 0 {
            LinkRate::COUNT
        } else {
            self.rate[i].index()
        }
    }

    /// Applies `f` to channel `i`'s state at `now`, keeping the
    /// asymmetric-link counter and the residency exact, and marks the
    /// channel active: every rate or `F_OFF` mutation funnels here.
    #[inline]
    fn mutate_link_state(&mut self, i: usize, now: SimTime, f: impl FnOnce(&mut Self)) {
        let was = self.link_is_asymmetric(i);
        let from = self.class(i);
        f(self);
        let to = self.class(i);
        if from != to {
            self.residency(now);
            self.class_count[from] -= 1;
            self.class_count[to] += 1;
        }
        let is = self.link_is_asymmetric(i);
        match (was, is) {
            (false, true) => self.asym_links += 1,
            (true, false) => self.asym_links = self.asym_links.saturating_sub(1),
            _ => {}
        }
        self.mark_active(i);
        self.mark_changed(i);
    }

    /// Records that a fluid budget input of channel `i` (rate,
    /// `available_at`, sharer count) changed; a no-op in packet mode.
    #[inline]
    pub fn mark_changed(&mut self, i: usize) {
        if let Some(w) = self.changed_bits.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    /// Whether a fluid budget input of channel `i` changed since the
    /// last [`Channels::clear_changed`] (hybrid model only).
    #[inline]
    pub fn changed(&self, i: usize) -> bool {
        self.changed_bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Forgets every recorded change (end of an advancement pass).
    pub fn clear_changed(&mut self) {
        self.changed_bits.fill(0);
    }

    /// Fluid bytes per epoch on channel `i` (zero in packet mode).
    #[inline]
    pub fn fluid_at(&self, i: usize) -> u64 {
        self.fluid.get(i).copied().unwrap_or(0)
    }

    /// Busy picoseconds channel `i` accumulated over the epoch that just
    /// ended: packet serialization plus the fluid load at the rate the
    /// advancement pass charged it at.
    #[inline]
    pub fn epoch_busy_ps(&self, i: usize) -> u64 {
        match self.fluid.get(i) {
            Some(&bytes) if bytes > 0 => {
                let fluid = self.rate[i].serialize_ps(bytes);
                self.busy_ps_epoch[i].wrapping_add(fluid)
            }
            _ => self.busy_ps_epoch[i],
        }
    }

    /// Keeps [`Channels::epoch_busy_ps`] at the measured value when a
    /// rate change lands mid-tick, after the fluid pass charged the old
    /// rate: the difference moves into `busy_ps_epoch` (modulo 2^64; the
    /// tick's recharge overwrites it before anything else reads it).
    pub fn reprice_fluid(&mut self, i: usize, old: LinkRate, new: LinkRate) {
        let fluid = self.fluid_at(i);
        if fluid > 0 {
            let busy = self.busy_ps_epoch[i].wrapping_add(old.serialize_ps(fluid));
            self.busy_ps_epoch[i] = busy.wrapping_sub(new.serialize_ps(fluid));
        }
    }

    /// Whether channel `i` rests after a hold.
    #[inline]
    pub fn is_steady(&self, i: usize) -> bool {
        self.steady_bits
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Channels resting after a hold: the holds an active-set tick adds
    /// without visiting them.
    #[inline]
    pub fn steady_count(&self) -> u64 {
        self.steady
    }

    /// Lets channel `i` rest after a hold (hybrid model only).
    #[inline]
    pub fn set_steady(&mut self, i: usize) {
        let w = &mut self.steady_bits[i / 64];
        let bit = 1u64 << (i % 64);
        self.steady += u64::from(*w & bit == 0);
        *w |= bit;
    }

    /// Ends channel `i`'s rest after a hold, if any; returns whether it
    /// was resting so.
    #[inline]
    pub fn clear_steady(&mut self, i: usize) -> bool {
        let Some(w) = self.steady_bits.get_mut(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        let was = *w & bit != 0;
        *w &= !bit;
        self.steady -= u64::from(was);
        was
    }

    /// Returns every channel resting after a hold to the active set, so
    /// the next tick decides it again.
    pub fn wake_steady(&mut self) {
        for w in 0..self.steady_bits.len() {
            let word = std::mem::take(&mut self.steady_bits[w]);
            self.active_bits[w] |= word;
        }
        self.steady = 0;
    }

    /// Number of set bits in the steady bitmap (sweep cross-check).
    #[cfg(debug_assertions)]
    pub fn steady_recount(&self) -> u64 {
        self.steady_bits
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Sets channel `i`'s rate at `now` (see `mutate_link_state`). All
    /// rate writes after construction must come through here (or
    /// [`Channels::reactivate`]).
    pub fn set_rate(&mut self, i: usize, now: SimTime, rate: LinkRate) {
        self.mutate_link_state(i, now, |c| c.rate[i] = rate);
    }

    /// Network-wide residency over `[0, now)`: advances every class's
    /// integral to `now` (a no-op if already there) and returns them.
    #[inline]
    pub fn residency(&mut self, now: SimTime) -> RateResidency {
        let dt = u128::from((now - self.residency_at).as_ps());
        if dt > 0 {
            let r = &mut self.residency;
            let classes = r.at_rate_ps.iter_mut().chain([&mut r.off_ps]);
            for (ps, &n) in classes.zip(&self.class_count) {
                *ps += u128::from(n) * dt;
            }
            self.residency_at = now;
        }
        self.residency
    }

    /// Whether the class counts match a recount (sweep cross-check).
    #[cfg(any(test, debug_assertions))]
    pub fn residency_counts_match(&self) -> bool {
        let mut count = [0u64; CLASSES];
        (0..self.len()).for_each(|i| count[self.class(i)] += 1);
        count == self.class_count
    }

    /// Whether channel `i` may rest outside the active set: nothing
    /// queued or in flight, no busy time to account (post-recharge), no
    /// parked drain — and no decision that could change anything,
    /// because the channel is either exempt (`!F_TUNABLE` or `F_OFF`),
    /// decisions are disabled entirely (`ControlMode::AlwaysFull`), it
    /// sits at the floor with no fluid load (where
    /// `idle_at_floor_always_holds` proves the decision is "hold"), or
    /// it rests after a hold whose inputs nothing has changed since.
    #[inline]
    fn is_resting(&self, i: usize, min_rate: LinkRate, decisions_enabled: bool) -> bool {
        let resting = self.queued_at(i) == 0
            && self.busy_ps_epoch[i] == 0
            && self.flags[i] & F_DRAINING == 0
            && (!decisions_enabled
                || self.flags[i] & (F_TUNABLE | F_OFF) != F_TUNABLE
                || (self.rate[i] == min_rate && self.fluid_at(i) == 0)
                || self.is_steady(i));
        debug_assert!(
            self.occupancy[i] > 0 || self.flags[i] & (F_BUSY | F_RETRY | F_CREDIT_WAKE) == 0,
            "ch{i}: wake latches without queued bytes"
        );
        resting
    }

    /// The active-mode epoch pass over the set: samples queue depth,
    /// pre-charges the next epoch with each in-flight transmission's
    /// overhang, and compacts resting channels out of the set. Returns
    /// `(queued_bytes_sum, queued_bytes_peak)` — identical to the full
    /// sweep's values because every skipped channel contributes zero
    /// occupancy and zero overhang by the resting definition.
    pub fn sample_active_and_retire(
        &mut self,
        now: SimTime,
        epoch_ps: u64,
        min_rate: LinkRate,
        decisions_enabled: bool,
    ) -> (u64, u64) {
        let mut queued_sum = 0u64;
        let mut queued_peak = 0u64;
        self.retain_active(|c, i| {
            let occ = c.queued_at(i);
            queued_sum += occ;
            queued_peak = queued_peak.max(occ);
            let overhang = c.busy_until[i].saturating_sub(now);
            c.busy_ps_epoch[i] = overhang.as_ps().min(epoch_ps);
            !c.is_resting(i, min_rate, decisions_enabled)
        });
        (queued_sum, queued_peak)
    }

    /// Sweep-mode twin of [`Channels::sample_active_and_retire`]:
    /// retires resting channels from the set without sampling (the
    /// engine's reference full sweep already recharged every channel).
    /// Keeping the set maintained in sweep mode makes the two modes'
    /// retained state identical, so the cross-check debug assertions
    /// hold in either.
    pub fn retire_resting(&mut self, min_rate: LinkRate, decisions_enabled: bool) {
        self.retain_active(|c, i| !c.is_resting(i, min_rate, decisions_enabled));
    }

    #[inline]
    pub fn has_flag(&self, i: usize, f: u8) -> bool {
        self.flags[i] & f != 0
    }

    #[inline]
    pub fn set_flag(&mut self, i: usize, f: u8) {
        if f & F_UNSTEADY != 0 {
            self.write_flags(i, self.flags[i] | f);
        } else {
            self.flags[i] |= f;
        }
    }

    #[inline]
    pub fn clear_flag(&mut self, i: usize, f: u8) {
        if f & F_UNSTEADY != 0 {
            self.write_flags(i, self.flags[i] & !f);
        } else {
            self.flags[i] &= !f;
        }
    }

    /// Replaces channel `i`'s flags, keeping `unsteady` exact.
    #[inline]
    fn write_flags(&mut self, i: usize, flags: u8) {
        let was = u64::from(self.flags[i] & F_UNSTEADY != 0);
        let is = u64::from(flags & F_UNSTEADY != 0);
        self.unsteady = self.unsteady + is - was;
        self.flags[i] = flags;
    }

    /// Whether the channel has neither queued traffic nor an in-flight
    /// transmission.
    #[inline]
    pub fn queue_is_idle(&self, i: usize) -> bool {
        self.queues.is_empty(i) && self.flags[i] & F_BUSY == 0
    }

    /// Books a credit return of `bytes` maturing at `at`, first folding
    /// the returns matured by `now` into the matured count. Returns
    /// arrive in nondecreasing `at` order per channel.
    #[inline]
    pub fn push_credit(&mut self, i: usize, now: SimTime, at: SimTime, bytes: u32) {
        debug_assert!(bytes > 0, "an empty credit return on ch{i}");
        self.fold_matured(i, now);
        let slot = &mut self.credit[i];
        if slot.bytes == 0 {
            slot.at = at;
            slot.bytes = bytes;
            return;
        }
        debug_assert!(
            slot.at <= at && self.spill.back(i).map_or(true, |(t, _)| t <= at),
            "credit returns out of order on ch{i}"
        );
        self.spill.push_back(i, (at, bytes));
    }

    /// Moves every return of channel `i` that has matured by `now` into
    /// its matured count, refilling the slot from the spill queue.
    #[inline]
    fn fold_matured(&mut self, i: usize, now: SimTime) {
        let slot = &mut self.credit[i];
        while slot.bytes != 0 && slot.at <= now {
            slot.matured += slot.bytes;
            (slot.at, slot.bytes) = self.spill.pop_front(i).unwrap_or((SimTime::ZERO, 0));
        }
    }

    /// Maturation time of the next pending credit return, if any. After
    /// [`Channels::apply_matured_credits`] at `now` it lies after `now`.
    #[inline]
    pub fn next_credit_at(&self, i: usize) -> Option<SimTime> {
        let slot = &self.credit[i];
        (slot.bytes != 0).then_some(slot.at)
    }

    /// Adds every credit return that has matured by `now` to the
    /// balance. Returns the updated credit balance.
    #[inline]
    pub fn apply_matured_credits(&mut self, i: usize, now: SimTime, cap: u32) -> u32 {
        self.fold_matured(i, now);
        let slot = &mut self.credit[i];
        let credits = self.credits[i] + std::mem::take(&mut slot.matured);
        debug_assert!(credits <= cap, "credit overflow on ch{i}");
        let _ = cap;
        self.credits[i] = credits;
        credits
    }

    /// Utilization of channel `i` over the epoch that just ended.
    pub fn epoch_utilization(&self, i: usize, epoch: SimTime) -> f64 {
        let busy = self.epoch_busy_ps(i);
        // Idle channels dominate under light load; skipping the f64
        // divide for them is exact (0/x == 0.0), not an approximation.
        if busy == 0 {
            return 0.0;
        }
        (busy as f64 / epoch.as_ps() as f64).min(1.0)
    }

    /// Transitions the channel's powered state at `now` (dynamic
    /// topologies, §5.2; see `mutate_link_state`): `F_OFF` is half of
    /// the link-asymmetry predicate and a residency class of its own.
    pub fn set_off(&mut self, i: usize, now: SimTime, off: bool) {
        debug_assert!(!off || self.queue_is_idle(i), "powering off a busy channel");
        self.mutate_link_state(i, now, |c| {
            if off {
                c.set_flag(i, F_OFF);
            } else {
                c.clear_flag(i, F_OFF);
            }
        });
    }

    /// Brings the channel up at `rate`, unusable until the reactivation
    /// completes.
    pub fn reactivate(&mut self, i: usize, now: SimTime, reactivation: SimTime, rate: LinkRate) {
        self.set_rate(i, now, rate);
        self.available_at[i] = now + reactivation;
    }

    /// Parks (or clears) a drain-first rate change, keeping the
    /// hot-side `F_DRAINING` mirror in sync. A draining channel is
    /// never resting, so parking one pins it in the active set.
    pub fn set_pending_rate(&mut self, i: usize, rate: Option<LinkRate>) {
        self.pending_rate[i] = rate;
        if rate.is_some() {
            self.set_flag(i, F_DRAINING);
            self.mark_active(i);
        } else {
            self.clear_flag(i, F_DRAINING);
        }
    }

    /// Takes the parked drain-first rate change, if any.
    pub fn take_pending_rate(&mut self, i: usize) -> Option<LinkRate> {
        let rate = self.pending_rate[i].take();
        self.clear_flag(i, F_DRAINING);
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epnet_power::RATE_LADDER;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A table of four distinct wire delays.
    fn delays() -> [SimTime; 4] {
        wire_delays(
            SimTime::from_ns(5),
            SimTime::from_ns(7),
            SimTime::from_ns(100),
        )
    }

    fn two() -> Channels {
        let mut c = Channels::with_capacity(2, delays());
        c.push(LinkRate::MAX, 1024, true, 0);
        c.push(LinkRate::MAX, 1024, false, 0);
        c
    }

    /// Channel `i`'s spilled returns, in order.
    fn spilled(c: &Channels, i: usize) -> Vec<(SimTime, u32)> {
        let mut at = c.spill.cursor(i);
        std::iter::from_fn(|| c.spill.next(&mut at)).collect()
    }

    /// The wire-class bits pick each channel's propagation and arrival
    /// delays, and no latch write disturbs them.
    #[test]
    fn wire_class_bits_index_the_delay_table() {
        let ns = SimTime::from_ns;
        let mut c = Channels::with_capacity(4, delays());
        for wire in [0, F_OPTICAL, F_TO_SWITCH, F_OPTICAL | F_TO_SWITCH] {
            c.push(LinkRate::MAX, 1024, true, wire);
        }
        let prop: Vec<_> = (0..4).map(|i| c.prop(i)).collect();
        let arrive: Vec<_> = (0..4).map(|i| c.arrive_extra(i)).collect();
        assert_eq!(prop, [ns(5), ns(7), ns(5), ns(7)]);
        assert_eq!(arrive, [ns(5), ns(7), ns(105), ns(107)]);
        c.set_off(3, SimTime::ZERO, true);
        c.set_flag(3, F_BUSY | F_DRAINING);
        c.clear_flag(3, F_BUSY | F_DRAINING | F_TUNABLE);
        assert_eq!((c.prop(3), c.arrive_extra(3)), (ns(7), ns(107)));
        assert_eq!(c.unsteady(), 1, "only the power-off latch is unsteady");
    }

    #[test]
    fn flags_latch_and_clear() {
        let mut c = two();
        assert!(!c.has_flag(0, F_BUSY));
        c.set_flag(0, F_BUSY | F_RETRY);
        assert!(c.has_flag(0, F_BUSY));
        assert!(c.has_flag(0, F_RETRY));
        assert!(!c.has_flag(1, F_BUSY));
        c.clear_flag(0, F_BUSY);
        assert!(!c.has_flag(0, F_BUSY));
        assert!(c.has_flag(0, F_RETRY));
    }

    #[test]
    fn matured_credits_apply_in_order_and_pool_buffers() {
        let mut c = two();
        c.credits[0] = 0;
        let t0 = SimTime::ZERO;
        c.push_credit(0, t0, SimTime::from_ns(10), 100);
        c.push_credit(0, t0, SimTime::from_ns(20), 200);
        assert_eq!(c.next_credit_at(0), Some(SimTime::from_ns(10)));
        assert_eq!(c.apply_matured_credits(0, SimTime::from_ns(15), 1024), 100);
        assert_eq!(c.next_credit_at(0), Some(SimTime::from_ns(20)));
        // Full drain returns the spill chunk to the pool...
        assert_eq!(c.apply_matured_credits(0, SimTime::from_ns(25), 1024), 300);
        assert_eq!(c.next_credit_at(0), None);
        assert!(c.spill.is_empty(0));
        assert_eq!(c.spill.chunks(), 1);
        // ...and the next channel that spills reuses it.
        c.push_credit(1, t0, SimTime::from_ns(30), 50);
        c.push_credit(1, t0, SimTime::from_ns(31), 50);
        assert_eq!(spilled(&c, 1), [(SimTime::from_ns(31), 50)]);
        assert_eq!(c.spill.chunks(), 1, "no new chunk");
    }

    /// The inline slot holds the earliest unmatured return; returns that
    /// matured before a push fold into the matured count without
    /// touching the balance until `try_tx` applies them; a burst of
    /// returns spills into the pool; and `next_credit_at` after an
    /// apply names the earliest return still in flight.
    #[test]
    fn the_inline_credit_slot_folds_spills_and_reports_the_next_return() {
        let ns = SimTime::from_ns;
        let mut c = two();
        c.credits[0] = 0;
        // Two returns, then a push after both matured: they fold into
        // the matured count and the new return takes the slot, with
        // nothing left in the spill queue.
        c.push_credit(0, ns(0), ns(10), 64);
        c.push_credit(0, ns(1), ns(11), 64);
        assert_eq!(spilled(&c, 0), [(ns(11), 64)], "the second return spilled");
        c.push_credit(0, ns(12), ns(22), 64);
        assert!(c.spill.is_empty(0), "both matured returns folded");
        assert_eq!(c.credit[0].matured, 128);
        assert_eq!(c.credits[0], 0, "the balance moves only in apply");
        assert_eq!(c.next_credit_at(0), Some(ns(22)));
        // A burst of tiny tail packets landing back to back: one in the
        // slot, the rest in the spill queue, in order.
        for k in 0..6 {
            c.push_credit(0, ns(13), ns(23 + k), 1);
        }
        assert_eq!(spilled(&c, 0).len(), 6);
        assert_eq!(c.next_credit_at(0), Some(ns(22)));
        // Applying at 25 ns adds the folded 128, the slot's 64 and the
        // tiny returns maturing at 23..=25 ns; the next one is at 26 ns.
        assert_eq!(c.apply_matured_credits(0, ns(25), 1024), 128 + 64 + 3);
        assert_eq!(c.credit[0].matured, 0);
        assert_eq!(c.next_credit_at(0), Some(ns(26)));
        assert_eq!(spilled(&c, 0), [(ns(27), 1), (ns(28), 1)]);
        // Draining the rest frees the chunk and empties the slot.
        assert_eq!(c.apply_matured_credits(0, ns(100), 1024), 128 + 64 + 6);
        assert_eq!(c.next_credit_at(0), None);
        assert!(c.spill.is_empty(0));
        assert_eq!(c.spill.chunks(), 1);
        // An apply with nothing pending leaves the balance alone.
        assert_eq!(c.apply_matured_credits(0, ns(200), 1024), 198);
    }

    #[test]
    fn pending_rate_mirrors_draining_flag() {
        let mut c = two();
        c.set_pending_rate(0, Some(LinkRate::MIN));
        assert!(c.has_flag(0, F_DRAINING));
        assert_eq!(c.take_pending_rate(0), Some(LinkRate::MIN));
        assert!(!c.has_flag(0, F_DRAINING));
        assert_eq!(c.take_pending_rate(0), None);
    }

    #[test]
    fn residency_intervals_accumulate_per_state() {
        let ns = |n: u64| u128::from(SimTime::from_ns(n).as_ps());
        let mut c = two();
        let r = c.residency(SimTime::from_ns(100));
        assert_eq!(r.at_rate_ps[LinkRate::MAX.index()], 2 * ns(100));
        assert_eq!(r.total_ps(), 2 * ns(100));
        c.set_off(0, SimTime::from_ns(150), true);
        c.set_rate(1, SimTime::from_ns(200), LinkRate::MIN);
        let r = c.residency(SimTime::from_ns(250));
        assert_eq!(r.off_ps, ns(100));
        assert_eq!(r.at_rate_ps[LinkRate::MAX.index()], ns(150) + ns(200));
        assert_eq!(r.at_rate_ps[LinkRate::MIN.index()], ns(50));
        assert_eq!(r.total_ps(), 2 * ns(250));
        // Reading again at the same time changes nothing.
        assert_eq!(c.residency(SimTime::from_ns(250)), r);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random rate changes, power-offs/ons and reactivations at
        /// nondecreasing times over a few channels give the network-wide
        /// totals a per-channel span accumulation gives, at every read.
        #[test]
        fn residency_totals_match_per_channel_spans(seed in any::<u64>(), ops in 1usize..300) {
            /// Per channel: powered off, rate, start of the open span;
            /// and the spans closed so far.
            struct Oracle {
                state: Vec<(bool, LinkRate, SimTime)>,
                closed: RateResidency,
            }
            impl Oracle {
                fn close(&mut self, i: usize, now: SimTime) {
                    let (off, rate, since) = &mut self.state[i];
                    let span = u128::from((now - *since).as_ps());
                    if *off {
                        self.closed.off_ps += span;
                    } else {
                        self.closed.at_rate_ps[rate.index()] += span;
                    }
                    *since = now;
                }
                fn totals(&mut self, now: SimTime) -> RateResidency {
                    for i in 0..self.state.len() {
                        self.close(i, now);
                    }
                    self.closed
                }
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..6);
            let mut c = Channels::with_capacity(n, delays());
            let mut oracle = Oracle { state: Vec::new(), closed: RateResidency::default() };
            for i in 0..n {
                let rate = RATE_LADDER[rng.gen_range(0..LinkRate::COUNT)];
                c.push(rate, 1024, true, 0);
                oracle.state.push((false, rate, SimTime::ZERO));
                if i % 2 == 1 {
                    c.set_peers(i - 1, i);
                }
            }
            let mut now = SimTime::ZERO;
            for _ in 0..ops {
                // Many ops share a time, as decisions share an epoch tick.
                if rng.gen_range(0u8..3) == 0 {
                    now += SimTime::from_ps(rng.gen_range(1u64..5_000_000));
                }
                let i = rng.gen_range(0..n);
                let rate = RATE_LADDER[rng.gen_range(0..LinkRate::COUNT)];
                match rng.gen_range(0u8..4) {
                    0 => {
                        oracle.close(i, now);
                        oracle.state[i].1 = rate;
                        c.set_rate(i, now, rate);
                    }
                    1 => {
                        let off = rng.gen_bool(0.5);
                        oracle.close(i, now);
                        oracle.state[i].0 = off;
                        c.set_off(i, now, off);
                    }
                    2 => {
                        oracle.close(i, now);
                        oracle.state[i].1 = rate;
                        c.reactivate(i, now, SimTime::from_us(1), rate);
                    }
                    _ => prop_assert_eq!(c.residency(now), oracle.totals(now)),
                }
                prop_assert!(c.residency_counts_match());
            }
            let end = now + SimTime::from_ps(rng.gen_range(0u64..5_000_000));
            let totals = c.residency(end);
            prop_assert_eq!(totals, oracle.totals(end));
            prop_assert_eq!(totals.total_ps(), n as u128 * u128::from(end.as_ps()));
        }
    }

    #[test]
    fn channels_start_active_and_rest_once_at_the_floor() {
        let mut c = two();
        c.set_peers(0, 1);
        assert_eq!(c.active_len(), 2);
        assert!(c.is_active(0) && c.is_active(1));
        // Both idle but above the floor: decisions still possible for
        // the tunable one; the untunable one retires immediately.
        c.retire_resting(LinkRate::MIN, true);
        assert!(c.is_active(0), "tunable above floor must stay active");
        assert!(!c.is_active(1), "exempt idle channel must rest");
        // At the floor, the tunable one rests too...
        c.set_rate(0, SimTime::ZERO, LinkRate::MIN);
        c.set_rate(1, SimTime::ZERO, LinkRate::MIN);
        c.retire_resting(LinkRate::MIN, true);
        assert_eq!(c.active_len(), 0);
        // ...and re-enters the set on the next rate write.
        c.set_rate(0, SimTime::ZERO, LinkRate::MAX);
        assert!(c.is_active(0));
        assert_eq!(c.active_len(), 1);
        // mark_active is idempotent: membership is one bit.
        c.mark_active(0);
        assert_eq!(c.active_len(), 1);
    }

    #[test]
    fn resting_requires_idle_queue_and_zero_busy() {
        let mut c = two();
        c.set_rate(0, SimTime::ZERO, LinkRate::MIN);
        c.add_occupancy(0, 64);
        c.retire_resting(LinkRate::MIN, true);
        assert!(c.is_active(0), "queued bytes pin the channel active");
        c.sub_occupancy(0, 64);
        c.busy_ps_epoch[0] = 10;
        c.retire_resting(LinkRate::MIN, true);
        assert!(
            c.is_active(0),
            "pre-charged overhang pins the channel active"
        );
        c.busy_ps_epoch[0] = 0;
        c.set_pending_rate(0, Some(LinkRate::MIN));
        c.retire_resting(LinkRate::MIN, true);
        assert!(c.is_active(0), "a parked drain pins the channel active");
        c.take_pending_rate(0);
        c.retire_resting(LinkRate::MIN, true);
        assert!(!c.is_active(0));
    }

    #[test]
    fn always_full_mode_rests_idle_channels_at_any_rate() {
        let mut c = two();
        // decisions_enabled = false (ControlMode::AlwaysFull): an idle
        // channel rests even at the ceiling, because no decision will
        // ever be taken for it.
        c.retire_resting(LinkRate::MIN, false);
        assert_eq!(c.active_len(), 0);
    }

    #[test]
    fn asymmetry_counter_tracks_rate_and_power_divergence() {
        let mut c = two();
        c.set_peers(0, 1);
        assert_eq!(c.asymmetric_links(), 0);
        c.set_rate(0, SimTime::ZERO, LinkRate::MIN);
        assert_eq!(c.asymmetric_links(), 1);
        assert!(c.link_is_asymmetric(0) && c.link_is_asymmetric(1));
        // Converging the peer restores symmetry.
        c.set_rate(1, SimTime::ZERO, LinkRate::MIN);
        assert_eq!(c.asymmetric_links(), 0);
        // Powered-state divergence counts too (§3.3.1's evidence
        // includes off-vs-on links).
        c.set_off(0, SimTime::ZERO, true);
        assert_eq!(c.asymmetric_links(), 1);
        c.set_off(1, SimTime::ZERO, true);
        assert_eq!(c.asymmetric_links(), 0);
        // Reactivation at a diverging rate re-raises the counter.
        c.set_off(0, SimTime::ZERO, false);
        assert_eq!(c.asymmetric_links(), 1);
        c.reactivate(0, SimTime::ZERO, SimTime::from_us(1), LinkRate::MAX);
        assert_eq!(c.asymmetric_links(), 1);
        assert!(c.is_active(0));
    }

    #[test]
    fn recount_matches_incremental_counter() {
        fn recount(c: &Channels) -> u64 {
            (0..c.len())
                .filter(|&i| (i as u32) < c.peer[i] && c.link_is_asymmetric(i))
                .count() as u64
        }
        let mut c = Channels::with_capacity(4, delays());
        for _ in 0..4 {
            c.push(LinkRate::MAX, 1024, true, 0);
        }
        c.set_peers(0, 1);
        c.set_peers(2, 3);
        c.set_rate(0, SimTime::ZERO, LinkRate::MIN);
        c.set_off(2, SimTime::ZERO, true);
        assert_eq!(c.asymmetric_links(), 2);
        assert_eq!(recount(&c), 2, "recount must agree");
        c.set_rate(1, SimTime::ZERO, LinkRate::MIN);
        assert_eq!(c.asymmetric_links(), 1, "only the off link remains");
        assert_eq!(recount(&c), 1);
    }

    #[test]
    fn self_peered_channels_are_never_asymmetric() {
        // Unit-style construction without `set_peers`: every channel is
        // its own peer and the counter must stay pinned at zero.
        let mut c = two();
        c.set_rate(0, SimTime::ZERO, LinkRate::MIN);
        c.set_off(1, SimTime::ZERO, true);
        assert_eq!(c.asymmetric_links(), 0);
    }

    #[test]
    fn sample_active_and_retire_matches_full_sweep() {
        let mut c = Channels::with_capacity(130, delays());
        for _ in 0..130 {
            c.push(LinkRate::MAX, 1024, true, 0);
        }
        c.add_occupancy(3, 100);
        c.add_occupancy(129, 250);
        c.busy_until[7] = SimTime::from_us(12);
        let now = SimTime::from_us(10);
        let epoch_ps = SimTime::from_us(10).as_ps();
        let (sum, peak) = c.sample_active_and_retire(now, epoch_ps, LinkRate::MIN, true);
        assert_eq!(sum, 350);
        assert_eq!(peak, 250);
        // Overhang pre-charge survives into the next epoch's budget.
        assert_eq!(c.busy_ps_epoch[7], SimTime::from_us(2).as_ps());
        // Everything stays active here (all at MAX > floor)...
        assert_eq!(c.active_len(), 130);
        // ...but dropping the idle ones to the floor retires all except
        // the queued two and the one with overhang.
        for i in 0..130 {
            c.set_rate(i, SimTime::ZERO, LinkRate::MIN);
        }
        let (sum2, _) = c.sample_active_and_retire(now, epoch_ps, LinkRate::MIN, true);
        assert_eq!(sum2, 350);
        assert_eq!(c.active_ids(), vec![3, 7, 129]);
    }

    #[test]
    fn active_set_iterates_ascending_across_words() {
        let mut c = Channels::with_capacity(200, delays());
        for _ in 0..200 {
            c.push(LinkRate::MIN, 1024, false, 0);
        }
        c.retire_resting(LinkRate::MIN, true);
        assert_eq!(c.active_len(), 0);
        for i in [199, 64, 3, 63, 128, 3] {
            c.mark_active(i);
        }
        assert_eq!(c.active_ids(), vec![3, 63, 64, 128, 199]);
    }

    /// `queued_total` and `unsteady` are the fluid regime's global
    /// steadiness bounds; every write path must keep them equal to a
    /// recount.
    #[test]
    fn queued_total_and_unsteady_track_every_write_path() {
        fn recount(c: &Channels) -> (u64, u64) {
            let queued = c.occupancy.iter().sum();
            let unsteady = c.flags.iter().filter(|&&f| f & F_UNSTEADY != 0).count();
            (queued, unsteady as u64)
        }
        let check = |c: &Channels| assert_eq!((c.queued_total(), c.unsteady()), recount(c));
        let mut c = two();
        c.set_peers(0, 1);
        check(&c);
        assert_eq!(c.add_occupancy(0, 100), 100);
        assert_eq!(c.add_occupancy(1, 50), 50);
        c.sub_occupancy(0, 40);
        check(&c);
        assert_eq!(c.queued_total(), 110);
        // Power-off and a parked drain on one channel count it once.
        c.set_off(0, SimTime::ZERO, true);
        assert_eq!(c.unsteady(), 1);
        c.set_pending_rate(0, Some(LinkRate::MIN));
        assert_eq!(c.unsteady(), 1);
        c.set_pending_rate(1, Some(LinkRate::MIN));
        assert_eq!(c.unsteady(), 2);
        check(&c);
        assert_eq!(c.take_pending_rate(1), Some(LinkRate::MIN));
        c.set_pending_rate(0, None);
        assert_eq!(c.unsteady(), 1, "still powered off");
        c.set_off(0, SimTime::ZERO, false);
        assert_eq!(c.unsteady(), 0);
        check(&c);
        // Raw flag writes, including latches outside the unsteady pair.
        c.set_flag(1, F_DRAINING | F_BUSY);
        assert_eq!(c.unsteady(), 1);
        c.clear_flag(1, F_BUSY);
        assert_eq!(c.unsteady(), 1);
        c.clear_flag(1, F_DRAINING);
        assert_eq!(c.unsteady(), 0);
        check(&c);
    }
}
