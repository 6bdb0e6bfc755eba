//! Struct-of-arrays channel state.
//!
//! The engine touches a handful of channel fields on every event —
//! queue occupancy, flow-control credits, the configured rate, the
//! next-free time, and a few boolean latches. Keeping those in dense
//! parallel `Vec`s indexed by [`ChannelId::index`] packs the working
//! set of a paper-scale fabric into a few cache lines per event,
//! instead of striding across ~200-byte `Channel` structs for every
//! occupancy probe the adaptive router makes. Config and telemetry
//! fields that only the per-epoch controller or the end-of-run
//! reporter read (residency accounting, drain-first state, tunability)
//! live in a cold side table so they never share a line with the hot
//! arrays.
//!
//! Credit-return bookkeeping uses per-channel queues backed by a
//! shared free-list pool: a queue that drains to empty donates its
//! buffer back to the pool, and the next channel that books a return
//! reuses it. After warmup the pool holds the high-water number of
//! concurrently busy queues and steady-state operation performs no
//! heap allocation (verified by the counting allocator in
//! the benchmark's `scale` axis and the regression tests).
//!
//! # The active set
//!
//! Epoch ticks are O(touched), not O(topology): a membership bitmap
//! (one bit per channel) tracks every channel that might need the
//! controller's attention — it transmitted, queued, blocked, drained,
//! powered on/off, or sits above the floor rate. A channel outside the
//! set is *resting*: idle at the floor with an empty queue, which
//! provably decides "hold" under every rate policy (the
//! `idle_at_floor_always_holds` invariant in `controller.rs`), so the
//! per-epoch sweep skips it entirely — decision, queue-depth sample,
//! and overhang pre-charge alike. Channels enter the set at the
//! mutation sites (`enqueue`, rate writes, power transitions, fluid
//! busy charges) with one OR, and retire only at epoch ticks once
//! resting again, when the sampling pass clears their bit. The bitmap
//! is the whole set: scanning it word by word yields the members in
//! ascending channel order without duplicates in O(words + members),
//! which is the order controller decisions must run in.
//!
//! The same mutation sites maintain three network-wide counters, so
//! per-epoch questions about the whole fabric are counter reads:
//!
//! * the rate/power-asymmetric links (via the [`Channels::peer`]
//!   table), replacing a per-epoch O(links) asymmetry sweep;
//! * [`Channels::queued_total`], the bytes queued anywhere — an upper
//!   bound on every channel's occupancy;
//! * [`Channels::unsteady`], the channels powered off or draining.
//!
//! `EpochMode::Sweep` keeps the full sweep alive and cross-checks all
//! three against a recount (see `engine.rs`).

use crate::packet::PacketId;
use crate::SimTime;
use epnet_power::LinkRate;
use std::collections::VecDeque;

/// A packet is currently being serialized on the channel.
pub(crate) const F_BUSY: u8 = 1 << 0;
/// The channel is powered off (dynamic topologies, §5.2).
pub(crate) const F_OFF: u8 = 1 << 1;
/// A `Retry` event is already pending.
pub(crate) const F_RETRY: u8 = 1 << 2;
/// A `CreditWake` event is already pending.
pub(crate) const F_CREDIT_WAKE: u8 = 1 << 3;
/// A drain-first rate change is parked on this channel — mirrors
/// `ChannelCold::pending_rate.is_some()` so the adaptive router's
/// "remove from the legal routes" check (§3.2) stays on the hot side.
pub(crate) const F_DRAINING: u8 = 1 << 4;
/// The controller may retune this channel (set once at construction).
/// Lives in the flags byte so the per-epoch decision sweep — every
/// channel, every tick — never has to touch the cold table for the
/// channels it skips.
pub(crate) const F_TUNABLE: u8 = 1 << 5;
/// Either latch that takes a channel out of the fluid regime's steady
/// paths (powered off or draining); [`Channels::unsteady`] counts the
/// channels carrying one.
pub(crate) const F_UNSTEADY: u8 = F_OFF | F_DRAINING;

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

/// Cold per-channel state: read at epoch ticks and at finish, never on
/// the per-event fast path.
#[derive(Debug, Clone)]
pub(crate) struct ChannelCold {
    /// Residency accounting: time at each rate since the run started.
    pub time_at_rate_ps: [u64; LinkRate::COUNT],
    /// Time powered off (dynamic topologies, §5.2).
    pub off_ps: u64,
    /// When the current rate/off interval began.
    pub rate_since: SimTime,
    /// Rate change waiting for the queue to drain (§3.2's first
    /// tolerance option).
    pub pending_rate: Option<LinkRate>,
}

/// All per-channel runtime state, split hot (per-event) from cold
/// (per-epoch / per-run). Every `Vec` is indexed by
/// [`ChannelId::index`].
#[derive(Debug)]
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
    /// `F_*` latches. Written only through the flag setters, which keep
    /// `unsteady` exact.
    pub flags: Vec<u8>,
    /// Propagation delay of the physical medium.
    pub prop: Vec<SimTime>,
    /// End of the in-progress transmission, if any.
    pub busy_until: Vec<SimTime>,
    /// Busy picoseconds accumulated this epoch.
    pub busy_ps_epoch: Vec<u64>,
    /// Packets in the in-progress transmission train (0 when idle).
    pub train_len: Vec<u32>,
    /// Total bytes of the in-progress train.
    pub train_bytes: Vec<u64>,
    /// Output queues feeding each channel (elastic).
    pub queues: Vec<VecDeque<PacketId>>,
    /// Credit returns in flight back to each channel, as
    /// `(maturation time, bytes)` in nondecreasing time order.
    pending_credits: Vec<VecDeque<(SimTime, u32)>>,
    /// Drained credit-queue buffers awaiting reuse (capacity retained).
    credit_pool: Vec<VecDeque<(SimTime, u32)>>,
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
    // ---- cold ----
    pub cold: Vec<ChannelCold>,
}

impl Channels {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            occupancy: Vec::with_capacity(n),
            credits: Vec::with_capacity(n),
            rate: Vec::with_capacity(n),
            available_at: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            prop: Vec::with_capacity(n),
            busy_until: Vec::with_capacity(n),
            busy_ps_epoch: Vec::with_capacity(n),
            train_len: Vec::with_capacity(n),
            train_bytes: Vec::with_capacity(n),
            queues: Vec::with_capacity(n),
            pending_credits: Vec::with_capacity(n),
            credit_pool: Vec::new(),
            active_bits: Vec::with_capacity(n.div_ceil(64)),
            queued_total: 0,
            unsteady: 0,
            peer: Vec::with_capacity(n),
            asym_links: 0,
            cold: Vec::with_capacity(n),
        }
    }

    /// Appends one channel in its initial state. New channels start in
    /// the active set (they sit at `rate`, typically above the floor);
    /// the first epoch tick retires the ones that turn out resting.
    pub fn push(&mut self, rate: LinkRate, credits: u32, tunable: bool, prop: SimTime) {
        let i = self.flags.len();
        self.occupancy.push(0);
        self.credits.push(credits);
        self.rate.push(rate);
        self.available_at.push(SimTime::ZERO);
        self.flags.push(if tunable { F_TUNABLE } else { 0 });
        self.prop.push(prop);
        self.busy_until.push(SimTime::ZERO);
        self.busy_ps_epoch.push(0);
        self.train_len.push(0);
        self.train_bytes.push(0);
        self.queues.push(VecDeque::new());
        self.pending_credits.push(VecDeque::new());
        if i % 64 == 0 {
            self.active_bits.push(0);
        }
        self.mark_active(i);
        self.peer.push(i as u32);
        self.cold.push(ChannelCold {
            time_at_rate_ps: [0; LinkRate::COUNT],
            off_ps: 0,
            rate_since: SimTime::ZERO,
            pending_rate: None,
        });
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

    /// Applies `f` to channel `i`'s state while keeping the asymmetric-
    /// link counter exact, and marks the channel active: every rate or
    /// `F_OFF` mutation funnels through here.
    #[inline]
    fn mutate_link_state(&mut self, i: usize, f: impl FnOnce(&mut Self)) {
        let was = self.link_is_asymmetric(i);
        f(self);
        let is = self.link_is_asymmetric(i);
        match (was, is) {
            (false, true) => self.asym_links += 1,
            (true, false) => self.asym_links = self.asym_links.saturating_sub(1),
            _ => {}
        }
        self.mark_active(i);
    }

    /// Sets the configured rate of channel `i`, maintaining the
    /// asymmetry counter and the active set. All rate writes after
    /// construction must come through here (or
    /// [`Channels::reactivate`]).
    pub fn set_rate(&mut self, i: usize, rate: LinkRate) {
        self.mutate_link_state(i, |c| c.rate[i] = rate);
    }

    /// Whether channel `i` may rest outside the active set: nothing
    /// queued or in flight, no busy time to account (post-recharge), no
    /// parked drain — and no possible controller decision, because the
    /// channel is either exempt (`!F_TUNABLE` or `F_OFF`), already at
    /// the floor (where `idle_at_floor_always_holds` proves the
    /// decision is "hold"), or decisions are disabled entirely
    /// (`ControlMode::AlwaysFull`).
    #[inline]
    fn is_resting(&self, i: usize, min_rate: LinkRate, decisions_enabled: bool) -> bool {
        let resting = self.occupancy[i] == 0
            && self.busy_ps_epoch[i] == 0
            && self.flags[i] & F_DRAINING == 0
            && (!decisions_enabled
                || self.flags[i] & (F_TUNABLE | F_OFF) != F_TUNABLE
                || self.rate[i] == min_rate);
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
            let occ = c.occupancy[i];
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
        self.queues[i].is_empty() && self.flags[i] & F_BUSY == 0
    }

    /// Books a credit return of `bytes` maturing at `at`. The buffer
    /// comes from the shared pool when this channel's queue was
    /// previously drained back into it.
    #[inline]
    pub fn push_credit(&mut self, i: usize, at: SimTime, bytes: u32) {
        let q = &mut self.pending_credits[i];
        debug_assert!(
            q.back().map_or(true, |&(t, _)| t <= at),
            "credit returns out of order on ch{i}"
        );
        if q.capacity() == 0 {
            if let Some(buf) = self.credit_pool.pop() {
                self.pending_credits[i] = buf;
                self.pending_credits[i].push_back((at, bytes));
                return;
            }
        }
        q.push_back((at, bytes));
    }

    /// Maturation time of the next pending credit return, if any.
    #[inline]
    pub fn next_credit_at(&self, i: usize) -> Option<SimTime> {
        self.pending_credits[i].front().map(|&(t, _)| t)
    }

    /// Applies every credit return that has matured by `now`. A queue
    /// that drains completely donates its buffer to the shared pool.
    /// Returns the updated credit balance.
    #[inline]
    pub fn apply_matured_credits(&mut self, i: usize, now: SimTime, cap: u32) -> u32 {
        let q = &mut self.pending_credits[i];
        if q.is_empty() {
            return self.credits[i];
        }
        let mut credits = self.credits[i];
        while let Some(&(at, bytes)) = q.front() {
            if at > now {
                break;
            }
            q.pop_front();
            credits += bytes;
            debug_assert!(credits <= cap, "credit overflow on ch{i}");
        }
        let _ = cap;
        self.credits[i] = credits;
        if q.is_empty() && q.capacity() > 0 {
            self.credit_pool.push(std::mem::take(q));
        }
        credits
    }

    /// Closes the current residency interval of channel `i` at `now`.
    pub fn note_interval(&mut self, i: usize, now: SimTime) {
        let cold = &mut self.cold[i];
        let span = (now - cold.rate_since).as_ps();
        if self.flags[i] & F_OFF != 0 {
            cold.off_ps += span;
        } else {
            cold.time_at_rate_ps[self.rate[i].index()] += span;
        }
        cold.rate_since = now;
    }

    /// Utilization of channel `i` over the epoch that just ended.
    pub fn epoch_utilization(&self, i: usize, epoch: SimTime) -> f64 {
        let busy = self.busy_ps_epoch[i];
        // Idle channels dominate under light load; skipping the f64
        // divide for them is exact (0/x == 0.0), not an approximation.
        if busy == 0 {
            return 0.0;
        }
        (busy as f64 / epoch.as_ps() as f64).min(1.0)
    }

    /// Transitions the channel's powered state, closing the residency
    /// interval (dynamic topologies, §5.2). Maintains the asymmetry
    /// counter and the active set — `F_OFF` is half of the link-
    /// asymmetry predicate.
    pub fn set_off(&mut self, i: usize, now: SimTime, off: bool) {
        debug_assert!(!off || self.queue_is_idle(i), "powering off a busy channel");
        self.note_interval(i, now);
        self.mutate_link_state(i, |c| {
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
        self.note_interval(i, now);
        self.set_rate(i, rate);
        self.available_at[i] = now + reactivation;
    }

    /// Parks (or clears) a drain-first rate change, keeping the
    /// hot-side `F_DRAINING` mirror in sync. A draining channel is
    /// never resting, so parking one pins it in the active set.
    pub fn set_pending_rate(&mut self, i: usize, rate: Option<LinkRate>) {
        self.cold[i].pending_rate = rate;
        if rate.is_some() {
            self.set_flag(i, F_DRAINING);
            self.mark_active(i);
        } else {
            self.clear_flag(i, F_DRAINING);
        }
    }

    /// Takes the parked drain-first rate change, if any.
    pub fn take_pending_rate(&mut self, i: usize) -> Option<LinkRate> {
        let rate = self.cold[i].pending_rate.take();
        self.clear_flag(i, F_DRAINING);
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> Channels {
        let mut c = Channels::with_capacity(2);
        c.push(LinkRate::MAX, 1024, true, SimTime::from_ns(5));
        c.push(LinkRate::MAX, 1024, false, SimTime::from_ns(5));
        c
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
        c.push_credit(0, SimTime::from_ns(10), 100);
        c.push_credit(0, SimTime::from_ns(20), 200);
        assert_eq!(c.next_credit_at(0), Some(SimTime::from_ns(10)));
        assert_eq!(c.apply_matured_credits(0, SimTime::from_ns(15), 1024), 100);
        assert_eq!(c.next_credit_at(0), Some(SimTime::from_ns(20)));
        // Full drain donates the buffer to the pool...
        assert_eq!(c.apply_matured_credits(0, SimTime::from_ns(25), 1024), 300);
        assert_eq!(c.credit_pool.len(), 1);
        let pooled_cap = c.credit_pool[0].capacity();
        assert!(pooled_cap > 0);
        // ...and the next booking on any channel reuses it.
        c.push_credit(1, SimTime::from_ns(30), 50);
        assert!(c.credit_pool.is_empty());
        assert!(c.pending_credits[1].capacity() >= pooled_cap.min(1));
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
        let mut c = two();
        c.note_interval(0, SimTime::from_ns(100));
        assert_eq!(
            c.cold[0].time_at_rate_ps[LinkRate::MAX.index()],
            SimTime::from_ns(100).as_ps()
        );
        c.set_off(0, SimTime::from_ns(150), true);
        c.note_interval(0, SimTime::from_ns(250));
        assert_eq!(c.cold[0].off_ps, SimTime::from_ns(100).as_ps());
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
        c.set_rate(0, LinkRate::MIN);
        c.set_rate(1, LinkRate::MIN);
        c.retire_resting(LinkRate::MIN, true);
        assert_eq!(c.active_len(), 0);
        // ...and re-enters the set on the next rate write.
        c.set_rate(0, LinkRate::MAX);
        assert!(c.is_active(0));
        assert_eq!(c.active_len(), 1);
        // mark_active is idempotent: membership is one bit.
        c.mark_active(0);
        assert_eq!(c.active_len(), 1);
    }

    #[test]
    fn resting_requires_idle_queue_and_zero_busy() {
        let mut c = two();
        c.set_rate(0, LinkRate::MIN);
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
        c.set_rate(0, LinkRate::MIN);
        assert_eq!(c.asymmetric_links(), 1);
        assert!(c.link_is_asymmetric(0) && c.link_is_asymmetric(1));
        // Converging the peer restores symmetry.
        c.set_rate(1, LinkRate::MIN);
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
        let mut c = Channels::with_capacity(4);
        for _ in 0..4 {
            c.push(LinkRate::MAX, 1024, true, SimTime::from_ns(5));
        }
        c.set_peers(0, 1);
        c.set_peers(2, 3);
        c.set_rate(0, LinkRate::MIN);
        c.set_off(2, SimTime::ZERO, true);
        assert_eq!(c.asymmetric_links(), 2);
        assert_eq!(recount(&c), 2, "recount must agree");
        c.set_rate(1, LinkRate::MIN);
        assert_eq!(c.asymmetric_links(), 1, "only the off link remains");
        assert_eq!(recount(&c), 1);
    }

    #[test]
    fn self_peered_channels_are_never_asymmetric() {
        // Unit-style construction without `set_peers`: every channel is
        // its own peer and the counter must stay pinned at zero.
        let mut c = two();
        c.set_rate(0, LinkRate::MIN);
        c.set_off(1, SimTime::ZERO, true);
        assert_eq!(c.asymmetric_links(), 0);
    }

    #[test]
    fn sample_active_and_retire_matches_full_sweep() {
        let mut c = Channels::with_capacity(130);
        for _ in 0..130 {
            c.push(LinkRate::MAX, 1024, true, SimTime::from_ns(5));
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
            c.set_rate(i, LinkRate::MIN);
        }
        let (sum2, _) = c.sample_active_and_retire(now, epoch_ps, LinkRate::MIN, true);
        assert_eq!(sum2, 350);
        assert_eq!(c.active_ids(), vec![3, 7, 129]);
    }

    #[test]
    fn active_set_iterates_ascending_across_words() {
        let mut c = Channels::with_capacity(200);
        for _ in 0..200 {
            c.push(LinkRate::MIN, 1024, false, SimTime::from_ns(5));
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
