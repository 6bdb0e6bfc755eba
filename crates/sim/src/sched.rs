//! The discrete-event scheduler, with deterministic FIFO
//! tie-breaking.
//!
//! The engine's hot loop is schedule/pop churn on a priority queue
//! keyed by `(SimTime, insertion seq)`. [`Scheduler`] is a
//! `std::collections::BinaryHeap` of single `u128` entries,
//! `time << 64 | seq << 32 | payload`: the item itself packs into the
//! low 32 bits ([`Payload`]), so an entry is 16 bytes and ordering is
//! one integer compare. The heap's sift-down was the engine's costliest
//! load (38% of a sampled `packet_paper` run with 32-byte entries, a
//! key beside a padded item); with 16-byte entries and one pending
//! arrival per wire it is about 20% (EXPERIMENTS.md "Packet hot path").
//!
//! A calendar queue (R. Brown, CACM 1988) popped the same order in
//! O(1) amortized, but its per-bucket `Vec`s retained several times
//! the pending population and it ran no faster end to end; a 4-ary
//! heap ran no faster than the binary one. DESIGN.md ("Event
//! scheduler") records the measured trades.
//!
//! Pop order is ascending time, and FIFO (insertion order) among
//! events scheduled for the same time. An owner may also
//! [`reserve`](Scheduler::reserve) a sequence number now and insert the
//! item under it later ([`schedule_reserved`](Scheduler::schedule_reserved)):
//! it then pops exactly where it would have had it been scheduled at
//! reservation time. The engine keeps one pending arrival per wire this
//! way.
//!
//! Sequence numbers are 32 bits. When they run out, the pending items
//! (and any reservations the owner hands in) are renumbered in pop
//! order, which changes no comparison between them. The property test
//! in this module checks pop order against a stable sort of the
//! schedule by time, across forced renumberings.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

/// An item a [`Scheduler`] can hold: it packs losslessly into 32 bits.
pub trait Payload: Copy {
    /// The item's 32-bit encoding.
    fn pack(self) -> u32;
    /// Decodes [`Payload::pack`]'s output.
    fn unpack(bits: u32) -> Self;
}

/// Sequence numbers available before a renumbering: 2^32.
const SEQ_LIMIT: u64 = 1 << 32;

/// A deterministic time-ordered queue.
///
/// Items pop in ascending `(time, insertion order)`.
pub struct Scheduler<T> {
    /// The next sequence number to hand out.
    seq: u64,
    /// Sequence numbers run from 0 to `limit - 1`.
    limit: u64,
    /// Reservations handed out and not yet scheduled.
    reserved: u64,
    heap: BinaryHeap<Reverse<u128>>,
    _item: PhantomData<T>,
}

impl<T> std::fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("len", &self.heap.len())
            .field("next_seq", &self.seq)
            .field("reserved", &self.reserved)
            .finish()
    }
}

impl<T: Payload> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Payload> Scheduler<T> {
    /// An empty scheduler. The heap grows by doubling, so a warmed-up
    /// run schedules without touching the allocator.
    pub fn new() -> Self {
        Self {
            seq: 0,
            limit: SEQ_LIMIT,
            reserved: 0,
            heap: BinaryHeap::new(),
            _item: PhantomData,
        }
    }

    /// An empty scheduler whose sequence numbers renumber at `limit`
    /// instead of 2^32, so tests can force renumberings.
    #[cfg(test)]
    pub(crate) fn with_seq_limit(limit: u64) -> Self {
        assert!((2..=SEQ_LIMIT).contains(&limit), "sequence limit {limit}");
        Self {
            limit,
            ..Self::new()
        }
    }

    /// Schedules `item` at absolute time `at`. Items scheduled for the
    /// same time pop in insertion order.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, item: T) {
        let seq = self.take_seq();
        self.insert(at, seq, item);
    }

    /// Takes the next sequence number for an item to be scheduled later
    /// with [`Scheduler::schedule_reserved`]. While a reservation is
    /// outstanding its owner must renumber it whenever
    /// [`Scheduler::renumber_due`] says so.
    #[inline]
    pub fn reserve(&mut self) -> u32 {
        let seq = self.take_seq();
        self.reserved += 1;
        seq
    }

    /// Schedules `item` at `at` under the sequence number `seq` from
    /// [`Scheduler::reserve`] (renumbered since, if it was).
    #[inline]
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u32, item: T) {
        debug_assert!(self.reserved > 0, "no reservation outstanding");
        debug_assert!(u64::from(seq) < self.seq, "seq {seq} was never handed out");
        self.reserved -= 1;
        self.insert(at, seq, item);
    }

    /// Whether an owner holding reservations must call
    /// [`Scheduler::renumber`] before it takes more sequence numbers:
    /// half the sequence space is spent, which leaves the other half for
    /// whatever one event handler schedules.
    #[inline]
    pub fn renumber_due(&self) -> bool {
        self.seq >= self.limit / 2
    }

    /// Renumbers every pending item, and the outstanding reservations
    /// in `reserved` (each with the time it will be scheduled at), in
    /// pop order from zero. Every comparison between them is unchanged,
    /// so pop order is too; the reserved sequence numbers are rewritten
    /// in place.
    pub fn renumber(&mut self, reserved: &mut [(SimTime, u32)]) {
        assert_eq!(
            reserved.len() as u64,
            self.reserved,
            "every outstanding reservation must be renumbered"
        );
        // `time << 32 | seq`: an item's place in pop order.
        let place = |at: SimTime, seq: u32| u128::from(at.as_ps()) << 32 | u128::from(seq);
        let mut order: Vec<u128> = self.heap.iter().map(|e| e.0 >> 32).collect();
        order.extend(reserved.iter().map(|&(at, seq)| place(at, seq)));
        order.sort_unstable();
        assert!(
            (order.len() as u64) < self.limit,
            "more than {} items pending: the scheduler's sequence numbers are exhausted",
            self.limit - 1
        );
        let rank = |p: u128| {
            order
                .binary_search(&p)
                .expect("pending item present in the pop order") as u128
        };
        // A map that keeps every comparison keeps the heap a heap, but
        // rebuilding is O(n) and simpler than relying on that.
        let heap = std::mem::take(&mut self.heap).into_vec();
        let heap = heap.into_iter().map(|Reverse(key)| {
            let at = key >> 64;
            Reverse(at << 64 | rank(key >> 32) << 32 | (key & 0xffff_ffff))
        });
        self.heap = heap.collect();
        for (at, seq) in reserved.iter_mut() {
            *seq = rank(place(*at, *seq)) as u32;
        }
        self.seq = order.len() as u64;
    }

    /// Removes and returns the earliest item.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(key)| Self::decode(key))
    }

    /// The earliest item and its time, if any.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, T)> {
        self.heap.peek().map(|e| Self::decode(e.0))
    }

    /// The earliest scheduled time, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| Self::decode(e.0).0)
    }

    /// The pending items with their times, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = (SimTime, T)> + '_ {
        self.heap.iter().map(|e| Self::decode(e.0))
    }

    /// Number of pending items (outstanding reservations excluded).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next sequence number; at the limit, renumbers first, which
    /// only the owner can do while reservations are outstanding.
    #[inline]
    fn take_seq(&mut self) -> u32 {
        if self.seq == self.limit {
            assert_eq!(
                self.reserved, 0,
                "sequence numbers exhausted with reservations outstanding: \
                 their owner must renumber when `renumber_due` says so"
            );
            self.renumber(&mut []);
        }
        let seq = self.seq as u32;
        self.seq += 1;
        seq
    }

    #[inline]
    fn insert(&mut self, at: SimTime, seq: u32, item: T) {
        let key = u128::from(at.as_ps()) << 64 | u128::from(seq) << 32 | u128::from(item.pack());
        self.heap.push(Reverse(key));
    }

    #[inline]
    fn decode(key: u128) -> (SimTime, T) {
        (SimTime::from_ps((key >> 64) as u64), T::unpack(key as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    impl Payload for u32 {
        fn pack(self) -> u32 {
            self
        }

        fn unpack(bits: u32) -> Self {
            bits
        }
    }

    /// A payload that uses all 32 bits: a 3-bit tag over a 29-bit index,
    /// like the engine's events.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tagged {
        tag: u8,
        index: u32,
    }

    impl Payload for Tagged {
        fn pack(self) -> u32 {
            u32::from(self.tag) << 29 | self.index
        }

        fn unpack(bits: u32) -> Self {
            Tagged {
                tag: (bits >> 29) as u8,
                index: bits & ((1 << 29) - 1),
            }
        }
    }

    fn random_time(rng: &mut SmallRng) -> SimTime {
        match rng.gen_range(0u8..10) {
            0..=6 => SimTime::from_ps(rng.gen_range(0u64..16)),
            7..=8 => SimTime::from_ps(rng.gen_range(0u64..5_000_000)),
            _ => SimTime::from_ps(rng.gen_range(0u64..10_000_000_000)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedules with many equal times, interleaved with
        /// pops, pop exactly what a stable sort by time of the pending
        /// items yields: ascending time, FIFO among equal times. Times
        /// are drawn from a small set so ties are common, and may land
        /// before the last popped time. Payloads use all 32 bits. Some
        /// items are reserved first and scheduled later; they sort by
        /// their reservation order. A low sequence limit forces many
        /// renumberings, both by the owner (with reservations held) and
        /// by the queue itself (with none).
        #[test]
        fn pops_match_a_stable_sort_by_time(
            seed in any::<u64>(),
            ops in 50usize..600,
            limit in prop_oneof![Just(SEQ_LIMIT), 40u64..200],
            reservations in any::<bool>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = Scheduler::with_seq_limit(limit);
            // Pending items as (time, order they took a seq in, item).
            let mut oracle: Vec<(SimTime, u64, Tagged)> = Vec::new();
            // Outstanding reservations: (time, seq, order, item).
            let mut held: Vec<(SimTime, u32, u64, Tagged)> = Vec::new();
            let mut order = 0u64;
            // Keeps the pending items well inside the sequence space.
            let cap = (limit / 4) as usize;
            for _ in 0..ops {
                if !held.is_empty() && q.renumber_due() {
                    let mut keys: Vec<(SimTime, u32)> =
                        held.iter().map(|&(at, seq, _, _)| (at, seq)).collect();
                    q.renumber(&mut keys);
                    for (h, (_, seq)) in held.iter_mut().zip(keys) {
                        h.1 = seq;
                    }
                }
                let item = Tagged {
                    tag: rng.gen_range(0u8..8),
                    index: rng.gen_range(0u32..1 << 29),
                };
                let roll = rng.gen_range(0u8..20);
                if reservations && roll < 2 && held.len() < 8 {
                    let at = random_time(&mut rng);
                    held.push((at, q.reserve(), order, item));
                    order += 1;
                } else if reservations && roll < 4 && !held.is_empty() {
                    let k = rng.gen_range(0..held.len());
                    let (at, seq, o, item) = held.swap_remove(k);
                    q.schedule_reserved(at, seq, item);
                    oracle.push((at, o, item));
                } else if (roll < 14 && oracle.len() + held.len() < cap) || q.is_empty() {
                    let at = random_time(&mut rng);
                    q.schedule(at, item);
                    oracle.push((at, order, item));
                    order += 1;
                } else {
                    oracle.sort_by_key(|&(at, o, _)| (at, o));
                    prop_assert_eq!(q.peek_time(), oracle.first().map(|&(at, _, _)| at));
                    let (at, _, item) = oracle.remove(0);
                    prop_assert_eq!(q.pop(), Some((at, item)));
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            for (at, seq, o, item) in held.drain(..) {
                q.schedule_reserved(at, seq, item);
                oracle.push((at, o, item));
            }
            oracle.sort_by_key(|&(at, o, _)| (at, o));
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<_> = oracle.into_iter().map(|(at, _, item)| (at, item)).collect();
            prop_assert_eq!(drained, expected);
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn an_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Reverse<u128>>(), 16);
    }

    #[test]
    fn the_queue_renumbers_itself_at_the_limit() {
        let mut q = Scheduler::with_seq_limit(4);
        let t = SimTime::from_ns(1);
        for i in 0..3u32 {
            q.schedule(t, i);
        }
        q.pop();
        // Seqs 0..3 are spent; the next two schedules renumber 1, 2 to
        // 0, 1 and continue from 2.
        q.schedule(t, 3);
        q.schedule(SimTime::ZERO, 4);
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        assert_eq!(drained, vec![4, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "reservations outstanding")]
    fn the_limit_with_reservations_outstanding_fails_loudly() {
        let mut q = Scheduler::<u32>::with_seq_limit(2);
        q.reserve();
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
    }

    #[test]
    #[should_panic(expected = "sequence numbers are exhausted")]
    fn a_full_sequence_space_fails_loudly() {
        let mut q = Scheduler::with_seq_limit(2);
        q.schedule(SimTime::ZERO, 0u32);
        q.schedule(SimTime::ZERO, 1u32);
        q.schedule(SimTime::ZERO, 2u32);
    }
}
