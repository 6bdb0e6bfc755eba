//! The discrete-event scheduler, with deterministic FIFO
//! tie-breaking.
//!
//! The engine's hot loop is schedule/pop churn on a priority queue
//! keyed by `(SimTime, insertion seq)`. [`Scheduler`] is a
//! `std::collections::BinaryHeap` over that key: O(log n) per
//! operation, and memory that tracks the pending-event high-water mark.
//! A calendar queue (R. Brown, CACM 1988) popped the same order in
//! O(1) amortized, but its per-bucket `Vec`s retained several times
//! the pending population and it ran no faster end to end; DESIGN.md
//! ("Event scheduler") records the measured trade.
//!
//! Pop order is ascending time, and FIFO (insertion order) among
//! events scheduled for the same time. The property test in this
//! module checks it against a stable sort of the schedule by time.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled item. Time and insertion sequence are packed into one
/// key, `time << 64 | seq`, so ordering is a single integer compare:
/// in alternating pairs on the reference benchmark's packet workload it
/// ran faster than comparing the `(time, seq)` tuple in 8 of 10.
#[derive(Debug)]
struct Entry<T> {
    key: u128,
    item: T,
}

impl<T> Entry<T> {
    fn at(&self) -> SimTime {
        SimTime::from_ps((self.key >> 64) as u64)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: std's max-heap then yields the smallest key first.
        other.key.cmp(&self.key)
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered queue.
///
/// Items pop in ascending `(time, insertion order)`.
pub struct Scheduler<T> {
    seq: u64,
    heap: BinaryHeap<Entry<T>>,
}

impl<T> std::fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("len", &self.len())
            .field("next_seq", &self.seq)
            .finish()
    }
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> {
    /// An empty scheduler. The heap grows by doubling, so a warmed-up
    /// run schedules without touching the allocator.
    pub fn new() -> Self {
        Self {
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules `item` at absolute time `at`. Items scheduled for the
    /// same time pop in insertion order.
    pub fn schedule(&mut self, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let key = (u128::from(at.as_ps()) << 64) | u128::from(seq);
        self.heap.push(Entry { key, item });
    }

    /// Removes and returns the earliest item.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.at(), e.item))
    }

    /// The earliest scheduled time, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Entry::at)
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedules with many equal times, interleaved with
        /// pops, pop exactly what a stable sort by time of the pending
        /// items yields: ascending time, FIFO among equal times. Times
        /// are drawn from a small set so ties are common, and may land
        /// before the last popped time.
        #[test]
        fn pops_match_a_stable_sort_by_time(
            seed in any::<u64>(),
            ops in 50usize..600,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = Scheduler::new();
            let mut oracle: Vec<(SimTime, u32)> = Vec::new();
            let mut tag = 0u32;
            for _ in 0..ops {
                if rng.gen_bool(0.6) || q.is_empty() {
                    let at = match rng.gen_range(0u8..10) {
                        0..=6 => SimTime::from_ps(rng.gen_range(0u64..16)),
                        7..=8 => SimTime::from_ps(rng.gen_range(0u64..5_000_000)),
                        _ => SimTime::from_ps(rng.gen_range(0u64..10_000_000_000)),
                    };
                    q.schedule(at, tag);
                    oracle.push((at, tag));
                    tag += 1;
                } else {
                    // `sort_by_key` is stable: equal times keep their
                    // insertion order.
                    oracle.sort_by_key(|&(at, _)| at);
                    prop_assert_eq!(q.peek_time(), oracle.first().map(|&(at, _)| at));
                    prop_assert_eq!(q.pop(), Some(oracle.remove(0)));
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            oracle.sort_by_key(|&(at, _)| at);
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(drained, oracle);
            prop_assert!(q.is_empty());
        }
    }
}
