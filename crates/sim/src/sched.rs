//! The discrete-event scheduler, with deterministic FIFO
//! tie-breaking.
//!
//! The engine's hot loop is schedule/pop churn on a priority queue
//! keyed by `(SimTime, insertion seq)`. [`Scheduler`] is a calendar
//! queue after R. Brown, *Calendar queues: a fast O(1) priority queue
//! implementation for the simulation event set problem* (CACM 1988).
//! Events hash by time into an array of power-of-two-width day
//! buckets; a cursor walks the current "year" day by day, so pops of
//! near-future events are O(1) amortized instead of a binary heap's
//! O(log n). The bucket count doubles/halves with occupancy and the
//! bucket width is recomputed from the mean inter-event gap at each
//! resize, keeping roughly one event per day under load.
//!
//! Pop order is ascending time, and FIFO (insertion order) among
//! events scheduled for the same time. [`KeyedQueue`] — a plain
//! `std` binary heap over explicit keys, used by the parallel engine —
//! is the reference: property tests in this module (and the hold-model
//! test and scheduler benchmark of `epnet-bench`) check that the
//! calendar pops exactly what the heap pops.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Smallest bucket-array size the calendar queue uses.
const MIN_BUCKETS: usize = 32;
/// Largest bucket-array size (1 Mi buckets ≈ 8 MiB of `Vec` headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Starting log2 bucket width: 2^12 ps ≈ 4 ns per day.
const INITIAL_SHIFT: u32 = 12;
/// Window the steady-state pending population is assumed to spread
/// over when deriving the bucket width from a size hint: on the order
/// of one packet serialization time (2 KiB at 20 Gb/s ≈ 0.8 µs).
const STEADY_SPREAD_PS: u64 = 1 << 20;
/// Bounds for the recomputed log2 bucket width. 2^4 ps floors the day
/// below any physical event spacing; 2^44 ps ≈ 17 s caps it above any
/// simulated horizon.
const MIN_SHIFT: u32 = 4;
const MAX_SHIFT: u32 = 44;

/// One scheduled item: absolute time plus the insertion sequence that
/// breaks ties deterministically.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A deterministic time-ordered queue.
///
/// Items pop in ascending `(time, insertion order)`.
pub struct Scheduler<T> {
    seq: u64,
    calendar: CalendarQueue<T>,
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
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::with_hint(0)
    }

    /// An empty scheduler pre-sized for a steady-state population of
    /// roughly `expected` pending items.
    ///
    /// The engine passes the channel count here: each busy channel
    /// contributes one or two in-flight events, so a paper-scale fabric
    /// would otherwise climb through a dozen doubling resizes (each a
    /// full rehash) before the calendar reaches its working size — and
    /// start with thousands-long bucket chains in the meantime. Sizing
    /// is pure layout: pop order is bucket-independent, so the hint can
    /// never change simulation output.
    pub fn with_hint(expected: usize) -> Self {
        Self {
            seq: 0,
            calendar: CalendarQueue::with_hint(expected),
        }
    }

    /// Schedules `item` at absolute time `at`. Items scheduled for the
    /// same time pop in insertion order.
    // Kept out of line (as is `pop`): inlining the wrapper into every
    // engine handler ran the reference benchmark's packet workload
    // slower end to end in 8 of 8 alternating pairs (median 13%).
    #[inline(never)]
    pub fn schedule(&mut self, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.calendar.insert(Entry { at, seq, item });
    }

    /// Removes and returns the earliest item.
    #[inline(never)]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.calendar.pop_min().map(|e| (e.at, e.item))
    }

    /// The earliest scheduled time, if any.
    ///
    /// Takes `&mut self`: a peek may advance the day cursor past empty
    /// buckets (pure bookkeeping — the observable queue contents and
    /// pop order are unchanged).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_min().map(|e| e.at)
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.calendar.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The calendar proper.
///
/// Layout: `buckets[slot(t) & mask]` holds every pending entry whose
/// day index is congruent to that bucket, where `slot(t) = t.ps >>
/// shift` (so one day spans `2^shift` picoseconds). Each bucket stays
/// sorted *ascending* by `(at, seq)`: the bucket minimum is the front,
/// and — because discrete-event scheduling is overwhelmingly monotone —
/// a new entry is almost always the bucket's latest, so insertion is a
/// compare-with-back plus `Vec::push` with no search and no memmove.
/// Entries more than a year (`nbuckets` days) ahead simply wait in
/// their bucket until the cursor's year reaches them.
///
/// A bitmap mirrors bucket occupancy (bit set ⇔ bucket non-empty), so
/// the pop-side day walk skips runs of empty days with a couple of
/// word scans instead of touching one `Vec` header per day.
///
/// Invariant: between operations no pending entry has a day index
/// smaller than `cur_slot` (inserts into the past pull the cursor
/// back), so the pop scan never misses an earlier event.
struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// One bit per bucket: set ⇔ the bucket is non-empty.
    occupied: Vec<u64>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// log2 of the bucket (day) width in picoseconds.
    shift: u32,
    /// Day index the cursor is on.
    cur_slot: u64,
    /// Located minimum: `(key, bucket index)` of the entry the next
    /// pop returns, or `None` when it must be (re)scanned.
    cached_min: Option<((SimTime, u64), usize)>,
    len: usize,
    /// Smallest bucket count this calendar shrinks to: the hint-derived
    /// starting size. Bursty loads oscillate the pending count across
    /// the shrink threshold; rebuilding every bucket `Vec` on each
    /// crossing was the dominant steady-state allocation source, and a
    /// sparse calendar is cheap to walk now that the occupancy bitmap
    /// skips empty days.
    floor: usize,
    /// Bucket `Vec`s parked by shrink resizes, reused by grow resizes,
    /// plus the entry scratch buffer resizes redistribute through — so
    /// a warmed-up calendar resizes without touching the allocator.
    spare_buckets: Vec<Vec<Entry<T>>>,
    resize_scratch: Vec<Entry<T>>,
}

impl<T> CalendarQueue<T> {
    /// A calendar pre-sized so `expected` pending entries land at the
    /// target occupancy (~2 per day) without growth resizes, with the
    /// day width derived from the hint as well: `expected` events
    /// spread over roughly one serialization window should land at ~1
    /// per day, so bigger fabrics get proportionally finer days instead
    /// of the fixed default degenerating into long bucket chains.
    fn with_hint(expected: usize) -> Self {
        let nbuckets = (expected / 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let shift = if expected == 0 {
            INITIAL_SHIFT
        } else {
            (STEADY_SPREAD_PS / expected as u64)
                .max(1)
                .ilog2()
                .clamp(MIN_SHIFT, MAX_SHIFT)
        };
        Self {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; nbuckets.div_ceil(64)],
            mask: nbuckets - 1,
            shift,
            cur_slot: 0,
            cached_min: None,
            len: 0,
            floor: nbuckets,
            spare_buckets: Vec::new(),
            resize_scratch: Vec::new(),
        }
    }

    fn slot(&self, at: SimTime) -> u64 {
        at.as_ps() >> self.shift
    }

    fn insert(&mut self, entry: Entry<T>) {
        let slot = self.slot(entry.at);
        if self.len == 0 {
            self.cur_slot = slot;
        } else if slot < self.cur_slot {
            // Scheduled into the cursor's past: rewind the cursor so
            // the scan invariant (no entry before `cur_slot`) holds.
            self.cur_slot = slot;
        }
        let idx = (slot & self.mask as u64) as usize;
        if let Some((key, _)) = self.cached_min {
            if entry.key() < key {
                self.cached_min = Some((entry.key(), idx));
            }
        } else if self.len == 0 {
            self.cached_min = Some((entry.key(), idx));
        }
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        let bucket = &mut self.buckets[idx];
        // Monotone fast path: the new entry is usually the bucket's
        // latest, so it appends with no search and no memmove.
        if bucket.last().map_or(true, |e| e.key() < entry.key()) {
            bucket.push(entry);
        } else {
            let pos = bucket.partition_point(|e| e.key() < entry.key());
            bucket.insert(pos, entry);
        }
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
    }

    fn pop_min(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        let (_, idx) = self.locate_min();
        // Buckets run a couple of entries deep, so the front removal's
        // memmove is a word or two.
        let entry = self.buckets[idx].remove(0);
        self.len -= 1;
        // Fast path: when the popped event's day holds more events,
        // the bucket's new front is the global minimum — no rescan.
        self.cached_min = match self.buckets[idx].first() {
            Some(next) if self.slot(next.at) == self.cur_slot => Some((next.key(), idx)),
            _ => None,
        };
        if self.buckets[idx].is_empty() {
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        }
        if self.len < self.buckets.len() / 8 && self.buckets.len() > self.floor {
            self.resize(self.buckets.len() / 2);
        }
        Some(entry)
    }

    fn peek_min(&mut self) -> Option<&Entry<T>> {
        if self.len == 0 {
            return None;
        }
        let (_, idx) = self.locate_min();
        self.buckets[idx].first()
    }

    /// First non-empty bucket index in `[from, to)` per the occupancy
    /// bitmap, or `None`.
    fn next_occupied(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let last_wi = (to - 1) / 64;
        let mut wi = from / 64;
        let mut word = self.occupied[wi] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let idx = wi * 64 + word.trailing_zeros() as usize;
                return if idx < to { Some(idx) } else { None };
            }
            if wi == last_wi {
                return None;
            }
            wi += 1;
            word = self.occupied[wi];
        }
    }

    /// Finds the bucket holding the global minimum, advancing the
    /// cursor day by day but skipping runs of empty days via the
    /// occupancy bitmap. Bounded at one lap of the calendar: after a
    /// fruitless year the minimum is found by direct search instead
    /// (the queue is sparse, so the O(nbuckets) fallback is rare and
    /// cheap relative to the simulated time skipped).
    fn locate_min(&mut self) -> ((SimTime, u64), usize) {
        debug_assert!(self.len > 0);
        if let Some(found) = self.cached_min {
            return found;
        }
        let nbuckets = self.buckets.len();
        let start = (self.cur_slot & self.mask as u64) as usize;
        // One lap of candidate (non-empty) buckets in cyclic order from
        // the cursor. Empty buckets can hold no due entry, so skipping
        // them never skips a day the old day-by-day walk would hit.
        let mut ranges = [
            (start, nbuckets, 0u64),
            (0, start, nbuckets as u64 - start as u64),
        ];
        if start == 0 {
            ranges[1] = (0, 0, 0); // no wrap segment
        }
        for (lo, hi, base_off) in ranges {
            let mut idx = lo;
            while let Some(found_idx) = self.next_occupied(idx, hi) {
                let day = self.cur_slot + base_off + (found_idx - lo) as u64;
                let min = self.buckets[found_idx]
                    .first()
                    .expect("occupancy bit set on empty bucket");
                // Within the scanned window only `day` itself maps to
                // this bucket, so a due entry has exactly that slot; a
                // smaller bucket minimum would violate the cursor
                // invariant.
                if self.slot(min.at) == day {
                    self.cur_slot = day;
                    let found = (min.key(), found_idx);
                    self.cached_min = Some(found);
                    return found;
                }
                idx = found_idx + 1;
            }
        }
        // Nothing due within a year of the cursor: direct search.
        let mut best: Option<((SimTime, u64), usize)> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(min) = bucket.first() {
                if best.map_or(true, |(key, _)| min.key() < key) {
                    best = Some((min.key(), idx));
                }
            }
        }
        let found = best.expect("non-empty queue has a minimum");
        self.cur_slot = self.slot(found.0 .0);
        self.cached_min = Some(found);
        found
    }

    /// Rebuilds with `nbuckets` buckets, recomputing the day width so
    /// the pending events spread to roughly one per day: the new width
    /// is the mean inter-event gap rounded up to a power of two. Fully
    /// deterministic — it depends only on the current queue contents.
    ///
    /// Storage is recycled end to end (buckets drain in place, excess
    /// buckets park in `spare_buckets`, entries pass through
    /// `resize_scratch`), so once every pool has reached its high-water
    /// mark a resize performs no heap allocation.
    fn resize(&mut self, nbuckets: usize) {
        let mut entries = std::mem::take(&mut self.resize_scratch);
        entries.clear();
        for bucket in &mut self.buckets {
            entries.append(bucket); // leaves the bucket empty, capacity kept
        }
        debug_assert_eq!(entries.len(), self.len);

        if !entries.is_empty() {
            let mut min_ps = u64::MAX;
            let mut max_ps = 0u64;
            for e in entries.iter() {
                min_ps = min_ps.min(e.at.as_ps());
                max_ps = max_ps.max(e.at.as_ps());
            }
            let gap = ((max_ps - min_ps) / entries.len() as u64).max(1);
            // Day width ≈ 2× the mean gap: a couple of events per day
            // keeps the same-bucket pop fast path hot while buckets
            // stay short enough for O(1)-ish sorted inserts.
            let width_log2 = 65 - gap.leading_zeros();
            self.shift = width_log2.clamp(MIN_SHIFT, MAX_SHIFT);
        }

        while self.buckets.len() > nbuckets {
            let spare = self.buckets.pop().expect("length checked");
            self.spare_buckets.push(spare);
        }
        while self.buckets.len() < nbuckets {
            self.buckets
                .push(self.spare_buckets.pop().unwrap_or_default());
        }
        self.occupied.truncate(nbuckets.div_ceil(64));
        self.occupied.resize(nbuckets.div_ceil(64), 0);
        for word in &mut self.occupied {
            *word = 0;
        }
        self.mask = nbuckets - 1;
        self.cached_min = None;
        self.cur_slot = 0;

        let mut min_key: Option<((SimTime, u64), u64)> = None;
        for entry in entries.drain(..) {
            let slot = self.slot(entry.at);
            if min_key.map_or(true, |(key, _)| entry.key() < key) {
                min_key = Some((entry.key(), slot));
            }
            let idx = (slot & self.mask as u64) as usize;
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
            let bucket = &mut self.buckets[idx];
            let pos = bucket.partition_point(|e| e.key() < entry.key());
            bucket.insert(pos, entry);
        }
        if let Some(((at, seq), slot)) = min_key {
            self.cur_slot = slot;
            let idx = (slot & self.mask as u64) as usize;
            self.cached_min = Some(((at, seq), idx));
        }
        self.resize_scratch = entries;
    }
}

/// A min-queue over *caller-supplied* `(time, seq)` keys.
///
/// [`Scheduler`] assigns sequence numbers itself (push order), which is
/// exactly right for a single serial event loop. The sharded parallel
/// engine instead needs to insert items whose sequence numbers were
/// assigned elsewhere — the coordinator's global push counter — and to
/// re-seed per-window shard queues with the keys events already carry.
/// This queue is the thin building block for that: an explicit-key
/// binary heap popping in ascending `(time, seq)` order.
#[derive(Debug)]
pub struct KeyedQueue<T> {
    heap: BinaryHeap<KeyedEntry<T>>,
}

struct KeyedEntry<T> {
    key: (SimTime, u64),
    item: T,
}

impl<T> std::fmt::Debug for KeyedEntry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedEntry")
            .field("key", &self.key)
            .finish()
    }
}

impl<T> PartialEq for KeyedEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for KeyedEntry<T> {}

impl<T> Ord for KeyedEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: std's max-heap then yields the smallest key first.
        other.key.cmp(&self.key)
    }
}

impl<T> PartialOrd for KeyedEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Default for KeyedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> KeyedQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts `item` under an explicit `(time, seq)` key.
    ///
    /// Duplicate keys are allowed but pop in unspecified relative
    /// order; callers that care (the parallel engine does) must keep
    /// keys unique.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(KeyedEntry {
            key: (at, seq),
            item,
        });
    }

    /// Removes and returns the smallest-keyed item.
    pub fn pop(&mut self) -> Option<((SimTime, u64), T)> {
        self.heap.pop().map(|e| (e.key, e.item))
    }

    /// The smallest key currently queued, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| e.key)
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending items, keeping the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The reference: a [`KeyedQueue`] keyed by push order — the plain
    /// binary heap the calendar must pop identically to.
    #[derive(Default)]
    struct Heap {
        q: KeyedQueue<u32>,
        seq: u64,
    }

    impl Heap {
        fn schedule(&mut self, at: SimTime, item: u32) {
            self.q.push(at, self.seq, item);
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.q.pop().map(|((at, _), item)| (at, item))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.q.peek_key().map(|(at, _)| at)
        }

        fn len(&self) -> usize {
            self.q.len()
        }
    }

    /// Schedules `(time, tag)` pairs into both queues and drains both.
    fn drain_both(items: &[(SimTime, u32)]) -> [Vec<(SimTime, u32)>; 2] {
        let mut cal = Scheduler::new();
        let mut heap = Heap::default();
        for &(at, tag) in items {
            cal.schedule(at, tag);
            heap.schedule(at, tag);
        }
        [
            std::iter::from_fn(|| cal.pop()).collect(),
            std::iter::from_fn(|| heap.pop()).collect(),
        ]
    }

    #[test]
    fn pops_in_time_order_on_both_backends() {
        let ns = SimTime::from_ns;
        for order in drain_both(&[(ns(30), 0), (ns(10), 1), (ns(20), 2)]) {
            let times: Vec<u64> = order.iter().map(|(t, _)| t.as_ns()).collect();
            assert_eq!(times, vec![10, 20, 30]);
        }
    }

    #[test]
    fn same_time_pops_fifo_on_both_backends() {
        let items: Vec<_> = (0..100).map(|tag| (SimTime::from_ns(5), tag)).collect();
        for order in drain_both(&items) {
            let tags: Vec<u32> = order.iter().map(|&(_, tag)| tag).collect();
            assert_eq!(tags, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        let mut q = Scheduler::new();
        // Push far past the grow threshold, then drain past shrink.
        for i in 0..10_000u32 {
            q.schedule(SimTime::from_ns(u64::from(i % 977)), i);
        }
        assert_eq!(q.len(), 10_000);
        let mut last = (SimTime::ZERO, 0u64);
        let mut seen = 0;
        let mut seqs_at_time: std::collections::HashMap<u64, u32> = Default::default();
        while let Some((t, tag)) = q.pop() {
            assert!(t >= last.0, "time went backwards");
            // FIFO among equal times: tags at one time ascend.
            let prev = seqs_at_time.entry(t.as_ps()).or_insert(tag);
            assert!(*prev <= tag, "FIFO violated at {t:?}");
            *prev = tag;
            last = (t, u64::from(tag));
            seen += 1;
        }
        assert_eq!(seen, 10_000);
    }

    #[test]
    fn far_future_events_cross_year_boundaries() {
        let mut q = Scheduler::new();
        // Events far beyond one calendar year (32 buckets × 4 ns).
        q.schedule(SimTime::from_ms(500), 1);
        q.schedule(SimTime::from_ns(1), 2);
        q.schedule(SimTime::from_ms(2), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(2), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(500), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_into_cursor_past_is_seen() {
        let mut q = Scheduler::new();
        q.schedule(SimTime::from_us(100), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(100)));
        // The cursor has advanced toward 100 µs; an insert before it
        // must still pop first.
        q.schedule(SimTime::from_ns(3), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_us(100), 1)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole cross-check: arbitrary interleaved schedule/pop
        /// sequences yield identical `(time, item)` pop order — FIFO
        /// tie-breaks included — on the calendar queue and the
        /// reference heap.
        #[test]
        fn calendar_matches_heap_on_arbitrary_interleavings(
            seed in any::<u64>(),
            ops in 50usize..600,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cal = Scheduler::new();
            let mut heap = Heap::default();
            let mut tag = 0u32;
            let mut popped = 0u64;

            for _ in 0..ops {
                if rng.gen_bool(0.6) || cal.is_empty() {
                    // Mix of duplicate times (FIFO stress), clustered
                    // near-future times, and rare far-future outliers
                    // that cross calendar years.
                    let at = match rng.gen_range(0u8..10) {
                        0..=2 => SimTime::from_ps(popped), // duplicates at the frontier
                        3..=7 => SimTime::from_ps(popped + rng.gen_range(1u64..50_000)),
                        8 => SimTime::from_ps(popped + rng.gen_range(1u64..100)),
                        _ => SimTime::from_ps(popped + rng.gen_range(1u64..10_000_000_000)),
                    };
                    cal.schedule(at, tag);
                    heap.schedule(at, tag);
                    tag += 1;
                } else {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        // Keep the monotone-schedule property the
                        // engine relies on: later schedules never
                        // precede the pop frontier.
                        popped = t.as_ps();
                    }
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Drain both completely.
            loop {
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Same cross-check without the monotone-schedule restriction:
        /// inserts may land arbitrarily far into the cursor's past.
        #[test]
        fn calendar_matches_heap_on_non_monotone_inserts(
            seed in any::<u64>(),
            ops in 50usize..400,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cal = Scheduler::new();
            let mut heap = Heap::default();
            let mut tag = 0u32;
            for _ in 0..ops {
                if rng.gen_bool(0.5) || cal.is_empty() {
                    let at = SimTime::from_ps(rng.gen_range(0u64..5_000_000));
                    cal.schedule(at, tag);
                    heap.schedule(at, tag);
                    tag += 1;
                } else {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            loop {
                let a = cal.pop();
                prop_assert_eq!(a, heap.pop());
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn keyed_queue_pops_in_ascending_key_order() {
        let mut q = KeyedQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_ps(30), 0, "c");
        q.push(SimTime::from_ps(10), 5, "b");
        q.push(SimTime::from_ps(10), 2, "a");
        q.push(SimTime::from_ps(40), 1, "d");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_key(), Some((SimTime::from_ps(10), 2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        q.push(SimTime::from_ps(1), 0, "e");
        q.clear();
        assert!(q.pop().is_none());
    }
}
