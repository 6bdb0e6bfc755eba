//! Many FIFOs in one pool of fixed-size chunks.
//!
//! Every channel owns an output queue of packets and, while more than
//! one of its credit returns is in flight, a queue of the later
//! returns. At any instant few channels hold entries (none at all in
//! the hybrid model's fluid steady state), so per-channel containers
//! would pay a header on millions of empty queues and, recycled whole,
//! would each keep the largest capacity they ever served. [`Fifos`]
//! keeps every queue of one kind in a single pool instead:
//!
//! * a queue is a linked list of chunks of [`CHUNK`] entries, and its
//!   only per-queue state is a 4-byte handle, the position
//!   (`chunk · CHUNK + offset`) of its front entry, or `NIL` when it is
//!   empty;
//! * each chunk carries a link to the queue's next chunk and, while it
//!   is a queue's front chunk, the position of that queue's back entry —
//!   which moves on to the next chunk when the front one is released;
//! * released chunks go onto an intrusive free list (threaded through
//!   the same links) and are reused before the pool grows.
//!
//! A queue of `len` entries spans at most ⌈len / CHUNK⌉ + 1 chunks (its
//! front may start mid-chunk), so the pool retains at most the peak of
//! Σ (⌈len / CHUNK⌉ + 1) over the non-empty queues, whatever the
//! history of any one of them, and once that peak is reached pushes and
//! pops never allocate.

/// Entries per chunk.
pub(crate) const CHUNK: u32 = 32;

/// No position: the handle of an empty queue, the end of a chunk list.
const NIL: u32 = u32::MAX;

/// A chunk's metadata.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The owning queue's next chunk, or the next free chunk; `NIL` at
    /// the end of either list.
    next: u32,
    /// Position of the owning queue's back entry (kept current only in
    /// the queue's front chunk).
    back: u32,
}

/// A read position inside one queue (see [`Fifos::cursor`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    /// Position of the next entry to read, or `NIL` past the back.
    at: u32,
    /// Position of the queue's back entry.
    back: u32,
}

/// A family of FIFO queues of `T`, indexed `0..len()`, sharing one pool
/// of chunks (see the module docs).
#[derive(Debug)]
pub(crate) struct Fifos<T> {
    /// Per queue: position of its front entry, or `NIL` when empty.
    heads: Vec<u32>,
    /// Entry storage, `CHUNK` per chunk.
    slots: Vec<T>,
    /// Per-chunk metadata.
    links: Vec<Link>,
    /// First free chunk, or `NIL`.
    free: u32,
}

impl<T: Copy> Default for Fifos<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T: Copy> Fifos<T> {
    /// No queues, with room for `queues` handles.
    pub fn with_capacity(queues: usize) -> Self {
        Self {
            heads: Vec::with_capacity(queues),
            slots: Vec::new(),
            links: Vec::new(),
            free: NIL,
        }
    }

    /// Appends one empty queue.
    pub fn push_queue(&mut self) {
        self.heads.push(NIL);
    }

    /// Whether queue `q` holds no entry.
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.heads[q] == NIL
    }

    /// The front entry of queue `q`.
    #[inline]
    pub fn front(&self, q: usize) -> Option<T> {
        let h = self.heads[q];
        (h != NIL).then(|| self.slots[h as usize])
    }

    /// The back entry of queue `q`.
    #[inline]
    pub fn back(&self, q: usize) -> Option<T> {
        let h = self.heads[q];
        (h != NIL).then(|| self.slots[self.links[(h / CHUNK) as usize].back as usize])
    }

    /// Appends `v` to queue `q`.
    #[inline]
    pub fn push_back(&mut self, q: usize, v: T) {
        let h = self.heads[q];
        if h == NIL {
            let p = self.take_chunk(v) * CHUNK;
            self.heads[q] = p;
            self.links[(p / CHUNK) as usize].back = p;
            return;
        }
        let front = (h / CHUNK) as usize;
        let back = self.links[front].back;
        let p = if (back + 1) % CHUNK == 0 {
            let c = self.take_chunk(v);
            self.links[(back / CHUNK) as usize].next = c;
            c * CHUNK
        } else {
            back + 1
        };
        self.slots[p as usize] = v;
        self.links[front].back = p;
    }

    /// Removes and returns the front entry of queue `q`.
    #[inline]
    pub fn pop_front(&mut self, q: usize) -> Option<T> {
        let h = self.heads[q];
        if h == NIL {
            return None;
        }
        let v = self.slots[h as usize];
        let chunk = h / CHUNK;
        let link = self.links[chunk as usize];
        if h == link.back {
            self.heads[q] = NIL;
            self.release(chunk);
        } else if (h + 1) % CHUNK == 0 {
            self.links[link.next as usize].back = link.back;
            self.heads[q] = link.next * CHUNK;
            self.release(chunk);
        } else {
            self.heads[q] = h + 1;
        }
        Some(v)
    }

    /// Removes the `n` front entries of queue `q`, which holds at least
    /// that many.
    #[inline]
    pub fn pop_front_n(&mut self, q: usize, n: u32) {
        for _ in 0..n {
            self.pop_front(q).expect("popped past the back of a queue");
        }
    }

    /// A cursor at the front of queue `q`, for reading it in order with
    /// [`Fifos::next`] while the pool is otherwise borrowed.
    #[inline]
    pub fn cursor(&self, q: usize) -> Cursor {
        let at = self.heads[q];
        let back = if at == NIL {
            NIL
        } else {
            self.links[(at / CHUNK) as usize].back
        };
        Cursor { at, back }
    }

    /// The entry at `cursor`, which moves on to the next one. The queue
    /// must not have changed since the cursor was taken.
    #[inline]
    pub fn next(&self, cursor: &mut Cursor) -> Option<T> {
        let at = cursor.at;
        if at == NIL {
            return None;
        }
        cursor.at = if at == cursor.back {
            NIL
        } else if (at + 1) % CHUNK == 0 {
            self.links[(at / CHUNK) as usize].next * CHUNK
        } else {
            at + 1
        };
        Some(self.slots[at as usize])
    }

    /// Chunks the pool holds, live and free.
    #[cfg(test)]
    pub fn chunks(&self) -> usize {
        self.links.len()
    }

    /// A chunk for a queue's new back entry `v`, written to its first
    /// slot: a free one if any, else a new one.
    #[inline]
    fn take_chunk(&mut self, v: T) -> u32 {
        let c = self.free;
        if c != NIL {
            self.free = self.links[c as usize].next;
            self.links[c as usize].next = NIL;
            self.slots[(c * CHUNK) as usize] = v;
            return c;
        }
        let c = self.links.len() as u32;
        assert!(c < NIL / CHUNK, "FIFO pool overflow");
        self.links.push(Link {
            next: NIL,
            back: NIL,
        });
        self.slots.resize(self.slots.len() + CHUNK as usize, v);
        c
    }

    /// Returns chunk `c` to the free list.
    #[inline]
    fn release(&mut self, c: u32) {
        self.links[c as usize].next = self.free;
        self.free = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    #[test]
    fn queues_keep_order_across_chunks_and_recycle_them() {
        let mut f = Fifos::with_capacity(2);
        f.push_queue();
        f.push_queue();
        for v in 0..70u32 {
            f.push_back(0, v);
        }
        f.push_back(1, 1000);
        assert_eq!(f.chunks(), 4, "three chunks for 70 entries, one for 1");
        assert_eq!(f.front(0), Some(0));
        assert_eq!(f.back(0), Some(69));
        let mut c = f.cursor(0);
        let read: Vec<u32> = std::iter::from_fn(|| f.next(&mut c)).collect();
        assert_eq!(read, (0..70).collect::<Vec<_>>());
        f.pop_front_n(0, 40);
        assert_eq!(f.front(0), Some(40));
        // The first chunk went back to the pool: refilling queue 1 past
        // its chunk takes it rather than growing the pool.
        for v in 1001..1040 {
            f.push_back(1, v);
        }
        assert_eq!(f.chunks(), 4);
        assert_eq!(f.pop_front(1), Some(1000));
        while f.pop_front(0).is_some() {}
        assert!(f.is_empty(0));
        assert_eq!(f.cursor(0).at, NIL);
        assert_eq!(f.front(1), Some(1001));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of pushes, cursor reads and multi-pops
        /// over a few queues hold exactly what per-queue `VecDeque`s
        /// hold, in order, and the pool never holds more chunks than the
        /// peak over the run of Σ (⌈len / CHUNK⌉ + 1) over the non-empty
        /// queues. (A front that starts mid-chunk is why the bound is
        /// per queue: two entries straddling a chunk boundary need two
        /// chunks.)
        #[test]
        fn fifos_match_a_deque_per_queue(seed in any::<u64>(), ops in 1usize..2_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..8);
            let mut f = Fifos::with_capacity(n);
            let mut oracle: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
            for _ in 0..n {
                f.push_queue();
            }
            let mut next = 0u64;
            let mut peak_bound = 0usize;
            for _ in 0..ops {
                let q = rng.gen_range(0..n);
                match rng.gen_range(0u8..10) {
                    // Bursts, so queues cross chunk boundaries both ways.
                    0..=4 => {
                        for _ in 0..rng.gen_range(1..40) {
                            f.push_back(q, next);
                            oracle[q].push_back(next);
                            next += 1;
                        }
                    }
                    5 | 6 => {
                        let k = rng.gen_range(0..=oracle[q].len()) as u32;
                        f.pop_front_n(q, k);
                        oracle[q].drain(..k as usize);
                    }
                    7 => prop_assert_eq!(f.pop_front(q), oracle[q].pop_front()),
                    _ => {
                        // A train read: a prefix through the cursor.
                        let k = rng.gen_range(0..=oracle[q].len() + 1);
                        let mut c = f.cursor(q);
                        let read: Vec<u64> = (0..k).map_while(|_| f.next(&mut c)).collect();
                        let want: Vec<u64> = oracle[q].iter().copied().take(k).collect();
                        prop_assert_eq!(read, want);
                    }
                }
                let bound: usize = oracle
                    .iter()
                    .filter(|d| !d.is_empty())
                    .map(|d| d.len().div_ceil(CHUNK as usize) + 1)
                    .sum();
                peak_bound = peak_bound.max(bound);
                prop_assert!(
                    f.chunks() <= peak_bound,
                    "{} chunks over a peak bound of {}", f.chunks(), peak_bound
                );
                for (q, d) in oracle.iter().enumerate() {
                    prop_assert_eq!(f.is_empty(q), d.is_empty());
                    prop_assert_eq!(f.front(q), d.front().copied());
                    prop_assert_eq!(f.back(q), d.back().copied());
                }
            }
            for (q, d) in oracle.iter().enumerate() {
                let mut c = f.cursor(q);
                let all: Vec<u64> = std::iter::from_fn(|| f.next(&mut c)).collect();
                prop_assert_eq!(all, d.iter().copied().collect::<Vec<_>>());
            }
        }
    }
}
