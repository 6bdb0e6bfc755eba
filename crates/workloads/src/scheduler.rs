//! Shared machinery: the entries of a generator's emission queue and
//! heavy-tail samplers.

use epnet_sim::{Message, Payload};
use rand::rngs::SmallRng;
use rand::Rng;

/// An entry in a generator's emission queue — the engine's
/// [`Scheduler`](epnet_sim::Scheduler), which pops in ascending
/// (time, insertion) order: either a wake-up for a per-host state
/// machine, or a concrete message ready to emit, held in the
/// generator's own slot table. Packs into 32 bits: a 1-bit tag over a
/// 31-bit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Item {
    /// Advance host `h`'s state machine.
    Wake(u32),
    /// Emit the message in this slot of the generator's table.
    Emit(u32),
}

/// Bit marking [`Item::Emit`]; the low 31 bits hold the index.
const EMIT: u32 = 1 << 31;

/// The largest host or message-slot index an [`Item`] can carry.
pub(crate) const MAX_ITEM_INDEX: u32 = EMIT - 1;

impl Payload for Item {
    #[inline]
    fn pack(self) -> u32 {
        match self {
            Item::Wake(h) => {
                debug_assert!(h <= MAX_ITEM_INDEX, "host index {h} exceeds 2^31 - 1");
                h
            }
            Item::Emit(slot) => {
                debug_assert!(
                    slot <= MAX_ITEM_INDEX,
                    "message slot {slot} exceeds 2^31 - 1"
                );
                EMIT | slot
            }
        }
    }

    #[inline]
    fn unpack(bits: u32) -> Self {
        if bits & EMIT == 0 {
            Item::Wake(bits)
        } else {
            Item::Emit(bits & !EMIT)
        }
    }
}

/// Messages waiting in a generator's queue, by slot; slots recycle
/// through a free list once their message is emitted.
#[derive(Debug, Default)]
pub(crate) struct MessageSlots {
    slots: Vec<Message>,
    free: Vec<u32>,
}

impl MessageSlots {
    /// Stores `m`, returning its slot.
    pub(crate) fn insert(&mut self, m: Message) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = m;
            return slot;
        }
        let slot = self.slots.len() as u32;
        assert!(
            slot <= MAX_ITEM_INDEX,
            "more than 2^31 pending messages: a queue item's index has 31 bits"
        );
        self.slots.push(m);
        slot
    }

    /// Takes the message out of `slot`, freeing the slot.
    pub(crate) fn take(&mut self, slot: u32) -> Message {
        self.free.push(slot);
        self.slots[slot as usize]
    }
}

/// Samples an exponential inter-arrival with the given mean, in
/// picoseconds (Poisson process).
pub(crate) fn exp_ps(rng: &mut SmallRng, mean_ps: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean_ps).round().max(1.0) as u64
}

/// Samples a bounded Pareto with shape `alpha` on `[min, max]`, the
/// heavy-tailed distribution behind "bursty over a wide range of
/// timescales" (§3.2).
pub(crate) fn bounded_pareto(rng: &mut SmallRng, alpha: f64, min: f64, max: f64) -> f64 {
    debug_assert!(alpha > 0.0 && min > 0.0 && max > min);
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let la = min.powf(alpha);
    let ha = max.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

/// Mean of the bounded Pareto above (used to calibrate offered load).
pub(crate) fn bounded_pareto_mean(alpha: f64, min: f64, max: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-9 {
        // α = 1: mean = ln(max/min) · min·max/(max−min)
        let l = min;
        let h = max;
        (l * h / (h - l)) * (h / l).ln()
    } else {
        (la(alpha, min, max) * alpha / (alpha - 1.0))
            * (min.powf(1.0 - alpha) - max.powf(1.0 - alpha))
    }
}

fn la(alpha: f64, min: f64, max: f64) -> f64 {
    min.powf(alpha) / (1.0 - (min / max).powf(alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epnet_sim::SimTime;
    use epnet_topology::HostId;
    use rand::SeedableRng;

    #[test]
    fn items_round_trip_through_their_packing() {
        for index in [0, 1, 3_375, MAX_ITEM_INDEX] {
            for item in [Item::Wake(index), Item::Emit(index)] {
                assert_eq!(Item::unpack(item.pack()), item);
            }
        }
    }

    #[test]
    fn message_slots_recycle() {
        let m = |bytes| Message {
            at: SimTime::from_ns(1),
            src: HostId::new(0),
            dst: HostId::new(1),
            bytes,
        };
        let mut slots = MessageSlots::default();
        let a = slots.insert(m(10));
        let b = slots.insert(m(20));
        assert_eq!(slots.take(a).bytes, 10);
        assert_eq!(slots.insert(m(30)), a, "the freed slot is reused");
        assert_eq!(slots.take(b).bytes, 20);
        assert_eq!(slots.take(a).bytes, 30);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mean = 1_000_000.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| exp_ps(&mut rng, mean)).sum();
        let got = sum as f64 / n as f64;
        assert!((got - mean).abs() / mean < 0.05, "mean {got}");
    }

    #[test]
    fn bounded_pareto_stays_in_range_and_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (alpha, min, max) = (1.2, 10.0, 100_000.0);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| bounded_pareto(&mut rng, alpha, min, max))
            .collect();
        assert!(samples.iter().all(|&s| (min..=max).contains(&s)));
        // Heavy tail: the max sample dwarfs the median.
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let top = sorted[sorted.len() - 1];
        assert!(top / median > 100.0, "median {median}, top {top}");
    }

    #[test]
    fn bounded_pareto_mean_matches_samples() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (alpha, min, max) = (1.5, 100.0, 10_000.0);
        let n = 200_000;
        let sum: f64 = (0..n)
            .map(|_| bounded_pareto(&mut rng, alpha, min, max))
            .sum();
        let empirical = sum / n as f64;
        let analytic = bounded_pareto_mean(alpha, min, max);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical}, analytic {analytic}"
        );
    }
}
