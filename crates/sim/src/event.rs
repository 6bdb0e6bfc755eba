//! The engine's events. They queue in a
//! [`Scheduler<Event>`](crate::sched::Scheduler): ascending time, FIFO
//! among simultaneous events.
//!
//! An event packs into 32 bits, a 3-bit tag over a 29-bit channel or
//! packet-slot index, so a scheduler entry is 16 bytes. Fabrics beyond
//! [`MAX_INDEX`] channels, or runs beyond that many live packets, fail
//! loudly where the index is made (`Core::build`, `PacketArena::alloc`).

use crate::sched::Payload;
use epnet_topology::ChannelId;

/// Bits of an event's channel or packet-slot index.
const INDEX_BITS: u32 = 29;

/// The largest channel or packet-slot index an event can carry.
pub(crate) const MAX_INDEX: u32 = (1 << INDEX_BITS) - 1;

/// Events processed by the simulator engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Pull the next message(s) from the traffic source.
    Workload,
    /// A channel finished serializing its current packet.
    TxDone { channel: ChannelId },
    /// The tail of the packet in arena slot `slot` reached the far end
    /// of the channel it crosses (the packet record names the channel).
    Arrive { slot: u32 },
    /// A credit-blocked channel's next pending credit return matures.
    ///
    /// Credit returns themselves are bookkept per channel at arrival
    /// time and applied lazily in `try_tx` — this event exists only to
    /// wake a channel that observed itself blocked, so uncongested
    /// traffic costs no credit events at all.
    CreditWake { channel: ChannelId },
    /// Retry transmission (scheduled when a channel was reconfiguring).
    Retry { channel: ChannelId },
    /// End-of-epoch: run the link-rate controller (§3.3).
    EpochTick,
}

impl Payload for Event {
    #[inline]
    fn pack(self) -> u32 {
        let (tag, index) = match self {
            Event::Workload => (0, 0),
            Event::TxDone { channel } => (1, channel.raw()),
            Event::Arrive { slot } => (2, slot),
            Event::CreditWake { channel } => (3, channel.raw()),
            Event::Retry { channel } => (4, channel.raw()),
            Event::EpochTick => (5, 0),
        };
        debug_assert!(index <= MAX_INDEX, "event index {index} exceeds 2^29 - 1");
        tag << INDEX_BITS | index
    }

    #[inline]
    fn unpack(bits: u32) -> Self {
        let index = bits & MAX_INDEX;
        let channel = ChannelId::new(index);
        match bits >> INDEX_BITS {
            0 => Event::Workload,
            1 => Event::TxDone { channel },
            2 => Event::Arrive { slot: index },
            3 => Event::CreditWake { channel },
            4 => Event::Retry { channel },
            5 => Event::EpochTick,
            tag => unreachable!("event tag {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;
    use crate::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = Scheduler::new();
        q.schedule(SimTime::from_ns(30), Event::EpochTick);
        q.schedule(SimTime::from_ns(10), Event::Workload);
        q.schedule(SimTime::from_ns(20), Event::EpochTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_ns())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = Scheduler::new();
        let t = SimTime::from_ns(5);
        q.schedule(
            t,
            Event::TxDone {
                channel: ChannelId::new(1),
            },
        );
        q.schedule(
            t,
            Event::TxDone {
                channel: ChannelId::new(2),
            },
        );
        q.schedule(
            t,
            Event::TxDone {
                channel: ChannelId::new(3),
            },
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TxDone { channel } => channel.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = Scheduler::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(7), Event::Workload);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// Every event round-trips through its 32-bit packing, at both ends
    /// of the index range.
    #[test]
    fn events_round_trip_through_their_packing() {
        for index in [0, 1, 12_345, MAX_INDEX] {
            let channel = ChannelId::new(index);
            for ev in [
                Event::Workload,
                Event::TxDone { channel },
                Event::Arrive { slot: index },
                Event::CreditWake { channel },
                Event::Retry { channel },
                Event::EpochTick,
            ] {
                assert_eq!(Event::unpack(ev.pack()), ev);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds 2^29 - 1")]
    fn an_index_past_29_bits_is_caught_in_debug_builds() {
        Event::Arrive {
            slot: MAX_INDEX + 1,
        }
        .pack();
    }
}
