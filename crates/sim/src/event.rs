//! The engine's event queue: a thin, event-typed wrapper over the
//! calendar-queue [`crate::sched::Scheduler`] (ascending time, FIFO
//! among simultaneous events).

use crate::packet::PacketId;
use crate::sched::Scheduler;
use crate::SimTime;
use epnet_topology::ChannelId;

/// Events processed by the simulator engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Pull the next message(s) from the traffic source.
    Workload,
    /// A channel finished serializing its current packet.
    TxDone { channel: ChannelId },
    /// A packet's tail reached the far end of a channel.
    Arrive {
        channel: ChannelId,
        packet: PacketId,
    },
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

/// The event queue.
#[derive(Debug)]
pub(crate) struct EventQueue {
    sched: Scheduler<Event>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_hint(0)
    }

    /// An empty queue pre-sized for a topology of `num_channels`
    /// channels (each busy channel keeps one or two events in flight).
    /// Sizing never changes pop order — see [`Scheduler::with_hint`].
    pub fn with_hint(num_channels: usize) -> Self {
        Self {
            sched: Scheduler::with_hint(num_channels),
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.sched.schedule(at, event);
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.sched.pop()
    }

    /// Earliest scheduled time, if any (`&mut`: the calendar may
    /// advance its day cursor while peeking).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.sched.peek_time()
    }

    /// Number of pending events.
    #[allow(dead_code)] // diagnostic surface, exercised in tests
    pub fn len(&self) -> usize {
        self.sched.len()
    }

    /// Whether the queue is empty.
    #[allow(dead_code)] // diagnostic surface, exercised in tests
    pub fn is_empty(&self) -> bool {
        self.sched.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(7), Event::Workload);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
