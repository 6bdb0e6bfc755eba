//! Packet records and a recycling arena.

use crate::event::MAX_INDEX;
use epnet_topology::{ChannelId, HostId};

/// No packet: the `next` of a packet without a chained successor, and
/// the wire tail of a channel with nothing on the wire.
pub(crate) const NO_PACKET: u32 = u32::MAX;

/// Index of a live packet in the [`PacketArena`].
///
/// Debug builds carry the slot's allocation generation alongside the
/// index, so a stale id — one held across the packet's `free` — trips a
/// `debug_assert` instead of silently reading whatever packet was
/// recycled into the slot. Release builds keep the bare 4-byte index.
/// Events carry the bare slot; [`PacketArena::id_at`] turns it back
/// into an id, checking in debug builds that the slot is still live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    slot: u32,
    #[cfg(debug_assertions)]
    generation: u32,
}

impl PacketId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.slot as usize
    }

    /// The bare arena slot, as events carry it.
    #[inline]
    pub(crate) fn slot(self) -> u32 {
        self.slot
    }
}

/// Identifier of the message a packet belongs to. Slots recycle once
/// the last packet of a message delivers, so ids are dense over the
/// messages concurrently in flight rather than all messages ever
/// offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageId(pub(crate) u32);

impl MessageId {
    /// Dense index of the message.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw slot, for free-list bookkeeping.
    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// A packet in flight. Messages are segmented into packets of the
/// configured maximum size at injection time (§4.1's 512 KiB messages
/// become a train of packets). 32 bytes, all 4-byte fields.
///
/// Packets launched on a channel while earlier ones are still on its
/// wire form a chain: only the earliest has its `Arrive` in the event
/// queue, and each packet carries its successor's arrival (`next`,
/// `next_seq`, `next_dt`) for its own arrival handler to schedule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    /// Destination host.
    pub dst: HostId,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Owning message; its record holds the offer time.
    pub message: MessageId,
    /// Channel the packet was last launched on (written at launch).
    pub channel: ChannelId,
    /// Arena slot of the next packet on the same wire whose arrival
    /// this packet's arrival schedules, or [`NO_PACKET`].
    pub next: u32,
    /// The sequence number reserved for `next`'s arrival at its launch.
    pub next_seq: u32,
    /// Picoseconds from this packet's arrival to `next`'s.
    pub next_dt: u32,
    /// Inter-switch hops taken so far (diagnostics / tie-breaking).
    pub hops: u8,
    /// Remaining UGAL detour budget (non-minimal routing).
    pub misroutes_left: u8,
}

impl Packet {
    /// A packet about to be injected: on no channel and no wire yet.
    pub fn new(dst: HostId, bytes: u32, message: MessageId, misroutes_left: u8) -> Self {
        Packet {
            dst,
            bytes,
            message,
            channel: ChannelId::new(0),
            next: NO_PACKET,
            next_seq: 0,
            next_dt: 0,
            hops: 0,
            misroutes_left,
        }
    }
}

/// A free-list arena of packets: allocation never moves live packets and
/// completed packets are recycled, keeping memory proportional to the
/// number of packets *in flight* rather than the number simulated.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
    /// Per-slot allocation generation, bumped on alloc and on free, so
    /// an odd generation marks a live slot (debug only).
    #[cfg(debug_assertions)]
    generations: Vec<u32>,
}

impl PacketArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a packet, reusing a retired slot when available.
    pub fn alloc(&mut self, packet: Packet) -> PacketId {
        self.live += 1;
        let slot = if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = packet;
            #[cfg(debug_assertions)]
            {
                let g = &mut self.generations[slot as usize];
                *g = g.wrapping_add(1);
            }
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(
                slot <= MAX_INDEX,
                "more than 2^29 live packets: an event's packet index has 29 bits"
            );
            self.slots.push(packet);
            #[cfg(debug_assertions)]
            self.generations.push(1);
            slot
        };
        PacketId {
            slot,
            #[cfg(debug_assertions)]
            generation: self.generations[slot as usize],
        }
    }

    /// Retires a delivered packet, returning its record. The slot's
    /// generation advances, invalidating any copies of `id` still held.
    pub fn free(&mut self, id: PacketId) -> Packet {
        self.check(id);
        #[cfg(debug_assertions)]
        {
            let g = &mut self.generations[id.slot as usize];
            *g = g.wrapping_add(1);
        }
        self.live -= 1;
        self.free.push(id.slot);
        self.slots[id.index()]
    }

    /// The id of the live packet in `slot`, for an event that carries
    /// the bare slot. Debug builds check that the slot is live.
    #[inline]
    pub fn id_at(&self, slot: u32) -> PacketId {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.generations[slot as usize] % 2 == 1,
            "stale PacketId: slot {slot} is free"
        );
        PacketId {
            slot,
            #[cfg(debug_assertions)]
            generation: self.generations[slot as usize],
        }
    }

    /// Loads the record in `slot` and discards it, so that the access
    /// an upcoming event makes hits the cache.
    #[inline]
    pub fn touch(&self, slot: u32) {
        std::hint::black_box(self.slots[slot as usize].bytes);
    }

    /// Immutable access to a live packet.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        self.check(id);
        &self.slots[id.index()]
    }

    /// Mutable access to a live packet.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.check(id);
        &mut self.slots[id.index()]
    }

    /// Number of live (allocated, not yet freed) packets.
    #[allow(dead_code)] // diagnostic surface, exercised in tests
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live packets.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Debug-build staleness check: the id's generation must match the
    /// slot's current one.
    #[inline]
    fn check(&self, id: PacketId) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.generations[id.slot as usize], id.generation,
            "stale PacketId: slot {} was freed and reallocated",
            id.slot
        );
        let _ = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(bytes: u32) -> Packet {
        Packet::new(HostId::new(1), bytes, MessageId(0), 0)
    }

    #[test]
    fn a_packet_record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Packet>(), 32);
    }

    #[test]
    fn alloc_free_recycles_slots() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(100));
        let b = arena.alloc(pkt(200));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).bytes, 100);
        arena.free(a);
        assert_eq!(arena.live(), 1);
        let c = arena.alloc(pkt(300));
        // Slot reused, no growth.
        assert_eq!(c.index(), a.index());
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.get(b).bytes, 200);
        assert_eq!(arena.get(c).bytes, 300);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(64));
        arena.get_mut(a).hops += 1;
        assert_eq!(arena.get(a).hops, 1);
        let freed = arena.free(a);
        assert_eq!(freed.hops, 1);
    }

    #[test]
    fn capacity_tracks_high_water_mark() {
        let mut arena = PacketArena::new();
        let ids: Vec<PacketId> = (0..10).map(|i| arena.alloc(pkt(i))).collect();
        assert_eq!(arena.capacity(), 10);
        for id in ids {
            arena.free(id);
        }
        for i in 0..10 {
            arena.alloc(pkt(i));
        }
        assert_eq!(arena.capacity(), 10, "slots recycled");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PacketId")]
    fn stale_id_is_caught_in_debug_builds() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(100));
        arena.free(a);
        // The slot was recycled into a different packet; the stale copy
        // of `a` must not silently read it.
        let _b = arena.alloc(pkt(200));
        let _ = arena.get(a);
    }

    #[test]
    fn id_at_recovers_the_live_id() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(100));
        assert_eq!(arena.id_at(a.slot()), a);
        arena.free(a);
        let b = arena.alloc(pkt(200));
        assert_eq!(arena.id_at(b.slot()), b);
        assert_eq!(arena.get(arena.id_at(b.slot())).bytes, 200);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PacketId: slot 0 is free")]
    fn a_freed_slot_is_caught_in_debug_builds() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(100));
        arena.free(a);
        // An event still naming the slot must not read the freed record.
        let _ = arena.id_at(a.slot());
    }
}
