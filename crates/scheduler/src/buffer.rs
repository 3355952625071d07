//! The shared packet buffer (paper Fig. 1, reference \[9\]).
//!
//! Packets entering the scheduler are parked in a shared buffer memory;
//! the sort/retrieve circuit stores only a pointer per packet. The
//! buffer is a slotted memory with a free list — the same allocation
//! discipline as the tag store's empty list, at packet granularity.

use fairq::VirtualTime;
use faultsim::FaultTarget;
use traffic::{FlowId, Packet};

use tagsort::{PacketRef, PACKET_SLOT_BITS};

/// Occupancy statistics of the shared buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Packets currently stored.
    pub occupied: usize,
    /// High-water mark of occupancy.
    pub peak: usize,
    /// Total packets ever stored.
    pub stored: u64,
    /// Packets rejected because the buffer was full.
    pub rejected: u64,
}

impl BufferStats {
    /// Routes these counters into a telemetry snapshot under `prefix`
    /// (keys `{prefix}_occupied`, `_peak`, `_stored`, `_rejected`), so
    /// buffer figures travel in the same deterministic export as the
    /// scheduler's telemetry.
    pub fn export(&self, prefix: &str, snap: &mut telemetry::Snapshot) {
        snap.put(&format!("{prefix}_occupied"), self.occupied as f64);
        snap.put(&format!("{prefix}_peak"), self.peak as f64);
        snap.put(&format!("{prefix}_stored"), self.stored as f64);
        snap.put(&format!("{prefix}_rejected"), self.rejected as f64);
    }
}

/// What the scheduler keeps of a queued packet beside the packet
/// itself: the exact (pre-quantization) rank, the enqueue cycle (the
/// sojourn stamp) and the tag's top-level section. Stored in the
/// packet's own buffer slot, so one access serves both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sideband {
    /// The rank the policy assigned.
    pub finish: VirtualTime,
    /// Cycle-counter reading when the sorter took the tag.
    pub enq_cycle: u64,
    /// The tag's section (its Wrap `SectionCounts` entry).
    pub section: u8,
}

/// One buffer slot: the packet, its sideband, the slot's generation and
/// its flags in one 48-byte record. The sideband fields sit flat beside
/// the packet; a nested struct would pad to 24 bytes and the record to
/// 56.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    pkt: Packet,
    finish: VirtualTime,
    enq_cycle: u64,
    section: u8,
    generation: u8,
    occupied: bool,
    /// Descriptor parity at store time; fault injection leaves it stale.
    parity: bool,
}

const _: () = assert!(PacketBuffer::SLOT_BYTES <= 48);

/// A slotted shared packet buffer with free-list allocation.
///
/// References handed out by [`store`](PacketBuffer::store) are
/// *generational* ([`PacketRef::generation`]): each slot carries a small
/// reuse counter that bumps on every release, so a reference held across
/// `release` no longer silently aliases the slot's next occupant — it is
/// detected and rejected instead.
///
/// Each slot also carries the scheduler's [`Sideband`] for its packet.
/// The sorter stores bare slot indices, and [`take`](PacketBuffer::take)
/// frees a slot by that index, returning packet and sideband together.
///
/// # Example
///
/// ```
/// use scheduler::PacketBuffer;
/// use traffic::{FlowId, Packet, Time};
///
/// let mut buf = PacketBuffer::new(4);
/// let p = Packet { flow: FlowId(0), size_bytes: 64, arrival: Time(0.0), seq: 0 };
/// let r = buf.store(p).expect("space available");
/// assert_eq!(buf.release(r).seq, 0);
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuffer {
    slots: Vec<Slot>,
    free: Vec<u32>,
    stats: BufferStats,
    /// Slots whose descriptor failed its release-time parity check.
    alarms: Vec<u32>,
}

/// The descriptor word faults land in: flow id in the high half, packet
/// length in the low half. Arrival time and sequence number are modeled
/// as control metadata outside the buffer SRAM, so upsets cannot reach
/// them.
fn descriptor(pkt: &Packet) -> u64 {
    (u64::from(pkt.flow.0) << 32) | u64::from(pkt.size_bytes)
}

fn parity(pkt: &Packet) -> bool {
    descriptor(pkt).count_ones() & 1 == 1
}

impl PacketBuffer {
    /// Bytes per slot record: packet, sideband, generation and flags.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

    /// Creates a buffer of `capacity` packet slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds the
    /// [`PACKET_SLOT_BITS`]-bit slot index space.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity <= 1usize << PACKET_SLOT_BITS,
            "capacity exceeds the {PACKET_SLOT_BITS}-bit slot index space"
        );
        Self {
            slots: vec![Slot::default(); capacity],
            free: (0..capacity as u32).rev().collect(),
            stats: BufferStats::default(),
            alarms: Vec::new(),
        }
    }

    /// The occupied slot at bare index `slot`, if any.
    fn occupied(&self, slot: u32) -> Option<&Slot> {
        self.slots.get(slot as usize).filter(|s| s.occupied)
    }

    /// Capacity in packets.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Stores a packet with an empty sideband, returning its
    /// generation-stamped reference, or `None` if full (counted in
    /// [`BufferStats::rejected`]).
    pub fn store(&mut self, pkt: Packet) -> Option<PacketRef> {
        let Some(slot) = self.free.pop() else {
            self.stats.rejected += 1;
            return None;
        };
        let s = &mut self.slots[slot as usize];
        *s = Slot {
            pkt,
            generation: s.generation,
            occupied: true,
            parity: parity(&pkt),
            ..Slot::default()
        };
        self.stats.occupied += 1;
        self.stats.peak = self.stats.peak.max(self.stats.occupied);
        self.stats.stored += 1;
        Some(PacketRef::new(slot, s.generation))
    }

    /// Records the [`Sideband`] of the packet in occupied slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn set_sideband(&mut self, slot: u32, finish: VirtualTime, enq_cycle: u64, section: u8) {
        let s = &mut self.slots[slot as usize];
        assert!(s.occupied, "sideband for an empty slot");
        (s.finish, s.enq_cycle, s.section) = (finish, enq_cycle, section);
    }

    /// Reads a packet without freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if the reference's slot is empty or its generation is
    /// stale (the slot was released, and possibly reused, since the
    /// reference was issued).
    pub fn peek(&self, r: PacketRef) -> &Packet {
        self.try_peek(r).expect("stale packet reference")
    }

    /// Fallible [`peek`](PacketBuffer::peek): `None` for an empty slot
    /// or a stale generation instead of panicking. The degraded-mode
    /// read path for fault-tolerant schedulers.
    pub fn try_peek(&self, r: PacketRef) -> Option<&Packet> {
        self.occupied(r.index())
            .filter(|s| s.generation == r.generation())
            .map(|s| &s.pkt)
    }

    /// The packet in slot `slot` by bare index (any generation), or
    /// `None` if the index is out of range or the slot is empty.
    pub fn peek_slot(&self, slot: u32) -> Option<&Packet> {
        self.occupied(slot).map(|s| &s.pkt)
    }

    /// Removes and returns the packet, freeing its slot and bumping its
    /// generation so outstanding references to it go stale.
    ///
    /// # Panics
    ///
    /// Panics if the reference's slot is empty or its generation is
    /// stale.
    pub fn release(&mut self, r: PacketRef) -> Packet {
        self.try_release(r).expect("stale packet reference")
    }

    /// Fallible [`release`](PacketBuffer::release): `None` for an empty
    /// slot or a stale generation instead of panicking; the buffer is
    /// unchanged in that case.
    pub fn try_release(&mut self, r: PacketRef) -> Option<Packet> {
        self.try_peek(r)?;
        self.take(r.index()).map(|(pkt, _)| pkt)
    }

    /// Frees slot `slot` by bare index — the form the sorter returns —
    /// and returns its packet with its sideband; `None` (buffer
    /// unchanged) if the index is out of range or the slot is empty.
    /// Bumps the generation like [`release`](PacketBuffer::release) and
    /// runs the same descriptor parity check, raising one alarm per
    /// corrupted occupancy.
    pub fn take(&mut self, slot: u32) -> Option<(Packet, Sideband)> {
        let s = self.slots.get_mut(slot as usize).filter(|s| s.occupied)?;
        if parity(&s.pkt) != s.parity {
            self.alarms.push(slot);
        }
        s.occupied = false;
        s.generation = s.generation.wrapping_add(1);
        let sb = Sideband {
            finish: s.finish,
            enq_cycle: s.enq_cycle,
            section: s.section,
        };
        let pkt = s.pkt;
        self.free.push(slot);
        self.stats.occupied -= 1;
        Some((pkt, sb))
    }

    /// Drains the slots whose descriptor failed its release-time parity
    /// check since the last drain. The scheduler treats each as a
    /// detected buffer fault: the packet's flow id or length can no
    /// longer be trusted, so it is dropped rather than served.
    pub fn take_fault_alarms(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.alarms)
    }
}

impl FaultTarget for PacketBuffer {
    fn fault_words(&self) -> usize {
        self.slots.len()
    }

    fn fault_word_bits(&self, _word: usize) -> u32 {
        64 // flow id (32) over length (32)
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        let s = &mut self.slots[word];
        if !s.occupied {
            // An upset in a free slot damages nothing observable; the
            // next store rewrites word and parity together.
            return 0;
        }
        let old = descriptor(&s.pkt);
        let new = old ^ mask;
        s.pkt.flow = FlowId((new >> 32) as u32);
        s.pkt.size_bytes = new as u32;
        // Parity is NOT refreshed — the release-time check is what
        // detects the flip.
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::Time;

    fn pkt(seq: u64) -> Packet {
        Packet {
            flow: FlowId(0),
            size_bytes: 100,
            arrival: Time(0.0),
            seq,
        }
    }

    #[test]
    fn store_and_release_roundtrip() {
        let mut b = PacketBuffer::new(2);
        let r0 = b.store(pkt(0)).unwrap();
        let r1 = b.store(pkt(1)).unwrap();
        assert_ne!(r0, r1);
        assert_eq!(b.peek(r1).seq, 1);
        assert_eq!(b.release(r0).seq, 0);
        assert_eq!(b.release(r1).seq, 1);
        assert_eq!(b.stats().occupied, 0);
        assert_eq!(b.stats().peak, 2);
    }

    #[test]
    fn full_buffer_rejects_and_counts() {
        let mut b = PacketBuffer::new(1);
        let r = b.store(pkt(0)).unwrap();
        assert_eq!(b.store(pkt(1)), None);
        assert_eq!(b.stats().rejected, 1);
        b.release(r);
        assert!(b.store(pkt(2)).is_some(), "freed slot is reusable");
    }

    /// Pins the generational-handle guarantee on [`PacketRef`]: a
    /// reference held across `release` carries the slot's old
    /// generation, so once the slot is reused the stale reference is
    /// *detected* — it no longer silently resolves to the new occupant.
    #[test]
    fn stale_ref_after_release_aliases_the_new_occupant() {
        let mut b = PacketBuffer::new(1);
        let stale = b.store(pkt(7)).unwrap();
        b.release(stale);
        let fresh = b.store(pkt(8)).unwrap();
        // Free-list reuse hands back the same slot index, but under a
        // bumped generation...
        assert_eq!(stale.index(), fresh.index());
        assert_ne!(stale, fresh);
        assert_eq!(fresh.generation(), stale.generation().wrapping_add(1));
        // ...so the stale reference no longer resolves, while the fresh
        // one still does.
        assert_eq!(b.try_peek(stale), None);
        assert_eq!(b.try_release(stale), None);
        assert_eq!(b.peek(fresh).seq, 8);
        assert_eq!(b.release(fresh).seq, 8);
        assert_eq!(b.stats().occupied, 0);
    }

    #[test]
    #[should_panic(expected = "stale packet reference")]
    fn double_release_panics() {
        let mut b = PacketBuffer::new(1);
        let r = b.store(pkt(0)).unwrap();
        b.release(r);
        b.release(r);
    }

    #[test]
    fn injected_fault_trips_the_release_parity_check() {
        let mut b = PacketBuffer::new(4);
        let r = b.store(pkt(3)).unwrap();
        let old = b.inject_fault(r.index() as usize, 1 << 40); // flow-id bit
        assert_eq!(old, 100); // descriptor was flow 0, length 100
                              // The flip is live immediately...
        assert_eq!(b.peek(r).flow, FlowId(1 << 8));
        // ...and detected exactly once, at release.
        let released = b.try_release(r).unwrap();
        assert_eq!(released.flow, FlowId(1 << 8));
        assert_eq!(b.take_fault_alarms(), vec![r.index()]);
        assert_eq!(b.take_fault_alarms(), Vec::<u32>::new());
    }

    #[test]
    fn fault_in_a_free_slot_is_silent_and_store_heals_parity() {
        let mut b = PacketBuffer::new(2);
        assert_eq!(b.inject_fault(1, 0xff), 0);
        let r0 = b.store(pkt(0)).unwrap();
        let r1 = b.store(pkt(1)).unwrap();
        // Slot 1's parity was refreshed by the store, so no alarm.
        b.try_release(r1).unwrap();
        b.try_release(r0).unwrap();
        assert_eq!(b.take_fault_alarms(), Vec::<u32>::new());
    }

    #[test]
    fn even_bit_flips_defeat_buffer_parity() {
        let mut b = PacketBuffer::new(1);
        let r = b.store(pkt(0)).unwrap();
        b.inject_fault(0, 0b11); // two flipped bits keep parity even
        let released = b.try_release(r).unwrap();
        assert_eq!(released.size_bytes, 100 ^ 0b11);
        assert_eq!(b.take_fault_alarms(), Vec::<u32>::new(), "silent by design");
    }

    #[test]
    fn generation_wraps_after_256_reuses() {
        let mut b = PacketBuffer::new(1);
        let first = b.store(pkt(0)).unwrap();
        b.release(first);
        for i in 0..255 {
            let r = b.store(pkt(i)).unwrap();
            b.release(r);
        }
        // 256 releases bring the 8-bit generation back around; the
        // original reference aliases again — the classic ABA residue a
        // small counter cannot eliminate, pinned here as a known limit.
        let reused = b.store(pkt(99)).unwrap();
        assert_eq!(first, reused);
    }
}
