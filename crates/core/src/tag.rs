//! Tag and packet-reference value types.

use std::fmt;

/// A finishing tag: the time stamp a fair-queueing algorithm assigns to a
/// packet, indicating when it should be serviced relative to all others.
///
/// Tags are unsigned values of a configurable width (12 bits in the
/// fabricated circuit, up to 30 in this model); the width is owned by
/// [`Geometry`](crate::Geometry), which validates tags at the circuit
/// boundary.
///
/// # Example
///
/// ```
/// use tagsort::Tag;
/// let t = Tag(0b110110);
/// assert_eq!(t.value(), 54);
/// assert!(Tag(1) < Tag(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(pub u32);

impl Tag {
    /// The raw tag value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// The `bits`-wide literal at `level`, counting level 0 as the root.
    ///
    /// A 12-bit tag searched through 3 levels of 4-bit literals yields
    /// literals `[tag >> 8, (tag >> 4) & 0xf, tag & 0xf]`.
    pub fn literal(self, level: u32, bits: u32, levels: u32) -> u32 {
        debug_assert!(level < levels);
        let shift = (levels - 1 - level) * bits;
        (self.0 >> shift) & ((1 << bits) - 1)
    }
}

impl From<u32> for Tag {
    fn from(v: u32) -> Self {
        Tag(v)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag {}", self.0)
    }
}

impl fmt::Binary for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// A reference into the scheduler's shared packet buffer.
///
/// The sort/retrieve circuit never touches packet payloads; each link in
/// the tag storage memory carries one of these so the packet buffer read
/// control can fetch the right packet when its tag is served (Fig. 1).
///
/// # Generational handles
///
/// A reference packs a 24-bit slot index with an 8-bit *generation*
/// counter in the upper byte. The buffer bumps a slot's generation each
/// time the slot is released, so a held-over reference to a recycled
/// slot no longer silently aliases the new occupant: its stale
/// generation is detectable at the buffer boundary. The silicon's link
/// words store only the slot index (the generation is a bookkeeping
/// sideband of the buffer controller, not of the sort circuit), so
/// references recovered from the tag store carry generation 0 and the
/// scheduler frees their slots by bare index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct PacketRef(pub u32);

/// Width of the slot-index field of a [`PacketRef`] in bits; the
/// generation counter lives in the bits above.
pub const PACKET_SLOT_BITS: u32 = 24;

impl PacketRef {
    /// Builds a reference from a slot index and a generation counter.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not fit [`PACKET_SLOT_BITS`].
    pub fn new(slot: u32, generation: u8) -> Self {
        assert!(
            slot < 1 << PACKET_SLOT_BITS,
            "packet slot {slot} exceeds the {PACKET_SLOT_BITS}-bit index space"
        );
        PacketRef((u32::from(generation) << PACKET_SLOT_BITS) | slot)
    }

    /// The buffer slot index (generation stripped).
    pub fn index(self) -> u32 {
        self.0 & ((1 << PACKET_SLOT_BITS) - 1)
    }

    /// The buffer slot index — alias of [`PacketRef::index`], named for
    /// call sites that contrast slot with generation.
    pub fn slot(self) -> u32 {
        self.index()
    }

    /// The generation counter the reference was issued under.
    pub fn generation(self) -> u8 {
        (self.0 >> PACKET_SLOT_BITS) as u8
    }
}

impl From<u32> for PacketRef {
    fn from(v: u32) -> Self {
        PacketRef(v)
    }
}

impl fmt::Display for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt #{}", self.index())?;
        if self.generation() != 0 {
            write!(f, ".g{}", self.generation())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_extraction_matches_paper_example() {
        // Paper Fig. 4: 6-bit value 110110 split into 2-bit literals.
        let t = Tag(0b110110);
        assert_eq!(t.literal(0, 2, 3), 0b11);
        assert_eq!(t.literal(1, 2, 3), 0b01);
        assert_eq!(t.literal(2, 2, 3), 0b10);
    }

    #[test]
    fn literal_extraction_12_bit_geometry() {
        let t = Tag(0xabc);
        assert_eq!(t.literal(0, 4, 3), 0xa);
        assert_eq!(t.literal(1, 4, 3), 0xb);
        assert_eq!(t.literal(2, 4, 3), 0xc);
    }

    #[test]
    fn tags_order_by_value() {
        let mut v = vec![Tag(5), Tag(1), Tag(3)];
        v.sort();
        assert_eq!(v, vec![Tag(1), Tag(3), Tag(5)]);
    }

    #[test]
    fn display_and_binary() {
        assert_eq!(Tag(54).to_string(), "tag 54");
        assert_eq!(format!("{:b}", Tag(54)), "110110");
        assert_eq!(PacketRef(3).to_string(), "pkt #3");
    }

    #[test]
    fn conversions() {
        assert_eq!(Tag::from(9).value(), 9);
        assert_eq!(PacketRef::from(4).index(), 4);
    }

    #[test]
    fn generational_refs_pack_slot_and_generation() {
        let r = PacketRef::new(300, 7);
        assert_eq!(r.slot(), 300);
        assert_eq!(r.index(), 300);
        assert_eq!(r.generation(), 7);
        assert_eq!(r.to_string(), "pkt #300.g7");
        // Generation 0 is the bare-slot encoding the silicon stores.
        assert_eq!(PacketRef::new(300, 0), PacketRef(300));
        // Same slot, different generation: distinct handles.
        assert_ne!(PacketRef::new(300, 1), PacketRef::new(300, 2));
    }

    #[test]
    #[should_panic(expected = "exceeds the 24-bit index space")]
    fn oversized_slot_rejected() {
        let _ = PacketRef::new(1 << 24, 0);
    }
}
