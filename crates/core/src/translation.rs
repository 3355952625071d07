//! The address translation table (paper §III-D, Fig. 11).
//!
//! The table bridges the search tree and the tag storage memory: for each
//! tag value the tree can represent, it records the physical address of
//! the **most recently inserted** link carrying that value. Tracking the
//! most recent duplicate is what keeps tree results valid when several
//! packets share a (rounded) tag value, and it is the property that lets
//! the search and storage sides scale independently.
//!
//! The table has one entry per representable tag value, 2^24 at the
//! campaign soak's 6×4 geometry. Its entries live in a
//! [`PagedArray`] from construction, so only pages that hold a live tag
//! take host memory, and a section recycle frees them again.

use faultsim::FaultTarget;
use hwsim::{AccessStats, PagedArray};

use crate::geometry::Geometry;
use crate::tag::Tag;
use crate::tagstore::LinkAddr;

/// Bit position of the entry-presence flag in the fault encoding of a
/// translation entry (`Some(addr)` ⇔ bit 32 set, address in bits 0..32).
const PRESENCE_BIT: u32 = 32;

/// Finalizer of the splitmix64 generator — mixes one entry's
/// `(index, presence, address)` encoding into a 64-bit digest whose
/// XOR over a section is the section's check code. XOR-combining is
/// what makes the code incrementally maintainable: a write updates it
/// as `crc ^= digest(old) ^ digest(new)` without re-reading the
/// section.
fn entry_digest(index: usize, slot: Option<LinkAddr>) -> u64 {
    let Some(addr) = slot else {
        return 0; // empty entries contribute nothing: a fresh section checks as zero
    };
    let mut z = ((index as u64) << (PRESENCE_BIT + 1)) | (1u64 << PRESENCE_BIT) | u64::from(addr.0);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tag value → most-recent link address.
///
/// The table has exactly `B^L` entries (paper: "for each possible tag
/// value that the tree can store, there must be a corresponding entry").
/// They are held in a [`PagedArray`], so host memory follows
/// the live-tag window rather than the tag space: a 2^24-entry table
/// costs a 64 KiB page directory until tags arrive.
///
/// # Example
///
/// ```
/// use tagsort::{Geometry, Tag, TranslationTable, LinkAddr};
///
/// let mut table = TranslationTable::new(Geometry::paper());
/// assert_eq!(table.entries(), 4096);
/// table.set(Tag(5), LinkAddr(42));
/// assert_eq!(table.get(Tag(5)), Some(LinkAddr(42)));
/// table.set(Tag(5), LinkAddr(99)); // a duplicate arrived later
/// assert_eq!(table.get(Tag(5)), Some(LinkAddr(99)));
/// ```
#[derive(Debug, Clone)]
pub struct TranslationTable {
    geometry: Geometry,
    slots: PagedArray<Option<LinkAddr>>,
    stats: AccessStats,
    /// Running per-section check codes (one per top-level section),
    /// updated on every datapath write. [`FaultTarget::inject_fault`]
    /// deliberately bypasses them — a soft error does not update the
    /// checker — which is what lets a scrub pass *detect* damage by
    /// recomputing the code from content and comparing.
    section_crcs: Vec<u64>,
}

impl TranslationTable {
    /// Creates an empty table sized for the geometry's tag space. No
    /// entry page is resident until the first write.
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            slots: PagedArray::new(geometry.translation_entries() as usize),
            stats: AccessStats::new(),
            section_crcs: vec![0; geometry.branching() as usize],
        }
    }

    /// `(resident, peak_resident, total)` entry counts.
    pub fn resident_entries(&self) -> (usize, usize, usize) {
        self.slots.residency()
    }

    /// Number of entries (the paper's `N_T = B^L`).
    pub fn entries(&self) -> usize {
        self.slots.entries()
    }

    /// The geometry the table was sized for.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Memory-access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Resets the access statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Address of the most recent link with value `tag`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit the geometry.
    pub fn get(&mut self, tag: Tag) -> Option<LinkAddr> {
        self.stats.record_read();
        let i = self.index(tag);
        self.slots.get(i)
    }

    /// Records `addr` as the most recent link carrying `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit the geometry.
    pub fn set(&mut self, tag: Tag, addr: LinkAddr) {
        self.stats.record_write();
        let i = self.index(tag);
        self.write_checked(i, Some(addr));
    }

    /// Clears `tag`'s entry (its last instance left the system).
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit the geometry.
    pub fn clear(&mut self, tag: Tag) {
        self.stats.record_write();
        let i = self.index(tag);
        self.write_checked(i, None);
    }

    /// Writes one slot keeping its section's running check code in
    /// step (the datapath write path; fault injection bypasses this).
    fn write_checked(&mut self, index: usize, value: Option<LinkAddr>) {
        let old = self.slots.get(index);
        let section = self.section_of_index(index);
        self.section_crcs[section] ^= entry_digest(index, old) ^ entry_digest(index, value);
        self.slots.set(index, value);
    }

    /// Entries per top-level section.
    fn section_span(&self) -> usize {
        self.slots.entries() / self.geometry.branching() as usize
    }

    fn section_of_index(&self, index: usize) -> usize {
        index / self.section_span()
    }

    /// Clears every entry in one top-level section, mirroring
    /// [`MultiBitTrie::clear_section`](crate::MultiBitTrie::clear_section).
    /// Accounted as a single isolation write, like the tree's bulk delete.
    ///
    /// # Panics
    ///
    /// Panics if `section` is not below the branching factor.
    pub fn clear_section(&mut self, section: u32) {
        assert!(
            section < self.geometry.branching(),
            "section {section} out of range"
        );
        self.stats.record_write();
        let span = self.section_span();
        let start = section as usize * span;
        self.slots.clear_range(start, span);
        // An all-empty section digests to zero.
        self.section_crcs[section as usize] = 0;
    }

    /// Whether `section`'s running check code still matches a fresh
    /// recomputation from content. `false` means a write landed that
    /// did not go through the datapath — i.e. a fault — even if the
    /// damaged entry was later legitimately overwritten (the running
    /// code latched the discrepancy). Out-of-band audit traffic: no
    /// access accounting.
    ///
    /// # Panics
    ///
    /// Panics if `section` is not below the branching factor.
    pub fn verify_section_crc(&self, section: u32) -> bool {
        self.section_crcs[section as usize] == self.computed_section_crc(section)
    }

    /// Re-latches `section`'s running check code onto the current
    /// content — the last step of a repair (or of accepting the content
    /// as the new baseline when no ground truth exists to rebuild from).
    ///
    /// # Panics
    ///
    /// Panics if `section` is not below the branching factor.
    pub fn resync_section_crc(&mut self, section: u32) {
        self.section_crcs[section as usize] = self.computed_section_crc(section);
    }

    fn computed_section_crc(&self, section: u32) -> u64 {
        assert!(
            section < self.geometry.branching(),
            "section {section} out of range"
        );
        let span = self.section_span();
        let start = section as usize * span;
        (start..start + span)
            .map(|i| entry_digest(i, self.slots.get(i)))
            .fold(0, |acc, d| acc ^ d)
    }

    /// Reads `tag`'s entry without access accounting — scrub ground
    /// truth, not a datapath lookup (keeps the Table-I access model
    /// honest while the scrubber audits state out of band).
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit the geometry.
    pub fn peek(&self, tag: Tag) -> Option<LinkAddr> {
        self.slots.get(self.index(tag))
    }

    fn index(&self, tag: Tag) -> usize {
        assert!(
            self.geometry.contains(tag),
            "{tag} does not fit a {}-bit geometry",
            self.geometry.tag_bits()
        );
        tag.value() as usize
    }
}

impl FaultTarget for TranslationTable {
    fn fault_words(&self) -> usize {
        self.slots.entries()
    }

    fn fault_word_bits(&self, _word: usize) -> u32 {
        // 32 address bits plus the presence flag: a flip of bit 32 models
        // an upset in the entry-valid sideband, lower flips hit the
        // stored link address.
        PRESENCE_BIT + 1
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        let encode = |slot: Option<LinkAddr>| match slot {
            Some(a) => (1u64 << PRESENCE_BIT) | u64::from(a.0),
            None => 0,
        };
        let old = encode(self.slots.get(word));
        let new = old ^ mask;
        // A presence-bit flip on a never-materialized entry conjures a
        // bogus `Some(LinkAddr(0))`; the page materializes to hold it.
        self.slots.set(
            word,
            if new >> PRESENCE_BIT & 1 == 1 {
                Some(LinkAddr((new & 0xffff_ffff) as u32))
            } else {
                None
            },
        );
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_ENTRIES: usize = PagedArray::<Option<LinkAddr>>::PAGE;

    #[test]
    fn sized_by_geometry() {
        assert_eq!(TranslationTable::new(Geometry::paper()).entries(), 4096);
        assert_eq!(
            TranslationTable::new(Geometry::paper_wide()).entries(),
            32 * 1024
        );
    }

    #[test]
    fn duplicate_tracking_keeps_most_recent() {
        // Paper Fig. 11: when a second "5" is inserted, the pointer moves
        // from the older link to the newest one.
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(5), LinkAddr(1));
        t.set(Tag(5), LinkAddr(2));
        assert_eq!(t.get(Tag(5)), Some(LinkAddr(2)));
    }

    #[test]
    fn clear_removes_entry() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(9), LinkAddr(3));
        t.clear(Tag(9));
        assert_eq!(t.get(Tag(9)), None);
    }

    #[test]
    fn clear_section_wipes_range() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(0xa00), LinkAddr(1));
        t.set(Tag(0xaff), LinkAddr(2));
        t.set(Tag(0xb00), LinkAddr(3));
        t.clear_section(0xa);
        assert_eq!(t.get(Tag(0xa00)), None);
        assert_eq!(t.get(Tag(0xaff)), None);
        assert_eq!(t.get(Tag(0xb00)), Some(LinkAddr(3)));
    }

    #[test]
    fn stats_count_accesses() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(1), LinkAddr(1));
        let _ = t.get(Tag(1));
        t.clear(Tag(1));
        assert_eq!(t.stats().reads(), 1);
        assert_eq!(t.stats().writes(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_tag_rejected() {
        let mut t = TranslationTable::new(Geometry::paper());
        let _ = t.get(Tag(4096));
    }

    #[test]
    fn peek_reads_without_accounting() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(7), LinkAddr(11));
        let reads_before = t.stats().reads();
        assert_eq!(t.peek(Tag(7)), Some(LinkAddr(11)));
        assert_eq!(t.peek(Tag(8)), None);
        assert_eq!(t.stats().reads(), reads_before);
    }

    #[test]
    fn construction_materializes_no_entry_page() {
        let mut t = TranslationTable::new(Geometry::new(6, 4));
        assert_eq!(t.resident_entries(), (0, 0, 1 << 24));
        t.set(Tag(3), LinkAddr(7));
        let (resident, peak, total) = t.resident_entries();
        assert_eq!((resident, peak), (PAGE_ENTRIES, PAGE_ENTRIES));
        assert_eq!(total, 1 << 24);
        assert_eq!(t.get(Tag(3)), Some(LinkAddr(7)));
    }

    #[test]
    fn section_crc_detects_injected_damage_and_resyncs() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(0xa05), LinkAddr(7));
        assert!(t.verify_section_crc(0xa));
        // The fault path writes behind the checker's back.
        t.inject_fault(0xa05, 0b1);
        assert!(!t.verify_section_crc(0xa));
        for section in 0..16u32 {
            if section != 0xa {
                assert!(t.verify_section_crc(section), "section {section}");
            }
        }
        t.resync_section_crc(0xa);
        assert!(t.verify_section_crc(0xa));
    }

    #[test]
    fn section_crc_latches_damage_across_legitimate_overwrites() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(5), LinkAddr(1));
        t.inject_fault(5, 0b10);
        // A later datapath write replaces the damaged word entirely…
        t.set(Tag(5), LinkAddr(9));
        assert_eq!(t.peek(Tag(5)), Some(LinkAddr(9)));
        // …but the running code latched the unaccounted transition.
        assert!(!t.verify_section_crc(0));
    }

    #[test]
    fn clear_section_resets_its_crc() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(0xa05), LinkAddr(7));
        t.inject_fault(0xaff, 1 << 32);
        assert!(!t.verify_section_crc(0xa));
        t.clear_section(0xa);
        assert!(t.verify_section_crc(0xa), "empty section digests to zero");
    }

    #[test]
    fn section_crc_catches_a_conjured_entry_in_an_unwritten_page() {
        // 16 sections of 2^16 entries, 16 pages each.
        let mut t = TranslationTable::new(Geometry::new(4, 5));
        t.set(Tag(0x3_0005), LinkAddr(4));
        assert!(t.verify_section_crc(3));
        t.inject_fault(0x3_8000, 1 << 32);
        assert_eq!(t.peek(Tag(0x3_8000)), Some(LinkAddr(0)));
        assert!(!t.verify_section_crc(3));
    }

    #[test]
    fn fault_encoding_round_trips_presence_and_address() {
        let mut t = TranslationTable::new(Geometry::paper());
        t.set(Tag(3), LinkAddr(0b101));
        assert_eq!(t.fault_words(), 4096);
        assert_eq!(t.fault_word_bits(3), 33);
        // Address-bit flip: entry stays present with a damaged pointer.
        assert_eq!(t.inject_fault(3, 0b110), (1 << 32) | 0b101);
        assert_eq!(t.peek(Tag(3)), Some(LinkAddr(0b011)));
        // Presence-bit flip: the entry vanishes (a dropped valid bit).
        t.inject_fault(3, 1 << 32);
        assert_eq!(t.peek(Tag(3)), None);
        // Presence-bit flip on an empty entry conjures a bogus pointer.
        t.inject_fault(9, 1 << 32);
        assert_eq!(t.peek(Tag(9)), Some(LinkAddr(0)));
    }
}
