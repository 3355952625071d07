//! Lazily-allocated, page-granular backing store for the translation
//! table — the memory model that lets paper-scale populations fit.
//!
//! The paper sizes the circuit for 8 M sessions; a table with one
//! allocated entry per representable tag value (`B^L`, up to 2^30)
//! would dwarf the tags actually *live* at any instant, which the
//! recycling protocol bounds by the in-flight window.
//! [`PagedTranslationTable`] keeps the exact semantics of a
//! `vec![None; B^L]` while materializing fixed [`PAGE_ENTRIES`]-sized
//! pages only when an entry in them is first written, and dropping
//! pages again when a section recycle wipes their whole span — so
//! resident memory tracks the live-tag window instead of the tag space.
//!
//! The structure is deliberately *just* the slot array: access
//! accounting, geometry checks, and the fault-encoding contract stay in
//! [`TranslationTable`](crate::TranslationTable), which stores its
//! entries here. The `paged_reference` integration test drives it
//! against a plain `Vec<Option<LinkAddr>>` and requires every
//! observation to match.

use crate::tagstore::LinkAddr;

/// Entries per lazily-allocated page (32 KiB of `Option<LinkAddr>` at
/// the current 8-byte entry): small enough that a narrow live-tag window
/// keeps few pages resident, large enough that the page directory stays
/// negligible even for a 2^30-entry tag space.
pub const PAGE_ENTRIES: usize = 4096;

/// A translation-table slot array with lazily-allocated pages.
///
/// Semantically identical to `vec![None; entries]`: reads of
/// never-written entries return `None`, and writes materialize the
/// covering page on demand. [`PagedTranslationTable::clear_range`]
/// additionally *frees* pages whose whole span is wiped, which is what
/// ties resident memory to the live-tag window under section recycling.
///
/// # Example
///
/// ```
/// use tagsort::{LinkAddr, PagedTranslationTable};
///
/// let mut t = PagedTranslationTable::new(1 << 20);
/// assert_eq!(t.resident_entries(), 0); // nothing materialized yet
/// t.set(7, Some(LinkAddr(42)));
/// assert_eq!(t.get(7), Some(LinkAddr(42)));
/// assert_eq!(t.get(8), None);
/// assert!(t.resident_entries() < t.entries());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PagedTranslationTable {
    entries: usize,
    pages: Vec<Option<Box<[Option<LinkAddr>]>>>,
    resident: usize,
    peak_resident: usize,
}

impl PagedTranslationTable {
    /// Creates an all-`None` array of `entries` slots with no pages
    /// resident.
    pub fn new(entries: usize) -> Self {
        Self {
            entries,
            pages: (0..entries.div_ceil(PAGE_ENTRIES)).map(|_| None).collect(),
            resident: 0,
            peak_resident: 0,
        }
    }

    /// Number of addressable entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Entries currently materialized (resident pages × page size).
    pub fn resident_entries(&self) -> usize {
        (self.resident * PAGE_ENTRIES).min(self.entries)
    }

    /// High-water mark of [`PagedTranslationTable::resident_entries`].
    pub fn peak_resident_entries(&self) -> usize {
        (self.peak_resident * PAGE_ENTRIES).min(self.entries)
    }

    /// The entry at `index`; `None` when the covering page was never
    /// materialized (an unwritten entry is empty).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> Option<LinkAddr> {
        assert!(index < self.entries, "entry {index} out of range");
        match &self.pages[index / PAGE_ENTRIES] {
            Some(page) => page[index % PAGE_ENTRIES],
            None => None,
        }
    }

    /// Stores `value` at `index`, materializing the covering page when
    /// needed. Storing `None` into a non-resident page is a no-op (the
    /// page already reads as all-`None`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: Option<LinkAddr>) {
        assert!(index < self.entries, "entry {index} out of range");
        let page = index / PAGE_ENTRIES;
        match (&mut self.pages[page], value) {
            (Some(p), v) => p[index % PAGE_ENTRIES] = v,
            (slot @ None, Some(_)) => {
                let mut p = vec![None; PAGE_ENTRIES].into_boxed_slice();
                p[index % PAGE_ENTRIES] = value;
                *slot = Some(p);
                self.resident += 1;
                self.peak_resident = self.peak_resident.max(self.resident);
            }
            (None, None) => {}
        }
    }

    /// Clears `len` entries starting at `start`. Pages entirely inside
    /// the range are *freed* (resident memory shrinks); pages only
    /// partially covered are cleared entry-by-entry.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the array.
    pub fn clear_range(&mut self, start: usize, len: usize) {
        let end = start.checked_add(len).expect("range overflow");
        assert!(end <= self.entries, "range {start}..{end} out of bounds");
        let mut i = start;
        while i < end {
            let page = i / PAGE_ENTRIES;
            let page_start = page * PAGE_ENTRIES;
            let page_end = (page_start + PAGE_ENTRIES).min(self.entries);
            if i == page_start && end >= page_end {
                // Whole page covered: drop it.
                if self.pages[page].take().is_some() {
                    self.resident -= 1;
                }
                i = page_end;
            } else {
                if let Some(p) = &mut self.pages[page] {
                    for slot in &mut p[i - page_start..end.min(page_end) - page_start] {
                        *slot = None;
                    }
                }
                i = end.min(page_end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_to_none_without_materializing() {
        let t = PagedTranslationTable::new(3 * PAGE_ENTRIES);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(3 * PAGE_ENTRIES - 1), None);
        assert_eq!(t.resident_entries(), 0);
    }

    #[test]
    fn writes_materialize_exactly_one_page() {
        let mut t = PagedTranslationTable::new(3 * PAGE_ENTRIES);
        t.set(PAGE_ENTRIES + 5, Some(LinkAddr(9)));
        assert_eq!(t.get(PAGE_ENTRIES + 5), Some(LinkAddr(9)));
        assert_eq!(t.resident_entries(), PAGE_ENTRIES);
        // Clearing within a resident page keeps the page.
        t.set(PAGE_ENTRIES + 5, None);
        assert_eq!(t.resident_entries(), PAGE_ENTRIES);
        // Writing None to a non-resident page allocates nothing.
        t.set(0, None);
        assert_eq!(t.resident_entries(), PAGE_ENTRIES);
    }

    #[test]
    fn clear_range_frees_whole_pages_and_trims_partials() {
        let mut t = PagedTranslationTable::new(4 * PAGE_ENTRIES);
        for page in 0..4 {
            t.set(page * PAGE_ENTRIES + 42, Some(LinkAddr(page as u32)));
        }
        assert_eq!(t.resident_entries(), 4 * PAGE_ENTRIES);
        assert_eq!(t.peak_resident_entries(), 4 * PAGE_ENTRIES);
        // Covers page 1 fully, pages 0 and 2 partially (last/first 10).
        t.clear_range(PAGE_ENTRIES - 10, PAGE_ENTRIES + 20);
        assert_eq!(t.resident_entries(), 3 * PAGE_ENTRIES);
        assert_eq!(t.get(PAGE_ENTRIES + 42), None);
        assert_eq!(t.get(42), Some(LinkAddr(0)));
        // Page 2's marker sits past the 10 cleared entries, so it stays.
        assert_eq!(t.get(2 * PAGE_ENTRIES + 42), Some(LinkAddr(2)));
        // Peak is a high-water mark; it does not shrink.
        assert_eq!(t.peak_resident_entries(), 4 * PAGE_ENTRIES);
    }

    #[test]
    fn tail_page_may_be_short() {
        let mut t = PagedTranslationTable::new(PAGE_ENTRIES + 7);
        t.set(PAGE_ENTRIES + 6, Some(LinkAddr(1)));
        assert_eq!(t.resident_entries(), PAGE_ENTRIES);
        // The 7-entry tail span covers the whole (short) tail page.
        t.clear_range(PAGE_ENTRIES, 7);
        assert_eq!(t.resident_entries(), 0);
        assert_eq!(t.get(PAGE_ENTRIES + 6), None);
    }
}
