//! The paged translation-table store against plain-array reference
//! models.
//!
//! The translation table keeps one entry per representable tag value in
//! a [`PagedArray`], which materializes pages on first write and frees
//! them when a range clear covers them. Its contract is that of a
//! `vec![None; entries]`, with residency as the only visible
//! difference. Random op programs drive the paged store and a plain
//! `Vec<Option<LinkAddr>>` side by side, and every observation must
//! match: reads, peeks, fault-injection return values, and the resident
//! page count of a page-granular model.

use faultsim::FaultTarget;
use hwsim::PagedArray;
use proptest::prelude::*;
use tagsort::{Geometry, LinkAddr, Tag, TranslationTable};

/// The store behind the translation table.
type PagedTranslationTable = PagedArray<Option<LinkAddr>>;
const PAGE_ENTRIES: usize = PagedTranslationTable::PAGE;

/// Three full pages and a short tail page.
const ENTRIES: usize = 3 * PAGE_ENTRIES + 100;

/// Which pages a page-granular store must hold, given the writes and
/// range clears applied to it.
struct PageModel {
    resident: Vec<bool>,
    peak: usize,
}

impl PageModel {
    fn new(entries: usize) -> Self {
        Self {
            resident: vec![false; entries.div_ceil(PAGE_ENTRIES)],
            peak: 0,
        }
    }

    fn write(&mut self, index: usize) {
        self.resident[index / PAGE_ENTRIES] = true;
        self.peak = self.peak.max(self.count());
    }

    /// A range clear frees exactly the pages it covers whole.
    fn clear(&mut self, start: usize, end: usize, entries: usize) {
        for (page, resident) in self.resident.iter_mut().enumerate() {
            let page_start = page * PAGE_ENTRIES;
            let page_end = (page_start + PAGE_ENTRIES).min(entries);
            if start <= page_start && page_end <= end {
                *resident = false;
            }
        }
    }

    fn count(&self) -> usize {
        self.resident.iter().filter(|&&r| r).count()
    }

    /// `(resident, peak)` entries, as the store reports them.
    fn entries(&self, entries: usize) -> (usize, usize) {
        (
            (self.count() * PAGE_ENTRIES).min(entries),
            (self.peak * PAGE_ENTRIES).min(entries),
        )
    }
}

/// `(op, index, len, address)`; ops 0–1 store an address, 2 stores
/// `None`, 3 clears a range, 4 reads.
fn store_program() -> impl Strategy<Value = Vec<(u8, usize, usize, u32)>> {
    proptest::collection::vec(
        (
            0u8..5,
            0usize..ENTRIES,
            0usize..2 * PAGE_ENTRIES,
            0u32..1 << 20,
        ),
        1..300,
    )
}

/// `(op, tag, section, mask)` over a 2^15-entry table of 8 sections:
/// 0–1 set, 2 clear, 3 get, 4 peek, 5 clear a section, 6 inject a
/// fault, 7 resync a section's check code.
fn table_program() -> impl Strategy<Value = Vec<(u8, u32, u32, u64)>> {
    proptest::collection::vec((0u8..8, 0u32..1 << 15, 0u32..8, 1u64..1 << 33), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paged store is `vec![None; entries]` with residency.
    #[test]
    fn paged_store_matches_a_plain_vector(program in store_program()) {
        let mut paged = PagedTranslationTable::new(ENTRIES);
        let mut model: Vec<Option<LinkAddr>> = vec![None; ENTRIES];
        let mut pages = PageModel::new(ENTRIES);
        for (op, index, len, addr) in program {
            match op {
                0 | 1 => {
                    paged.set(index, Some(LinkAddr(addr)));
                    model[index] = Some(LinkAddr(addr));
                    pages.write(index);
                }
                2 => {
                    // Storing `None` into an unwritten page allocates nothing.
                    paged.set(index, None);
                    model[index] = None;
                }
                3 => {
                    let len = len.min(ENTRIES - index);
                    paged.clear_range(index, len);
                    model[index..index + len].fill(None);
                    pages.clear(index, index + len, ENTRIES);
                }
                _ => prop_assert_eq!(paged.get(index), model[index]),
            }
            let (resident, peak, total) = paged.residency();
            prop_assert_eq!((resident, peak), pages.entries(ENTRIES));
            prop_assert_eq!(total, ENTRIES);
        }
        prop_assert_eq!(paged.entries(), ENTRIES);
        for (i, want) in model.iter().enumerate() {
            prop_assert_eq!(paged.get(i), *want, "entry {}", i);
        }
    }

    /// `TranslationTable` over its paged store is the plain table:
    /// datapath reads, peeks and fault injection all observe the
    /// reference vector, and the section check codes flag exactly the
    /// damage the datapath did not write.
    #[test]
    fn translation_table_matches_a_plain_vector(program in table_program()) {
        let geometry = Geometry::new(3, 5);
        let span = 1usize << 12;
        let mut table = TranslationTable::new(geometry);
        let mut model: Vec<Option<LinkAddr>> = vec![None; 1 << 15];
        // Sections holding damage the datapath did not write.
        let mut damaged = [false; 8];
        let mut reads = 0;
        let encode = |slot: Option<LinkAddr>| slot.map_or(0, |a| (1u64 << 32) | u64::from(a.0));
        for (op, tag, section, mask) in program {
            let i = tag as usize;
            match op {
                0 | 1 => {
                    let addr = LinkAddr((mask & 0xffff_ffff) as u32);
                    table.set(Tag(tag), addr);
                    model[i] = Some(addr);
                }
                2 => {
                    table.clear(Tag(tag));
                    model[i] = None;
                }
                3 => {
                    reads += 1;
                    prop_assert_eq!(table.get(Tag(tag)), model[i]);
                }
                4 => prop_assert_eq!(table.peek(Tag(tag)), model[i]),
                5 => {
                    table.clear_section(section);
                    let start = section as usize * span;
                    model[start..start + span].fill(None);
                    damaged[section as usize] = false;
                }
                6 => {
                    let old = encode(model[i]);
                    prop_assert_eq!(table.inject_fault(i, mask), old);
                    let new = old ^ mask;
                    model[i] = (new >> 32 & 1 == 1).then_some(LinkAddr(new as u32));
                    if encode(model[i]) != old && !damaged[i / span] {
                        damaged[i / span] = true;
                        prop_assert!(!table.verify_section_crc((i / span) as u32));
                    }
                }
                _ => {
                    table.resync_section_crc(section);
                    damaged[section as usize] = false;
                }
            }
            // The sections this op touched stay clean unless damaged.
            for s in [i / span, section as usize] {
                if !damaged[s] {
                    prop_assert!(table.verify_section_crc(s as u32), "section {}", s);
                }
            }
        }
        for (s, &hit) in damaged.iter().enumerate() {
            prop_assert!(hit || table.verify_section_crc(s as u32), "section {}", s);
        }
        prop_assert_eq!(table.stats().reads(), reads);
        for (i, want) in model.iter().enumerate() {
            prop_assert_eq!(table.peek(Tag(i as u32)), *want, "entry {}", i);
        }
        let (resident, peak, total) = table.resident_entries();
        prop_assert!(resident <= peak && peak <= total && total == 1 << 15);
    }
}
