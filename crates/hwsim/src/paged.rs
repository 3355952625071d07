//! A lazily paged array: the host-memory model of the modeled memories.
//!
//! The paper sizes its memories for millions of sessions. An array with
//! one allocated entry per address would dwarf the entries actually live
//! at any instant, so the [`Sram`](crate::Sram) word array and the sort
//! circuit's translation table both keep their entries here: pages of
//! [`PagedArray::PAGE`] entries materialize on the first write of a
//! non-empty value, and a range clear that covers a whole page frees it
//! again. Host-resident memory therefore tracks the live entries, not
//! the configured length.

/// An array of `len` entries of `T` that reads as all
/// [`T::default()`](Default::default) (the *empty* value) and allocates
/// page by page as entries are written.
///
/// Semantically identical to `vec![T::default(); len]`; residency is the
/// only visible difference.
///
/// # Example
///
/// ```
/// use hwsim::PagedArray;
///
/// let mut a: PagedArray<u64> = PagedArray::new(1 << 20);
/// assert_eq!(a.residency(), (0, 0, 1 << 20)); // nothing materialized yet
/// a.set(7, 42);
/// assert_eq!((a.get(7), a.get(8)), (42, 0));
/// assert_eq!(a.residency().0, PagedArray::<u64>::PAGE);
/// ```
#[derive(Debug, Clone)]
pub struct PagedArray<T> {
    len: usize,
    pages: Vec<Option<Box<[T]>>>,
    resident: usize,
    peak: usize,
}

impl<T: Copy + Default + PartialEq> PagedArray<T> {
    /// Entries per lazily allocated page: small enough that a narrow
    /// live window keeps few pages resident, large enough that the page
    /// directory stays negligible even for a 2^30-entry array.
    pub const PAGE: usize = 4096;

    /// Creates an all-empty array of `len` entries with no page resident.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            pages: vec![None; len.div_ceil(Self::PAGE)],
            resident: 0,
            peak: 0,
        }
    }

    /// Number of addressable entries.
    pub fn entries(&self) -> usize {
        self.len
    }

    /// `(resident, peak_resident, total)` entry counts: resident pages
    /// (now and at the high-water mark) times the page size, capped at
    /// the length.
    pub fn residency(&self) -> (usize, usize, usize) {
        let cap = |pages: usize| (pages * Self::PAGE).min(self.len);
        (cap(self.resident), cap(self.peak), self.len)
    }

    /// The entry at `index`; empty when its page was never materialized.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> T {
        assert!(index < self.len, "entry {index} out of range");
        match &self.pages[index / Self::PAGE] {
            Some(page) => page[index % Self::PAGE],
            None => T::default(),
        }
    }

    /// Stores `value` at `index`, materializing the covering page when
    /// needed. Storing the empty value into an absent page is a no-op
    /// (the page already reads as empty).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: T) {
        assert!(index < self.len, "entry {index} out of range");
        let slot = &mut self.pages[index / Self::PAGE];
        match slot {
            Some(page) => page[index % Self::PAGE] = value,
            None if value == T::default() => {}
            None => {
                let mut page = vec![T::default(); Self::PAGE].into_boxed_slice();
                page[index % Self::PAGE] = value;
                *slot = Some(page);
                self.resident += 1;
                self.peak = self.peak.max(self.resident);
            }
        }
    }

    /// Empties `len` entries starting at `start`. Pages entirely inside
    /// the range are *freed* (resident memory shrinks); pages only
    /// partially covered are emptied entry by entry.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the array.
    pub fn clear_range(&mut self, start: usize, len: usize) {
        let end = start.checked_add(len).expect("range overflow");
        assert!(end <= self.len, "range {start}..{end} out of bounds");
        let mut i = start;
        while i < end {
            let page = i / Self::PAGE;
            let page_start = page * Self::PAGE;
            let page_end = (page_start + Self::PAGE).min(self.len);
            if i == page_start && end >= page_end {
                // Whole page covered: drop it.
                if self.pages[page].take().is_some() {
                    self.resident -= 1;
                }
            } else if let Some(p) = &mut self.pages[page] {
                p[i - page_start..end.min(page_end) - page_start].fill(T::default());
            }
            i = end.min(page_end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = PagedArray::<u64>::PAGE;

    #[test]
    fn reads_default_to_empty_without_materializing() {
        let a: PagedArray<u64> = PagedArray::new(3 * PAGE);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(3 * PAGE - 1), 0);
        assert_eq!(a.residency().0, 0);
    }

    #[test]
    fn writes_materialize_exactly_one_page() {
        let mut a = PagedArray::new(3 * PAGE);
        a.set(PAGE + 5, Some(9u32));
        assert_eq!(a.get(PAGE + 5), Some(9));
        assert_eq!(a.residency().0, PAGE);
        // Emptying an entry of a resident page keeps the page.
        a.set(PAGE + 5, None);
        assert_eq!(a.residency().0, PAGE);
        // Writing the empty value into an absent page allocates nothing.
        a.set(0, None);
        assert_eq!(a.residency().0, PAGE);
    }

    #[test]
    fn clear_range_frees_whole_pages_and_trims_partials() {
        let mut a = PagedArray::new(4 * PAGE);
        for page in 0..4 {
            a.set(page * PAGE + 42, page as u64 + 1);
        }
        assert_eq!(a.residency(), (4 * PAGE, 4 * PAGE, 4 * PAGE));
        // Covers page 1 fully, pages 0 and 2 partially (last/first 10).
        a.clear_range(PAGE - 10, PAGE + 20);
        assert_eq!(a.get(PAGE + 42), 0);
        assert_eq!(a.get(42), 1);
        // Page 2's entry sits past the 10 cleared entries, so it stays.
        assert_eq!(a.get(2 * PAGE + 42), 3);
        // Peak is a high-water mark; it does not shrink.
        assert_eq!(a.residency(), (3 * PAGE, 4 * PAGE, 4 * PAGE));
    }

    #[test]
    fn tail_page_may_be_short() {
        let mut a = PagedArray::new(PAGE + 7);
        a.set(PAGE + 6, 1u64);
        assert_eq!(a.residency().0, PAGE);
        // The 7-entry tail span covers the whole (short) tail page.
        a.clear_range(PAGE, 7);
        assert_eq!(a.residency().0, 0);
        assert_eq!(a.get(PAGE + 6), 0);
    }
}
