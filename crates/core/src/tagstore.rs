//! The tag storage memory (paper §III-C, Figs. 9–10).
//!
//! Tags live in external SRAM as a linked list sorted by value, so the
//! smallest tag — the next packet to serve — is always at the head. A
//! second, *empty* list threaded through the same memory supplies unused
//! links; before it forms, an initialization counter hands out fresh
//! addresses (Fig. 10).
//!
//! Every operation fits the paper's fixed four-clock-cycle schedule of
//! at most two reads and two writes. The schedule is enforced, not
//! merely counted: accesses are issued to a single-port
//! [`hwsim::Sram`] on explicit cycles, and any slot carrying two
//! accesses would fault the simulation.
//!
//! | cycle | [`TagStore::insert`]         | [`TagStore::pop_min`]  | [`TagStore::insert_and_pop`] |
//! |-------|------------------------------|------------------------|------------------------------|
//! | 0     | read free link (alloc)       | read next link (refill head register) | read next link (refill) |
//! | 1     | read predecessor link        | —                      | read predecessor link        |
//! | 2     | write predecessor link       | write freed link onto empty list | write predecessor link |
//! | 3     | write new link               | —                      | write new link (reusing the freed slot) |
//!
//! The combined column is the paper's "simultaneous insert and pop"
//! case: the freed head link is reused for the incoming tag, so the pair
//! of operations still completes in one four-cycle slot.

use std::error::Error;
use std::fmt;

use faultsim::{Detection, DetectionKind, FaultComponent, FaultTarget};
use hwsim::{Clock, Cycle, PortKind, Sram, SramConfig, SramStats};

use crate::geometry::Geometry;
use crate::tag::{PacketRef, Tag};

/// Physical address of a link in the tag storage memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkAddr(pub u32);

impl fmt::Display for LinkAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link @{}", self.0)
    }
}

/// Bit layout of one SRAM link word: `| next | payload | tag |`.
///
/// The paper's links store a tag and a pointer to the next link, plus the
/// packet-buffer pointer the scheduler serves from. All three fields are
/// packed into one SRAM word so an access is one memory operation.
///
/// # Example
///
/// ```
/// use tagsort::{Geometry, StoreLayout};
///
/// // 12-bit tags, room for ~1M links, 24-bit packet references:
/// let l = StoreLayout::new(12, 20, 24);
/// assert_eq!(l.word_bits(), 56);
/// assert_eq!(l.max_capacity(), (1 << 20) - 1); // one code reserved for NIL
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLayout {
    tag_bits: u32,
    ptr_bits: u32,
    payload_bits: u32,
}

impl StoreLayout {
    /// Creates a layout; fields must fit one 64-bit SRAM word.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, tags exceed 30 bits, pointers exceed
    /// 32 bits, or the total exceeds 64 bits.
    pub fn new(tag_bits: u32, ptr_bits: u32, payload_bits: u32) -> Self {
        assert!(
            (1..=30).contains(&tag_bits),
            "tag field must be 1..=30 bits"
        );
        assert!(
            (1..=32).contains(&ptr_bits),
            "pointer field must be 1..=32 bits"
        );
        assert!(
            (1..=32).contains(&payload_bits),
            "payload field must be 1..=32 bits"
        );
        assert!(
            tag_bits + ptr_bits + payload_bits <= 64,
            "link fields exceed one 64-bit word: {tag_bits}+{ptr_bits}+{payload_bits}"
        );
        Self {
            tag_bits,
            ptr_bits,
            payload_bits,
        }
    }

    /// A layout fitting `geometry`'s tags and at least `capacity` links,
    /// spending the slack on payload width (up to 32 bits).
    ///
    /// # Panics
    ///
    /// Panics if the fields cannot fit a 64-bit word.
    pub fn for_geometry(geometry: Geometry, capacity: usize) -> Self {
        let tag_bits = geometry.tag_bits();
        let mut ptr_bits = 1;
        while ((1u64 << ptr_bits) - 1) < capacity as u64 {
            ptr_bits += 1;
        }
        let payload_bits = (64 - tag_bits - ptr_bits).min(32);
        Self::new(tag_bits, ptr_bits, payload_bits)
    }

    /// Total bits used per link word.
    pub fn word_bits(self) -> u32 {
        self.tag_bits + self.ptr_bits + self.payload_bits
    }

    /// Width of the tag field.
    pub fn tag_bits(self) -> u32 {
        self.tag_bits
    }

    /// Width of the next-link pointer field.
    pub fn ptr_bits(self) -> u32 {
        self.ptr_bits
    }

    /// Width of the packet-reference field.
    pub fn payload_bits(self) -> u32 {
        self.payload_bits
    }

    /// Largest capacity this layout can address (one pointer code is the
    /// NIL sentinel).
    pub fn max_capacity(self) -> usize {
        ((1u64 << self.ptr_bits) - 1) as usize
    }

    fn nil(self) -> u64 {
        (1u64 << self.ptr_bits) - 1
    }

    fn pack(self, link: Link) -> u64 {
        debug_assert!(u64::from(link.tag.value()) < (1u64 << self.tag_bits));
        debug_assert!(u64::from(link.payload.index()) < (1u64 << self.payload_bits));
        let next = match link.next {
            Some(a) => {
                debug_assert!(u64::from(a.0) < self.nil());
                u64::from(a.0)
            }
            None => self.nil(),
        };
        u64::from(link.tag.value())
            | (u64::from(link.payload.index()) << self.tag_bits)
            | (next << (self.tag_bits + self.payload_bits))
    }

    fn unpack(self, word: u64) -> Link {
        let tag = Tag((word & ((1u64 << self.tag_bits) - 1)) as u32);
        let payload =
            PacketRef(((word >> self.tag_bits) & ((1u64 << self.payload_bits) - 1)) as u32);
        let next_raw =
            (word >> (self.tag_bits + self.payload_bits)) & ((1u64 << self.ptr_bits) - 1);
        let next = if next_raw == self.nil() {
            None
        } else {
            Some(LinkAddr(next_raw as u32))
        };
        Link { tag, payload, next }
    }
}

/// One entry of the linked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    tag: Tag,
    payload: PacketRef,
    next: Option<LinkAddr>,
}

/// The tag store is full: the initialization counter is exhausted and the
/// empty list holds no links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFullError {
    /// Configured capacity in links.
    pub capacity: usize,
}

impl fmt::Display for StoreFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag storage memory full ({} links)", self.capacity)
    }
}

impl Error for StoreFullError {}

/// External-memory technology for the tag storage (paper §III-C: "the
/// list is implemented off chip, using SRAM. Currently, QDRII and RLD
/// RAM versions are also under development").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryKind {
    /// Single-port SRAM: one access per cycle, the fabricated four-cycle
    /// slot (2 reads then 2 writes).
    #[default]
    SinglePort,
    /// QDR-style memory: independent read and write ports, so the two
    /// reads and two writes overlap into a **two-cycle** slot — doubling
    /// throughput toward the paper's "beyond 40 Gb/s" claim.
    QdrLike,
}

impl MemoryKind {
    /// Cycles per operation slot under this technology.
    pub fn slot_cycles(self) -> u64 {
        match self {
            MemoryKind::SinglePort => 4,
            MemoryKind::QdrLike => 2,
        }
    }
}

/// The sorted linked list of tags in simulated external SRAM.
///
/// See the table in this file's module comment for the cycle
/// schedule. The
/// head link's contents are mirrored in an architectural register, so
/// [`TagStore::peek_min`] — the value feeding the WFQ virtual-time
/// computation of paper eq. (1) — costs no memory access.
///
/// # Example
///
/// ```
/// use tagsort::{Geometry, PacketRef, StoreLayout, Tag, TagStore};
///
/// let mut store = TagStore::with_geometry(Geometry::paper(), 1024);
/// let a15 = store.insert(None, Tag(15), PacketRef(0)).unwrap();
/// let a17 = store.insert(Some(a15), Tag(17), PacketRef(1)).unwrap();
/// // Paper Fig. 9: insert 16 after the link the tree found (15).
/// store.insert(Some(a15), Tag(16), PacketRef(2)).unwrap();
/// assert_eq!(store.peek_min(), Some((Tag(15), PacketRef(0))));
/// let _ = a17;
/// ```
#[derive(Debug, Clone)]
pub struct TagStore {
    layout: StoreLayout,
    capacity: usize,
    kind: MemoryKind,
    sram: Sram,
    clock: Clock,
    /// Cycle offsets for the slot's two reads and two writes.
    schedule: [(usize, u64); 4],
    /// Head-of-sorted-list register: address plus mirrored link contents.
    head: Option<(LinkAddr, Link)>,
    /// Head of the empty list.
    empty_head: Option<LinkAddr>,
    /// Fig. 10 initialization counter: next never-used address.
    init_counter: u32,
    len: usize,
    /// Tolerant mode: out-of-range next-pointers read back from a
    /// corrupted word are sanitized to NIL and logged instead of
    /// faulting, and the sort-order debug assertions (which injected
    /// faults can legitimately violate) are relaxed.
    tolerant: bool,
    /// Structural corruptions seen in tolerant mode, each a
    /// [`DetectionKind::Structural`] detection of the link word at fault.
    corruptions: Vec<Detection>,
}

impl TagStore {
    /// Creates an empty store of `capacity` links with an explicit layout.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds the layout's addressable
    /// range.
    pub fn new(layout: StoreLayout, capacity: usize) -> Self {
        Self::with_memory(layout, capacity, MemoryKind::SinglePort)
    }

    /// Creates an empty store on an explicit memory technology.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds the layout's addressable
    /// range.
    pub fn with_memory(layout: StoreLayout, capacity: usize, kind: MemoryKind) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity <= layout.max_capacity(),
            "capacity {capacity} exceeds layout maximum {}",
            layout.max_capacity()
        );
        let (config, schedule) = match kind {
            // (port index, cycle offset) for [read1, read2, write1, write2].
            MemoryKind::SinglePort => (
                SramConfig::single_port(capacity, layout.word_bits()),
                [(0, 0), (0, 1), (0, 2), (0, 3)],
            ),
            MemoryKind::QdrLike => (
                SramConfig::new(
                    capacity,
                    layout.word_bits(),
                    vec![PortKind::ReadOnly, PortKind::WriteOnly],
                ),
                [(0, 0), (0, 1), (1, 0), (1, 1)],
            ),
        };
        Self {
            layout,
            capacity,
            kind,
            sram: Sram::new(config),
            clock: Clock::new(),
            schedule,
            head: None,
            empty_head: None,
            init_counter: 0,
            len: 0,
            tolerant: false,
            corruptions: Vec::new(),
        }
    }

    /// Creates a store sized for `geometry`'s tags.
    pub fn with_geometry(geometry: Geometry, capacity: usize) -> Self {
        Self::new(StoreLayout::for_geometry(geometry, capacity), capacity)
    }

    /// Creates a store sized for `geometry`'s tags on an explicit memory
    /// technology.
    pub fn with_geometry_and_memory(geometry: Geometry, capacity: usize, kind: MemoryKind) -> Self {
        Self::with_memory(
            StoreLayout::for_geometry(geometry, capacity),
            capacity,
            kind,
        )
    }

    /// Cycles per operation slot (4 single-port, 2 QDR-like).
    pub fn slot_cycles(&self) -> u64 {
        self.kind.slot_cycles()
    }

    /// Configured capacity in links.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored tags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The store's bit layout.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Total cycles consumed so far — every operation costs exactly four.
    pub fn cycles(&self) -> Cycle {
        self.clock.now()
    }

    /// SRAM access statistics.
    pub fn sram_stats(&self) -> SramStats {
        self.sram.stats()
    }

    /// Enables waveform-style tracing of every SRAM access (see
    /// [`hwsim::Sram::enable_tracing`]).
    pub fn enable_tracing(&mut self) {
        self.sram.enable_tracing();
    }

    /// Drains the recorded SRAM events (empty unless tracing is on).
    pub fn take_trace(&mut self) -> Vec<hwsim::SramEvent> {
        self.sram.take_trace()
    }

    /// Enables or disables tolerant mode: a link word whose next-pointer
    /// is out of range, or a chain that outruns the occupancy counter,
    /// truncates the list and is logged as a detection instead of
    /// faulting the simulation.
    pub fn set_tolerant(&mut self, tolerant: bool) {
        self.tolerant = tolerant;
    }

    /// `(resident, peak_resident, total)` link-word counts of the
    /// backing SRAM. Its pages materialize as the initialization counter
    /// hands out fresh addresses, so residency tracks the links actually
    /// used; the store never reads a word the counter has not handed
    /// out, so the lazily-zero reads are unreachable on the datapath.
    pub fn resident_words(&self) -> (usize, usize, usize) {
        self.sram.resident_words()
    }

    /// Drains the store's detections: the parity alarms the SRAM raised
    /// on reads, then the structural corruptions seen in tolerant mode.
    pub fn take_detections(&mut self) -> Vec<Detection> {
        let mut out: Vec<Detection> = self
            .sram
            .take_parity_alarms()
            .into_iter()
            .map(|alarm| Detection {
                component: FaultComponent::TagStore,
                word: Some(alarm.addr),
                cycle: alarm.cycle.value(),
                kind: DetectionKind::Parity,
            })
            .collect();
        out.append(&mut self.corruptions);
        out
    }

    /// Logs a structural corruption of the link word at `addr`.
    fn note_corruption(&mut self, addr: LinkAddr, cycle: Cycle) {
        self.corruptions.push(Detection {
            component: FaultComponent::TagStore,
            word: Some(addr.0 as usize),
            cycle: cycle.value(),
            kind: DetectionKind::Structural,
        });
    }

    /// The smallest tag and its packet reference, from the head register
    /// (no memory access — this feeds the scheduler's eq. (1) every
    /// cycle).
    pub fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        self.head.map(|(_, link)| (link.tag, link.payload))
    }

    /// Address of the head link, if any.
    pub fn head_addr(&self) -> Option<LinkAddr> {
        self.head.map(|(a, _)| a)
    }

    /// The largest stored tag — the tail [`TagStore::pop_max`] would
    /// unlink — found by the same uncharged walk, without unlinking it.
    pub fn peek_max(&self) -> Option<Tag> {
        self.find_tail().map(|(_, (_, tail), _)| tail.tag)
    }

    /// Walks the list to its tail through the uncharged debug port,
    /// returning the tail, its predecessor, and whether the walk was
    /// truncated. The walk is bounded by the occupancy counter: a list
    /// of `len` links has `len - 1` hops, so a walk still going past
    /// that bound is chasing a corrupted pointer cycle and stops there
    /// rather than walk forever.
    #[allow(clippy::type_complexity)]
    fn find_tail(&self) -> Option<(Option<(LinkAddr, Link)>, (LinkAddr, Link), bool)> {
        let mut cur = self.head?;
        let mut prev: Option<(LinkAddr, Link)> = None;
        let mut hops = self.len.saturating_sub(1);
        while let Some(next) = cur.1.next {
            if hops == 0 {
                return Some((prev, cur, true));
            }
            hops -= 1;
            let link = self
                .layout
                .unpack(self.sram.peek(next.0 as usize).expect("valid link address"));
            prev = Some(cur);
            cur = (next, link);
        }
        Some((prev, cur, false))
    }

    /// Inserts `tag` after the link at `prev` (`None` inserts at the
    /// head). `prev` comes from the search tree via the translation
    /// table and must hold a tag ≤ `tag` whose successor's tag is ≥
    /// `tag`; this is guaranteed by the closest-match search and checked
    /// in debug builds.
    ///
    /// Takes exactly one four-cycle slot.
    ///
    /// # Errors
    ///
    /// Returns [`StoreFullError`] if no link is available.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `prev` violates the sort order, and in
    /// all builds if the internal cycle schedule faults the SRAM model.
    pub fn insert(
        &mut self,
        prev: Option<LinkAddr>,
        tag: Tag,
        payload: PacketRef,
    ) -> Result<LinkAddr, StoreFullError> {
        let base = self.clock.now();
        // Read slot 0: allocate (reads the empty list head if the counter
        // is exhausted).
        let addr = self.allocate(base)?;
        let new_addr = addr;
        match prev {
            None => {
                debug_assert!(
                    self.tolerant || self.head.is_none_or(|(_, h)| tag <= h.tag),
                    "head insert with {tag} above current head"
                );
                let link = Link {
                    tag,
                    payload,
                    next: self.head.map(|(a, _)| a),
                };
                // Write slot 3: the new link.
                self.write_slot(base, 3, new_addr, link);
                self.head = Some((new_addr, link));
            }
            Some(prev_addr) => {
                // Read slot 1: the predecessor.
                let mut prev_link = self.read_slot(base, 1, prev_addr);
                debug_assert!(
                    self.tolerant || prev_link.tag <= tag,
                    "insert of {tag} after larger {}",
                    prev_link.tag
                );
                let new_link = Link {
                    tag,
                    payload,
                    next: prev_link.next,
                };
                prev_link.next = Some(new_addr);
                // Write slots 2 and 3: predecessor back, then new link.
                self.write_slot(base, 2, prev_addr, prev_link);
                self.write_slot(base, 3, new_addr, new_link);
                if self.head.map(|(a, _)| a) == Some(prev_addr) {
                    // Keep the head register's mirror coherent.
                    self.head = Some((prev_addr, prev_link));
                }
            }
        }
        self.len += 1;
        self.clock.advance(self.slot_cycles());
        Ok(new_addr)
    }

    /// Removes and returns the smallest tag, its packet reference, and
    /// the address it occupied (so the caller can reconcile the
    /// translation table). The freed link joins the empty list.
    ///
    /// Takes exactly one four-cycle slot.
    ///
    /// # Panics
    ///
    /// Panics if the internal cycle schedule faults the SRAM model.
    pub fn pop_min(&mut self) -> Option<(Tag, PacketRef, LinkAddr)> {
        let base = self.clock.now();
        let (addr, link) = self.head?;
        if self.len == 0 {
            // The occupancy counter says empty while the head register
            // still points at a link: an in-range flipped next-pointer
            // steered the list into a cycle or onto the free chain.
            // The counter lives outside the faultable SRAM, so trust it
            // and stop serving — chasing the phantom chain never ends.
            assert!(
                self.tolerant,
                "tag store head live with zero occupancy (corrupted link chain)"
            );
            self.head = None;
            self.note_corruption(addr, base);
            return None;
        }
        // Read slot 0: refill the head register from the successor link.
        self.head = link.next.map(|next| (next, self.read_slot(base, 0, next)));
        // Write slot 2: thread the freed link onto the empty list.
        self.free_link(base, addr, link);
        self.len -= 1;
        self.clock.advance(self.slot_cycles());
        Some((link.tag, link.payload, addr))
    }

    /// Removes and returns the **largest** tag — the list tail — plus the
    /// address it occupied and the predecessor link (address and tag)
    /// that now ends the list, so the caller can reconcile the
    /// translation table. Among duplicates of the maximum the
    /// most-recently-inserted departs (the tail-most link, since
    /// duplicates sit in insertion order).
    ///
    /// This is the push-out primitive of programmable admission (Alcoz
    /// et al.): evict the lowest-priority queued packet to admit a
    /// higher-priority arrival. The tail search walks the list through
    /// the uncharged debug port — a modeling idealization standing in
    /// for the tail register real PIFO push-out hardware maintains — and
    /// the unlink itself is charged one ordinary slot (predecessor read,
    /// predecessor write, freed-link write).
    ///
    /// # Panics
    ///
    /// Panics if the internal cycle schedule faults the SRAM model.
    #[allow(clippy::type_complexity)]
    pub fn pop_max(&mut self) -> Option<(Tag, PacketRef, LinkAddr, Option<(LinkAddr, Tag)>)> {
        let base = self.clock.now();
        let (prev, (tail_addr, tail_link), truncated) = self.find_tail()?;
        if truncated {
            assert!(
                self.tolerant,
                "tag store tail walk exceeded occupancy (corrupted link chain)"
            );
            self.note_corruption(tail_addr, base);
        }
        let pred = match prev {
            None => {
                // The tail is the head: the list empties.
                self.head = None;
                None
            }
            Some((prev_addr, _)) => {
                // Read slot 1: the predecessor (charged — the peek walk
                // only located it); write slot 2: terminate the list.
                let mut prev_link = self.read_slot(base, 1, prev_addr);
                prev_link.next = None;
                self.write_slot(base, 2, prev_addr, prev_link);
                if self.head.map(|(a, _)| a) == Some(prev_addr) {
                    // Keep the head register's mirror coherent.
                    self.head = Some((prev_addr, prev_link));
                }
                Some((prev_addr, prev_link.tag))
            }
        };
        // Write slot 3: thread the freed tail onto the empty list.
        let mut freed = tail_link;
        freed.next = self.empty_head;
        self.write_slot(base, 3, tail_addr, freed);
        self.empty_head = Some(tail_addr);
        self.len -= 1;
        self.clock.advance(self.slot_cycles());
        Some((tail_link.tag, tail_link.payload, tail_addr, pred))
    }

    /// The paper's simultaneous store + serve: pops the minimum and
    /// inserts `tag` in the *same* four-cycle slot by reusing the freed
    /// head link as the new link's storage.
    ///
    /// Returns the new link's address and the popped entry. On an empty
    /// store this degenerates to a plain insert.
    ///
    /// # Errors
    ///
    /// Returns [`StoreFullError`] only when the store is empty **and**
    /// full — i.e. never in practice, but the signature keeps the
    /// degenerate path honest.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `prev` violates the sort order, and in
    /// all builds if the internal cycle schedule faults the SRAM model.
    #[allow(clippy::type_complexity)]
    pub fn insert_and_pop(
        &mut self,
        prev: Option<LinkAddr>,
        tag: Tag,
        payload: PacketRef,
    ) -> Result<(LinkAddr, Option<(Tag, PacketRef, LinkAddr)>), StoreFullError> {
        let Some((popped_addr, popped_link)) = self.head else {
            let addr = self.insert(prev, tag, payload)?;
            return Ok((addr, None));
        };
        let base = self.clock.now();
        // Read slot 0: refill the head register from the successor.
        self.head = popped_link
            .next
            .map(|next| (next, self.read_slot(base, 0, next)));
        // The freed link is reused directly — no empty-list traffic.
        let new_addr = popped_addr;
        // `prev` may be the link we just popped; the insert then lands at
        // the head of the remaining list (the closest-match guarantee
        // makes the new tag smaller than every remaining tag).
        let effective_prev = if prev == Some(popped_addr) {
            None
        } else {
            prev
        };
        match effective_prev {
            None => {
                debug_assert!(
                    self.tolerant || self.head.is_none_or(|(_, h)| tag <= h.tag),
                    "head insert with {tag} above current head"
                );
                let link = Link {
                    tag,
                    payload,
                    next: self.head.map(|(a, _)| a),
                };
                // Write slot 3: the new link.
                self.write_slot(base, 3, new_addr, link);
                self.head = Some((new_addr, link));
            }
            Some(prev_addr) => {
                // Read slot 1: predecessor; write slots 2–3 follow.
                let mut prev_link = self.read_slot(base, 1, prev_addr);
                debug_assert!(self.tolerant || prev_link.tag <= tag);
                let new_link = Link {
                    tag,
                    payload,
                    next: prev_link.next,
                };
                prev_link.next = Some(new_addr);
                self.write_slot(base, 2, prev_addr, prev_link);
                self.write_slot(base, 3, new_addr, new_link);
                if self.head.map(|(a, _)| a) == Some(prev_addr) {
                    self.head = Some((prev_addr, prev_link));
                }
            }
        }
        self.clock.advance(self.slot_cycles());
        Ok((
            new_addr,
            Some((popped_link.tag, popped_link.payload, popped_addr)),
        ))
    }

    /// Consumes one four-cycle slot without touching the memory — used
    /// when an operation is resolved entirely in the datapath (e.g. an
    /// incoming tag smaller than every stored one being served directly,
    /// cut-through) so that slot accounting stays uniform.
    pub fn pass_slot(&mut self) {
        self.clock.advance(self.slot_cycles());
    }

    /// Walks the sorted list yielding each link's address alongside its
    /// contents, without cycle accounting — scrub ground truth (the
    /// translation-table audit rebuilds "most recent duplicate" pointers
    /// from it), not a datapath walk. At most `len` links are yielded,
    /// as in `find_tail`: a corrupted next-pointer that closes a cycle
    /// ends the walk instead of spinning on it.
    pub fn iter_links(&self) -> impl Iterator<Item = (LinkAddr, Tag, PacketRef)> + '_ {
        let mut cursor = self.head.map(|(a, _)| a);
        std::iter::from_fn(move || {
            let addr = cursor?;
            let link = self
                .layout
                .unpack(self.sram.peek(addr.0 as usize).expect("valid link address"));
            cursor = link.next;
            Some((addr, link.tag, link.payload))
        })
        .take(self.len)
    }

    /// Walks the sorted list without cycle accounting — test/debug
    /// inspection only. Bounded like [`TagStore::iter_links`].
    pub fn iter_sorted(&self) -> impl Iterator<Item = (Tag, PacketRef)> + '_ {
        self.iter_links().map(|(_, tag, payload)| (tag, payload))
    }

    /// Number of links currently on the empty list plus never-used
    /// addresses — Fig. 10 bookkeeping, for tests.
    pub fn free_links(&self) -> usize {
        self.capacity - self.len
    }

    fn allocate(&mut self, base: Cycle) -> Result<LinkAddr, StoreFullError> {
        if (self.init_counter as usize) < self.capacity {
            let addr = LinkAddr(self.init_counter);
            self.init_counter += 1;
            return Ok(addr);
        }
        match self.empty_head {
            Some(addr) => {
                // One read to learn the next free link (Fig. 9 step 1).
                let link = self.read_slot(base, 0, addr);
                self.empty_head = link.next;
                Ok(addr)
            }
            None => Err(StoreFullError {
                capacity: self.capacity,
            }),
        }
    }

    fn free_link(&mut self, base: Cycle, addr: LinkAddr, mut link: Link) {
        link.next = self.empty_head;
        self.write_slot(base, 2, addr, link);
        self.empty_head = Some(addr);
    }

    /// Issues slot access `idx` (0–1 reads, 2–3 writes) relative to the
    /// slot base cycle, on the port/offset the memory technology assigns.
    fn read_slot(&mut self, base: Cycle, idx: usize, addr: LinkAddr) -> Link {
        debug_assert!(idx < 2, "slots 0-1 are reads");
        let (port, offset) = self.schedule[idx];
        let word = self
            .sram
            .read_port(base + offset, port, addr.0 as usize)
            .expect("tag store FSM schedule violated the SRAM port model");
        let mut link = self.layout.unpack(word);
        if self.tolerant {
            if let Some(next) = link.next {
                if next.0 as usize >= self.capacity {
                    // A flipped pointer bit escaped the address range:
                    // truncate the list here rather than chase it.
                    link.next = None;
                    self.note_corruption(addr, base + offset);
                }
            }
        }
        link
    }

    fn write_slot(&mut self, base: Cycle, idx: usize, addr: LinkAddr, link: Link) {
        debug_assert!((2..4).contains(&idx), "slots 2-3 are writes");
        let (port, offset) = self.schedule[idx];
        self.sram
            .write_port(base + offset, port, addr.0 as usize, self.layout.pack(link))
            .expect("tag store FSM schedule violated the SRAM port model");
    }
}

impl FaultTarget for TagStore {
    fn fault_words(&self) -> usize {
        self.capacity
    }

    fn fault_word_bits(&self, _word: usize) -> u32 {
        self.layout.word_bits()
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        // The head register's mirror of the head link is architecturally
        // separate from the SRAM array — an SEU there stays invisible
        // until the damaged word is next read through a port.
        self.sram.corrupt(word, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize) -> TagStore {
        TagStore::with_geometry(Geometry::paper(), capacity)
    }

    #[test]
    fn paper_fig9_insert_sequence() {
        // Fig. 9: a list holding ... 15 -> 17 ...; tag 16 is inserted
        // after 15 in four cycles (two reads, two writes).
        let mut s = store(16);
        let a15 = s.insert(None, Tag(15), PacketRef(0)).unwrap();
        s.insert(Some(a15), Tag(17), PacketRef(1)).unwrap();
        let before = s.cycles();
        let stats_before = s.sram_stats();
        s.insert(Some(a15), Tag(16), PacketRef(2)).unwrap();
        assert_eq!(s.cycles().since(before), 4);
        let stats = s.sram_stats();
        assert_eq!(stats.reads - stats_before.reads, 1); // predecessor read
        assert_eq!(stats.writes - stats_before.writes, 2); // two writes
        let tags: Vec<u32> = s.iter_sorted().map(|(t, _)| t.value()).collect();
        assert_eq!(tags, vec![15, 16, 17]);
    }

    #[test]
    fn every_operation_is_exactly_four_cycles() {
        let mut s = store(64);
        let mut last = s.cycles();
        let a = s.insert(None, Tag(10), PacketRef(0)).unwrap();
        assert_eq!(s.cycles().since(last), 4);
        last = s.cycles();
        s.insert(Some(a), Tag(20), PacketRef(1)).unwrap();
        assert_eq!(s.cycles().since(last), 4);
        last = s.cycles();
        s.pop_min().unwrap();
        assert_eq!(s.cycles().since(last), 4);
        last = s.cycles();
        s.insert_and_pop(None, Tag(5), PacketRef(2)).unwrap();
        assert_eq!(s.cycles().since(last), 4);
    }

    #[test]
    fn pop_serves_ascending_order() {
        let mut s = store(16);
        let a10 = s.insert(None, Tag(10), PacketRef(0)).unwrap();
        let a30 = s.insert(Some(a10), Tag(30), PacketRef(2)).unwrap();
        s.insert(Some(a10), Tag(20), PacketRef(1)).unwrap();
        let _ = a30;
        assert_eq!(
            s.pop_min().map(|(t, p, _)| (t, p)),
            Some((Tag(10), PacketRef(0)))
        );
        assert_eq!(
            s.pop_min().map(|(t, p, _)| (t, p)),
            Some((Tag(20), PacketRef(1)))
        );
        assert_eq!(
            s.pop_min().map(|(t, p, _)| (t, p)),
            Some((Tag(30), PacketRef(2)))
        );
        assert_eq!(s.pop_min(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn peek_min_is_register_only() {
        let mut s = store(16);
        s.insert(None, Tag(42), PacketRef(9)).unwrap();
        let stats = s.sram_stats();
        for _ in 0..100 {
            assert_eq!(s.peek_min(), Some((Tag(42), PacketRef(9))));
        }
        assert_eq!(s.sram_stats(), stats, "peek must not touch memory");
    }

    #[test]
    fn freed_links_are_reused_after_counter_exhausts() {
        // Fig. 10: capacity 4; use all, free some, and keep going.
        let mut s = store(4);
        let mut prev = None;
        for (i, t) in [10u32, 20, 30, 40].iter().enumerate() {
            prev = Some(s.insert(prev, Tag(*t), PacketRef(i as u32)).unwrap());
        }
        assert!(s.insert(prev, Tag(50), PacketRef(4)).is_err());
        s.pop_min().unwrap(); // frees one link
        s.pop_min().unwrap(); // and another
        assert_eq!(s.free_links(), 2);
        // New inserts must reuse the freed addresses.
        let a = s.insert(None, Tag(5), PacketRef(5)).unwrap();
        assert!(a.0 < 4);
        let b = s.insert(Some(a), Tag(6), PacketRef(6)).unwrap();
        assert!(b.0 < 4);
        assert!(s
            .insert(Some(b), Tag(7), PacketRef(7))
            .is_err_and(|e| e.capacity == 4));
        let tags: Vec<u32> = s.iter_sorted().map(|(t, _)| t.value()).collect();
        assert_eq!(tags, vec![5, 6, 30, 40]);
    }

    #[test]
    fn simultaneous_insert_and_pop_reuses_the_freed_link() {
        let mut s = store(8);
        let a10 = s.insert(None, Tag(10), PacketRef(0)).unwrap();
        let a12 = s.insert(Some(a10), Tag(12), PacketRef(1)).unwrap();
        let a20 = s.insert(Some(a12), Tag(20), PacketRef(2)).unwrap();
        let before = s.sram_stats();
        let cycles_before = s.cycles();
        // Insert 15 after link 12 while serving the minimum (10).
        let (new_addr, popped) = s.insert_and_pop(Some(a12), Tag(15), PacketRef(3)).unwrap();
        let after = s.sram_stats();
        assert_eq!(
            popped.map(|(t, p, _)| (t, p)),
            Some((Tag(10), PacketRef(0)))
        );
        // The freed head slot stores the incoming link.
        assert_eq!(new_addr, a10);
        // Two reads (head refill + predecessor), two writes — one slot.
        assert_eq!(after.reads - before.reads, 2);
        assert_eq!(after.writes - before.writes, 2);
        assert_eq!(s.cycles().since(cycles_before), 4);
        let tags: Vec<u32> = s.iter_sorted().map(|(t, _)| t.value()).collect();
        assert_eq!(tags, vec![12, 15, 20]);
        let _ = a20;
    }

    #[test]
    fn insert_and_pop_where_prev_is_the_departing_head() {
        let mut s = store(8);
        let a10 = s.insert(None, Tag(10), PacketRef(0)).unwrap();
        let a30 = s.insert(Some(a10), Tag(30), PacketRef(1)).unwrap();
        // Closest match of 12 is the head (10) itself; 10 departs in the
        // same slot, so 12 becomes the new head (12 < 30 guaranteed).
        let (_, popped) = s.insert_and_pop(Some(a10), Tag(12), PacketRef(2)).unwrap();
        assert_eq!(popped.map(|(t, _, _)| t), Some(Tag(10)));
        let tags: Vec<u32> = s.iter_sorted().map(|(t, _)| t.value()).collect();
        assert_eq!(tags, vec![12, 30]);
        let _ = a30;
    }

    #[test]
    fn insert_and_pop_on_empty_store_is_plain_insert() {
        let mut s = store(8);
        let (addr, popped) = s.insert_and_pop(None, Tag(3), PacketRef(0)).unwrap();
        assert_eq!(popped, None);
        assert_eq!(s.peek_min(), Some((Tag(3), PacketRef(0))));
        let _ = addr;
    }

    #[test]
    fn insert_and_pop_draining_last_element() {
        let mut s = store(8);
        s.insert(None, Tag(10), PacketRef(0)).unwrap();
        let (_, popped) = s.insert_and_pop(None, Tag(4), PacketRef(1)).unwrap();
        assert_eq!(popped.map(|(t, _, _)| t), Some(Tag(10)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek_min(), Some((Tag(4), PacketRef(1))));
    }

    #[test]
    fn duplicates_keep_arrival_order() {
        // §III-C: "The sequential storage nature of the linked list
        // allows a first come first served policy."
        let mut s = store(8);
        let first = s.insert(None, Tag(7), PacketRef(1)).unwrap();
        let second = s.insert(Some(first), Tag(7), PacketRef(2)).unwrap();
        s.insert(Some(second), Tag(7), PacketRef(3)).unwrap();
        let served: Vec<u32> = std::iter::from_fn(|| s.pop_min())
            .map(|(_, p, _)| p.index())
            .collect();
        assert_eq!(served, vec![1, 2, 3]);
    }

    #[test]
    fn qdr_memory_halves_the_slot() {
        // The paper's "QDRII ... under development": independent read and
        // write ports overlap the 2R+2W schedule into two cycles.
        use crate::tagstore::MemoryKind;
        let mut s = TagStore::with_geometry_and_memory(Geometry::paper(), 16, MemoryKind::QdrLike);
        assert_eq!(s.slot_cycles(), 2);
        let before = s.cycles();
        let a10 = s.insert(None, Tag(10), PacketRef(0)).unwrap();
        assert_eq!(s.cycles().since(before), 2);
        let before = s.cycles();
        s.insert(Some(a10), Tag(20), PacketRef(1)).unwrap();
        assert_eq!(s.cycles().since(before), 2);
        let before = s.cycles();
        s.insert_and_pop(Some(a10), Tag(15), PacketRef(2)).unwrap();
        assert_eq!(s.cycles().since(before), 2);
        let before = s.cycles();
        s.pop_min().unwrap();
        assert_eq!(s.cycles().since(before), 2);
        let tags: Vec<u32> = s.iter_sorted().map(|(t, _)| t.value()).collect();
        assert_eq!(tags, vec![20]);
    }

    #[test]
    fn qdr_functionally_identical_to_single_port() {
        use crate::tagstore::MemoryKind;
        let mut sp = TagStore::with_geometry(Geometry::paper(), 64);
        let mut qd = TagStore::with_geometry_and_memory(Geometry::paper(), 64, MemoryKind::QdrLike);
        // Descending head inserts followed by interleaved pops exercise
        // every path (alloc, head insert, free list, refill) on both
        // technologies identically.
        for (i, t) in (0..50u32).rev().enumerate() {
            sp.insert(None, Tag(t * 80), PacketRef(i as u32)).unwrap();
            qd.insert(None, Tag(t * 80), PacketRef(i as u32)).unwrap();
            if i % 3 == 2 {
                assert_eq!(
                    sp.pop_min().map(|(t, p, _)| (t, p)),
                    qd.pop_min().map(|(t, p, _)| (t, p))
                );
            }
        }
        let a: Vec<_> = sp.iter_sorted().collect();
        let b: Vec<_> = qd.iter_sorted().collect();
        assert_eq!(a, b);
        // Same accesses, half the cycles.
        assert_eq!(sp.sram_stats().accesses(), qd.sram_stats().accesses());
        assert_eq!(sp.cycles().value(), 2 * qd.cycles().value());
    }

    #[test]
    fn layout_roundtrip() {
        let l = StoreLayout::new(12, 20, 24);
        for link in [
            Link {
                tag: Tag(0),
                payload: PacketRef(0),
                next: None,
            },
            Link {
                tag: Tag(4095),
                payload: PacketRef((1 << 24) - 1),
                next: Some(LinkAddr((1 << 20) - 2)),
            },
            Link {
                tag: Tag(1234),
                payload: PacketRef(567),
                next: Some(LinkAddr(0)),
            },
        ] {
            assert_eq!(l.unpack(l.pack(link)), link);
        }
    }

    #[test]
    fn layout_for_headline_capacity() {
        // §IV: 30 million packets in external SRAM with 12-bit tags.
        let l = StoreLayout::for_geometry(Geometry::paper(), 30_000_000);
        assert!(l.max_capacity() >= 30_000_000);
        assert!(l.word_bits() <= 64);
        assert!(l.payload_bits >= 24, "payload field too narrow");
    }

    #[test]
    #[should_panic(expected = "exceeds layout maximum")]
    fn capacity_beyond_layout_rejected() {
        let _ = TagStore::new(StoreLayout::new(12, 4, 8), 16);
    }

    #[test]
    fn full_error_is_informative() {
        assert_eq!(
            StoreFullError { capacity: 4 }.to_string(),
            "tag storage memory full (4 links)"
        );
    }

    #[test]
    fn tolerant_mode_truncates_corrupted_next_pointers() {
        let mut s = store(8);
        s.set_tolerant(true);
        let a10 = s.insert(None, Tag(10), PacketRef(0)).unwrap();
        let a20 = s.insert(Some(a10), Tag(20), PacketRef(1)).unwrap();
        s.insert(Some(a20), Tag(30), PacketRef(2)).unwrap();
        // Smash 20's next-pointer field out of range: 20's next is link 2,
        // and 0b0010 ^ 0b1011 = 0b1001 = 9, past capacity 8 but short of
        // the NIL code 15 (an odd flip count, so parity trips too).
        let ptr_shift = s.layout.tag_bits() + s.layout.payload_bits();
        s.inject_fault(a20.0 as usize, 0b1011 << ptr_shift);
        // Popping 10 refills the head register with 20's word in read slot 0.
        let read_at = s.cycles().value() + s.schedule[0].1;
        assert_eq!(s.pop_min().map(|(t, _, _)| t), Some(Tag(10)));
        // The read of 20's word sanitizes the pointer: list ends there.
        assert_eq!(s.pop_min().map(|(t, _, _)| t), Some(Tag(20)));
        assert_eq!(s.pop_min(), None);
        let found = s.take_detections();
        let structural: Vec<&Detection> = found
            .iter()
            .filter(|d| d.kind == DetectionKind::Structural)
            .collect();
        assert_eq!(
            structural,
            [&Detection {
                component: FaultComponent::TagStore,
                word: Some(a20.0 as usize),
                cycle: read_at,
                kind: DetectionKind::Structural,
            }]
        );
        // The two damaged-word reads also tripped parity.
        assert!(found.iter().any(|d| d.kind == DetectionKind::Parity));
        assert!(s.take_detections().is_empty());
    }

    #[test]
    fn fault_target_exposes_link_words() {
        let mut s = store(8);
        assert_eq!(s.fault_words(), 8);
        assert_eq!(s.fault_word_bits(0), s.layout.word_bits());
        s.insert(None, Tag(10), PacketRef(0)).unwrap();
        // Tag bit 0 flip: the stored word changes, the head register's
        // mirror does not — the upset is latent until the word is re-read.
        s.inject_fault(0, 1);
        assert_eq!(s.peek_min(), Some((Tag(10), PacketRef(0))));
        let (tag, _) = s.iter_sorted().next().unwrap();
        assert_eq!(tag, Tag(11));
    }
}
