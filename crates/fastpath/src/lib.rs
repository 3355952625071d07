//! The software fast path: a flat find-first-set sorter.
//!
//! Eiffel (Saeed et al.) observes that the bucketed priority queue the
//! paper fabricates — occupancy bits over tag buckets, searched for the
//! first set bit — maps directly onto modern CPUs: pack the occupancy
//! bits into `u64` words, summarize 64 words per word up a shallow
//! hierarchy, and *find-first-set* (`u64::trailing_zeros`, one
//! instruction) walks to the minimum tag in a handful of cache lines.
//! [`FfsSorter`] is that design, implementing
//! [`tagsort::SortBackend`] with semantics *identical* to the paper's
//! trie circuit:
//!
//! * ascending tag order with FIFO service among duplicates (the
//!   circuit's FCFS tie-break via per-bucket linked lists);
//! * one storage slot of [`tagsort::MemoryKind::slot_cycles`] modeled cycles per
//!   insert and per pop, so a scheduler driving it produces the same
//!   sojourn stamps as one driving the circuit;
//! * the same wrap contract: under [`CleanupPolicy::Lazy`] inserts
//!   below the live minimum (or below the stale-marker maximum when
//!   drained) are rejected, and [`FfsSorter::recycle_section`]
//!   bulk-clears a wrapped top-level section (Fig. 6);
//! * the same fault surface shape: the occupancy hierarchy is an
//!   addressable word array ([`faultsim::FaultTarget`], attached as
//!   [`FaultComponent::Trie`]); there is no translation table or
//!   external SRAM to corrupt, so those components are rejected with a
//!   structured [`FaultAttachError`]. In tolerant mode, corrupted
//!   occupancy words degrade to logged [`Detection`]s and
//!   self-healing searches instead of panics, and
//!   [`FfsSorter::scrub`] audits occupancy words against the
//!   buckets' ground truth exactly as the circuit's scrubber audits the
//!   trie against the translation table.
//!
//! The layout is cache-conscious: the hot pop path touches one `u64`
//! per hierarchy level (at the paper's 12-bit geometry: two words) plus
//! one interleaved `(head, tail)` bucket pair and one arena node.
//!
//! Memory is `O(tag_space)` for buckets and leaf occupancy — the same
//! scaling as the circuit's translation table, and a few MiB for every
//! geometry the repo exercises.
//!
//! Sequence identity with the trie backend (and the heap oracle) on
//! arbitrary seeded workloads is enforced by property tests here and in
//! the scheduler crate, and by the CI backend × workload conformance
//! matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faultsim::{
    Detection, DetectionKind, FaultAttachError, FaultComponent, FaultTarget, ScrubFinding,
};
use hwsim::{AccessStats, SramStats};
use tagsort::{
    BackendSpec, CircuitStats, CleanupPolicy, Geometry, PacketRef, SortBackend, SortError, Tag,
};

/// Sentinel for "no node" in bucket heads/tails and node links.
const NONE: u32 = u32::MAX;

/// One FIFO bucket: head and tail arena indices, interleaved so a tag's
/// entire bucket state lands in one cache line fetch.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NONE,
        tail: NONE,
    };
}

/// One arena node: a queued packet reference and its FIFO successor.
#[derive(Debug, Clone, Copy)]
struct Node {
    payload: u32,
    next: u32,
}

/// Where a min/max descent of an occupancy hierarchy ended.
enum Descent {
    /// Reached a leaf bit; the value is the tag.
    Found(usize),
    /// Hit an all-zero word a parent bit claimed was occupied (or an
    /// empty root with tags outstanding) — a corruption symptom.
    DeadEnd { level: u32, index: u32 },
}

/// The Eiffel-style flat FFS sorter. See the [module docs](self).
///
/// # Example
///
/// ```
/// use fastpath::FfsSorter;
/// use tagsort::{
///     BackendSpec, CleanupPolicy, Geometry, MemoryKind, PacketRef, SortBackend, Tag,
/// };
///
/// let mut sorter = FfsSorter::build(&BackendSpec {
///     geometry: Geometry::paper(),
///     capacity: 1 << 12,
///     cleanup: CleanupPolicy::Eager,
///     memory: MemoryKind::SinglePort,
/// });
/// sorter.insert(Tag(140), PacketRef(2)).unwrap();
/// sorter.insert(Tag(17), PacketRef(1)).unwrap();
/// assert_eq!(sorter.pop_min(), Some((Tag(17), PacketRef(1))));
/// // Same cycle model as the circuit: one four-cycle slot per op.
/// assert_eq!(sorter.cycles(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct FfsSorter {
    geometry: Geometry,
    capacity: usize,
    policy: CleanupPolicy,
    slot_cycles: u64,
    /// Live-tag occupancy hierarchy, top-first: `occ[0]` is the single
    /// root word, each word summarizes 64 words of the level below, and
    /// the last level holds one bit per tag value.
    occ: Vec<Vec<u64>>,
    /// Marker hierarchy, same shape: live bits plus — under lazy
    /// cleanup — stale bits of departed values, the software analog of
    /// the trie's leftover markers. Under eager cleanup it mirrors
    /// `occ`.
    marked: Vec<Vec<u64>>,
    /// Flattened fault-word offset of each hierarchy level.
    flat_offsets: Vec<usize>,
    /// Per-tag FIFO buckets.
    buckets: Vec<Bucket>,
    /// Node arena with an intrusive free list.
    nodes: Vec<Node>,
    free_head: u32,
    len: usize,
    cycles: u64,
    ops: u64,
    recycled_sections: u64,
    recycled_markers: u64,
    tolerant: bool,
    /// Violations seen in tolerant mode, as `(component, word)` blamed:
    /// a set bit over an empty bucket on the tag's translation entry
    /// (the circuit's missing-translation symptom), a dead end on the
    /// empty word it reached.
    integrity_log: Vec<(FaultComponent, usize)>,
    occ_stats: AccessStats,
    bucket_stats: AccessStats,
    sram: SramStats,
}

/// Word/bit split of a bit index within one hierarchy level.
fn split(idx: usize) -> (usize, u64) {
    (idx / 64, 1u64 << (idx % 64))
}

impl FfsSorter {
    /// Number of hierarchy levels (1 for tag spaces up to 64 values).
    fn depth(&self) -> usize {
        self.occ.len()
    }

    /// Sets the bit for `tag` in a hierarchy, leaf upward.
    fn set_bit(levels: &mut [Vec<u64>], tag: usize) -> u64 {
        let mut idx = tag;
        let mut writes = 0;
        for level in levels.iter_mut().rev() {
            let (w, bit) = split(idx);
            level[w] |= bit;
            writes += 1;
            idx = w;
        }
        writes
    }

    /// Clears the bit for `tag`, propagating emptied words upward.
    fn clear_bit(levels: &mut [Vec<u64>], tag: usize) -> u64 {
        let mut idx = tag;
        let mut writes = 0;
        for level in levels.iter_mut().rev() {
            let (w, bit) = split(idx);
            level[w] &= !bit;
            writes += 1;
            if level[w] != 0 {
                break;
            }
            idx = w;
        }
        writes
    }

    /// Walks a hierarchy to its smallest set bit with find-first-set.
    fn descend_min(levels: &[Vec<u64>]) -> Descent {
        let mut idx = 0usize;
        for (l, words) in levels.iter().enumerate() {
            let word = words[idx];
            if word == 0 {
                return Descent::DeadEnd {
                    level: l as u32,
                    index: idx as u32,
                };
            }
            idx = idx * 64 + word.trailing_zeros() as usize;
        }
        Descent::Found(idx)
    }

    /// Walks a hierarchy to its largest set bit (`None` if empty or the
    /// hierarchy is corrupt).
    fn descend_max(levels: &[Vec<u64>]) -> Option<usize> {
        let mut idx = 0usize;
        for words in levels {
            let word = words[idx];
            if word == 0 {
                return None;
            }
            idx = idx * 64 + (63 - word.leading_zeros()) as usize;
        }
        Some(idx)
    }

    /// The live minimum via the occupancy hierarchy (`None` when empty
    /// or, tolerantly, when the hierarchy is corrupt).
    fn occ_min(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        match Self::descend_min(&self.occ) {
            Descent::Found(tag) => Some(tag),
            Descent::DeadEnd { .. } => None,
        }
    }

    /// Linear ground-truth scan for the smallest non-empty bucket — the
    /// corruption-recovery slow path only.
    fn scan_buckets_min(&self) -> Option<usize> {
        self.buckets.iter().position(|b| b.head != NONE)
    }

    fn alloc_node(&mut self, payload: u32) -> u32 {
        if self.free_head != NONE {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = Node {
                payload,
                next: NONE,
            };
            idx
        } else {
            self.nodes.push(Node {
                payload,
                next: NONE,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Appends to the tag's FIFO bucket and sets occupancy + marker
    /// bits. The caller has already validated the insert.
    fn commit_insert(&mut self, tag: usize, payload: PacketRef) {
        let node = self.alloc_node(payload.0);
        self.sram.writes += 1;
        self.bucket_stats.record_read();
        let tail = self.buckets[tag].tail;
        if tail == NONE {
            self.buckets[tag] = Bucket {
                head: node,
                tail: node,
            };
        } else {
            self.buckets[tag].tail = node;
            self.nodes[tail as usize].next = node;
            self.sram.writes += 1;
        }
        self.bucket_stats.record_write();
        let w = Self::set_bit(&mut self.occ, tag);
        Self::set_bit(&mut self.marked, tag);
        for _ in 0..w {
            self.occ_stats.record_write();
        }
        self.len += 1;
        self.charge_slot();
    }

    /// Pops the FIFO head of a non-empty bucket, clearing occupancy (and
    /// — under eager cleanup — marker) bits when it empties.
    fn pop_bucket(&mut self, tag: usize) -> PacketRef {
        self.bucket_stats.record_read();
        let head = self.buckets[tag].head;
        debug_assert_ne!(head, NONE, "pop from empty bucket");
        let node = self.nodes[head as usize];
        self.sram.reads += 1;
        self.buckets[tag].head = node.next;
        if node.next == NONE {
            self.buckets[tag].tail = NONE;
            let w = Self::clear_bit(&mut self.occ, tag);
            for _ in 0..w {
                self.occ_stats.record_write();
            }
            if self.policy == CleanupPolicy::Eager {
                Self::clear_bit(&mut self.marked, tag);
            }
        }
        self.bucket_stats.record_write();
        self.nodes[head as usize] = Node {
            payload: 0,
            next: self.free_head,
        };
        self.free_head = head;
        self.len -= 1;
        self.charge_slot();
        PacketRef(node.payload)
    }

    /// Charges the fixed storage slot the backend contract requires.
    fn charge_slot(&mut self) {
        self.cycles += self.slot_cycles;
        self.sram.busy_cycles += self.slot_cycles;
        self.ops += 1;
    }

    /// Validates an insert against geometry, wrap contract, and
    /// capacity — the same checks, in the same order, as the circuit.
    fn check_insert(&mut self, tag: Tag) -> Result<(), SortError> {
        if !self.geometry.contains(tag) {
            return Err(SortError::TagOutOfRange {
                tag,
                tag_bits: self.geometry.tag_bits(),
            });
        }
        if self.policy == CleanupPolicy::Lazy {
            if self.len > 0 {
                // A corrupt hierarchy degrades the check (tolerant mode
                // keeps serving; the scrubber repairs), like the
                // circuit's tolerant head-insert fallback.
                if let Some(minimum) = self.occ_min() {
                    if (tag.value() as usize) < minimum {
                        return Err(SortError::BelowMinimum {
                            tag,
                            minimum: Tag(minimum as u32),
                        });
                    }
                }
            } else if let Some(stale_max) = Self::descend_max(&self.marked) {
                if (tag.value() as usize) < stale_max {
                    return Err(SortError::BelowMinimum {
                        tag,
                        minimum: Tag(stale_max as u32),
                    });
                }
            }
        }
        if self.len == self.capacity {
            return Err(SortError::Full {
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Finds the tag the next pop serves, healing corrupt occupancy
    /// words along the way in tolerant mode (panicking otherwise).
    fn locate_min_for_pop(&mut self) -> Option<usize> {
        loop {
            self.occ_stats.record_batch(self.depth() as u64);
            match Self::descend_min(&self.occ) {
                Descent::Found(tag) => {
                    if self.buckets[tag].head != NONE {
                        return Some(tag);
                    }
                    // A set bit over an empty bucket: the software
                    // analog of a trie marker with no translation entry.
                    assert!(
                        self.tolerant,
                        "occupancy bit set for empty bucket {tag} (corrupted state?)"
                    );
                    self.integrity_log.push((FaultComponent::Translation, tag));
                    Self::clear_bit(&mut self.occ, tag);
                }
                Descent::DeadEnd { level, index } => {
                    // A parent bit led into an all-zero word (or the
                    // root went dark with tags outstanding).
                    assert!(
                        self.tolerant,
                        "occupancy dead end at level {level} word {index} (corrupted state?)"
                    );
                    let word = self.flat_offsets[(level as usize).min(self.depth() - 1)];
                    self.integrity_log
                        .push((FaultComponent::Trie, word + index as usize));
                    if level == 0 {
                        // Hidden occupancy: heal from ground truth by
                        // re-marking the true minimum's path.
                        let tag = self.scan_buckets_min()?;
                        Self::set_bit(&mut self.occ, tag);
                    } else {
                        // Clear the lying parent bit; each iteration
                        // heals one level, so the search terminates.
                        let (w, bit) = split(index as usize);
                        self.occ[level as usize - 1][w] &= !bit;
                        self.occ_stats.record_write();
                    }
                }
            }
        }
    }

    /// Total flattened fault words across the hierarchy.
    fn fault_word_count(&self) -> usize {
        self.flat_offsets.last().copied().unwrap_or(0)
            + self.occ.last().map_or(0, |leaf| leaf.len())
    }

    /// Maps a flattened fault-word index to `(level, word)`.
    fn unflatten(&self, word: usize) -> (usize, usize) {
        for l in (0..self.depth()).rev() {
            if word >= self.flat_offsets[l] {
                return (l, word - self.flat_offsets[l]);
            }
        }
        (0, 0)
    }

    /// Number of meaningful bits in hierarchy word `(level, word)`: the
    /// children (or tag values) it actually covers, handling partial
    /// tail words and tag spaces below 64.
    fn word_bits(&self, level: usize, word: usize) -> u32 {
        let children = if level + 1 == self.depth() {
            self.geometry.tag_space() as usize
        } else {
            self.occ[level + 1].len()
        };
        (children - word * 64).min(64) as u32
    }
}

impl SortBackend for FfsSorter {
    fn build(spec: &BackendSpec) -> Self {
        let tag_space = spec.geometry.tag_space() as usize;
        let mut sizes = vec![tag_space.div_ceil(64)];
        while *sizes.last().expect("at least the leaf level") > 1 {
            let next = sizes.last().expect("non-empty").div_ceil(64);
            sizes.push(next);
        }
        sizes.reverse(); // top-first
        let mut flat_offsets = Vec::with_capacity(sizes.len());
        let mut offset = 0usize;
        for &size in &sizes {
            flat_offsets.push(offset);
            offset += size;
        }
        FfsSorter {
            geometry: spec.geometry,
            capacity: spec.capacity,
            policy: spec.cleanup,
            slot_cycles: spec.memory.slot_cycles(),
            occ: sizes.iter().map(|&s| vec![0u64; s]).collect(),
            marked: sizes.iter().map(|&s| vec![0u64; s]).collect(),
            flat_offsets,
            buckets: vec![Bucket::EMPTY; tag_space],
            nodes: Vec::new(),
            free_head: NONE,
            len: 0,
            cycles: 0,
            ops: 0,
            recycled_sections: 0,
            recycled_markers: 0,
            tolerant: false,
            integrity_log: Vec::new(),
            occ_stats: AccessStats::new(),
            bucket_stats: AccessStats::new(),
            sram: SramStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        "fastpath"
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<(), SortError> {
        self.occ_stats.begin_op();
        self.bucket_stats.begin_op();
        self.check_insert(tag)?;
        self.commit_insert(tag.value() as usize, payload);
        Ok(())
    }

    fn pop_min(&mut self) -> Option<(Tag, PacketRef)> {
        if self.len == 0 {
            return None;
        }
        self.occ_stats.begin_op();
        self.bucket_stats.begin_op();
        let tag = self.locate_min_for_pop()?;
        let payload = self.pop_bucket(tag);
        Some((Tag(tag as u32), payload))
    }

    fn pop_max(&mut self) -> Option<(Tag, PacketRef)> {
        if self.len == 0 {
            return None;
        }
        self.occ_stats.begin_op();
        self.bucket_stats.begin_op();
        self.occ_stats.record_batch(self.depth() as u64);
        let tag = self.peek_max()?.value() as usize;
        self.bucket_stats.record_read();
        let tail = self.buckets[tag].tail;
        let node = self.nodes[tail as usize];
        self.sram.reads += 1;
        let head = self.buckets[tag].head;
        if head == tail {
            self.buckets[tag] = Bucket::EMPTY;
            let w = Self::clear_bit(&mut self.occ, tag);
            for _ in 0..w {
                self.occ_stats.record_write();
            }
            // Always eager, even under lazy cleanup (trait contract): a
            // stale marker above the live set must not survive push-out.
            Self::clear_bit(&mut self.marked, tag);
        } else {
            // Unlink the tail: chain walk from the head for its
            // predecessor (push-out is the rare path; FIFO pops stay
            // O(1)).
            let mut prev = head;
            while self.nodes[prev as usize].next != tail {
                prev = self.nodes[prev as usize].next;
            }
            self.nodes[prev as usize].next = NONE;
            self.buckets[tag].tail = prev;
            self.sram.writes += 1;
        }
        self.bucket_stats.record_write();
        self.nodes[tail as usize] = Node {
            payload: 0,
            next: self.free_head,
        };
        self.free_head = tail;
        self.len -= 1;
        self.charge_slot();
        Some((Tag(tag as u32), PacketRef(node.payload)))
    }

    fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        if self.len == 0 {
            return None;
        }
        // Read-only: a corrupt hierarchy falls back to the ground-truth
        // scan without healing or logging (pop does both).
        let tag = match Self::descend_min(&self.occ) {
            Descent::Found(tag) if self.buckets[tag].head != NONE => tag,
            _ => self.scan_buckets_min()?,
        };
        let head = self.buckets[tag].head;
        Some((
            Tag(tag as u32),
            PacketRef(self.nodes[head as usize].payload),
        ))
    }

    fn peek_max(&self) -> Option<Tag> {
        if self.len == 0 {
            return None;
        }
        // Corrupt hierarchy: ground-truth scan, as peek_min does.
        let tag = match Self::descend_max(&self.occ) {
            Some(tag) if self.buckets[tag].head != NONE => tag,
            _ => self.buckets.iter().rposition(|b| b.head != NONE)?,
        };
        Some(Tag(tag as u32))
    }

    fn recycle_section(&mut self, section: u32) -> usize {
        assert!(
            section < self.geometry.sections(),
            "section {section} out of range"
        );
        let span = (self.geometry.tag_space() / u64::from(self.geometry.sections())) as usize;
        let base = section as usize * span;
        debug_assert!(
            self.buckets[base..base + span]
                .iter()
                .all(|b| b.head == NONE),
            "recycling section {section} with live tags"
        );
        let mut cleared = 0usize;
        for tag in base..base + span {
            let (w, bit) = split(tag);
            let leaf = self.depth() - 1;
            if self.marked[leaf][w] & bit != 0 {
                Self::clear_bit(&mut self.marked, tag);
                cleared += 1;
            }
            if self.occ[leaf][w] & bit != 0 {
                Self::clear_bit(&mut self.occ, tag);
            }
        }
        self.recycled_sections += 1;
        self.recycled_markers += cleared as u64;
        cleared
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn stats(&self) -> CircuitStats {
        CircuitStats {
            ops: self.ops,
            store_cycles: self.cycles,
            trie: self.occ_stats,
            translation: self.bucket_stats,
            sram: self.sram,
            recycled_sections: self.recycled_sections,
            recycled_markers: self.recycled_markers,
        }
    }

    fn set_tolerant(&mut self, tolerant: bool) {
        self.tolerant = tolerant;
    }

    fn fault_target_mut(
        &mut self,
        component: FaultComponent,
    ) -> Result<&mut dyn FaultTarget, FaultAttachError> {
        match component {
            FaultComponent::Trie => Ok(self),
            other => Err(FaultAttachError {
                backend: "fastpath",
                component: other,
            }),
        }
    }

    fn scrub(&mut self, section: u32, repair: bool) -> (u64, Vec<ScrubFinding>) {
        assert!(
            section < self.geometry.sections(),
            "section {section} out of range"
        );
        let span = (self.geometry.tag_space() / u64::from(self.geometry.sections())) as usize;
        let base = section as usize * span;
        let depth = self.depth();
        let mut words_checked = 0u64;
        // Expected (masked-merged) occupancy per level over the covered
        // word range, leaf upward: bits outside the section keep their
        // found value — the root-word treatment the circuit's scrubber
        // applies, generalized to every partially covered word.
        let mut expected: Vec<(usize, Vec<u64>)> = vec![(0, Vec::new()); depth];
        let leaf = depth - 1;
        let lo = base / 64;
        let hi = (base + span).div_ceil(64);
        let mut live_markers = 0u64;
        let mut words = Vec::with_capacity(hi - lo);
        for w in lo..hi {
            let found = self.occ[leaf][w];
            let mut mask = 0u64;
            let mut bits = 0u64;
            for i in 0..64usize {
                let tag = w * 64 + i;
                if tag >= base && tag < base + span {
                    mask |= 1 << i;
                    if self.buckets[tag].head != NONE {
                        bits |= 1 << i;
                        live_markers += 1;
                    }
                }
            }
            words.push((found & !mask) | bits);
        }
        expected[leaf] = (lo, words);
        for level in (0..leaf).rev() {
            let (child_lo, child_words) = (expected[level + 1].0, &expected[level + 1].1);
            let plo = child_lo / 64;
            let phi = (child_lo + child_words.len()).div_ceil(64);
            let mut words = Vec::with_capacity(phi - plo);
            for w in plo..phi {
                let found = self.occ[level][w];
                let mut mask = 0u64;
                let mut bits = 0u64;
                for i in 0..64usize {
                    let child = w * 64 + i;
                    if child >= child_lo && child < child_lo + child_words.len() {
                        mask |= 1 << i;
                        if child_words[child - child_lo] != 0 {
                            bits |= 1 << i;
                        }
                    }
                }
                words.push((found & !mask) | bits);
            }
            expected[level] = (plo, words);
        }
        let mut mismatches = Vec::new();
        for (level, (wlo, words)) in expected.iter().enumerate() {
            for (k, &want) in words.iter().enumerate() {
                words_checked += 1;
                if self.occ[level][wlo + k] != want {
                    mismatches.push(Some(self.flat_offsets[level] + wlo + k));
                }
            }
        }
        let run_repair = repair && !mismatches.is_empty();
        let mut repaired_markers = 0u64;
        if run_repair {
            for (level, (wlo, words)) in expected.iter().enumerate() {
                for (k, &want) in words.iter().enumerate() {
                    self.occ[level][wlo + k] = want;
                }
            }
            // Markers are a superset of live occupancy: re-assert the
            // live bits (stale lazy markers are left untouched).
            for tag in base..base + span {
                if self.buckets[tag].head != NONE {
                    Self::set_bit(&mut self.marked, tag);
                    repaired_markers += 1;
                }
            }
            debug_assert_eq!(repaired_markers, live_markers);
        }
        // One memory to audit. Modeled repair cost, as the circuit's: the
        // audit reads plus one trie insertion pass per restored marker.
        let finding = ScrubFinding {
            component: FaultComponent::Trie,
            words: mismatches,
            repaired: run_repair.then_some((
                words_checked + repaired_markers * u64::from(self.geometry.levels()),
                repaired_markers,
            )),
            cycle: self.cycles,
        };
        (words_checked, vec![finding])
    }

    /// Drains the violations logged in tolerant mode, stamped with the
    /// cycle count at drain time. There is no parity-checked memory.
    fn take_detections(&mut self) -> Vec<Detection> {
        let cycle = self.cycles;
        self.integrity_log
            .drain(..)
            .map(|(component, word)| Detection {
                component,
                word: Some(word),
                cycle,
                kind: DetectionKind::Structural,
            })
            .collect()
    }
}

impl FaultTarget for FfsSorter {
    fn fault_words(&self) -> usize {
        self.fault_word_count()
    }

    fn fault_word_bits(&self, word: usize) -> u32 {
        let (level, idx) = self.unflatten(word);
        self.word_bits(level, idx)
    }

    fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
        let (level, idx) = self.unflatten(word);
        let before = self.occ[level][idx];
        self.occ[level][idx] ^= mask;
        before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tagsort::{HeapSorter, MemoryKind, SortRetrieveCircuit};

    fn structural(component: FaultComponent, word: usize, cycle: u64) -> Detection {
        Detection {
            component,
            word: Some(word),
            cycle,
            kind: DetectionKind::Structural,
        }
    }

    fn spec(cleanup: CleanupPolicy) -> BackendSpec {
        BackendSpec {
            geometry: Geometry::paper(),
            capacity: 1024,
            cleanup,
            memory: MemoryKind::SinglePort,
        }
    }

    fn drain(s: &mut FfsSorter) -> Vec<(u32, u32)> {
        std::iter::from_fn(|| s.pop_min())
            .map(|(t, p)| (t.value(), p.index()))
            .collect()
    }

    #[test]
    fn extract_flow_leaves_survivors_sequence_identical_to_the_trie() {
        // The fastpath's migration walk must agree with the circuit's:
        // extract the same flow from both, the survivors must drain in
        // the same sequence.
        let mut ffs = FfsSorter::build(&spec(CleanupPolicy::Eager));
        let mut trie = SortRetrieveCircuit::build(&spec(CleanupPolicy::Eager));
        for i in 0..100u32 {
            let tag = Tag((i * 37) % 512);
            ffs.insert(tag, PacketRef(i)).unwrap();
            trie.insert(tag, PacketRef(i)).unwrap();
        }
        let mut belongs = |p: PacketRef| p.index().is_multiple_of(3);
        let a = ffs.extract_flow(&mut belongs);
        let b = trie.extract_flow(&mut belongs);
        assert_eq!(a, b, "extracted sequences diverge");
        assert_eq!(drain(&mut ffs), {
            let mut out = Vec::new();
            while let Some((t, p)) = trie.pop_min() {
                out.push((t.value(), p.index()));
            }
            out
        });
    }

    #[test]
    fn sorts_arbitrary_insert_order() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        for (i, t) in [500u32, 3, 1000, 42, 999, 4, 4095, 0].iter().enumerate() {
            s.insert(Tag(*t), PacketRef(i as u32)).unwrap();
        }
        let tags: Vec<u32> = drain(&mut s).iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, vec![0, 3, 4, 42, 500, 999, 1000, 4095]);
        assert!(s.is_empty());
    }

    #[test]
    fn duplicates_serve_fifo() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        for i in 0..4u32 {
            s.insert(Tag(7), PacketRef(i)).unwrap();
        }
        assert_eq!(
            drain(&mut s),
            vec![(7, 0), (7, 1), (7, 2), (7, 3)],
            "FCFS among equal tags"
        );
    }

    #[test]
    fn cycle_model_matches_the_circuit() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        let mut c = <SortRetrieveCircuit as SortBackend>::build(&spec(CleanupPolicy::Eager));
        for t in [9u32, 2, 700, 2] {
            s.insert(Tag(t), PacketRef(0)).unwrap();
            c.insert(Tag(t), PacketRef(0)).unwrap();
        }
        while s.pop_min().is_some() {
            c.pop_min();
        }
        assert_eq!(SortBackend::cycles(&s), SortBackend::cycles(&c));
        assert_eq!(s.stats().cycles_per_op(), 4.0);
    }

    #[test]
    fn single_level_geometry_works() {
        // tag_bits <= 6 collapses the hierarchy to one word.
        let mut s = FfsSorter::build(&BackendSpec {
            geometry: Geometry::new(2, 2), // 4-bit tags
            capacity: 16,
            cleanup: CleanupPolicy::Eager,
            memory: MemoryKind::SinglePort,
        });
        assert_eq!(s.depth(), 1);
        for t in [9u32, 2, 15, 0] {
            s.insert(Tag(t), PacketRef(t)).unwrap();
        }
        assert_eq!(
            drain(&mut s).iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 2, 9, 15]
        );
    }

    #[test]
    fn lazy_wrap_contract_matches_the_circuit() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Lazy));
        s.insert(Tag(100), PacketRef(0)).unwrap();
        assert_eq!(
            s.insert(Tag(50), PacketRef(1)),
            Err(SortError::BelowMinimum {
                tag: Tag(50),
                minimum: Tag(100)
            })
        );
        s.pop_min().unwrap();
        // Drained: the stale marker still gates restarts below it.
        assert_eq!(
            s.insert(Tag(50), PacketRef(1)),
            Err(SortError::BelowMinimum {
                tag: Tag(50),
                minimum: Tag(100)
            })
        );
        let section = Geometry::paper().section_of(Tag(100));
        assert_eq!(s.recycle_section(section), 1);
        s.insert(Tag(50), PacketRef(1)).unwrap();
        assert_eq!(s.pop_min(), Some((Tag(50), PacketRef(1))));
    }

    #[test]
    fn fault_attachment_covers_the_occupancy_hierarchy_only() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        let words = {
            let target = s.fault_target_mut(FaultComponent::Trie).unwrap();
            let words = target.fault_words();
            assert_eq!(words, 1 + 64, "paper geometry: one root + 64 leaf words");
            assert_eq!(target.fault_word_bits(0), 64);
            words
        };
        for component in [FaultComponent::Translation, FaultComponent::TagStore] {
            let err = s.fault_target_mut(component).err().unwrap();
            assert_eq!(err.backend, "fastpath");
            assert_eq!(err.component, component);
        }
        assert!(words > 0);
    }

    #[test]
    fn tolerant_mode_heals_a_false_occupancy_bit() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        s.set_tolerant(true);
        // Tag 3 keeps leaf word 0 (and its root bit) legitimately live,
        // so the false bit for tag 0 is actually reachable.
        s.insert(Tag(3), PacketRef(1)).unwrap();
        {
            let target = s.fault_target_mut(FaultComponent::Trie).unwrap();
            target.inject_fault(1, 1); // leaf word 0 => flat index 1
        }
        // The pop detects the lie, logs it, heals, and serves the real
        // minimum.
        assert_eq!(s.pop_min(), Some((Tag(3), PacketRef(1))));
        assert_eq!(
            s.take_detections(),
            vec![structural(FaultComponent::Translation, 0, s.cycles)]
        );
    }

    #[test]
    fn tolerant_mode_clears_a_lying_parent_bit() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        s.set_tolerant(true);
        s.insert(Tag(100), PacketRef(1)).unwrap();
        // Set the root bit for leaf word 0, whose word is all zero: the
        // descent dead-ends there and must clear the bad bit.
        {
            let target = s.fault_target_mut(FaultComponent::Trie).unwrap();
            target.inject_fault(0, 1);
        }
        assert_eq!(s.pop_min(), Some((Tag(100), PacketRef(1))));
        // Blamed on the empty leaf word 0 it reached (flat word 1), not
        // on the root word whose bit lied.
        assert_eq!(
            s.take_detections(),
            vec![structural(FaultComponent::Trie, 1, s.cycles)]
        );
    }

    #[test]
    fn tolerant_mode_recovers_from_a_hidden_subtree() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        s.set_tolerant(true);
        s.insert(Tag(100), PacketRef(1)).unwrap();
        // Zero the root word: the only live path goes dark.
        {
            let target = s.fault_target_mut(FaultComponent::Trie).unwrap();
            let before = target.inject_fault(0, 0);
            let root = before; // re-flip to zero it
            target.inject_fault(0, root);
        }
        assert_eq!(s.pop_min(), Some((Tag(100), PacketRef(1))));
        let found = s.take_detections();
        assert_eq!(
            found[0],
            structural(FaultComponent::Trie, 0, s.cycles),
            "expected a root dead end, got {found:?}"
        );
    }

    #[test]
    fn scrub_detects_and_repairs_injected_faults() {
        let mut s = FfsSorter::build(&spec(CleanupPolicy::Eager));
        for t in [5u32, 6, 300] {
            s.insert(Tag(t), PacketRef(t)).unwrap();
        }
        // Clean scrub first.
        let (checked, clean) = s.scrub(0, false);
        assert!(checked > 0);
        let cycle = s.cycles; // audits charge no storage cycles
        let finding = |words, repaired| ScrubFinding {
            component: FaultComponent::Trie,
            words,
            repaired,
            cycle,
        };
        assert_eq!(clean, vec![finding(vec![], None)]);
        // Corrupt leaf word 0 (tags 0..64, section 0 spans tags 0..256).
        {
            let target = s.fault_target_mut(FaultComponent::Trie).unwrap();
            target.inject_fault(1, 0b1000);
        }
        let (checked, audit) = s.scrub(0, true);
        // Tags 5 and 6 live in section 0: two markers restored, each
        // priced at one pass over the three trie levels.
        assert_eq!(audit, vec![finding(vec![Some(1)], Some((checked + 6, 2)))]);
        // Post-repair the section audits clean and service is intact.
        assert_eq!(s.scrub(0, false).1, vec![finding(vec![], None)]);
        assert_eq!(
            drain(&mut s),
            vec![(5, 5), (6, 6), (300, 300)],
            "repair must not disturb live tags"
        );
    }

    /// An operation against a backend pair.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Pop,
        PopMax,
    }

    fn op_strategy(tag_space: u32) -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..tag_space).prop_map(Op::Insert),
            2 => Just(Op::Pop),
            1 => Just(Op::PopMax),
        ]
    }

    fn cross_check<A: SortBackend, B: SortBackend>(a: &mut A, b: &mut B, ops: &[Op]) {
        let mut payload = 0u32;
        for op in ops {
            match op {
                Op::Insert(t) => {
                    let ra = a.insert(Tag(*t), PacketRef(payload));
                    let rb = b.insert(Tag(*t), PacketRef(payload));
                    assert_eq!(ra, rb, "insert({t}) diverged");
                    payload += 1;
                }
                Op::Pop => {
                    assert_eq!(a.pop_min(), b.pop_min(), "pop_min diverged");
                }
                Op::PopMax => {
                    assert_eq!(a.pop_max(), b.pop_max(), "pop_max diverged");
                }
            }
            assert_eq!(a.len(), b.len());
            assert_eq!(a.peek_min(), b.peek_min());
            assert_eq!(a.cycles(), b.cycles(), "cycle accounting diverged");
        }
        loop {
            let (pa, pb) = (a.pop_min(), b.pop_min());
            assert_eq!(pa, pb, "drain diverged");
            if pa.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Fastpath == trie circuit == heap oracle on arbitrary op
        /// programs (eager cleanup, arbitrary tag order).
        #[test]
        fn sequence_identical_to_trie_and_heap(
            ops in proptest::collection::vec(op_strategy(4096), 1..300),
        ) {
            let s = spec(CleanupPolicy::Eager);
            let mut ffs = FfsSorter::build(&s);
            let mut trie = <SortRetrieveCircuit as SortBackend>::build(&s);
            cross_check(&mut ffs, &mut trie, &ops);
            let mut ffs = FfsSorter::build(&s);
            let mut heap = HeapSorter::build(&s);
            cross_check(&mut ffs, &mut heap, &ops);
        }

        /// Same, under the paper's lazy cleanup: the error contract
        /// (BelowMinimum included) must agree operation by operation.
        #[test]
        fn lazy_cleanup_sequence_identical(
            ops in proptest::collection::vec(op_strategy(4096), 1..300),
        ) {
            let s = spec(CleanupPolicy::Lazy);
            let mut ffs = FfsSorter::build(&s);
            let mut trie = <SortRetrieveCircuit as SortBackend>::build(&s);
            cross_check(&mut ffs, &mut trie, &ops);
            let mut ffs = FfsSorter::build(&s);
            let mut heap = HeapSorter::build(&s);
            cross_check(&mut ffs, &mut heap, &ops);
        }
    }
}
