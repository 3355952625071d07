//! The integrated tag sort/retrieve circuit (paper Fig. 3).

use std::error::Error;
use std::fmt;

use faultsim::{Detection, DetectionKind, FaultComponent, FaultTarget, ScrubFinding};
use hwsim::{AccessStats, Cycle, SramStats};

use crate::geometry::Geometry;
use crate::tag::{PacketRef, Tag};
use crate::tagstore::{LinkAddr, TagStore};
use crate::translation::TranslationTable;
use crate::trie::MultiBitTrie;

/// One trie node whose occupancy word disagreed with the translation
/// table during a scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieMismatch {
    /// Level of the disagreeing node.
    pub level: u32,
    /// Node index within that level.
    pub index: u32,
    /// Flattened [`FaultTarget`] word index of the node (for ledger
    /// reconciliation).
    pub flat: usize,
    /// The word the translation table implies.
    pub expected: u64,
    /// The word actually stored.
    pub found: u64,
}

/// Result of auditing one trie section against translation ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionScrub {
    /// The audited section.
    pub section: u32,
    /// Node words compared (the scrub's modelled read cost).
    pub words_checked: u64,
    /// Disagreements found, root-first.
    pub mismatches: Vec<TrieMismatch>,
    /// Markers re-inserted by the repair (0 unless repairing).
    pub repaired_markers: u64,
    /// Whether a repair pass ran.
    pub repaired: bool,
}

/// Result of auditing one translation-table section against its running
/// per-section check code (see
/// [`TranslationTable::verify_section_crc`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationScrub {
    /// The audited section.
    pub section: u32,
    /// Entry words compared (the scrub's modelled read cost; 1 when the
    /// check code already matched).
    pub words_checked: u64,
    /// Whether the running check code disagreed with a recomputation —
    /// i.e. at least one write bypassed the datapath since the last
    /// resync.
    pub crc_mismatch: bool,
    /// Entries that disagree with ground truth, as flattened
    /// [`FaultTarget`] word indices (= tag values). Empty under lazy
    /// cleanup — stale entries of departed values are legitimate there,
    /// so the tag-store walk is not ground truth and the scrub is
    /// detect-only — and empty when the damaged word was later
    /// legitimately overwritten (the code latches, the content healed).
    pub damaged_words: Vec<usize>,
    /// Entries rewritten by the repair (0 unless repairing).
    pub repaired_entries: u64,
    /// Whether a repair pass ran (under lazy cleanup it only re-latches
    /// the check code onto the surviving content).
    pub repaired: bool,
}

/// When tree markers of fully departed tag values are cleared.
///
/// The paper's hardware leaves markers in place when tags depart and
/// reclaims them in bulk by recycling whole top-level sections as the
/// virtual clock wraps (Fig. 6). That is correct under the WFQ contract —
/// every new tag is at or above the smallest tag in the system, so any
/// live minimum shadows the stale markers below it — but it makes the
/// circuit *depend* on that contract. This crate implements both options:
///
/// * [`Lazy`](CleanupPolicy::Lazy) — the paper's design, verbatim.
///   Requires WFQ-conforming inserts and periodic
///   [`SortRetrieveCircuit::recycle_section`] calls before tag values are
///   reused.
/// * [`Eager`](CleanupPolicy::Eager) — additionally compares the popped
///   link's address against the translation table and clears the marker
///   when the last instance of a value departs (one on-chip translation
///   read per pop, in parallel with the storage slot). Correct for
///   arbitrary insert patterns; the default for the general-purpose API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CleanupPolicy {
    /// Clear markers as the last duplicate of a value departs.
    #[default]
    Eager,
    /// Leave markers for bulk section recycling, as fabricated.
    Lazy,
}

/// Errors returned by [`SortRetrieveCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortError {
    /// The tag does not fit the configured geometry.
    TagOutOfRange {
        /// The offending tag.
        tag: Tag,
        /// The geometry's tag width.
        tag_bits: u32,
    },
    /// The tag storage memory has no free link.
    Full {
        /// Configured capacity in links.
        capacity: usize,
    },
    /// Under [`CleanupPolicy::Lazy`], the tag violates the WFQ contract
    /// (it is below the current minimum), which the paper's circuit
    /// cannot sort correctly.
    BelowMinimum {
        /// The offending tag.
        tag: Tag,
        /// The current smallest stored tag.
        minimum: Tag,
    },
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::TagOutOfRange { tag, tag_bits } => {
                write!(f, "{tag} does not fit a {tag_bits}-bit geometry")
            }
            SortError::Full { capacity } => {
                write!(f, "tag storage memory full ({capacity} links)")
            }
            SortError::BelowMinimum { tag, minimum } => {
                write!(
                    f,
                    "{tag} is below the current minimum ({minimum}); lazy cleanup requires WFQ-ordered tags"
                )
            }
        }
    }
}

impl Error for SortError {}

/// Aggregated instrumentation across the circuit's three components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitStats {
    /// Logical operations (inserts + pops + combined slots).
    pub ops: u64,
    /// Clock cycles consumed by the tag storage memory FSM.
    pub store_cycles: u64,
    /// Search-tree access counters.
    pub trie: AccessStats,
    /// Translation-table access counters.
    pub translation: AccessStats,
    /// External SRAM (tag storage) counters.
    pub sram: SramStats,
    /// Fig. 6 recycling: sections bulk-deleted via
    /// [`SortRetrieveCircuit::recycle_section`].
    pub recycled_sections: u64,
    /// Fig. 6 recycling: total stale tree markers those deletions
    /// cleared (always 0 under eager cleanup).
    pub recycled_markers: u64,
}

impl CircuitStats {
    /// Mean storage cycles per operation — the paper's fixed-throughput
    /// claim is that this equals 4 exactly.
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.store_cycles as f64 / self.ops as f64
        }
    }

    /// Packets per second at a given circuit clock (Table II derivation:
    /// 143.2 MHz / 4 cycles ⇒ 35.8 Mpps).
    pub fn packets_per_second(&self, clock_hz: f64) -> f64 {
        let cpo = self.cycles_per_op();
        if cpo == 0.0 {
            0.0
        } else {
            clock_hz / cpo
        }
    }

    /// Line rate in bits per second for a mean packet size (§IV uses a
    /// conservative 140-byte average IP packet ⇒ 40 Gb/s).
    pub fn line_rate_bps(&self, clock_hz: f64, mean_packet_bytes: f64) -> f64 {
        self.packets_per_second(clock_hz) * mean_packet_bytes * 8.0
    }
}

/// The clock frequency of the fabricated circuit implied by Table II's
/// throughput (35.8 Mpps × 4 cycles per packet).
pub const PAPER_CLOCK_HZ: f64 = 143.2e6;

/// The paper's conservative estimate for an average IP packet, in bytes.
pub const PAPER_MEAN_PACKET_BYTES: f64 = 140.0;

/// The complete tag sort/retrieve circuit: search tree + translation
/// table + tag storage memory, wired as in paper Fig. 3.
///
/// # Example
///
/// ```
/// use tagsort::{Geometry, PacketRef, SortRetrieveCircuit, Tag};
///
/// # fn main() -> Result<(), tagsort::SortError> {
/// let mut c = SortRetrieveCircuit::new(Geometry::paper(), 256);
/// for (i, t) in [30u32, 10, 20, 10].iter().enumerate() {
///     c.insert(Tag(*t), PacketRef(i as u32))?;
/// }
/// // Duplicate 10s come out first-come-first-served.
/// assert_eq!(c.pop_min(), Some((Tag(10), PacketRef(1))));
/// assert_eq!(c.pop_min(), Some((Tag(10), PacketRef(3))));
/// assert_eq!(c.pop_min(), Some((Tag(20), PacketRef(2))));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SortRetrieveCircuit {
    geometry: Geometry,
    trie: MultiBitTrie,
    translation: TranslationTable,
    store: TagStore,
    policy: CleanupPolicy,
    ops: u64,
    recycled_sections: u64,
    recycled_markers: u64,
    /// Tolerant mode: datapath invariant violations are logged and
    /// degraded around instead of panicking.
    tolerant: bool,
    /// The violations, as `(component, word)` of the state blamed:
    /// a dead end on the empty trie node it reached, a missing or
    /// out-of-range translation on the marked value's entry.
    integrity_log: Vec<(FaultComponent, usize)>,
}

impl SortRetrieveCircuit {
    /// Creates a circuit with [`CleanupPolicy::Eager`] and room for
    /// `capacity` tags.
    pub fn new(geometry: Geometry, capacity: usize) -> Self {
        Self::with_policy(geometry, capacity, CleanupPolicy::Eager)
    }

    /// Creates a circuit with an explicit cleanup policy.
    pub fn with_policy(geometry: Geometry, capacity: usize, policy: CleanupPolicy) -> Self {
        Self::with_policy_and_memory(
            geometry,
            capacity,
            policy,
            crate::tagstore::MemoryKind::SinglePort,
        )
    }

    /// Creates a circuit with explicit cleanup policy and tag-storage
    /// memory technology (the paper's QDR variant halves the slot to two
    /// cycles; see [`crate::MemoryKind`]).
    pub fn with_policy_and_memory(
        geometry: Geometry,
        capacity: usize,
        policy: CleanupPolicy,
        memory: crate::tagstore::MemoryKind,
    ) -> Self {
        Self {
            geometry,
            trie: MultiBitTrie::new(geometry),
            translation: TranslationTable::new(geometry),
            store: TagStore::with_geometry_and_memory(geometry, capacity, memory),
            policy,
            ops: 0,
            recycled_sections: 0,
            recycled_markers: 0,
            tolerant: false,
            integrity_log: Vec::new(),
        }
    }

    /// The tree geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The cleanup policy in force.
    pub fn policy(&self) -> CleanupPolicy {
        self.policy
    }

    /// Number of stored tags.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no tag is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Storage capacity in tags.
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// The smallest stored tag and its packet reference — register-fast,
    /// feeding the scheduler's eq. (1) continuously.
    pub fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        self.store.peek_min()
    }

    /// The largest stored tag — the one [`SortRetrieveCircuit::pop_max`]
    /// would evict — without a storage access or cycle charge. The
    /// trie's highest marker answers it in one descent: stale markers
    /// left by lazy cleanup never sit above the live maximum. In
    /// tolerant mode a faulted marker may lie, so the answer comes from
    /// the same uncharged tail walk `pop_max` takes.
    pub fn peek_max(&self) -> Option<Tag> {
        if self.store.is_empty() {
            return None;
        }
        if self.tolerant {
            return self.store.peek_max();
        }
        self.trie.max()
    }

    /// Total tag-storage cycles consumed.
    pub fn cycles(&self) -> Cycle {
        self.store.cycles()
    }

    /// Aggregated instrumentation.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            ops: self.ops,
            store_cycles: self.store.cycles().value(),
            trie: *self.trie.stats(),
            translation: *self.translation.stats(),
            sram: self.store.sram_stats(),
            recycled_sections: self.recycled_sections,
            recycled_markers: self.recycled_markers,
        }
    }

    /// Sorts `tag` into the system with its packet reference.
    ///
    /// One four-cycle storage slot; the tree search and translation
    /// lookup execute in the pipeline stage ahead of it (paper §III-A:
    /// the two stages are balanced at four cycles each).
    ///
    /// # Errors
    ///
    /// [`SortError::TagOutOfRange`] if the tag is too wide,
    /// [`SortError::Full`] if no link is free, and — under lazy cleanup —
    /// [`SortError::BelowMinimum`] if the WFQ contract is violated.
    pub fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<(), SortError> {
        let prev = self.locate_predecessor(tag)?;
        let addr = self
            .store
            .insert(prev, tag, payload)
            .map_err(|e| SortError::Full {
                capacity: e.capacity,
            })?;
        self.commit_insert(tag, addr);
        self.ops += 1;
        Ok(())
    }

    /// Removes and returns the smallest tag, in one four-cycle slot.
    pub fn pop_min(&mut self) -> Option<(Tag, PacketRef)> {
        let (tag, payload, addr) = self.store.pop_min()?;
        self.reconcile_pop(tag, addr);
        self.ops += 1;
        Some((tag, payload))
    }

    /// Removes and returns the **largest** stored tag in one four-cycle
    /// slot — the push-out primitive of programmable admission (Alcoz et
    /// al.): evict the worst queued packet to admit a better arrival.
    /// Among duplicates of the maximum, the most-recently-inserted
    /// departs (LIFO at the tail; the translation table already points
    /// at it).
    ///
    /// Reconciliation is always eager here, even under
    /// [`CleanupPolicy::Lazy`]: a stale marker *above* the live set
    /// would win closest-match searches and dereference a freed link,
    /// so the marker must go the moment the last duplicate departs.
    pub fn pop_max(&mut self) -> Option<(Tag, PacketRef)> {
        let (tag, payload, addr, pred) = self.store.pop_max()?;
        debug_assert!(
            self.tolerant || self.translation.get(tag) == Some(addr),
            "translation should point at the newest instance of the maximum"
        );
        match pred {
            // An older duplicate remains: it becomes the newest instance.
            Some((pred_addr, pred_tag)) if pred_tag == tag => {
                self.translation.set(tag, pred_addr);
            }
            _ => {
                self.translation.clear(tag);
                self.trie.remove_marker(tag);
            }
        }
        self.ops += 1;
        Some((tag, payload))
    }

    /// The simultaneous case of paper §III-C: serves the smallest tag and
    /// sorts `tag` in, in a *single* four-cycle slot, reusing the freed
    /// link.
    ///
    /// # Errors
    ///
    /// As for [`SortRetrieveCircuit::insert`].
    pub fn insert_and_pop(
        &mut self,
        tag: Tag,
        payload: PacketRef,
    ) -> Result<Option<(Tag, PacketRef)>, SortError> {
        let prev = self.locate_predecessor(tag)?;
        if prev.is_none() {
            // No stored value at or below the incoming tag: it is the
            // union minimum (strictly below the head, or the store is
            // empty) and departs in the same slot it arrived —
            // cut-through; the storage memory is never touched but the
            // slot is still consumed.
            self.store.pass_slot();
            self.ops += 1;
            return Ok(Some((tag, payload)));
        }
        let (addr, popped) =
            self.store
                .insert_and_pop(prev, tag, payload)
                .map_err(|e| SortError::Full {
                    capacity: e.capacity,
                })?;
        let served = popped.map(|(ptag, ppayload, paddr)| {
            self.reconcile_pop(ptag, paddr);
            (ptag, ppayload)
        });
        self.commit_insert(tag, addr);
        self.ops += 1;
        Ok(served)
    }

    /// Bulk-recycles one top-level section of the tag range (Fig. 6),
    /// clearing its tree markers and translation entries so the WFQ
    /// virtual clock can wrap into it. Returns the number of markers
    /// cleared (always 0 under eager cleanup — the safety net is the
    /// point).
    ///
    /// # Panics
    ///
    /// Panics if any *live* tag still occupies the section (debug builds
    /// scan the store; release builds check the cheap head/section
    /// bound).
    pub fn recycle_section(&mut self, section: u32) -> usize {
        debug_assert!(
            !self
                .store
                .iter_sorted()
                .any(|(t, _)| self.geometry.section_of(t) == section),
            "recycling section {section} with live tags"
        );
        let removed = self.trie.clear_section(section);
        self.translation.clear_section(section);
        self.recycled_sections += 1;
        self.recycled_markers += removed as u64;
        removed
    }

    /// Read-only view of the sorted contents (test/debug; no cycle
    /// accounting).
    pub fn iter_sorted(&self) -> impl Iterator<Item = (Tag, PacketRef)> + '_ {
        self.store.iter_sorted()
    }

    /// The largest stored tag value at or below `tag` — the tree's
    /// closest-match query, exposed for diagnostics and pipeline hazard
    /// analysis. Counts as a tree lookup in the access statistics.
    ///
    /// # Errors
    ///
    /// [`SortError::TagOutOfRange`] if the tag is too wide.
    pub fn predecessor(&mut self, tag: Tag) -> Result<Option<Tag>, SortError> {
        if !self.geometry.contains(tag) {
            return Err(SortError::TagOutOfRange {
                tag,
                tag_bits: self.geometry.tag_bits(),
            });
        }
        Ok(self.trie.closest_at_or_below(tag))
    }

    /// Enables or disables tolerant mode on the circuit and its tag
    /// store: invariant violations degrade and are logged instead of
    /// panicking. Off by default — a healthy circuit should fault loudly.
    pub fn set_tolerant(&mut self, tolerant: bool) {
        self.tolerant = tolerant;
        self.store.set_tolerant(tolerant);
    }

    /// Drains every detection since the last drain: the tag store's
    /// (parity alarms, then sanitized link corruptions), then the
    /// datapath violations logged in tolerant mode, stamped with the
    /// cycle count at drain time.
    pub fn take_detections(&mut self) -> Vec<Detection> {
        let mut out = self.store.take_detections();
        let cycle = self.cycles().value();
        out.extend(
            self.integrity_log
                .drain(..)
                .map(|(component, word)| Detection {
                    component,
                    word: Some(word),
                    cycle,
                    kind: DetectionKind::Structural,
                }),
        );
        out
    }

    /// Resident/peak/total addressable state words across the three
    /// components (translation entries + store link words + trie node
    /// words). The translation table and the tag-storage SRAM are
    /// paged from construction, so the resident figures track the
    /// live-tag window; the on-chip trie is small and always resident.
    pub fn resident_memory(&self) -> crate::backend::ResidentMemory {
        let (tr_res, tr_peak, tr_total) = self.translation.resident_entries();
        let (st_res, st_peak, st_total) = self.store.resident_words();
        // The on-chip trie never pages; its words count as resident.
        let trie_words = FaultTarget::fault_words(&self.trie) as u64;
        crate::backend::ResidentMemory {
            resident_words: (tr_res + st_res) as u64 + trie_words,
            peak_resident_words: (tr_peak + st_peak) as u64 + trie_words,
            total_words: (tr_total + st_total) as u64 + trie_words,
        }
    }

    /// The fault-injection surface of one component, for a
    /// [`faultsim::FaultPlan`] to write into.
    ///
    /// # Panics
    ///
    /// Panics on [`FaultComponent::Buffer`]: the packet buffer is
    /// scheduler state, not sorter state — the scheduler routes buffer
    /// faults to its own payload memory before they reach a backend.
    pub fn fault_target_mut(&mut self, component: FaultComponent) -> &mut dyn FaultTarget {
        match component {
            FaultComponent::Trie => &mut self.trie,
            FaultComponent::Translation => &mut self.translation,
            FaultComponent::TagStore => &mut self.store,
            FaultComponent::Buffer => {
                panic!("the sorter holds no packet buffer; route buffer faults to the scheduler")
            }
        }
    }

    /// Audits one section of the translation table, then of the trie,
    /// optionally repairing each, and reports in the fault ledger's
    /// terms: the words checked, and one finding per audited component.
    /// The table goes first: the trie audit treats it as ground truth,
    /// so a repair must land before the trie section is rebuilt from it.
    ///
    /// # Panics
    ///
    /// Panics if `section` is not below the branching factor.
    pub fn scrub(&mut self, section: u32, repair: bool) -> (u64, Vec<ScrubFinding>) {
        let table = self.scrub_translation_section(section, repair);
        // A latched mismatch whose content healed (or a lazy-mode
        // detect-only audit) names no entry: it claims by component.
        let words = if table.crc_mismatch && table.damaged_words.is_empty() {
            vec![None]
        } else {
            table.damaged_words.iter().map(|&w| Some(w)).collect()
        };
        let mut findings = vec![ScrubFinding {
            component: FaultComponent::Translation,
            words,
            // Modeled repair cost: the audit reads plus one write per
            // restored entry.
            repaired: table.repaired.then_some((
                table.words_checked + table.repaired_entries,
                table.repaired_entries,
            )),
            cycle: self.cycles().value(),
        }];
        let trie = self.scrub_section(section, repair);
        findings.push(ScrubFinding {
            component: FaultComponent::Trie,
            words: trie.mismatches.iter().map(|m| Some(m.flat)).collect(),
            // Modeled repair cost: the audit reads plus one insertion
            // pass per restored marker.
            repaired: trie.repaired.then_some((
                trie.words_checked + trie.repaired_markers * u64::from(self.geometry.levels()),
                trie.repaired_markers,
            )),
            cycle: self.cycles().value(),
        });
        (table.words_checked + trie.words_checked, findings)
    }

    /// Audits one trie section against translation-table ground truth,
    /// optionally repairing it (the scrubber's unit of work).
    ///
    /// The invariant checked: a leaf marker bit is set iff the
    /// corresponding translation entry is present, and an upper-level bit
    /// is set iff its child subtree holds any marker. This holds under
    /// *both* cleanup policies — commits set marker and entry together,
    /// eager pops clear both, lazy pops clear neither, and section
    /// recycling clears both in bulk.
    ///
    /// Repair reuses the Fig.-6 bulk-delete machinery: the section is
    /// isolated with one root write ([`MultiBitTrie::clear_section`]) and
    /// rebuilt by re-inserting a marker for every translation entry the
    /// section holds. All reads are out-of-band audit traffic (no access
    /// accounting); the re-inserted markers cost real trie writes.
    ///
    /// # Panics
    ///
    /// Panics if `section` is not below the branching factor.
    pub fn scrub_section(&mut self, section: u32, repair: bool) -> SectionScrub {
        assert!(
            section < self.geometry.branching(),
            "section {section} out of range"
        );
        let b = self.geometry.literal_bits();
        let branching = self.geometry.branching();
        let levels = self.geometry.levels();
        let mut mismatches = Vec::new();
        let mut words_checked = 1u64; // the root word
                                      // Expected occupancy words for the section subtree, leaf upward.
                                      // `expected[l - 1]` covers level `l`'s span under the section.
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); levels.saturating_sub(1) as usize];
        for level in (1..levels).rev() {
            let span = 1usize << (b * (level - 1));
            let start = (section as usize) << (b * (level - 1));
            let mut words = vec![0u64; span];
            for (k, word) in words.iter_mut().enumerate() {
                for j in 0..branching {
                    let set = if level == levels - 1 {
                        let tag = Tag((((start + k) as u32) << b) | j);
                        self.translation.peek(tag).is_some()
                    } else {
                        expected[level as usize][(k << b) | j as usize] != 0
                    };
                    if set {
                        *word |= 1u64 << j;
                    }
                }
            }
            expected[level as usize - 1] = words;
        }
        for level in 1..levels {
            let start = (section as usize) << (b * (level - 1));
            for (k, &want) in expected[level as usize - 1].iter().enumerate() {
                words_checked += 1;
                let index = (start + k) as u32;
                let found = self.trie.node_word(level, index);
                if found != want {
                    mismatches.push(TrieMismatch {
                        level,
                        index,
                        flat: self.trie.fault_word_index(level, index),
                        expected: want,
                        found,
                    });
                }
            }
        }
        // The root word is shared across sections: audit this section's
        // bit only.
        let root_found = self.trie.node_word(0, 0);
        let root_want_bit = if levels == 1 {
            // Single-level tree: the section *is* the tag value.
            u64::from(self.translation.peek(Tag(section)).is_some())
        } else {
            u64::from(expected[0].iter().any(|&w| w != 0))
        };
        if (root_found >> section) & 1 != root_want_bit {
            let want = (root_found & !(1u64 << section)) | (root_want_bit << section);
            mismatches.insert(
                0,
                TrieMismatch {
                    level: 0,
                    index: 0,
                    flat: 0,
                    expected: want,
                    found: root_found,
                },
            );
        }
        let mut repaired_markers = 0u64;
        let run_repair = repair && !mismatches.is_empty();
        if run_repair {
            self.trie.clear_section(section);
            let span = self.geometry.tag_space() / u64::from(self.geometry.branching());
            let base = u64::from(section) * span;
            for value in base..base + span {
                if self.translation.peek(Tag(value as u32)).is_some() {
                    self.trie.insert_marker(Tag(value as u32));
                    repaired_markers += 1;
                }
            }
        }
        SectionScrub {
            section,
            words_checked,
            mismatches,
            repaired_markers,
            repaired: run_repair,
        }
    }

    /// Audits one translation-table section against its running check
    /// code, optionally repairing it — the second half of the scrubber's
    /// unit of work ([`SortRetrieveCircuit::scrub_section`] audits the
    /// trie against the translation table; this audits the table
    /// itself).
    ///
    /// Detection is cheap: recompute the section's check code and
    /// compare (one word of audit cost on a match). On a mismatch under
    /// [`CleanupPolicy::Eager`], ground truth is rebuilt from the tag
    /// store's sorted list — the entry for a value must point at its
    /// most recently inserted link, the last of its duplicate run in
    /// list order — and every disagreeing entry is reported; repair
    /// rewrites them (real translation writes) and re-latches the code.
    /// Under [`CleanupPolicy::Lazy`] departed values legitimately keep
    /// stale entries, so the walk is not ground truth: the scrub
    /// detects, and repair only re-latches the code onto the surviving
    /// content so the same upset is not re-reported every pass.
    ///
    /// All reads are out-of-band audit traffic (no access accounting);
    /// repairs cost real translation writes.
    ///
    /// # Panics
    ///
    /// Panics if `section` is not below the branching factor.
    pub fn scrub_translation_section(&mut self, section: u32, repair: bool) -> TranslationScrub {
        assert!(
            section < self.geometry.branching(),
            "section {section} out of range"
        );
        let mut words_checked = 1u64; // the check-code compare
        if self.translation.verify_section_crc(section) {
            return TranslationScrub {
                section,
                words_checked,
                crc_mismatch: false,
                damaged_words: Vec::new(),
                repaired_entries: 0,
                repaired: false,
            };
        }
        let span = self.geometry.tag_space() / u64::from(self.geometry.branching());
        let base = u64::from(section) * span;
        let mut damaged_words = Vec::new();
        if self.policy == CleanupPolicy::Eager {
            // Ground truth from the storage list: last duplicate wins.
            let mut expected: Vec<Option<LinkAddr>> = vec![None; span as usize];
            for (addr, tag, _payload) in self.store.iter_links() {
                let value = u64::from(tag.value());
                if (base..base + span).contains(&value) {
                    expected[(value - base) as usize] = Some(addr);
                }
            }
            for (k, &want) in expected.iter().enumerate() {
                words_checked += 1;
                let tag = Tag((base + k as u64) as u32);
                if self.translation.peek(tag) != want {
                    damaged_words.push(tag.value() as usize);
                }
            }
            if repair {
                for &word in &damaged_words {
                    let tag = Tag(word as u32);
                    match expected[word - base as usize] {
                        Some(addr) => self.translation.set(tag, addr),
                        None => self.translation.clear(tag),
                    }
                }
            }
        }
        let repaired_entries = if repair {
            damaged_words.len() as u64
        } else {
            0
        };
        if repair {
            self.translation.resync_section_crc(section);
        }
        TranslationScrub {
            section,
            words_checked,
            crc_mismatch: true,
            damaged_words,
            repaired_entries,
            repaired: repair,
        }
    }

    /// Locates the list predecessor via tree + translation table.
    fn locate_predecessor(&mut self, tag: Tag) -> Result<Option<LinkAddr>, SortError> {
        if !self.geometry.contains(tag) {
            return Err(SortError::TagOutOfRange {
                tag,
                tag_bits: self.geometry.tag_bits(),
            });
        }
        // Initialization mode (paper §III-A): an empty system skips the
        // search entirely; only the tree write is needed. Under lazy
        // cleanup, stale markers survive the drain, so the restart must
        // resume at or above the highest of them (the paper's monotone
        // virtual time) — otherwise later searches could land on a stale
        // marker *above* the new live minimum and dereference a freed
        // link.
        if self.store.is_empty() {
            if self.policy == CleanupPolicy::Lazy {
                if let Some(stale_max) = self.trie.max() {
                    if tag < stale_max {
                        return Err(SortError::BelowMinimum {
                            tag,
                            minimum: stale_max,
                        });
                    }
                }
            }
            return Ok(None);
        }
        if self.policy == CleanupPolicy::Lazy {
            // In tolerant mode a corruption-truncated list can leave the
            // length counter above an empty head; degrade to head insert.
            let Some((minimum, _)) = self.store.peek_min() else {
                return Ok(None);
            };
            if tag < minimum {
                return Err(SortError::BelowMinimum { tag, minimum });
            }
        }
        if self.tolerant {
            return Ok(self.locate_predecessor_tolerant(tag));
        }
        match self.trie.closest_at_or_below(tag) {
            Some(value) => {
                let addr = self
                    .translation
                    .get(value)
                    .expect("tree marker without translation entry");
                Ok(Some(addr))
            }
            None => Ok(None),
        }
    }

    /// The tolerant-mode search: every invariant violation the plain path
    /// would panic on is logged and degraded to a head insert — locally
    /// mis-sorted service, but continued service.
    fn locate_predecessor_tolerant(&mut self, tag: Tag) -> Option<LinkAddr> {
        let value = match self.trie.closest_at_or_below_tolerant(tag) {
            Ok(v) => v?,
            Err(dead) => {
                let word = self.trie.fault_word_index(dead.level, dead.index);
                self.integrity_log.push((FaultComponent::Trie, word));
                return None;
            }
        };
        match self.translation.get(value) {
            Some(addr) if (addr.0 as usize) < self.store.capacity() => Some(addr),
            _ => {
                self.integrity_log
                    .push((FaultComponent::Translation, value.value() as usize));
                None
            }
        }
    }

    fn commit_insert(&mut self, tag: Tag, addr: LinkAddr) {
        self.translation.set(tag, addr);
        self.trie.insert_marker(tag);
    }

    fn reconcile_pop(&mut self, tag: Tag, addr: LinkAddr) {
        if self.policy == CleanupPolicy::Eager && self.translation.get(tag) == Some(addr) {
            // The departing link was the most recent instance of its
            // value: the value has fully left the system.
            self.translation.clear(tag);
            self.trie.remove_marker(tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: &mut SortRetrieveCircuit) -> Vec<(u32, u32)> {
        std::iter::from_fn(|| c.pop_min())
            .map(|(t, p)| (t.value(), p.index()))
            .collect()
    }

    #[test]
    fn sorts_arbitrary_insert_order() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        for (i, t) in [500u32, 3, 1000, 42, 999, 4, 4095, 0].iter().enumerate() {
            c.insert(Tag(*t), PacketRef(i as u32)).unwrap();
        }
        let tags: Vec<u32> = drain(&mut c).iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, vec![0, 3, 4, 42, 500, 999, 1000, 4095]);
        assert!(c.is_empty());
    }

    #[test]
    fn duplicates_served_fcfs_via_translation_table() {
        // Paper Fig. 11's scenario: 5, 5, then 6 — the second 5 lands
        // after the first, and 6 lands after the *newest* 5.
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 16);
        c.insert(Tag(5), PacketRef(1)).unwrap();
        c.insert(Tag(5), PacketRef(2)).unwrap();
        c.insert(Tag(6), PacketRef(3)).unwrap();
        assert_eq!(
            drain(&mut c),
            vec![(5, 1), (5, 2), (6, 3)],
            "first come first served among equal tags"
        );
    }

    #[test]
    fn eager_cleanup_keeps_tree_and_store_coherent() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 16);
        c.insert(Tag(7), PacketRef(0)).unwrap();
        c.insert(Tag(9), PacketRef(1)).unwrap();
        c.pop_min().unwrap(); // 7 leaves; its marker must go too
                              // A new 8 must sort after nothing (7's marker gone) but before 9.
        c.insert(Tag(8), PacketRef(2)).unwrap();
        assert_eq!(drain(&mut c), vec![(8, 2), (9, 1)]);
    }

    #[test]
    fn eager_cleanup_allows_below_minimum_inserts() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 16);
        c.insert(Tag(100), PacketRef(0)).unwrap();
        c.insert(Tag(5), PacketRef(1)).unwrap(); // fine under Eager
        assert_eq!(drain(&mut c), vec![(5, 1), (100, 0)]);
    }

    #[test]
    fn lazy_policy_rejects_contract_violations() {
        let mut c = SortRetrieveCircuit::with_policy(Geometry::paper(), 16, CleanupPolicy::Lazy);
        c.insert(Tag(100), PacketRef(0)).unwrap();
        assert_eq!(
            c.insert(Tag(5), PacketRef(1)),
            Err(SortError::BelowMinimum {
                tag: Tag(5),
                minimum: Tag(100)
            })
        );
        // At-the-minimum duplicates are allowed by the WFQ contract.
        c.insert(Tag(100), PacketRef(2)).unwrap();
        assert_eq!(drain(&mut c), vec![(100, 0), (100, 2)]);
    }

    #[test]
    fn lazy_policy_correct_for_contract_conforming_stream() {
        // Under the paper's contract — every new tag at or above the
        // smallest tag in the system — departures ascend, so every stale
        // marker sits at or below the live minimum and can never win a
        // closest-match search. A long conforming mix must stay sorted.
        let mut c = SortRetrieveCircuit::with_policy(Geometry::paper(), 256, CleanupPolicy::Lazy);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut popped = Vec::new();
        for i in 0..400u32 {
            let min = c.peek_min().map_or(0, |(t, _)| t.value());
            let tag = min + (next() % 64) as u32;
            if tag < 4096 {
                c.insert(Tag(tag), PacketRef(i)).unwrap();
            }
            if next() % 2 == 0 {
                if let Some((t, _)) = c.pop_min() {
                    popped.push(t.value());
                }
            }
        }
        popped.extend(drain(&mut c).iter().map(|&(t, _)| t));
        assert!(
            popped.windows(2).all(|w| w[0] <= w[1]),
            "lazy-mode service order regressed"
        );
    }

    #[test]
    fn lazy_stale_markers_are_shadowed_by_live_minimum() {
        let mut c = SortRetrieveCircuit::with_policy(Geometry::paper(), 64, CleanupPolicy::Lazy);
        for t in [10u32, 11, 12, 40] {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        for _ in 0..3 {
            c.pop_min().unwrap(); // 10, 11, 12 depart; markers remain
        }
        // 45's closest live value is 40; the stale 10/11/12 markers are
        // below the live minimum and cannot be returned.
        c.insert(Tag(45), PacketRef(45)).unwrap();
        let tags: Vec<u32> = c.iter_sorted().map(|(t, _)| t.value()).collect();
        assert_eq!(tags, vec![40, 45]);
        // 35 would land *between* a stale marker and the live minimum —
        // exactly the case the paper's contract excludes and eager
        // cleanup exists for. Lazy mode must refuse rather than corrupt.
        assert!(matches!(
            c.insert(Tag(35), PacketRef(35)),
            Err(SortError::BelowMinimum { .. })
        ));
    }

    #[test]
    fn insert_and_pop_single_slot() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 16);
        c.insert(Tag(10), PacketRef(0)).unwrap();
        c.insert(Tag(20), PacketRef(1)).unwrap();
        let before = c.cycles();
        let served = c.insert_and_pop(Tag(15), PacketRef(2)).unwrap();
        assert_eq!(c.cycles().since(before), 4, "combined op is one slot");
        assert_eq!(served, Some((Tag(10), PacketRef(0))));
        assert_eq!(drain(&mut c), vec![(15, 2), (20, 1)]);
    }

    #[test]
    fn insert_and_pop_duplicate_of_departing_minimum() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 16);
        c.insert(Tag(5), PacketRef(0)).unwrap();
        c.insert(Tag(9), PacketRef(1)).unwrap();
        // A new 5 arrives as the old 5 departs.
        let served = c.insert_and_pop(Tag(5), PacketRef(2)).unwrap();
        assert_eq!(served, Some((Tag(5), PacketRef(0))));
        assert_eq!(drain(&mut c), vec![(5, 2), (9, 1)]);
    }

    #[test]
    fn fixed_four_cycles_per_operation_in_steady_state() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 4096);
        for t in 0..1000u32 {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        for _ in 0..500 {
            c.pop_min().unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.ops, 1500);
        assert_eq!(stats.cycles_per_op(), 4.0);
    }

    #[test]
    fn qdr_circuit_doubles_throughput() {
        // §III-C's "QDRII ... under development" + §V's "suitable for
        // throughput speeds beyond 40 Gb/s": two-cycle slots double the
        // packet rate at the same clock.
        let mut c = SortRetrieveCircuit::with_policy_and_memory(
            Geometry::paper(),
            1024,
            CleanupPolicy::Eager,
            crate::tagstore::MemoryKind::QdrLike,
        );
        for t in 0..512u32 {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        for _ in 0..256 {
            c.pop_min().unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.cycles_per_op(), 2.0);
        let mpps = stats.packets_per_second(PAPER_CLOCK_HZ) / 1e6;
        assert!((mpps - 71.6).abs() < 0.1, "got {mpps} Mpps");
        let gbps = stats.line_rate_bps(PAPER_CLOCK_HZ, PAPER_MEAN_PACKET_BYTES) / 1e9;
        assert!(gbps > 80.0, "got {gbps} Gb/s");
    }

    #[test]
    fn table2_throughput_derivation() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 1024);
        for t in 0..512u32 {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        let stats = c.stats();
        let mpps = stats.packets_per_second(PAPER_CLOCK_HZ) / 1e6;
        assert!((mpps - 35.8).abs() < 0.1, "got {mpps} Mpps");
        let gbps = stats.line_rate_bps(PAPER_CLOCK_HZ, PAPER_MEAN_PACKET_BYTES) / 1e9;
        assert!((40.0..41.0).contains(&gbps), "got {gbps} Gb/s");
    }

    #[test]
    fn recycle_section_clears_stale_markers_in_lazy_mode() {
        let mut c = SortRetrieveCircuit::with_policy(Geometry::paper(), 64, CleanupPolicy::Lazy);
        // Fill and drain section 0 (tags 0..256).
        for t in [1u32, 2, 3] {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        while c.pop_min().is_some() {}
        // Stale markers linger...
        let removed = c.recycle_section(0);
        assert_eq!(removed, 3, "lazy mode leaves markers for recycling");
        // ...and the range is clean for reuse.
        c.insert(Tag(1), PacketRef(9)).unwrap();
        assert_eq!(drain(&mut c), vec![(1, 9)]);
    }

    #[test]
    fn recycle_section_is_noop_under_eager() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        for t in [1u32, 2, 3] {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        while c.pop_min().is_some() {}
        assert_eq!(c.recycle_section(0), 0);
    }

    #[test]
    fn errors_are_reported() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 2);
        assert_eq!(
            c.insert(Tag(5000), PacketRef(0)),
            Err(SortError::TagOutOfRange {
                tag: Tag(5000),
                tag_bits: 12
            })
        );
        c.insert(Tag(1), PacketRef(0)).unwrap();
        c.insert(Tag(2), PacketRef(1)).unwrap();
        assert_eq!(
            c.insert(Tag(3), PacketRef(2)),
            Err(SortError::Full { capacity: 2 })
        );
        assert_eq!(
            SortError::Full { capacity: 2 }.to_string(),
            "tag storage memory full (2 links)"
        );
    }

    #[test]
    fn scrub_of_healthy_circuit_finds_nothing() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        for t in [3u32, 300, 301, 4000] {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        c.pop_min().unwrap();
        for section in 0..c.geometry().sections() {
            let scrub = c.scrub_section(section, true);
            assert!(scrub.mismatches.is_empty(), "section {section}");
            assert!(!scrub.repaired);
            assert_eq!(scrub.repaired_markers, 0);
            // Paper geometry: 1 root + 1 level-1 + 16 leaf words.
            assert_eq!(scrub.words_checked, 18);
        }
    }

    #[test]
    fn scrub_detects_lazy_mode_state_as_consistent() {
        // Lazy pops clear neither marker nor entry: the marker ⇔ entry
        // invariant must survive a fill/drain cycle untouched.
        let mut c = SortRetrieveCircuit::with_policy(Geometry::paper(), 64, CleanupPolicy::Lazy);
        for t in [5u32, 6, 7] {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        while c.pop_min().is_some() {}
        assert!(c.scrub_section(0, false).mismatches.is_empty());
        c.recycle_section(0);
        assert!(c.scrub_section(0, false).mismatches.is_empty());
    }

    #[test]
    fn scrub_and_repair_restores_a_flipped_leaf_word() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        for t in [0x120u32, 0x121, 0x300] {
            c.insert(Tag(t), PacketRef(t)).unwrap();
        }
        // Flip 0x121's leaf marker off and a bogus 0x125 on.
        let flat = c.trie.fault_word_index(2, 0x12);
        c.fault_target_mut(FaultComponent::Trie)
            .inject_fault(flat, (1 << 1) | (1 << 5));
        let scrub = c.scrub_section(1, true);
        assert_eq!(scrub.mismatches.len(), 1);
        assert_eq!(scrub.mismatches[0].flat, flat);
        assert_eq!(scrub.mismatches[0].expected, (1 << 0) | (1 << 1));
        assert_eq!(scrub.mismatches[0].found, (1 << 0) | (1 << 5));
        assert!(scrub.repaired);
        assert_eq!(scrub.repaired_markers, 2);
        // Section 3 was untouched; the repaired circuit serves exactly.
        assert!(c.scrub_section(1, false).mismatches.is_empty());
        assert_eq!(
            drain(&mut c),
            vec![(0x120, 0x120), (0x121, 0x121), (0x300, 0x300)]
        );
    }

    #[test]
    fn scrub_detects_conjured_translation_entry() {
        // A presence-bit upset in the translation table makes the table
        // itself the corrupt side; the scrubber still reports the
        // disagreement (it cannot know which side is right — the ledger
        // does).
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.insert(Tag(0x200), PacketRef(1)).unwrap();
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0x210, 1 << 32);
        let scrub = c.scrub_section(2, false);
        assert!(!scrub.mismatches.is_empty());
    }

    #[test]
    fn tolerant_mode_degrades_instead_of_panicking() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.set_tolerant(true);
        c.insert(Tag(0x123), PacketRef(1)).unwrap();
        // Clear the leaf word: upper levels now point at nothing.
        let flat = c.trie.fault_word_index(2, 0x12);
        c.fault_target_mut(FaultComponent::Trie)
            .inject_fault(flat, 1 << 3);
        // The plain path would panic on the dead end; tolerant mode logs
        // it and falls back to a head insert.
        c.insert(Tag(0x200), PacketRef(2)).unwrap();
        // Blamed on the emptied node, stamped with the cycle of the drain.
        assert_eq!(
            c.take_detections(),
            vec![Detection {
                component: FaultComponent::Trie,
                word: Some(flat),
                cycle: c.cycles().value(),
                kind: DetectionKind::Structural,
            }]
        );
        assert!(c.take_detections().is_empty());
        assert_eq!(c.pop_min().map(|(t, _)| t), Some(Tag(0x200)));
    }

    #[test]
    fn tolerant_mode_reports_missing_translation() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.set_tolerant(true);
        c.insert(Tag(0x40), PacketRef(1)).unwrap();
        // Drop the entry's presence bit: the marker now dangles.
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0x40, 1 << 32);
        c.insert(Tag(0x50), PacketRef(2)).unwrap();
        assert_eq!(
            c.take_detections(),
            vec![Detection {
                component: FaultComponent::Translation,
                word: Some(0x40),
                cycle: c.cycles().value(),
                kind: DetectionKind::Structural,
            }]
        );
    }

    #[test]
    fn empty_circuit_behaviour() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 4);
        assert_eq!(c.pop_min(), None);
        assert_eq!(c.peek_min(), None);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.capacity(), 4);
        // insert_and_pop on an empty circuit cuts through.
        assert_eq!(
            c.insert_and_pop(Tag(9), PacketRef(0)).unwrap(),
            Some((Tag(9), PacketRef(0)))
        );
        assert_eq!(c.peek_min(), None);
    }

    #[test]
    fn translation_scrub_is_clean_without_damage() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.insert(Tag(0xa05), PacketRef(1)).unwrap();
        c.insert(Tag(0xa05), PacketRef(2)).unwrap();
        c.pop_min();
        for section in 0..16u32 {
            let scrub = c.scrub_translation_section(section, true);
            assert!(!scrub.crc_mismatch, "section {section}");
            assert_eq!(scrub.words_checked, 1, "a clean check costs one compare");
            assert!(!scrub.repaired);
        }
    }

    #[test]
    fn translation_scrub_repairs_a_damaged_pointer() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.insert(Tag(0xa05), PacketRef(1)).unwrap();
        c.insert(Tag(0xa07), PacketRef(2)).unwrap();
        // Flip an address bit in 0xa05's entry behind the checker.
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0xa05, 0b1);
        let scrub = c.scrub_translation_section(0xa, true);
        assert!(scrub.crc_mismatch);
        assert_eq!(scrub.damaged_words, vec![0xa05]);
        assert_eq!(scrub.repaired_entries, 1);
        assert!(scrub.repaired);
        // The repair restored the real pointer: a duplicate insert
        // chains through it and FIFO service is intact.
        c.insert(Tag(0xa05), PacketRef(3)).unwrap();
        assert_eq!(c.pop_min(), Some((Tag(0xa05), PacketRef(1))));
        assert_eq!(c.pop_min(), Some((Tag(0xa05), PacketRef(3))));
        assert_eq!(c.pop_min(), Some((Tag(0xa07), PacketRef(2))));
        // And the check code was re-latched.
        assert!(!c.scrub_translation_section(0xa, false).crc_mismatch);
    }

    #[test]
    fn translation_scrub_repairs_a_conjured_entry() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.insert(Tag(0x305), PacketRef(1)).unwrap();
        // Conjure a presence bit for a value that holds no link.
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0x310, 1 << 32);
        let scrub = c.scrub_translation_section(3, true);
        assert_eq!(scrub.damaged_words, vec![0x310]);
        assert!(!c.scrub_translation_section(3, false).crc_mismatch);
        assert_eq!(c.pop_min(), Some((Tag(0x305), PacketRef(1))));
    }

    #[test]
    fn translation_scrub_detects_latched_damage_after_overwrite() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        c.insert(Tag(0x105), PacketRef(1)).unwrap();
        // Conjure a presence bit at a value with no marker: the next
        // insert of that value searches via 0x105's clean entry and
        // legitimately overwrites the damaged word with correct state…
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0x110, 1 << 32);
        c.insert(Tag(0x110), PacketRef(2)).unwrap();
        let scrub = c.scrub_translation_section(1, true);
        // …so the code still flags the upset, but content ground truth
        // finds nothing left to rewrite.
        assert!(scrub.crc_mismatch);
        assert!(scrub.damaged_words.is_empty());
        assert_eq!(scrub.repaired_entries, 0);
        assert!(!c.scrub_translation_section(1, false).crc_mismatch);
    }

    #[test]
    fn translation_scrub_is_detect_only_under_lazy_cleanup() {
        let mut c = SortRetrieveCircuit::with_policy(Geometry::paper(), 64, CleanupPolicy::Lazy);
        c.insert(Tag(0x205), PacketRef(1)).unwrap();
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0x205, 0b1);
        let scrub = c.scrub_translation_section(2, true);
        assert!(scrub.crc_mismatch);
        // Stale entries are legitimate under lazy cleanup, so the walk
        // is not ground truth: no rewrites, just a re-latched code.
        assert!(scrub.damaged_words.is_empty());
        assert_eq!(scrub.repaired_entries, 0);
        assert!(scrub.repaired);
        assert!(!c.scrub_translation_section(2, false).crc_mismatch);
    }

    #[test]
    fn translation_scrub_ends_on_a_tag_store_pointer_cycle() {
        let mut c = SortRetrieveCircuit::new(Geometry::paper(), 64);
        // Links 0, 1, 2 in list order; the tail's next field is NIL.
        for (i, tag) in [0xa01, 0xa02, 0xa03].into_iter().enumerate() {
            c.insert(Tag(tag), PacketRef(i as u32)).unwrap();
        }
        // Clear every pointer bit of the tail: NIL becomes link 0, an
        // in-range address that closes the list into a cycle.
        let layout = c.store.layout();
        let nil = (1u64 << layout.ptr_bits()) - 1;
        c.fault_target_mut(FaultComponent::TagStore)
            .inject_fault(2, nil << (layout.tag_bits() + layout.payload_bits()));
        assert_eq!(c.iter_sorted().count(), 3, "the walk stops at len");
        // A check-code mismatch makes the scrub walk the list.
        c.fault_target_mut(FaultComponent::Translation)
            .inject_fault(0xa05, 1 << 32);
        let scrub = c.scrub_translation_section(0xa, true);
        assert!(scrub.crc_mismatch);
        assert_eq!(scrub.damaged_words, vec![0xa05]);
        assert!(!c.scrub_translation_section(0xa, false).crc_mismatch);
    }
}
