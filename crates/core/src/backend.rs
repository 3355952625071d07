//! The sort-backend abstraction: one pop-min primitive, many sorters.
//!
//! PIFO (Sivaraman et al.) argues that a single *pop-min* primitive can
//! serve a whole family of packet schedulers; Eiffel (Saeed et al.)
//! shows the same bucketed-queue structure the paper builds in silicon
//! also reaches tens of Mpps in software when the occupancy bitmaps are
//! walked with find-first-set instructions. [`SortBackend`] extracts
//! that primitive from [`SortRetrieveCircuit`] so the scheduler stack
//! can swap sorters without caring which one is underneath:
//!
//! * the paper's trie circuit ([`SortRetrieveCircuit`]) — the default,
//!   with full cycle accounting and fault modeling;
//! * the flat FFS sorter (`fastpath::FfsSorter`) — the software
//!   fast path, sequence-identical to the trie on every workload;
//! * the binary-heap oracle ([`HeapSorter`](crate::HeapSorter)) — the
//!   obviously-correct reference the other two are cross-checked
//!   against.
//!
//! The contract is deliberately narrow: insert a tag, pop the minimum,
//! bulk-delete a wrapped section, and expose the occupancy and
//! introspection hooks the scrubber and telemetry layers need. Backends
//! without addressable hardware state reject fault attachment with a
//! structured [`FaultAttachError`] instead of silently dropping faults.
//!
//! # Ordering contract
//!
//! Every backend must serve tags in ascending order with FIFO service
//! among duplicates (the circuit's FCFS tie-break), charge exactly one
//! storage slot of [`MemoryKind::slot_cycles`] cycles per insert and per
//! pop, and implement the same wrap semantics: under
//! [`CleanupPolicy::Lazy`] an insert below the live minimum (or below
//! the stale-marker maximum when drained) is a
//! [`SortError::BelowMinimum`], and [`SortBackend::recycle_section`]
//! clears a whole top-level section so the virtual clock can wrap into
//! it. Cross-check property tests in the scheduler crate and the CI
//! conformance matrix hold all backends to this contract.

use faultsim::{Detection, FaultAttachError, FaultComponent, FaultTarget, ScrubFinding};

use crate::circuit::{CircuitStats, CleanupPolicy, SortError, SortRetrieveCircuit};
use crate::geometry::Geometry;
use crate::tag::{PacketRef, Tag};
use crate::tagstore::MemoryKind;

/// Everything needed to construct a sort backend.
///
/// This is the backend-agnostic subset of the scheduler's configuration:
/// the tag geometry, the link capacity, the marker cleanup policy, and
/// the storage-memory timing model the cycle accounting derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendSpec {
    /// Tag width and trie shape.
    pub geometry: Geometry,
    /// Maximum simultaneously stored tags.
    pub capacity: usize,
    /// When markers of departed values are cleared.
    pub cleanup: CleanupPolicy,
    /// Storage timing model (fixes the cycles-per-operation charge).
    pub memory: MemoryKind,
}

/// Resident/peak/total addressable state words of a backend, as reported
/// by [`SortBackend::resident_memory`].
///
/// "Words" are the backend's own addressable units summed across its
/// components (for the trie circuit: translation entries + tag-store link
/// words + trie node words). `resident_words` tracks the host memory
/// actually materialized for the *live*-tag window, while `total_words`
/// is what allocating the full tag space up front would cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidentMemory {
    /// Words currently materialized in host memory.
    pub resident_words: u64,
    /// High-water mark of `resident_words` over the backend's lifetime.
    pub peak_resident_words: u64,
    /// Words the full state would occupy if allocated up front.
    pub total_words: u64,
}

/// A priority sorter the scheduler can drive: the narrow pop-min
/// interface of the paper's circuit, abstracted.
///
/// See the module-level docs above for the ordering/wrap contract and the
/// cross-checking story. Methods with default bodies are the
/// introspection hooks hardware-modeled backends override; software
/// backends inherit the inert defaults (no detections, no addressable
/// fault state). A backend reports faults in the ledger's own terms
/// ([`Detection`], [`ScrubFinding`]): what a symptom in one of its
/// memories means is its own business.
pub trait SortBackend {
    /// Builds a fresh, empty backend from the spec.
    fn build(spec: &BackendSpec) -> Self
    where
        Self: Sized;

    /// Stable lowercase backend name (`trie`, `fastpath`, `heap`) used
    /// in CLI flags, reports, and fault-rejection errors.
    fn name(&self) -> &'static str;

    /// The tag geometry the backend was built with.
    fn geometry(&self) -> Geometry;

    /// Maximum simultaneously stored tags.
    fn capacity(&self) -> usize;

    /// Currently stored tags.
    fn len(&self) -> usize;

    /// Whether no tags are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts `tag` into the system with its packet reference, charging
    /// one storage slot.
    ///
    /// # Errors
    ///
    /// [`SortError::TagOutOfRange`] if the tag is too wide,
    /// [`SortError::Full`] at capacity, and — under
    /// [`CleanupPolicy::Lazy`] — [`SortError::BelowMinimum`] if the WFQ
    /// contract is violated.
    fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<(), SortError>;

    /// Removes and returns the smallest tag (FIFO among duplicates),
    /// charging one storage slot.
    fn pop_min(&mut self) -> Option<(Tag, PacketRef)>;

    /// Removes and returns the **largest** tag (LIFO among duplicates —
    /// the most-recently-inserted departs), charging one storage slot.
    ///
    /// This is the push-out primitive of programmable admission (Alcoz
    /// et al.): when the buffer fills, the scheduler may evict the
    /// worst-ranked queued packet to admit a better-ranked arrival.
    /// Unlike [`SortBackend::pop_min`], marker cleanup is **always
    /// eager** here, even under [`CleanupPolicy::Lazy`]: a stale marker
    /// *above* the live set would win closest-match searches, so it must
    /// be cleared the moment the last duplicate of the maximum departs.
    fn pop_max(&mut self) -> Option<(Tag, PacketRef)>;

    /// The smallest stored tag, without removing it (no cycle charge).
    fn peek_min(&self) -> Option<(Tag, PacketRef)>;

    /// The largest stored tag — the one [`SortBackend::pop_max`] would
    /// evict — without removing it (no cycle charge). Push-out admission
    /// reads it to decide whether an arrival outranks the worst queued
    /// packet before paying for the eviction.
    fn peek_max(&self) -> Option<Tag>;

    /// Bulk-deletes one wrapped top-level section (Fig. 6): clears its
    /// stale markers so the virtual clock can wrap into it. Returns the
    /// number of markers cleared. Costs no storage cycles.
    ///
    /// # Panics
    ///
    /// May panic (at least in debug builds) if live tags still occupy
    /// the section.
    fn recycle_section(&mut self, section: u32) -> usize;

    /// Total storage cycles consumed so far.
    fn cycles(&self) -> u64;

    /// Aggregated instrumentation snapshot.
    fn stats(&self) -> CircuitStats;

    /// Enables or disables tolerant mode: invariant violations degrade
    /// and are logged instead of panicking. Inert for backends with no
    /// modeled corruption surface.
    fn set_tolerant(&mut self, _tolerant: bool) {}

    /// The fault-injection surface of one component.
    ///
    /// # Errors
    ///
    /// [`FaultAttachError`] if the backend keeps no addressable state
    /// for `component` — the default for software backends, so planned
    /// faults are rejected structurally rather than silently dropped.
    fn fault_target_mut(
        &mut self,
        component: FaultComponent,
    ) -> Result<&mut dyn FaultTarget, FaultAttachError> {
        Err(FaultAttachError {
            backend: self.name(),
            component,
        })
    }

    /// Drains the detections raised since the last drain (parity
    /// alarms, structural checks on the service path), each attributed
    /// to the component and word the backend blames.
    fn take_detections(&mut self) -> Vec<Detection> {
        Vec::new()
    }

    /// Audits top-level section `section` of every memory with redundant
    /// state against its ground truth, repairing when `repair` is set.
    /// Returns the words checked and one finding per audited component;
    /// backends without redundant state audit nothing.
    fn scrub(&mut self, _section: u32, _repair: bool) -> (u64, Vec<ScrubFinding>) {
        (0, Vec::new())
    }

    /// Whether the backend's off-chip state is paged; changes nothing.
    /// Backends with modeled state memory build it paged, so this only
    /// reports which case holds. It stays because wfqbench calls it on
    /// paged workloads: `ladder.rs` directly, `drive.rs` through
    /// `HwScheduler::set_paged_state`.
    fn set_paged(&mut self) -> bool {
        false
    }

    /// Resident/peak/total addressable state words, when the backend
    /// accounts for them. `None` for backends without modeled state
    /// memory (the heap oracle, the FFS fastpath).
    fn resident_memory(&self) -> Option<ResidentMemory> {
        None
    }

    /// Extracts the entries whose payload matches `belongs`, leaving
    /// everything else stored in its original service order — the
    /// migration primitive: one flow's queued tags leave the shard, the
    /// rest keep being served.
    ///
    /// The default drains the whole backend and reinserts the
    /// non-matching entries in pop order, which preserves both the
    /// ascending-tag order and the FIFO tie-break among duplicates. It
    /// therefore requires [`CleanupPolicy::Eager`] (under lazy cleanup
    /// the freshly cleared markers would gate the reinserts as
    /// [`SortError::BelowMinimum`]); live-migration callers run eager.
    ///
    /// # Panics
    ///
    /// Panics if a non-matching entry cannot be reinserted — with eager
    /// cleanup that indicates a backend contract violation, not an
    /// expected runtime condition.
    fn extract_flow(
        &mut self,
        belongs: &mut dyn FnMut(PacketRef) -> bool,
    ) -> Vec<(Tag, PacketRef)> {
        let mut keep = Vec::new();
        let mut taken = Vec::new();
        while let Some((tag, payload)) = self.pop_min() {
            if belongs(payload) {
                taken.push((tag, payload));
            } else {
                keep.push((tag, payload));
            }
        }
        for &(tag, payload) in &keep {
            self.insert(tag, payload)
                .expect("reinserting a just-popped entry cannot fail under eager cleanup");
        }
        taken
    }
}

impl SortBackend for SortRetrieveCircuit {
    fn build(spec: &BackendSpec) -> Self {
        SortRetrieveCircuit::with_policy_and_memory(
            spec.geometry,
            spec.capacity,
            spec.cleanup,
            spec.memory,
        )
    }

    fn name(&self) -> &'static str {
        "trie"
    }

    fn geometry(&self) -> Geometry {
        self.geometry()
    }

    fn capacity(&self) -> usize {
        self.capacity()
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<(), SortError> {
        self.insert(tag, payload)
    }

    fn pop_min(&mut self) -> Option<(Tag, PacketRef)> {
        self.pop_min()
    }

    fn pop_max(&mut self) -> Option<(Tag, PacketRef)> {
        self.pop_max()
    }

    fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        self.peek_min()
    }

    fn peek_max(&self) -> Option<Tag> {
        self.peek_max()
    }

    fn recycle_section(&mut self, section: u32) -> usize {
        self.recycle_section(section)
    }

    fn cycles(&self) -> u64 {
        self.cycles().value()
    }

    fn stats(&self) -> CircuitStats {
        self.stats()
    }

    fn set_tolerant(&mut self, tolerant: bool) {
        self.set_tolerant(tolerant);
    }

    fn fault_target_mut(
        &mut self,
        component: FaultComponent,
    ) -> Result<&mut dyn FaultTarget, FaultAttachError> {
        // The packet buffer lives in the scheduler, not the sorter; the
        // scheduler intercepts `Buffer` faults before reaching a backend.
        if component == FaultComponent::Buffer {
            return Err(FaultAttachError {
                backend: self.name(),
                component,
            });
        }
        Ok(self.fault_target_mut(component))
    }

    fn take_detections(&mut self) -> Vec<Detection> {
        self.take_detections()
    }

    fn scrub(&mut self, section: u32, repair: bool) -> (u64, Vec<ScrubFinding>) {
        self.scrub(section, repair)
    }

    fn set_paged(&mut self) -> bool {
        true
    }

    fn resident_memory(&self) -> Option<ResidentMemory> {
        Some(self.resident_memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BackendSpec {
        BackendSpec {
            geometry: Geometry::paper(),
            capacity: 64,
            cleanup: CleanupPolicy::Eager,
            memory: MemoryKind::SinglePort,
        }
    }

    #[test]
    fn trie_builds_through_the_trait() {
        let mut b = <SortRetrieveCircuit as SortBackend>::build(&spec());
        assert_eq!(SortBackend::name(&b), "trie");
        assert_eq!(SortBackend::capacity(&b), 64);
        SortBackend::insert(&mut b, Tag(9), PacketRef(1)).unwrap();
        SortBackend::insert(&mut b, Tag(4), PacketRef(2)).unwrap();
        assert_eq!(SortBackend::peek_min(&b), Some((Tag(4), PacketRef(2))));
        assert_eq!(SortBackend::pop_min(&mut b), Some((Tag(4), PacketRef(2))));
        // One four-cycle slot per insert and per pop.
        assert_eq!(SortBackend::cycles(&b), 12);
    }

    #[test]
    fn trie_accepts_fault_attachment_for_every_sorter_component() {
        let mut b = <SortRetrieveCircuit as SortBackend>::build(&spec());
        for component in FaultComponent::ALL {
            if component == FaultComponent::Buffer {
                // The packet buffer is scheduler state, not sorter state.
                assert!(SortBackend::fault_target_mut(&mut b, component).is_err());
                continue;
            }
            let target = SortBackend::fault_target_mut(&mut b, component).unwrap();
            assert!(target.fault_words() > 0, "{component} has no words");
        }
    }

    #[test]
    fn trie_reports_resident_below_total_from_construction() {
        let mut b = <SortRetrieveCircuit as SortBackend>::build(&spec());
        let before = SortBackend::resident_memory(&b).unwrap();
        assert!(before.resident_words < before.total_words);
        SortBackend::insert(&mut b, Tag(9), PacketRef(1)).unwrap();
        let after = SortBackend::resident_memory(&b).unwrap();
        assert!(after.resident_words > before.resident_words);
        assert!(after.resident_words <= after.total_words);
        assert_eq!(after.peak_resident_words, after.resident_words);
    }

    #[test]
    fn pop_max_serves_lifo_among_duplicates() {
        let mut b = <SortRetrieveCircuit as SortBackend>::build(&spec());
        SortBackend::insert(&mut b, Tag(7), PacketRef(1)).unwrap();
        SortBackend::insert(&mut b, Tag(7), PacketRef(2)).unwrap();
        SortBackend::insert(&mut b, Tag(3), PacketRef(0)).unwrap();
        // Largest tag first; among the duplicate 7s the newest departs.
        assert_eq!(SortBackend::pop_max(&mut b), Some((Tag(7), PacketRef(2))));
        assert_eq!(SortBackend::pop_max(&mut b), Some((Tag(7), PacketRef(1))));
        // Min-side FIFO service is untouched, and each pop charged a slot.
        assert_eq!(SortBackend::pop_min(&mut b), Some((Tag(3), PacketRef(0))));
        assert_eq!(SortBackend::pop_max(&mut b), None);
        assert_eq!(SortBackend::cycles(&b), 24);
    }

    #[test]
    fn pop_max_reconciles_markers_even_under_lazy_cleanup() {
        let mut b = <SortRetrieveCircuit as SortBackend>::build(&BackendSpec {
            cleanup: CleanupPolicy::Lazy,
            ..spec()
        });
        SortBackend::insert(&mut b, Tag(100), PacketRef(0)).unwrap();
        assert_eq!(SortBackend::pop_max(&mut b), Some((Tag(100), PacketRef(0))));
        // The marker went with the push-out: a restart below 100 is
        // legal, where a lazy pop_min would have left it gating.
        SortBackend::insert(&mut b, Tag(5), PacketRef(1)).unwrap();
        assert_eq!(SortBackend::pop_min(&mut b), Some((Tag(5), PacketRef(1))));
    }

    #[test]
    fn extract_flow_takes_one_flow_and_keeps_the_rest_in_order() {
        let mut b = <SortRetrieveCircuit as SortBackend>::build(&spec());
        // Even PacketRefs play flow A, odd ones flow B; duplicate tags
        // probe the FIFO tie-break across the reinsert.
        for (tag, pr) in [(7, 0), (3, 1), (7, 2), (3, 3), (9, 4)] {
            SortBackend::insert(&mut b, Tag(tag), PacketRef(pr)).unwrap();
        }
        let taken = b.extract_flow(&mut |p: PacketRef| p.0 % 2 == 1);
        assert_eq!(taken, vec![(Tag(3), PacketRef(1)), (Tag(3), PacketRef(3))]);
        assert_eq!(SortBackend::len(&b), 3);
        let rest: Vec<_> = std::iter::from_fn(|| SortBackend::pop_min(&mut b)).collect();
        assert_eq!(
            rest,
            vec![
                (Tag(7), PacketRef(0)),
                (Tag(7), PacketRef(2)),
                (Tag(9), PacketRef(4)),
            ],
            "survivors must keep ascending order and FIFO among duplicates"
        );
    }
}
