//! The two-stage pipeline timing model of paper §III-A.
//!
//! "Together the three level tree and translation table require four
//! clock cycles to throughput one tag" and "the tag storage memory
//! requires four clock cycles to complete a read/write cycle ... this
//! arrangement allows the operations of the separate components to be
//! synchronized most efficiently." — i.e. the circuit is a two-stage
//! pipeline with a four-cycle beat:
//!
//! ```text
//! cycle:      0    4    8    12   16
//! op k  :   [ tree+xlat ][ storage  ]
//! op k+1:        [ tree+xlat ][ storage  ]
//! op k+2:             [ tree+xlat ][ storage  ]
//! ```
//!
//! Throughput is one operation per four cycles; *latency* is eight. The
//! overlap creates one read-after-write hazard the paper does not
//! mention: operation *k*'s translation-table entry is written in its
//! storage stage (the link address is only known then), concurrent with
//! operation *k+1*'s tree/translation stage — so when *k+1*'s closest
//! match is exactly the tag *k* inserted (duplicates, or adjacent
//! values), the address must be *forwarded* from the pipeline latch.
//! [`PipelinedSorter`] models the timing, detects those forwards, and
//! proves functional equivalence with the unpipelined circuit (the
//! forward path makes the pipeline transparent).

use std::collections::VecDeque;

use faultsim::{Detection, FaultAttachError, FaultComponent, FaultTarget, ScrubFinding};
use hwsim::{Clock, Cycle, PortArbiter};

use crate::backend::{BackendSpec, ResidentMemory, SortBackend};
use crate::circuit::{CircuitStats, SortError, SortRetrieveCircuit};
use crate::geometry::Geometry;
use crate::tag::{PacketRef, Tag};
use crate::tagstore::MemoryKind;

/// Timing receipt for one pipelined operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    /// Cycle the operation entered the tree/translation stage.
    pub issued: Cycle,
    /// Cycle its storage stage completed (result architecturally
    /// visible).
    pub completed: Cycle,
}

impl Issue {
    /// End-to-end latency in cycles (always the two-stage depth × slot).
    pub fn latency(&self) -> u64 {
        self.completed.since(self.issued)
    }
}

/// Pipeline instrumentation.
///
/// [`PipelinedSorter`] (the paper's two-stage beat) only populates the
/// first three fields; the deep [`PipelinedSortBackend`] additionally
/// counts the stalls and banked-port conflicts its one-op-per-cycle
/// issue exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Operations issued.
    pub issued: u64,
    /// Read-after-write forwards: the op read state an in-flight op of
    /// the *same kind* had not yet written back, and took it from a
    /// pipeline latch instead (free — no bubble).
    pub forwards: u64,
    /// Cycles from first issue to last completion.
    pub busy_cycles: u64,
    /// One-cycle bubbles for cross-kind hazards (an insert and a pop in
    /// flight against the same trie section cannot forward — the
    /// occupancy update direction differs — so the younger op stalls).
    pub stalls: u64,
    /// Total bubble cycles inserted by those stalls.
    pub stall_cycles: u64,
    /// Tag-store accesses that found their section's SRAM bank port
    /// still held by an earlier in-flight op.
    pub port_conflicts: u64,
    /// Total cycles those conflicting accesses waited for the port.
    pub conflict_cycles: u64,
}

impl PipelineStats {
    /// Sustained cycles per operation over the run (approaches the
    /// four-cycle beat as the pipeline fills).
    pub fn cycles_per_op(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.issued as f64
        }
    }
}

/// The sort/retrieve circuit with the paper's two-stage pipeline timing.
///
/// Functionally identical to [`SortRetrieveCircuit`] (the forward path
/// hides the overlap); additionally reports issue/completion cycles and
/// hazard counts.
///
/// # Example
///
/// ```
/// use tagsort::{Geometry, PacketRef, PipelinedSorter, Tag};
///
/// # fn main() -> Result<(), tagsort::SortError> {
/// let mut p = PipelinedSorter::new(Geometry::paper(), 1024);
/// let first = p.insert(Tag(10), PacketRef(0))?;
/// let second = p.insert(Tag(20), PacketRef(1))?;
/// assert_eq!(first.latency(), 8); // two 4-cycle stages
/// // Back-to-back issues are only 4 cycles apart: the stages overlap.
/// assert_eq!(second.issued.since(first.issued), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedSorter {
    circuit: SortRetrieveCircuit,
    clock: Clock,
    /// Issue cycle of the most recent operation.
    last_issue: Option<Cycle>,
    /// Tag inserted by the op currently in its storage stage, for hazard
    /// detection.
    in_flight_tag: Option<Tag>,
    stats: PipelineStats,
}

/// Stage beat in cycles (the paper's synchronized four).
const SLOT: u64 = 4;
/// Pipeline depth in stages.
const DEPTH: u64 = 2;

impl PipelinedSorter {
    /// Creates a pipelined sorter of the given geometry and capacity.
    pub fn new(geometry: Geometry, capacity: usize) -> Self {
        Self {
            circuit: SortRetrieveCircuit::new(geometry, capacity),
            clock: Clock::new(),
            last_issue: None,
            in_flight_tag: None,
            stats: PipelineStats::default(),
        }
    }

    /// The wrapped circuit (read access).
    pub fn circuit(&self) -> &SortRetrieveCircuit {
        &self.circuit
    }

    /// Number of stored tags.
    pub fn len(&self) -> usize {
        self.circuit.len()
    }

    /// Whether no tag is stored.
    pub fn is_empty(&self) -> bool {
        self.circuit.is_empty()
    }

    /// The smallest stored tag (head register; no pipeline involvement).
    pub fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        self.circuit.peek_min()
    }

    /// Pipeline instrumentation.
    pub fn stats(&self) -> PipelineStats {
        let mut s = self.stats;
        if let Some(first_window) = self.stats.issued.checked_sub(1) {
            // busy = from cycle 0 to the last op's completion.
            s.busy_cycles = first_window * SLOT + SLOT * DEPTH;
        }
        s
    }

    /// Pipelined insert; returns the timing receipt.
    ///
    /// # Errors
    ///
    /// As for [`SortRetrieveCircuit::insert`].
    pub fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<Issue, SortError> {
        // Hazard check against the op still in its storage stage: its
        // translation write has not landed when this op's search reads.
        if let Some(in_flight) = self.in_flight_tag {
            if self.circuit.predecessor(tag)? == Some(in_flight) {
                self.stats.forwards += 1;
            }
        }
        self.circuit.insert(tag, payload)?;
        Ok(self.advance(Some(tag)))
    }

    /// Pipelined pop of the smallest tag with its timing receipt.
    pub fn pop_min(&mut self) -> Option<((Tag, PacketRef), Issue)> {
        let served = self.circuit.pop_min()?;
        Some((served, self.advance(None)))
    }

    /// Pipelined combined insert + serve (paper §III-C) with timing.
    ///
    /// # Errors
    ///
    /// As for [`SortRetrieveCircuit::insert_and_pop`].
    pub fn insert_and_pop(
        &mut self,
        tag: Tag,
        payload: PacketRef,
    ) -> Result<(Option<(Tag, PacketRef)>, Issue), SortError> {
        if let Some(in_flight) = self.in_flight_tag {
            if self.circuit.predecessor(tag)? == Some(in_flight) {
                self.stats.forwards += 1;
            }
        }
        let served = self.circuit.insert_and_pop(tag, payload)?;
        Ok((served, self.advance(Some(tag))))
    }

    fn advance(&mut self, inserted: Option<Tag>) -> Issue {
        let issued = match self.last_issue {
            // Stages overlap: the next op issues one beat later.
            Some(prev) => prev + SLOT,
            None => self.clock.now(),
        };
        self.last_issue = Some(issued);
        self.in_flight_tag = inserted;
        self.stats.issued += 1;
        Issue {
            issued,
            completed: issued + SLOT * DEPTH,
        }
    }
}

/// What an in-flight operation does to its trie section's occupancy,
/// for hazard classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// Sets occupancy bits / writes a translation entry.
    Insert,
    /// Clears occupancy bits / clears or redirects a translation entry.
    Pop,
}

/// One operation still inside the deep pipeline.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Top-level trie section the op touches.
    section: u32,
    /// Cycle the op entered stage 0.
    issue: u64,
    kind: OpKind,
}

/// The deep-pipelined sort/retrieve circuit: one operation per cycle.
///
/// Where [`PipelinedSorter`] keeps the paper's two coarse stages on a
/// four-cycle beat, this backend registers **every** component boundary
/// — one stage per trie level, one for the translation table, one for
/// the tag store — the way Jiang et al. pipeline tries for IP lookup.
/// With `L` trie levels the pipeline is `L + 2` deep and issues one
/// operation per cycle when hazard-free, so modeled throughput at the
/// paper's geometry rises from one tag per four cycles to one per
/// cycle (~143 Mpps per port at the 143.2-MHz fabricated clock).
///
/// Two hazards can break the beat, both detected from the operation
/// stream against the in-flight window:
///
/// * **Same-kind, same-section** back-to-back ops forward through the
///   stage latches (the younger op's read would miss the older op's
///   pending write; the latch supplies it) — counted, free.
/// * **Cross-kind, same-section** ops stall one cycle: an insert and a
///   pop drive a section's occupancy bits in opposite directions, and
///   the read-modify-write cannot be forwarded — counted, one bubble.
///
/// The tag-store stage additionally contends for banked SRAM ports
/// through [`hwsim::PortArbiter`] (one bank per top-level section): a
/// burst into one section serializes on that bank's port even when the
/// trie stages themselves flow freely.
///
/// Architecturally the backend is the sequential circuit — every
/// [`SortBackend`] method delegates, so service order, cycle charges,
/// fault surfaces, and scrubbing are *identical* to the `trie` backend
/// (the conformance matrix pins this). The pipeline is a parallel
/// timing model; read it through
/// [`pipeline_stats`](PipelinedSortBackend::pipeline_stats).
///
/// # Example
///
/// ```
/// use tagsort::{
///     BackendSpec, CleanupPolicy, Geometry, MemoryKind, PacketRef, PipelinedSortBackend,
///     SortBackend, Tag,
/// };
///
/// # fn main() -> Result<(), tagsort::SortError> {
/// let mut b = PipelinedSortBackend::build(&BackendSpec {
///     geometry: Geometry::paper(),
///     capacity: 1024,
///     cleanup: CleanupPolicy::Eager,
///     memory: MemoryKind::SinglePort,
/// });
/// for i in 0..100u32 {
///     b.insert(Tag((i * 289) % 4096), PacketRef(i))?;
/// }
/// // Hazard-free issue sustains close to one op per cycle.
/// assert!(b.pipeline_stats().cycles_per_op() < 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedSortBackend {
    circuit: SortRetrieveCircuit,
    memory: MemoryKind,
    /// Stage count: one per trie level + translation + tag store.
    depth: u64,
    /// Cycle the next operation would enter stage 0 (monotone).
    next_issue: u64,
    /// Completion cycle of the latest-finishing operation so far.
    final_cycle: u64,
    in_flight: VecDeque<InFlight>,
    arbiter: PortArbiter,
    stats: PipelineStats,
}

impl PipelinedSortBackend {
    /// Creates a deep-pipelined backend with eager cleanup and
    /// single-port storage (the conventions of
    /// [`SortRetrieveCircuit::new`]).
    pub fn new(geometry: Geometry, capacity: usize) -> Self {
        Self::build(&BackendSpec {
            geometry,
            capacity,
            cleanup: crate::circuit::CleanupPolicy::Eager,
            memory: MemoryKind::SinglePort,
        })
    }

    /// The wrapped sequential circuit (read access).
    pub fn circuit(&self) -> &SortRetrieveCircuit {
        &self.circuit
    }

    /// Pipeline depth in stages: one per trie level, plus the
    /// translation and tag-store stages.
    pub fn pipeline_depth(&self) -> u64 {
        self.depth
    }

    /// Deep-pipeline timing instrumentation (issue count, forwards,
    /// stalls, port conflicts, busy cycles). Distinct from
    /// [`SortBackend::stats`], which reports the architectural circuit
    /// counters shared with the `trie` backend.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.stats
    }

    /// Flip-flop bits added by the stage registers: each of the
    /// `depth` stage boundaries latches the tag, the packet reference,
    /// the link address resolved so far, and valid/kind control. This
    /// is the area the deep pipeline costs over the two-stage design
    /// (the netlist gate model is untouched — registers, not logic).
    pub fn stage_register_bits(&self) -> u64 {
        let tag_bits = u64::from(self.circuit.geometry().tag_bits());
        let payload_bits = 32; // PacketRef: slot index + generation
        let addr_bits = u64::from(
            (self.circuit.capacity().next_power_of_two().max(2))
                .trailing_zeros()
                .max(1),
        );
        let control_bits = 2; // valid + op kind
        self.depth * (tag_bits + payload_bits + addr_bits + control_bits)
    }

    /// How many cycles the tag-store stage holds its SRAM bank port:
    /// half the architectural slot (the slot pairs a read phase with a
    /// write phase; the banked layout lets consecutive ops overlap
    /// them), so 2 for single-port and 1 for QDR-like memory.
    fn store_hold_cycles(&self) -> u64 {
        (self.memory.slot_cycles() / 2).max(1)
    }

    /// Models one operation entering the pipeline: hazard-checks it
    /// against the in-flight window, arbitrates the tag-store bank
    /// port, and advances the issue pointer.
    fn issue_op(&mut self, section: u32, kind: OpKind) {
        let issue = self.next_issue;
        let depth = self.depth;
        // Ops whose write-back stage has passed are architecturally
        // visible: they leave the hazard window.
        self.in_flight.retain(|op| op.issue + depth > issue);

        let mut stall = false;
        let mut forward = false;
        for op in &self.in_flight {
            if op.section == section {
                if op.kind == kind {
                    forward = true;
                } else {
                    stall = true;
                }
            }
        }
        // A stall dominates: the bubble gives the conflicting update
        // time to land, so no forward is needed on top.
        let issue = if stall {
            self.stats.stalls += 1;
            self.stats.stall_cycles += 1;
            issue + 1
        } else {
            if forward {
                self.stats.forwards += 1;
            }
            issue
        };

        // The tag-store stage is the last: it wants its section's bank
        // port when the op reaches it.
        let want = issue + depth - 1;
        let hold = self.store_hold_cycles();
        let grant = self.arbiter.request(section as usize, want, hold);
        let completed = grant + hold;

        self.stats.issued += 1;
        self.stats.port_conflicts = self.arbiter.conflicts();
        self.stats.conflict_cycles = self.arbiter.conflict_cycles();
        self.final_cycle = self.final_cycle.max(completed);
        self.stats.busy_cycles = self.final_cycle;
        self.in_flight.push_back(InFlight {
            section,
            issue,
            kind,
        });
        self.next_issue = issue + 1;
    }
}

impl SortBackend for PipelinedSortBackend {
    fn build(spec: &BackendSpec) -> Self {
        let depth = u64::from(spec.geometry.levels()) + 2;
        Self {
            circuit: SortRetrieveCircuit::with_policy_and_memory(
                spec.geometry,
                spec.capacity,
                spec.cleanup,
                spec.memory,
            ),
            memory: spec.memory,
            depth,
            next_issue: 0,
            final_cycle: 0,
            in_flight: VecDeque::new(),
            arbiter: PortArbiter::new(spec.geometry.sections() as usize),
            stats: PipelineStats::default(),
        }
    }

    fn name(&self) -> &'static str {
        "pipelined"
    }

    fn geometry(&self) -> Geometry {
        self.circuit.geometry()
    }

    fn capacity(&self) -> usize {
        self.circuit.capacity()
    }

    fn len(&self) -> usize {
        self.circuit.len()
    }

    fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<(), SortError> {
        self.circuit.insert(tag, payload)?;
        // Rejected inserts never enter the pipeline; accepted ones
        // issue into the section their tag's top literal selects.
        self.issue_op(self.circuit.geometry().section_of(tag), OpKind::Insert);
        Ok(())
    }

    fn pop_min(&mut self) -> Option<(Tag, PacketRef)> {
        let (tag, payload) = self.circuit.pop_min()?;
        // A pop's section is known once the head register names the
        // minimum — deterministic from the served tag.
        self.issue_op(self.circuit.geometry().section_of(tag), OpKind::Pop);
        Some((tag, payload))
    }

    fn pop_max(&mut self) -> Option<(Tag, PacketRef)> {
        let (tag, payload) = self.circuit.pop_max()?;
        self.issue_op(self.circuit.geometry().section_of(tag), OpKind::Pop);
        Some((tag, payload))
    }

    fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        self.circuit.peek_min()
    }

    fn peek_max(&self) -> Option<Tag> {
        self.circuit.peek_max()
    }

    fn recycle_section(&mut self, section: u32) -> usize {
        // Bulk maintenance between wraps, not a pipelined datapath op.
        self.circuit.recycle_section(section)
    }

    fn cycles(&self) -> u64 {
        self.circuit.cycles().value()
    }

    fn stats(&self) -> CircuitStats {
        self.circuit.stats()
    }

    fn set_tolerant(&mut self, tolerant: bool) {
        self.circuit.set_tolerant(tolerant);
    }

    fn fault_target_mut(
        &mut self,
        component: FaultComponent,
    ) -> Result<&mut dyn FaultTarget, FaultAttachError> {
        if component == FaultComponent::Buffer {
            return Err(FaultAttachError {
                backend: self.name(),
                component,
            });
        }
        Ok(self.circuit.fault_target_mut(component))
    }

    fn take_detections(&mut self) -> Vec<Detection> {
        self.circuit.take_detections()
    }

    fn scrub(&mut self, section: u32, repair: bool) -> (u64, Vec<ScrubFinding>) {
        self.circuit.scrub(section, repair)
    }

    fn set_paged(&mut self) -> bool {
        true
    }

    fn resident_memory(&self) -> Option<ResidentMemory> {
        Some(self.circuit.resident_memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_eight_throughput_is_four() {
        let mut p = PipelinedSorter::new(Geometry::paper(), 256);
        let mut prev: Option<Issue> = None;
        for i in 0..50u32 {
            let r = p.insert(Tag(i * 3), PacketRef(i)).unwrap();
            assert_eq!(r.latency(), 8);
            if let Some(prev) = prev {
                assert_eq!(r.issued.since(prev.issued), 4, "one op per beat");
            }
            prev = Some(r);
        }
        // Sustained cost approaches the 4-cycle beat: 50 ops in 49*4+8.
        let cpo = p.stats().cycles_per_op();
        assert!((4.0..=4.2).contains(&cpo), "cycles/op {cpo}");
    }

    #[test]
    fn duplicate_back_to_back_forwards_the_translation_write() {
        let mut p = PipelinedSorter::new(Geometry::paper(), 64);
        p.insert(Tag(7), PacketRef(0)).unwrap();
        assert_eq!(p.stats().forwards, 0);
        // The second 7's closest match is the 7 still in the storage
        // stage: its address must be forwarded.
        p.insert(Tag(7), PacketRef(1)).unwrap();
        assert_eq!(p.stats().forwards, 1);
        // An adjacent value whose predecessor is the in-flight tag also
        // needs the forward.
        p.insert(Tag(8), PacketRef(2)).unwrap();
        assert_eq!(p.stats().forwards, 2);
        // A value below everything stored has no predecessor: no forward.
        p.insert(Tag(5), PacketRef(3)).unwrap();
        assert_eq!(p.stats().forwards, 2);
        // A value whose predecessor is an *older* (already landed) tag
        // reads the translation table normally.
        p.insert(Tag(3000), PacketRef(4)).unwrap();
        assert_eq!(p.stats().forwards, 2, "predecessor 8 landed two beats ago");
    }

    #[test]
    fn pipeline_is_functionally_transparent() {
        // Same op stream through pipelined and plain circuits: identical
        // service order.
        let mut plain = SortRetrieveCircuit::new(Geometry::paper(), 512);
        let mut piped = PipelinedSorter::new(Geometry::paper(), 512);
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..400u32 {
            let tag = Tag((next() % 4096) as u32);
            match next() % 3 {
                0 | 1 => {
                    plain.insert(tag, PacketRef(i)).unwrap();
                    piped.insert(tag, PacketRef(i)).unwrap();
                }
                _ => {
                    let a = plain.pop_min();
                    let b = piped.pop_min().map(|(s, _)| s);
                    assert_eq!(a, b);
                }
            }
        }
        let a: Vec<_> = std::iter::from_fn(|| plain.pop_min()).collect();
        let b: Vec<_> = std::iter::from_fn(|| piped.pop_min().map(|(s, _)| s)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn combined_slot_keeps_the_beat() {
        let mut p = PipelinedSorter::new(Geometry::paper(), 64);
        let a = p.insert(Tag(5), PacketRef(0)).unwrap();
        let (served, b) = p.insert_and_pop(Tag(9), PacketRef(1)).unwrap();
        assert_eq!(served, Some((Tag(5), PacketRef(0))));
        assert_eq!(b.issued.since(a.issued), 4);
        assert_eq!(b.latency(), 8);
    }

    #[test]
    fn empty_pop_does_not_occupy_the_pipeline() {
        let mut p = PipelinedSorter::new(Geometry::paper(), 16);
        assert!(p.pop_min().is_none());
        assert_eq!(p.stats().issued, 0);
    }

    fn deep(capacity: usize) -> PipelinedSortBackend {
        PipelinedSortBackend::new(Geometry::paper(), capacity)
    }

    #[test]
    fn deep_pipeline_extracts_and_reinstalls_a_flow() {
        let mut src = deep(64);
        let mut dst = deep(64);
        for (t, p) in [(40u32, 0u32), (12, 1), (40, 2), (55, 3)] {
            src.insert(Tag(t), PacketRef(p)).unwrap();
        }
        let taken = src.extract_flow(&mut |p: PacketRef| p.index() == 1 || p.index() == 3);
        assert_eq!(
            taken,
            vec![(Tag(12), PacketRef(1)), (Tag(55), PacketRef(3))]
        );
        for &(tag, payload) in &taken {
            dst.insert(tag, payload).unwrap();
        }
        // Survivors keep FIFO among the duplicate 40s.
        let survivors: Vec<_> = std::iter::from_fn(|| src.pop_min()).collect();
        assert_eq!(
            survivors,
            vec![(Tag(40), PacketRef(0)), (Tag(40), PacketRef(2))]
        );
        assert_eq!(
            std::iter::from_fn(|| dst.pop_min()).collect::<Vec<_>>(),
            taken
        );
    }

    #[test]
    fn deep_pipeline_is_five_stages_at_paper_geometry() {
        let b = deep(64);
        // Three trie levels + translation + tag store.
        assert_eq!(b.pipeline_depth(), 5);
        assert!(b.stage_register_bits() > 0);
    }

    #[test]
    fn hazard_free_issue_sustains_one_op_per_cycle() {
        let mut b = deep(4096);
        // Stride 289 hops to a new section every op (each bank is
        // revisited ~15 ops later), so neither the hazard window nor
        // any bank port sees back-to-back traffic.
        for i in 0..2000u32 {
            b.insert(Tag((i * 289) % 4096), PacketRef(i)).unwrap();
        }
        let s = b.pipeline_stats();
        assert_eq!(s.issued, 2000);
        assert_eq!(s.stalls, 0);
        assert_eq!(s.port_conflicts, 0);
        let cpo = s.cycles_per_op();
        assert!(cpo < 1.1, "cycles/op {cpo} should approach 1");
    }

    #[test]
    fn same_kind_same_section_forwards_cross_kind_stalls() {
        let mut b = deep(64);
        // Three inserts into section 0: the younger two forward.
        b.insert(Tag(1), PacketRef(0)).unwrap();
        b.insert(Tag(2), PacketRef(1)).unwrap();
        b.insert(Tag(3), PacketRef(2)).unwrap();
        let s = b.pipeline_stats();
        assert_eq!(s.forwards, 2);
        assert_eq!(s.stalls, 0);
        // A pop of section 0 against in-flight inserts cannot forward:
        // one bubble.
        assert_eq!(b.pop_min(), Some((Tag(1), PacketRef(0))));
        let s = b.pipeline_stats();
        assert_eq!(s.stalls, 1);
        assert_eq!(s.stall_cycles, 1);
    }

    #[test]
    fn same_section_burst_contends_for_the_bank_port() {
        let mut b = deep(64);
        for i in 0..8u32 {
            b.insert(Tag(i), PacketRef(i)).unwrap();
        }
        let s = b.pipeline_stats();
        // Single-port storage holds the section-0 bank two cycles per
        // access; one-per-cycle issue into one section must queue.
        assert!(s.port_conflicts > 0);
        assert!(s.conflict_cycles >= s.port_conflicts);
        assert!(s.cycles_per_op() > 1.0);
    }

    #[test]
    fn deep_pipeline_is_functionally_transparent() {
        let mut plain = SortRetrieveCircuit::new(Geometry::paper(), 512);
        let mut piped = deep(512);
        let mut state = 1234u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..600u32 {
            let tag = Tag((next() % 4096) as u32);
            match next() % 3 {
                0 | 1 => {
                    assert_eq!(
                        plain.insert(tag, PacketRef(i)),
                        piped.insert(tag, PacketRef(i))
                    );
                }
                _ => assert_eq!(plain.pop_min(), piped.pop_min()),
            }
        }
        let a: Vec<_> = std::iter::from_fn(|| plain.pop_min()).collect();
        let b: Vec<_> = std::iter::from_fn(|| piped.pop_min()).collect();
        assert_eq!(a, b);
        // The architectural counters are the sequential circuit's.
        assert_eq!(SortBackend::stats(&piped), plain.stats());
    }

    #[test]
    fn pipeline_timing_is_deterministic() {
        let run = || {
            let mut b = deep(256);
            for i in 0..300u32 {
                let tag = Tag((i * 7919) % 4096);
                if i % 3 == 2 {
                    b.pop_min();
                } else {
                    b.insert(tag, PacketRef(i)).unwrap();
                }
            }
            b.pipeline_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejected_inserts_and_empty_pops_do_not_issue() {
        let mut b = deep(1);
        assert!(b.pop_min().is_none());
        b.insert(Tag(1), PacketRef(0)).unwrap();
        assert!(b.insert(Tag(2), PacketRef(1)).is_err(), "over capacity");
        assert_eq!(b.pipeline_stats().issued, 1);
    }
}
