//! The binary-heap reference backend: the obviously-correct oracle.
//!
//! [`HeapSorter`] implements [`SortBackend`] with `std`'s
//! [`BinaryHeap`] and an insertion sequence number for the FCFS
//! tie-break. It models no hardware at all — no trie, no translation
//! table, no SRAM — which is the point: its behavior is simple enough
//! to trust by inspection, so the trie circuit and the FFS fast path
//! are cross-checked against it. It still honors the full backend
//! contract (slot-cycle accounting, lazy wrap semantics, section
//! recycling) so a scheduler driving it produces identical departure
//! sequences *and* identical sojourn stamps.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use crate::backend::{BackendSpec, SortBackend};
use crate::circuit::{CircuitStats, CleanupPolicy, SortError};
use crate::geometry::Geometry;
use crate::tag::{PacketRef, Tag};
use hwsim::{AccessStats, SramStats};

/// A [`SortBackend`] backed by [`BinaryHeap`], for oracle testing.
///
/// # Example
///
/// ```
/// use tagsort::{
///     BackendSpec, CleanupPolicy, Geometry, HeapSorter, MemoryKind, PacketRef, SortBackend, Tag,
/// };
///
/// let mut heap = HeapSorter::build(&BackendSpec {
///     geometry: Geometry::paper(),
///     capacity: 16,
///     cleanup: CleanupPolicy::Eager,
///     memory: MemoryKind::SinglePort,
/// });
/// heap.insert(Tag(140), PacketRef(2)).unwrap();
/// heap.insert(Tag(17), PacketRef(1)).unwrap();
/// assert_eq!(heap.pop_min(), Some((Tag(17), PacketRef(1))));
/// ```
#[derive(Debug, Clone)]
pub struct HeapSorter {
    geometry: Geometry,
    capacity: usize,
    policy: CleanupPolicy,
    slot_cycles: u64,
    /// Min-heap of `(tag value, insertion seq, packet ref)`: the seq
    /// breaks tag ties first-come-first-served, matching the circuit's
    /// newest-at-translation / oldest-served-first linked-list order.
    heap: BinaryHeap<Reverse<(u32, u64, u32)>>,
    seq: u64,
    /// Live duplicate counts per tag value (ground truth for eager
    /// marker clearing and the recycle-section safety check).
    live: BTreeMap<u32, u32>,
    /// Marked values, including stale ones under lazy cleanup — the
    /// software stand-in for the trie's marker bits.
    markers: BTreeSet<u32>,
    cycles: u64,
    ops: u64,
    recycled_sections: u64,
    recycled_markers: u64,
}

impl SortBackend for HeapSorter {
    fn build(spec: &BackendSpec) -> Self {
        HeapSorter {
            geometry: spec.geometry,
            capacity: spec.capacity,
            policy: spec.cleanup,
            slot_cycles: spec.memory.slot_cycles(),
            heap: BinaryHeap::new(),
            seq: 0,
            live: BTreeMap::new(),
            markers: BTreeSet::new(),
            cycles: 0,
            ops: 0,
            recycled_sections: 0,
            recycled_markers: 0,
        }
    }

    fn name(&self) -> &'static str {
        "heap"
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn insert(&mut self, tag: Tag, payload: PacketRef) -> Result<(), SortError> {
        if !self.geometry.contains(tag) {
            return Err(SortError::TagOutOfRange {
                tag,
                tag_bits: self.geometry.tag_bits(),
            });
        }
        if self.policy == CleanupPolicy::Lazy {
            // The same wrap contract as the trie: a drained system must
            // restart at or above the highest stale marker, and a live
            // system rejects tags below its minimum.
            if let Some(&Reverse((minimum, _, _))) = self.heap.peek() {
                if tag.value() < minimum {
                    return Err(SortError::BelowMinimum {
                        tag,
                        minimum: Tag(minimum),
                    });
                }
            } else if let Some(&stale_max) = self.markers.last() {
                if tag.value() < stale_max {
                    return Err(SortError::BelowMinimum {
                        tag,
                        minimum: Tag(stale_max),
                    });
                }
            }
        }
        if self.heap.len() == self.capacity {
            return Err(SortError::Full {
                capacity: self.capacity,
            });
        }
        self.heap.push(Reverse((tag.value(), self.seq, payload.0)));
        self.seq += 1;
        *self.live.entry(tag.value()).or_insert(0) += 1;
        self.markers.insert(tag.value());
        self.cycles += self.slot_cycles;
        self.ops += 1;
        Ok(())
    }

    fn pop_min(&mut self) -> Option<(Tag, PacketRef)> {
        let Reverse((value, _, payload)) = self.heap.pop()?;
        let count = self
            .live
            .get_mut(&value)
            .expect("live count for popped tag");
        *count -= 1;
        if *count == 0 {
            self.live.remove(&value);
            if self.policy == CleanupPolicy::Eager {
                self.markers.remove(&value);
            }
        }
        self.cycles += self.slot_cycles;
        self.ops += 1;
        Some((Tag(value), PacketRef(payload)))
    }

    fn pop_max(&mut self) -> Option<(Tag, PacketRef)> {
        // O(n) rebuild — fine for an oracle. LIFO among duplicates of
        // the maximum: the largest (tag, seq) pair is exactly the
        // most-recently-inserted instance of the largest tag.
        let target = self.heap.iter().map(|&Reverse(e)| e).max()?;
        let (value, _, payload) = target;
        let remaining: Vec<_> = self
            .heap
            .drain()
            .filter(|&Reverse(e)| e != target)
            .collect();
        self.heap = remaining.into();
        let count = self
            .live
            .get_mut(&value)
            .expect("live count for popped tag");
        *count -= 1;
        if *count == 0 {
            self.live.remove(&value);
            // Always eager (see the trait contract): a stale marker
            // above the live set must never survive a push-out.
            self.markers.remove(&value);
        }
        self.cycles += self.slot_cycles;
        self.ops += 1;
        Some((Tag(value), PacketRef(payload)))
    }

    fn peek_min(&self) -> Option<(Tag, PacketRef)> {
        self.heap
            .peek()
            .map(|&Reverse((value, _, payload))| (Tag(value), PacketRef(payload)))
    }

    fn peek_max(&self) -> Option<Tag> {
        self.live.keys().next_back().map(|&value| Tag(value))
    }

    fn recycle_section(&mut self, section: u32) -> usize {
        let span = (self.geometry.tag_space() / u64::from(self.geometry.sections())) as u32;
        let lo = section * span;
        let hi = lo + span;
        debug_assert!(
            self.live.range(lo..hi).next().is_none(),
            "recycling section {section} with live tags"
        );
        let stale: Vec<u32> = self.markers.range(lo..hi).copied().collect();
        for value in &stale {
            self.markers.remove(value);
        }
        self.recycled_sections += 1;
        self.recycled_markers += stale.len() as u64;
        stale.len()
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn stats(&self) -> CircuitStats {
        CircuitStats {
            ops: self.ops,
            store_cycles: self.cycles,
            trie: AccessStats::new(),
            translation: AccessStats::new(),
            sram: SramStats::default(),
            recycled_sections: self.recycled_sections,
            recycled_markers: self.recycled_markers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::SortRetrieveCircuit;
    use crate::tagstore::MemoryKind;

    fn spec(cleanup: CleanupPolicy) -> BackendSpec {
        BackendSpec {
            geometry: Geometry::paper(),
            capacity: 64,
            cleanup,
            memory: MemoryKind::SinglePort,
        }
    }

    #[test]
    fn sorts_with_fifo_tie_break() {
        let mut h = HeapSorter::build(&spec(CleanupPolicy::Eager));
        for (i, t) in [500u32, 3, 1000, 3, 999, 3].iter().enumerate() {
            h.insert(Tag(*t), PacketRef(i as u32)).unwrap();
        }
        let drained: Vec<(u32, u32)> = std::iter::from_fn(|| h.pop_min())
            .map(|(t, p)| (t.value(), p.index()))
            .collect();
        assert_eq!(
            drained,
            vec![(3, 1), (3, 3), (3, 5), (500, 0), (999, 4), (1000, 2)]
        );
        assert!(h.is_empty());
    }

    #[test]
    fn extract_and_install_move_one_flow_between_heaps() {
        let mut src = HeapSorter::build(&spec(CleanupPolicy::Eager));
        let mut dst = HeapSorter::build(&spec(CleanupPolicy::Eager));
        for (t, p) in [(9u32, 0u32), (4, 1), (9, 2), (4, 3)] {
            src.insert(Tag(t), PacketRef(p)).unwrap();
        }
        let taken = src.extract_flow(&mut |p: PacketRef| p.index().is_multiple_of(2));
        assert_eq!(taken, vec![(Tag(9), PacketRef(0)), (Tag(9), PacketRef(2))]);
        for &(tag, payload) in &taken {
            dst.insert(tag, payload).unwrap();
        }
        let survivors: Vec<_> = std::iter::from_fn(|| src.pop_min()).collect();
        assert_eq!(
            survivors,
            vec![(Tag(4), PacketRef(1)), (Tag(4), PacketRef(3))]
        );
        assert_eq!(
            std::iter::from_fn(|| dst.pop_min()).collect::<Vec<_>>(),
            taken
        );
    }

    #[test]
    fn charges_one_slot_per_operation() {
        for (memory, slot) in [(MemoryKind::SinglePort, 4u64), (MemoryKind::QdrLike, 2)] {
            let mut h = HeapSorter::build(&BackendSpec {
                memory,
                ..spec(CleanupPolicy::Eager)
            });
            h.insert(Tag(5), PacketRef(0)).unwrap();
            h.pop_min().unwrap();
            assert_eq!(h.cycles(), 2 * slot);
            assert_eq!(h.stats().cycles_per_op(), slot as f64);
        }
    }

    #[test]
    fn error_contract_matches_the_circuit() {
        let mut h = HeapSorter::build(&BackendSpec {
            capacity: 2,
            ..spec(CleanupPolicy::Eager)
        });
        assert_eq!(
            h.insert(Tag(1 << 12), PacketRef(0)),
            Err(SortError::TagOutOfRange {
                tag: Tag(1 << 12),
                tag_bits: 12
            })
        );
        h.insert(Tag(1), PacketRef(0)).unwrap();
        h.insert(Tag(2), PacketRef(1)).unwrap();
        assert_eq!(
            h.insert(Tag(3), PacketRef(2)),
            Err(SortError::Full { capacity: 2 })
        );
    }

    #[test]
    fn lazy_wrap_semantics_match_the_circuit() {
        let mk = |cleanup| {
            (
                HeapSorter::build(&spec(cleanup)),
                <SortRetrieveCircuit as SortBackend>::build(&spec(cleanup)),
            )
        };
        let (mut h, mut c) = mk(CleanupPolicy::Lazy);
        for b in [&mut h as &mut dyn SortBackend, &mut c] {
            b.insert(Tag(100), PacketRef(0)).unwrap();
            // Below the live minimum: rejected.
            assert_eq!(
                b.insert(Tag(50), PacketRef(1)),
                Err(SortError::BelowMinimum {
                    tag: Tag(50),
                    minimum: Tag(100)
                })
            );
            b.pop_min().unwrap();
            // Drained, but the stale marker still gates restarts.
            assert_eq!(
                b.insert(Tag(50), PacketRef(1)),
                Err(SortError::BelowMinimum {
                    tag: Tag(50),
                    minimum: Tag(100)
                })
            );
            // Recycling the stale section clears the way.
            let section = Geometry::paper().section_of(Tag(100));
            assert_eq!(b.recycle_section(section), 1);
            b.insert(Tag(50), PacketRef(1)).unwrap();
            assert_eq!(b.pop_min(), Some((Tag(50), PacketRef(1))));
        }
        // Eager cleanup never raises BelowMinimum and recycles nothing.
        let (mut h, mut c) = mk(CleanupPolicy::Eager);
        for b in [&mut h as &mut dyn SortBackend, &mut c] {
            b.insert(Tag(100), PacketRef(0)).unwrap();
            b.pop_min().unwrap();
            b.insert(Tag(50), PacketRef(1)).unwrap();
            b.pop_min().unwrap();
            assert_eq!(b.recycle_section(0), 0);
        }
    }

    #[test]
    fn fault_attachment_is_rejected_structurally() {
        use faultsim::{FaultAttachError, FaultComponent};
        let mut h = HeapSorter::build(&spec(CleanupPolicy::Eager));
        let err = h.fault_target_mut(FaultComponent::Trie).err().unwrap();
        assert_eq!(
            err,
            FaultAttachError {
                backend: "heap",
                component: FaultComponent::Trie,
            }
        );
        assert_eq!(
            err.to_string(),
            "backend `heap` has no addressable trie state to fault"
        );
    }
}
