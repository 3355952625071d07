//! The tag sort/retrieve circuit — the paper's primary contribution.
//!
//! A fair-queueing packet scheduler must keep every queued packet's
//! *finishing tag* available in sorted order, so the egress side can pull
//! the smallest tag in **fixed time** (paper §II-C: the "sort model").
//! This crate implements the circuit the paper builds for that job, with
//! the same three-part decomposition (paper Fig. 3):
//!
//! 1. [`MultiBitTrie`] — a multi-bit search tree holding one *tag marker*
//!    per tag value present. Searching returns the closest match at or
//!    below a requested value in exactly one pass, using a parallel
//!    backup path when the primary search dead-ends (Figs. 4–5).
//! 2. [`TranslationTable`] — maps each representable tag value to the
//!    physical address of the most recently inserted link carrying it,
//!    bridging the tree and the storage memory and making the two
//!    independently scalable (Fig. 11).
//! 3. [`TagStore`] — the tag storage memory: a linked list of
//!    `(tag, packet pointer, next)` links in external SRAM, kept in
//!    sorted order, with an empty list threaded through the same memory
//!    (Figs. 9–10). Every operation fits a fixed four-clock-cycle
//!    read/read/write/write schedule, enforced by the port arbitration
//!    of [`hwsim::Sram`].
//!
//! [`SortRetrieveCircuit`] wires the three together behind the two-verb
//! interface the scheduler needs: [`SortRetrieveCircuit::insert`] and
//! [`SortRetrieveCircuit::pop_min`], plus the section-recycling hook
//! ([`SortRetrieveCircuit::recycle_section`]) that lets the WFQ virtual
//! clock wrap (Fig. 6).
//!
//! # Example
//!
//! ```
//! use tagsort::{Geometry, PacketRef, SortRetrieveCircuit, Tag};
//!
//! # fn main() -> Result<(), tagsort::SortError> {
//! // The fabricated geometry: 3 levels of 16-bit nodes => 12-bit tags.
//! let mut circuit = SortRetrieveCircuit::new(Geometry::paper(), 1 << 16);
//! circuit.insert(Tag(0b110111), PacketRef(7))?;
//! circuit.insert(Tag(0b001001), PacketRef(8))?;
//! circuit.insert(Tag(0b110101), PacketRef(9))?;
//! let (tag, packet) = circuit.pop_min().expect("not empty");
//! assert_eq!((tag, packet), (Tag(0b001001), PacketRef(8)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod banking;
mod circuit;
mod geometry;
mod heap;
mod pipeline;
mod tag;
mod tagstore;
mod translation;
mod trie;

pub use backend::{BackendSpec, ResidentMemory, SortBackend};
pub use banking::BankModel;
pub use circuit::{
    CircuitStats, CleanupPolicy, SectionScrub, SortError, SortRetrieveCircuit, TranslationScrub,
    TrieMismatch, PAPER_CLOCK_HZ, PAPER_MEAN_PACKET_BYTES,
};
pub use geometry::Geometry;
pub use heap::HeapSorter;
pub use pipeline::{Issue, PipelineStats, PipelinedSortBackend, PipelinedSorter};
pub use tag::{PacketRef, Tag, PACKET_SLOT_BITS};
pub use tagstore::{LinkAddr, MemoryKind, StoreFullError, StoreLayout, TagStore};
pub use translation::TranslationTable;
pub use trie::{IterMarked, MultiBitTrie, SearchTrace, TrieDeadEnd};
