//! **wfq-sorter** — a from-scratch reproduction of *"A Scalable Packet
//! Sorting Circuit for High-Speed WFQ Packet Scheduling"* (McLaughlin,
//! Sezer, Blume, Yang, Kupzog, Noll).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`tagsort`] — the paper's contribution: the tag sort/retrieve
//!   circuit (multi-bit search tree, translation table, linked-list tag
//!   storage memory with the fixed four-cycle schedule).
//! * [`matcher`] — the five closest-match node circuits of Figs. 7–8,
//!   built as gate netlists with measured delay and area.
//! * [`hwsim`] — the cycle-accurate simulation substrate standing in for
//!   the paper's 130-nm silicon.
//! * [`fairq`] — the fair-queueing algorithm family (GPS, WFQ, WF²Q,
//!   WF²Q+, SCFQ, SFQ) and the round-robin baselines (WRR, DRR, MDRR).
//! * [`scheduler`] — the full Fig. 1 scheduler: tag computation,
//!   quantization/wrap-around, shared packet buffer, and the sorter —
//!   generic over the `SortBackend` sorting engine.
//! * [`fastpath`] — the Eiffel-style software backend: a flat
//!   find-first-set bucket queue with the trie's exact wrap semantics,
//!   proven sequence-identical to the circuit and benchmarked in real
//!   wall-clock Mpps (E16).
//! * [`baselines`] — every Table I lookup structure, instrumented.
//! * [`traffic`] — deterministic workload generation.
//! * [`telemetry`] — the unified observability layer: histograms,
//!   cycle-stamped event rings, streaming sinks, and the deterministic
//!   snapshot every scheduler builds from its own counts.
//! * [`faultsim`] — deterministic SEU fault models, detection bookkeeping,
//!   and the repair policies wired through the scheduler stack.
//! * [`campaign`] — the million-flow campaign runner: grid sweeps over
//!   {flows × policy × backend × admission × faults} against Zipf/churn
//!   workloads, with paged sorter state and deterministic reports.
//!
//! # Quickstart
//!
//! ```
//! use wfq_sorter::tagsort::{Geometry, PacketRef, SortRetrieveCircuit, Tag};
//!
//! # fn main() -> Result<(), wfq_sorter::tagsort::SortError> {
//! let mut sorter = SortRetrieveCircuit::new(Geometry::paper(), 1 << 12);
//! sorter.insert(Tag(140), PacketRef(2))?;
//! sorter.insert(Tag(17), PacketRef(1))?;
//! assert_eq!(sorter.pop_min(), Some((Tag(17), PacketRef(1))));
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured record, and `examples/` for runnable scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use campaign;
pub use fairq;
pub use fastpath;
pub use faultsim;
pub use hwsim;
pub use matcher;
pub use scheduler;
pub use statesync;
pub use tagsort;
pub use telemetry;
pub use traffic;
