//! Million-flow campaign runner.
//!
//! The paper's headline scale claim is 8 M concurrent sessions; a
//! single bench run exercises one workload against one configuration.
//! This crate closes the gap: a [`CampaignSpec`] names a *grid* of
//! scheduler configurations — flow population × rank policy × sorting
//! backend × admission policy × fault campaign — and [`run`] sweeps
//! every cell against a seeded [`ScaleWorkload`](traffic::ScaleWorkload)
//! (Zipf popularity, optional flash-crowd churn), producing one
//! deterministic [`CampaignReport`]: byte-identical text for CI
//! diffing, plus a flat metric list `check_regression` can gate.
//!
//! Two properties make million-flow cells tractable:
//!
//! * **Paged state** — the trie circuit builds its translation table
//!   and tag store lazily paged, so resident memory tracks *live* tags
//!   instead of the tag universe.
//! * **Streaming workloads** — arrivals are generated one at a time
//!   from `O(1)` state, never materializing the trace.
//!
//! Every fault-free cell is checked against the same cell over
//! [`HeapSorter`](tagsort::HeapSorter): departure hash, served and
//! dropped counts must match (the `agree` metric).
//!
//! See `DESIGN.md` §16 and `EXPERIMENTS.md` E18.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod run;
mod spec;

pub use run::{run, CampaignReport, CellResult, CellRun};
pub use spec::{CampaignSpec, Cell};
