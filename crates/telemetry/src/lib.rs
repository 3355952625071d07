//! Unified observability for the WFQ sorter workspace.
//!
//! The repo grew three disconnected measurement mechanisms —
//! `hwsim::AccessStats` (paper Table I memory accesses),
//! `scheduler::BufferStats`, and the per-flow reports of
//! `fairq::metrics` — none of which can answer "where did this packet's
//! latency go" across the trie, the scheduler, and the sharded
//! frontends. This crate is the single layer they all report through.
//! It holds no second copy of any count: every counted fact lives once,
//! in a plain field of the scheduler that counts it, and the scheduler
//! builds its snapshot from those fields. Everything here runs on one
//! thread and is written through `&mut self`.
//!
//! * **[`Telemetry`]** — one run's settings: the shard count, the
//!   event-ring capacity, and the one streaming [`EventSink`] every
//!   shard writes ([`Telemetry::set_sink`]; the ndjson or compact
//!   [`FileSink`], or an [`EventJoiner`]). Attaching it to a scheduler
//!   turns on what only telemetry needs; disabled telemetry leaves one
//!   branch per record site.
//! * **[`Histogram`]** — a log-bucketed histogram (fixed bucket array
//!   plus exact sum and max) owned by the scheduler it describes.
//! * **[`EventRing`]** — one shard's bounded, cycle-stamped event ring
//!   (enqueue, dequeue, drop, trie bulk-delete, virtual-clock wrap,
//!   shard handoff, faults, migrations). It evicts its oldest event and
//!   counts the loss, unless a sink already streamed the event;
//!   [`EventRing::drain`] pulls increments instead.
//! * **[`LatencyTracker`]** / **[`EventJoiner`]** — per-flow latency
//!   attribution: sojourn histograms in circuit cycles and simulated
//!   wall-clock ns, split into buffer-residency vs. retrieve-to-departure,
//!   fed directly by the link simulations or joined from
//!   `Enqueue`/`Dequeue` event pairs by `(flow, seq)`.
//! * **[`Snapshot`]** — a deterministic view with two exporters: flat
//!   JSON ([`Snapshot::to_json`], byte-stable across identical runs,
//!   the format CI baselines consume) and a human-readable table
//!   ([`Snapshot::to_table`]). [`Snapshot::join`] lines up one
//!   snapshot per port into a frontend's per-port columns, and external
//!   figures — the merged `AccessStats`/`BufferStats` numbers — join
//!   the same snapshot via [`Snapshot::put`].
//!
//! # Example
//!
//! ```
//! use telemetry::{EventKind, GaugeMerge, Histogram, Snapshot, Telemetry};
//!
//! let tel = Telemetry::with_tracing(1, 8); // one shard, 8-event ring
//! let mut ring = tel.ring(0).expect("tracing is on");
//! let mut latency = Histogram::new();
//! ring.emit(4, EventKind::Enqueue, 7, 0);
//! latency.observe(4);
//! // The owner of the counts builds the snapshot from its own fields.
//! let mut snap = Snapshot::empty(1);
//! snap.add_counter("served".into(), vec![4]);
//! snap.add_gauge("depth".into(), GaugeMerge::Sum, vec![5]);
//! snap.add_histogram(latency.snapshot("latency_cycles"));
//! ring.collect_into(&mut snap);
//! assert_eq!(snap.value("served_total"), Some(4.0));
//! assert_eq!(snap.value("latency_cycles_p99"), Some(4.0));
//! assert_eq!(snap.value("events_captured"), Some(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod latency;
mod run;
mod sink;
mod snapshot;
mod trace;

pub use histogram::{bucket_of, bucket_upper_bound, Histogram, BUCKETS};
pub use latency::{EventJoiner, LatencyTracker};
pub use run::Telemetry;
pub use sink::{
    event_to_json, parse_compact_event_log, CompactEncoder, EventLogFormat, EventSink, FileSink,
};
pub use snapshot::{parse_flat_json, GaugeMerge, HistogramSnapshot, Snapshot};
pub use trace::{Event, EventKind, EventRing};
