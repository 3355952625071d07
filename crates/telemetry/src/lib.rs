//! Unified observability for the WFQ sorter workspace.
//!
//! The repo grew three disconnected measurement mechanisms —
//! `hwsim::AccessStats` (paper Table I memory accesses),
//! `scheduler::BufferStats`, and the per-flow reports of
//! `fairq::metrics` — none of which can answer "where did this packet's
//! latency go" across the trie, the scheduler, and the sharded
//! frontends. This crate is the single layer they all feed:
//!
//! * **[`Telemetry`]** — a metrics registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s. Every metric keeps one
//!   cache-line-padded atomic accumulator **per shard** with one writer,
//!   so shards record without contention or locked instructions (each
//!   writer touches only its own cells, with relaxed loads and stores);
//!   shards merge only at snapshot time.
//! * **[`Tracer`]** — a bounded, cycle-stamped event ring per shard
//!   (enqueue, dequeue, drop, trie bulk-delete, virtual-clock wrap,
//!   shard handoff). Disabled tracers carry no ring at all: [`Tracer::emit`]
//!   is one branch on an `Option` and returns — zero allocation, zero
//!   synchronization. Long runs attach a streaming [`EventSink`]
//!   ([`MemorySink`], [`CallbackSink`], or the ndjson [`FileSink`]) so
//!   every event is exported instead of just the ring tail, or pull
//!   increments with [`Tracer::drain`].
//! * **[`LatencyTracker`]** / **[`EventJoiner`]** — per-flow latency
//!   attribution: sojourn histograms in circuit cycles and simulated
//!   wall-clock ns, split into buffer-residency vs. retrieve-to-departure,
//!   fed directly by the link simulations or joined from
//!   `Enqueue`/`Dequeue` event pairs by `(flow, seq)`.
//! * **[`Snapshot`]** — a deterministic, merged view with two exporters:
//!   flat JSON ([`Snapshot::to_json`], byte-stable across identical
//!   runs, the format CI baselines consume) and a human-readable table
//!   ([`Snapshot::to_table`]). External figures — the merged
//!   `AccessStats`/`BufferStats` numbers — join the same snapshot via
//!   [`Snapshot::put`].
//!
//! # Example
//!
//! ```
//! use telemetry::{GaugeMerge, Telemetry};
//!
//! let tel = Telemetry::new(2); // two shards, counters on, tracing off
//! let served = tel.counter("served");
//! let depth = tel.gauge("depth", GaugeMerge::Sum);
//! let lat = tel.histogram("latency_cycles");
//! served.inc(0, 3);
//! served.inc(1, 1);
//! depth.set(0, 5);
//! lat.observe(1, 4);
//! let snap = tel.snapshot();
//! assert_eq!(snap.value("served_total"), Some(4.0));
//! assert_eq!(snap.value("latency_cycles_p99"), Some(4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod latency;
mod registry;
mod sink;
mod snapshot;
mod trace;

pub use histogram::{bucket_of, bucket_upper_bound, BUCKETS};
pub use latency::{EventJoiner, LatencyTracker};
pub use registry::{Counter, Gauge, GaugeMerge, Histogram, Telemetry};
pub use sink::{
    event_to_json, parse_compact_event_log, CallbackSink, CompactEncoder, EventLogFormat,
    EventSink, FileSink, MemorySink,
};
pub use snapshot::{parse_flat_json, HistogramSnapshot, Snapshot};
pub use trace::{Event, EventKind, Tracer};
