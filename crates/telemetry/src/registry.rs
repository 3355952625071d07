//! The metrics registry: named counters, gauges, and histograms with
//! per-shard lock-free accumulators.
//!
//! Registration (naming a metric) takes a short-lived mutex and happens
//! at scheduler construction; **recording never locks**. Every metric
//! owns one cache-line-padded cell block per shard, and the contract is
//! that shard `i`'s cells have **one writer**: the thread driving shard
//! `i` (the snapshotting thread only reads).
//!
//! # Single-writer store discipline
//!
//! Because each cell has one writer, recording needs no atomic
//! read-modify-write. Every hook is a relaxed load, the arithmetic, and
//! a relaxed store — on x86 plain `mov`s instead of a lock-prefixed
//! `add` or a `cmpxchg` loop. This is exact:
//!
//! - the writer reads its own last store (program order on one thread),
//!   so no update is lost;
//! - a relaxed atomic location has one modification order that every
//!   reader follows, and the writer only ever stores a larger counter
//!   or high-water mark, so a concurrent snapshot never sees one go
//!   backwards;
//! - a snapshot taken after the writers are joined (or after any other
//!   happens-before edge) reads the final values, identical to what
//!   `fetch_add` would have left.
//!
//! Ownership of a shard may move between threads when the move carries
//! a happens-before edge, as a channel handoff to a worker thread does.
//! Two writers on the same shard *at once* would silently lose counts,
//! so debug builds check the contract: each shard's cell block carries
//! an in-use flag, swapped on at the start of a write and cleared at
//! the end, and a writer that finds it already set panics. Release
//! builds carry no guard state. Snapshots merge across shards: counters
//! and `Sum` gauges add, `Max` gauges take the maximum, histogram
//! buckets add.

#[cfg(debug_assertions)]
use std::sync::atomic::{
    AtomicBool,
    Ordering::{Acquire, Release},
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::histogram::{bucket_of, BUCKETS};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::trace::Tracer;

/// The debug-build check of the single-writer contract on one shard's
/// cell block: an in-use flag held for the length of each write. In
/// release builds it is zero-sized and [`WriterGuard::enter`] compiles
/// to nothing.
#[derive(Default)]
struct WriterGuard {
    #[cfg(debug_assertions)]
    in_use: AtomicBool,
}

impl WriterGuard {
    /// Marks the block as being written until the returned token drops.
    ///
    /// # Panics
    ///
    /// Debug builds panic if another writer holds the block.
    #[inline]
    fn enter(&self) -> Writing<'_> {
        // Acquire pairs with the Release in `Writing::drop`. It is not
        // what makes a handoff legal: release builds have no flag, and
        // the caller's own happens-before edge does that.
        #[cfg(debug_assertions)]
        assert!(
            !self.in_use.swap(true, Acquire),
            "telemetry: a second writer entered a shard's cells while another \
             was writing them (each shard's cells take one writer at a time)"
        );
        Writing(self)
    }
}

/// Proof of a write in progress; dropping it releases the block.
struct Writing<'a>(#[cfg_attr(not(debug_assertions), allow(dead_code))] &'a WriterGuard);

#[cfg(debug_assertions)]
impl Drop for Writing<'_> {
    fn drop(&mut self) {
        self.0.in_use.store(false, Release);
    }
}

/// Adds `n` to a cell only its holder writes: load, add, store.
#[inline]
fn add(cell: &AtomicU64, _: &Writing<'_>, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

/// Raises a cell only its holder writes to `v` if larger.
#[inline]
fn raise(cell: &AtomicU64, _: &Writing<'_>, v: u64) {
    if v > cell.load(Relaxed) {
        cell.store(v, Relaxed);
    }
}

/// One shard's accumulator, padded to a cache line so adjacent shards'
/// cells never share one (false sharing would serialize the workers the
/// registry exists to keep independent).
#[derive(Default)]
#[repr(align(64))]
struct Cell {
    value: AtomicU64,
    writer: WriterGuard,
}

impl Cell {
    fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

fn cells(shards: usize) -> Arc<[Cell]> {
    (0..shards).map(|_| Cell::default()).collect()
}

/// A named monotone counter; increments are per-shard and lock-free.
///
/// A counter obtained from [`Telemetry::disabled`] carries no storage:
/// [`Counter::inc`] is one branch and a return.
#[derive(Clone)]
pub struct Counter {
    cells: Option<Arc<[Cell]>>,
}

impl Counter {
    /// A no-op counter (what disabled telemetry hands out).
    pub fn disabled() -> Self {
        Self { cells: None }
    }

    /// Adds `n` on `shard`'s accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (enabled telemetry only).
    #[inline]
    pub fn inc(&self, shard: usize, n: u64) {
        if let Some(cells) = &self.cells {
            let cell = &cells[shard];
            add(&cell.value, &cell.writer.enter(), n);
        }
    }

    /// The merged total across shards (0 when disabled).
    pub fn total(&self) -> u64 {
        self.cells
            .as_ref()
            .map(|c| c.iter().map(|cell| cell.get()).sum())
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter(total={})", self.total())
    }
}

/// How a gauge's per-shard values merge into one number at snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeMerge {
    /// Shards add (e.g. total queue depth across ports).
    Sum,
    /// Shards take the maximum (e.g. the worst per-port peak).
    Max,
}

/// A named instantaneous value; per-shard and lock-free.
#[derive(Clone)]
pub struct Gauge {
    cells: Option<Arc<[Cell]>>,
}

impl Gauge {
    /// A no-op gauge (what disabled telemetry hands out).
    pub fn disabled() -> Self {
        Self { cells: None }
    }

    /// Sets `shard`'s value.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (enabled telemetry only).
    #[inline]
    pub fn set(&self, shard: usize, v: u64) {
        if let Some(cells) = &self.cells {
            let cell = &cells[shard];
            let _writing = cell.writer.enter();
            cell.value.store(v, Relaxed);
        }
    }

    /// Raises `shard`'s value to `v` if larger (a high-water mark).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (enabled telemetry only).
    #[inline]
    pub fn record_max(&self, shard: usize, v: u64) {
        if let Some(cells) = &self.cells {
            let cell = &cells[shard];
            raise(&cell.value, &cell.writer.enter(), v);
        }
    }

    /// One shard's current value (0 when disabled).
    pub fn get(&self, shard: usize) -> u64 {
        self.cells.as_ref().map(|c| c[shard].get()).unwrap_or(0)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge(enabled={})", self.cells.is_some())
    }
}

/// One shard's histogram storage: log-2 buckets (see
/// [`crate::histogram`]) plus sum and max, all relaxed atomics under
/// one writer guard, cache-line aligned like [`Cell`].
#[repr(align(64))]
struct ShardHist {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    writer: WriterGuard,
}

impl ShardHist {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            writer: WriterGuard::default(),
        }
    }
}

/// A named log-bucketed histogram of latencies or occupancies;
/// observations are per-shard and lock-free.
#[derive(Clone)]
pub struct Histogram {
    shards: Option<Arc<[ShardHist]>>,
}

impl Histogram {
    /// A no-op histogram (what disabled telemetry hands out).
    pub fn disabled() -> Self {
        Self { shards: None }
    }

    /// Records one observation on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (enabled telemetry only).
    #[inline]
    pub fn observe(&self, shard: usize, v: u64) {
        if let Some(shards) = &self.shards {
            let h = &shards[shard];
            let writing = h.writer.enter();
            add(&h.buckets[bucket_of(v)], &writing, 1);
            add(&h.sum, &writing, v);
            raise(&h.max, &writing, v);
        }
    }

    /// Merges all shards into a snapshot (empty when disabled).
    pub fn merged(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        if let Some(shards) = &self.shards {
            for h in shards.iter() {
                for (agg, b) in buckets.iter_mut().zip(h.buckets.iter()) {
                    *agg += b.load(Relaxed);
                }
                sum += h.sum.load(Relaxed);
                max = max.max(h.max.load(Relaxed));
            }
        }
        HistogramSnapshot::from_buckets(String::new(), buckets, sum, max)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(enabled={})", self.shards.is_some())
    }
}

/// The registered metrics, behind the registration mutex.
#[derive(Default)]
struct Metrics {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, GaugeMerge, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

struct Shared {
    shards: usize,
    metrics: Mutex<Metrics>,
    tracer: Tracer,
}

/// The registry handle: cheap to clone, safe to share across threads.
///
/// [`Telemetry::disabled`] is the zero-cost mode: every handle it
/// returns is a no-op and [`Telemetry::snapshot`] is empty. Enabled
/// registries are created with a fixed shard count; single-scheduler
/// users are simply shard 0 of 1.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Shared>>,
}

impl Telemetry {
    /// Disabled telemetry: all handles are no-ops, no storage exists.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Enabled metrics for `shards` shards, event tracing off.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_tracing(shards, 0)
    }

    /// Enabled metrics plus an event ring of `events_per_shard`
    /// capacity on every shard (0 leaves tracing disabled).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_tracing(shards: usize, events_per_shard: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        Self {
            inner: Some(Arc::new(Shared {
                shards,
                metrics: Mutex::new(Metrics::default()),
                tracer: Tracer::new(shards, events_per_shard),
            })),
        }
    }

    /// Whether metrics are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of shards (0 when disabled).
    pub fn shards(&self) -> usize {
        self.inner.as_ref().map(|i| i.shards).unwrap_or(0)
    }

    /// The event tracer handle (disabled when telemetry is disabled or
    /// was created without tracing capacity).
    pub fn tracer(&self) -> Tracer {
        self.inner
            .as_ref()
            .map(|i| i.tracer.clone())
            .unwrap_or_else(Tracer::disabled)
    }

    /// Registers (or retrieves) the counter `name`.
    ///
    /// Registering an existing name returns a handle to the same
    /// storage, so independently-constructed shards share one metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a `[a-z0-9_]` slug (snapshot keys must be
    /// JSON-safe and shell-safe).
    pub fn counter(&self, name: &str) -> Counter {
        let Some(shared) = &self.inner else {
            return Counter::disabled();
        };
        check_slug(name);
        let mut m = shared.metrics.lock().expect("registry lock");
        if let Some((_, c)) = m.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter {
            cells: Some(cells(shared.shards)),
        };
        m.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Registers (or retrieves) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a slug, or if it was already registered
    /// with a different merge rule.
    pub fn gauge(&self, name: &str, merge: GaugeMerge) -> Gauge {
        let Some(shared) = &self.inner else {
            return Gauge::disabled();
        };
        check_slug(name);
        let mut m = shared.metrics.lock().expect("registry lock");
        if let Some((_, existing_merge, g)) = m.gauges.iter().find(|(n, _, _)| n == name) {
            assert_eq!(
                *existing_merge, merge,
                "gauge {name} re-registered with a different merge rule"
            );
            return g.clone();
        }
        let g = Gauge {
            cells: Some(cells(shared.shards)),
        };
        m.gauges.push((name.to_string(), merge, g.clone()));
        g
    }

    /// Registers (or retrieves) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a slug.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(shared) = &self.inner else {
            return Histogram::disabled();
        };
        check_slug(name);
        let mut m = shared.metrics.lock().expect("registry lock");
        if let Some((_, h)) = m.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram {
            shards: Some((0..shared.shards).map(|_| ShardHist::new()).collect()),
        };
        m.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Merges every registered metric (and any traced events) into a
    /// deterministic [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let Some(shared) = &self.inner else {
            return Snapshot::empty(0);
        };
        let m = shared.metrics.lock().expect("registry lock");
        let mut snap = Snapshot::empty(shared.shards);
        for (name, c) in &m.counters {
            let cells = c.cells.as_ref().expect("registered counter has cells");
            let per_shard: Vec<u64> = cells.iter().map(|cell| cell.get()).collect();
            snap.add_counter(name.clone(), per_shard);
        }
        for (name, merge, g) in &m.gauges {
            let cells = g.cells.as_ref().expect("registered gauge has cells");
            let per_shard: Vec<u64> = cells.iter().map(|cell| cell.get()).collect();
            snap.add_gauge(name.clone(), *merge, per_shard);
        }
        for (name, h) in &m.histograms {
            let mut merged = h.merged();
            merged.name = name.clone();
            snap.add_histogram(merged);
        }
        shared.tracer.collect_into(&mut snap);
        snap
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry(enabled={}, shards={})",
            self.is_enabled(),
            self.shards()
        )
    }
}

fn check_slug(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "metric name {name:?} must be a [a-z0-9_] slug"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let c = tel.counter("x");
        c.inc(0, 5);
        assert_eq!(c.total(), 0);
        let g = tel.gauge("y", GaugeMerge::Sum);
        g.set(0, 7);
        assert_eq!(g.get(0), 0);
        let h = tel.histogram("z");
        h.observe(0, 9);
        assert_eq!(h.merged().count, 0);
        assert!(!tel.tracer().is_enabled());
        assert!(tel.snapshot().to_json().starts_with('{'));
    }

    #[test]
    fn counters_merge_across_shards() {
        let tel = Telemetry::new(3);
        let c = tel.counter("served");
        c.inc(0, 1);
        c.inc(1, 2);
        c.inc(2, 3);
        assert_eq!(c.total(), 6);
        let snap = tel.snapshot();
        assert_eq!(snap.value("served_total"), Some(6.0));
        assert_eq!(snap.value("served_port1"), Some(2.0));
    }

    #[test]
    fn same_name_shares_storage() {
        let tel = Telemetry::new(2);
        let a = tel.counter("shared");
        let b = tel.counter("shared");
        a.inc(0, 1);
        b.inc(1, 1);
        assert_eq!(a.total(), 2);
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn gauge_merge_rules() {
        let tel = Telemetry::new(2);
        let depth = tel.gauge("depth", GaugeMerge::Sum);
        let peak = tel.gauge("peak", GaugeMerge::Max);
        depth.set(0, 3);
        depth.set(1, 4);
        peak.record_max(0, 10);
        peak.record_max(0, 7); // lower: ignored
        peak.record_max(1, 9);
        let snap = tel.snapshot();
        assert_eq!(snap.value("depth"), Some(7.0));
        assert_eq!(snap.value("peak"), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "different merge rule")]
    fn gauge_merge_conflict_panics() {
        let tel = Telemetry::new(1);
        let _ = tel.gauge("g", GaugeMerge::Sum);
        let _ = tel.gauge("g", GaugeMerge::Max);
    }

    #[test]
    fn histogram_quantiles_are_exact_for_small_values() {
        let tel = Telemetry::new(2);
        let h = tel.histogram("cycles");
        for _ in 0..99 {
            h.observe(0, 4);
        }
        h.observe(1, 12);
        let snap = tel.snapshot();
        assert_eq!(snap.value("cycles_count"), Some(100.0));
        assert_eq!(snap.value("cycles_p50"), Some(4.0));
        assert_eq!(snap.value("cycles_p99"), Some(4.0));
        assert_eq!(snap.value("cycles_max"), Some(12.0));
    }

    #[test]
    #[should_panic(expected = "slug")]
    fn non_slug_names_are_rejected() {
        let tel = Telemetry::new(1);
        let _ = tel.counter("Bad Name");
    }

    /// Each thread the one writer of its own shard: no update is lost.
    #[test]
    fn handles_work_across_threads() {
        const PER_THREAD: u64 = 100_000;
        let tel = Telemetry::new(4);
        let c = tel.counter("ops");
        let h = tel.histogram("lat");
        let handles: Vec<_> = (0..4)
            .map(|shard| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc(shard, 1);
                        h.observe(shard, i % 8);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(c.total(), 4 * PER_THREAD);
        let snap = tel.snapshot();
        for shard in 0..4 {
            let port = snap.value(&format!("ops_port{shard}"));
            assert_eq!(port, Some(PER_THREAD as f64));
        }
        assert_eq!(snap.value("lat_count"), Some(4.0 * PER_THREAD as f64));
    }
    #[test]
    fn ownership_may_move_between_threads_with_a_handoff() {
        // Shard 0 is written by one thread, then (after a join, a
        // happens-before edge) by another: legal, and nothing is lost.
        let tel = Telemetry::new(1);
        let c = tel.counter("ops");
        for _ in 0..3 {
            let c = c.clone();
            std::thread::spawn(move || c.inc(0, 10)).join().unwrap();
        }
        assert_eq!(c.total(), 30);
    }

    #[test]
    fn record_max_never_lowers_a_value() {
        let tel = Telemetry::new(1);
        let g = tel.gauge("peak", GaugeMerge::Max);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut high = 0;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            g.record_max(0, v);
            high = high.max(v);
            assert_eq!(g.get(0), high);
        }
        g.record_max(0, 0);
        assert_eq!(g.get(0), high);
    }

    #[test]
    fn histogram_sum_max_and_count_stay_consistent() {
        let tel = Telemetry::new(2);
        let h = tel.histogram("lat");
        let (mut sum, mut max, mut count) = (0u64, 0u64, 0u64);
        for i in 0..5_000u64 {
            let v = (i * 7919) % 4099;
            h.observe((i % 2) as usize, v);
            sum += v;
            max = max.max(v);
            count += 1;
            if i % 997 == 0 {
                let m = h.merged();
                assert_eq!((m.sum, m.max, m.count), (sum, max, count));
            }
        }
        let m = h.merged();
        assert_eq!((m.sum, m.max, m.count), (sum, max, count));
        assert_eq!(m.buckets.iter().sum::<u64>(), count);
    }

    #[test]
    fn writer_guard_is_state_only_in_debug_builds() {
        let expected = if cfg!(debug_assertions) { 1 } else { 0 };
        assert_eq!(std::mem::size_of::<WriterGuard>(), expected);
        assert_eq!(std::mem::size_of::<Cell>(), 64);
    }

    /// A second writer entering a shard's cells while the first holds
    /// them (here: the test itself, mid-"write") panics in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "second writer")]
    fn debug_guard_rejects_an_overlapping_counter_writer() {
        let tel = Telemetry::new(2);
        let c = tel.counter("ops");
        let cells = c.cells.as_ref().unwrap();
        let _first = cells[1].writer.enter();
        c.inc(0, 1); // another shard's cells: fine
        c.inc(1, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "second writer")]
    fn debug_guard_rejects_an_overlapping_histogram_writer() {
        let tel = Telemetry::new(1);
        let h = tel.histogram("lat");
        let shards = h.shards.as_ref().unwrap();
        let _first = shards[0].writer.enter();
        h.observe(0, 4);
    }
}
