//! What a run records, and the run's one streaming sink.
//!
//! [`Telemetry`] holds no metric. Every counted fact lives once, in a
//! plain field of the scheduler that counts it, and a snapshot is that
//! scheduler's view of its own state (`HwScheduler::telemetry_snapshot`
//! and `ShardedScheduler::telemetry_snapshot` in the `scheduler`
//! crate). What attaching a `Telemetry` turns on is what only telemetry
//! needs: each scheduler's histograms and, with tracing, its
//! [`EventRing`]. All of it is single-threaded: the sink is shared by
//! `Rc`, so a `Telemetry` is neither `Send` nor `Sync`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::sink::EventSink;
use crate::trace::{EventRing, SharedSink};

/// One run's telemetry settings; clones share the run's sink.
///
/// [`Telemetry::disabled`] records nothing, and a scheduler attached to
/// it takes one branch per record site. Enabled telemetry has a fixed
/// shard count; single-scheduler users are simply shard 0 of 1.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Run>,
}

#[derive(Clone)]
struct Run {
    shards: usize,
    events_per_shard: usize,
    sink: SharedSink,
}

impl Telemetry {
    /// Telemetry that records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Metrics for `shards` shards, event tracing off.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_tracing(shards, 0)
    }

    /// Metrics plus an event ring of `events_per_shard` capacity on
    /// every shard (0 leaves tracing off).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_tracing(shards: usize, events_per_shard: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        Self {
            inner: Some(Run {
                shards,
                events_per_shard,
                sink: Rc::new(RefCell::new(None)),
            }),
        }
    }

    /// Whether anything is recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of shards (0 when disabled).
    pub fn shards(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.shards)
    }

    /// A fresh event ring for `shard`, writing this run's sink; `None`
    /// when tracing is off.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is outside the shard count (enabled telemetry
    /// only).
    pub fn ring(&self, shard: usize) -> Option<EventRing> {
        let run = self.inner.as_ref()?;
        assert!(
            shard < run.shards,
            "shard {shard} outside telemetry ({} shards)",
            run.shards
        );
        (run.events_per_shard > 0)
            .then(|| EventRing::new(shard, run.events_per_shard, Rc::clone(&run.sink)))
    }

    /// Attaches the streaming sink every ring of this run forwards each
    /// event to at emit time, in emit order. Returns the previously
    /// attached sink, if any. Without tracing the sink is handed
    /// straight back (no event would ever reach it).
    pub fn set_sink(&self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        match &self.inner {
            Some(run) if run.events_per_shard > 0 => run.sink.borrow_mut().replace(sink),
            _ => Some(sink),
        }
    }

    /// Detaches and returns the streaming sink (call
    /// [`EventSink::flush`] on it to surface deferred I/O errors).
    /// Later ring evictions count as losses again.
    pub fn take_sink(&self) -> Option<Box<dyn EventSink>> {
        self.inner.as_ref()?.sink.borrow_mut().take()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;

    struct Discard;

    impl EventSink for Discard {
        fn record(&mut self, _: &Event) {}
    }

    #[test]
    fn disabled_telemetry_has_no_shards_rings_or_sink() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.shards(), 0);
        assert!(tel.ring(0).is_none());
        assert!(tel.set_sink(Box::new(Discard)).is_some(), "handed back");
        assert!(tel.take_sink().is_none());
    }

    #[test]
    fn a_sink_needs_tracing_capacity() {
        let counters_only = Telemetry::new(2);
        assert!(counters_only.set_sink(Box::new(Discard)).is_some());
        let tracing = Telemetry::with_tracing(2, 4);
        assert!(tracing.set_sink(Box::new(Discard)).is_none());
        assert!(
            tracing.clone().take_sink().is_some(),
            "clones share the sink"
        );
        assert!(tracing.take_sink().is_none());
    }

    #[test]
    #[should_panic(expected = "outside telemetry")]
    fn rings_exist_only_for_configured_shards() {
        let _ = Telemetry::with_tracing(2, 4).ring(2);
    }
}
