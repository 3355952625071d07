//! Cycle-stamped bounded event tracing.
//!
//! Every shard owns a bounded ring of [`Event`]s; when the ring is full
//! the oldest event is evicted (and counted), so tracing a long run
//! keeps the *last* `capacity` events per shard — the ones that explain
//! the state the run ended in. Rings are per-shard, and only shard `i`'s
//! writer touches ring `i`, so the per-ring mutex is uncontended (the
//! snapshot reader is the only other party).
//!
//! A disabled tracer ([`Tracer::disabled`], or capacity 0) holds no
//! rings at all: [`Tracer::emit`] checks one `Option` and returns.
//!
//! Long runs that need *every* event (not just the tail) attach a
//! streaming [`EventSink`] via [`Tracer::set_sink`]: each emit is
//! forwarded to the sink before it enters the ring, and ring evictions
//! stop counting as losses (the sink already has the event). Pull-based
//! exporters can instead call [`Tracer::drain`] periodically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::sink::EventSink;
use crate::snapshot::Snapshot;

/// What happened. The meaning of an event's `a`/`b` arguments depends on
/// the kind; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A packet entered a scheduler: `a` = flow id (shard-local in a
    /// sharded frontend), `b` = the packet's per-flow sequence number —
    /// so an Enqueue/Dequeue pair for one packet joins on `(a, b)` (the
    /// join the latency attribution pipeline performs).
    Enqueue,
    /// A packet was served: `a` = flow id (shard-local in a sharded
    /// frontend), `b` = the packet's per-flow sequence number.
    Dequeue,
    /// A packet was refused: `a` = flow id, `b` = buffer capacity.
    Drop,
    /// A trie section was bulk-deleted (Fig. 6 recycling): `a` =
    /// section, `b` = markers removed.
    TrieBulkDelete,
    /// The virtual clock hit the top of the tag range: `a` = 1 if the
    /// saturate policy clamped (0 for a wrap-mode lap advance), `b` =
    /// sections recycled.
    VclockWrap,
    /// The frontend routed a packet to a shard: `a` = global flow id,
    /// `b` = packet sequence number.
    ShardHandoff,
    /// A planned fault materialized in scheduler state: `a` = fault
    /// ledger index, `b` = the component word it struck.
    FaultInject,
    /// A detector (parity, scrub, or structural check) caught a fault:
    /// `a` = fault ledger index (`u64::MAX` for an unattributed alarm),
    /// `b` = the word the detection fired on.
    FaultDetect,
    /// The scrubber repaired a trie section: `a` = section, `b` =
    /// markers re-inserted.
    Repair,
    /// A flow's queued packets left a scheduler for another shard:
    /// `a` = flow id (global when the frontend installed a map), `b` =
    /// packets extracted.
    MigrateOut,
    /// A migrated flow's packets were installed into a scheduler:
    /// `a` = flow id (global when the frontend installed a map), `b` =
    /// packets installed.
    MigrateIn,
}

impl EventKind {
    /// Stable lowercase name (used by the table exporter).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::Drop => "drop",
            EventKind::TrieBulkDelete => "trie_bulk_delete",
            EventKind::VclockWrap => "vclock_wrap",
            EventKind::ShardHandoff => "shard_handoff",
            EventKind::FaultInject => "fault_inject",
            EventKind::FaultDetect => "fault_detect",
            EventKind::Repair => "repair",
            EventKind::MigrateOut => "migrate_out",
            EventKind::MigrateIn => "migrate_in",
        }
    }

    /// Stable numeric code (the compact event-log encoding). Codes are
    /// append-only: existing values never change meaning.
    pub fn code(&self) -> u8 {
        match self {
            EventKind::Enqueue => 0,
            EventKind::Dequeue => 1,
            EventKind::Drop => 2,
            EventKind::TrieBulkDelete => 3,
            EventKind::VclockWrap => 4,
            EventKind::ShardHandoff => 5,
            EventKind::FaultInject => 6,
            EventKind::FaultDetect => 7,
            EventKind::Repair => 8,
            EventKind::MigrateOut => 9,
            EventKind::MigrateIn => 10,
        }
    }

    /// Inverse of [`EventKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            0 => EventKind::Enqueue,
            1 => EventKind::Dequeue,
            2 => EventKind::Drop,
            3 => EventKind::TrieBulkDelete,
            4 => EventKind::VclockWrap,
            5 => EventKind::ShardHandoff,
            6 => EventKind::FaultInject,
            7 => EventKind::FaultDetect,
            8 => EventKind::Repair,
            9 => EventKind::MigrateOut,
            10 => EventKind::MigrateIn,
            _ => return None,
        })
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The shard (port) the event happened on.
    pub shard: u32,
    /// The shard's circuit cycle count when the event was recorded.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
    /// First argument (kind-specific, see [`EventKind`]).
    pub a: u64,
    /// Second argument (kind-specific, see [`EventKind`]).
    pub b: u64,
}

struct Ring {
    events: VecDeque<Event>,
    evicted: u64,
}

struct Rings {
    capacity: usize,
    per_shard: Box<[Mutex<Ring>]>,
    /// Fast-path flag mirroring `sink.is_some()` so emits without a sink
    /// never touch the sink mutex.
    has_sink: AtomicBool,
    sink: Mutex<Option<Box<dyn EventSink>>>,
}

/// Handle to the per-shard event rings; cheap to clone, `None` inside
/// when disabled.
#[derive(Clone)]
pub struct Tracer {
    rings: Option<Arc<Rings>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Self { rings: None }
    }

    /// A tracer with a ring of `capacity` events per shard; capacity 0
    /// yields a disabled tracer.
    pub fn new(shards: usize, capacity: usize) -> Self {
        if capacity == 0 {
            return Self::disabled();
        }
        Self {
            rings: Some(Arc::new(Rings {
                capacity,
                per_shard: (0..shards)
                    .map(|_| {
                        Mutex::new(Ring {
                            events: VecDeque::with_capacity(capacity),
                            evicted: 0,
                        })
                    })
                    .collect(),
                has_sink: AtomicBool::new(false),
                sink: Mutex::new(None),
            })),
        }
    }

    /// Number of shards the tracer records for (0 when disabled).
    pub fn shards(&self) -> usize {
        self.rings.as_ref().map_or(0, |r| r.per_shard.len())
    }

    /// Whether events are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.rings.is_some()
    }

    /// Records one event on `shard`'s ring, evicting the oldest if full.
    ///
    /// With a sink attached ([`Tracer::set_sink`]) the event is streamed
    /// to the sink first, and a subsequent ring eviction is *not*
    /// counted as a loss — the sink already holds the event.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (enabled tracer only).
    #[inline]
    pub fn emit(&self, shard: usize, cycle: u64, kind: EventKind, a: u64, b: u64) {
        let Some(rings) = &self.rings else {
            return;
        };
        let event = Event {
            shard: shard as u32,
            cycle,
            kind,
            a,
            b,
        };
        let mut streamed = false;
        if rings.has_sink.load(Ordering::Acquire) {
            let mut sink = rings.sink.lock().expect("sink lock");
            if let Some(sink) = sink.as_mut() {
                sink.record(&event);
                streamed = true;
            }
        }
        let mut ring = rings.per_shard[shard].lock().expect("ring lock");
        if ring.events.len() == rings.capacity {
            ring.events.pop_front();
            if !streamed {
                ring.evicted += 1;
            }
        }
        ring.events.push_back(event);
    }

    /// Attaches a streaming sink; every subsequent [`Tracer::emit`] is
    /// forwarded to it at emit time. Returns the previously attached
    /// sink, if any. On a disabled tracer the sink is handed straight
    /// back (no event would ever reach it).
    pub fn set_sink(&self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        let Some(rings) = &self.rings else {
            return Some(sink);
        };
        let mut slot = rings.sink.lock().expect("sink lock");
        let prev = slot.replace(sink);
        rings.has_sink.store(true, Ordering::Release);
        prev
    }

    /// Detaches and returns the streaming sink (call
    /// [`EventSink::flush`] on it to surface deferred I/O errors).
    /// Subsequent ring evictions count as losses again.
    pub fn take_sink(&self) -> Option<Box<dyn EventSink>> {
        let rings = self.rings.as_ref()?;
        let mut slot = rings.sink.lock().expect("sink lock");
        rings.has_sink.store(false, Ordering::Release);
        slot.take()
    }

    /// Removes and returns everything currently buffered on `shard`'s
    /// ring, oldest first, leaving the ring empty (the eviction count is
    /// untouched). Pull-based alternative to [`Tracer::set_sink`] for
    /// incremental export of long runs.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range (enabled tracer only).
    pub fn drain(&self, shard: usize) -> Vec<Event> {
        let Some(rings) = &self.rings else {
            return Vec::new();
        };
        let mut ring = rings.per_shard[shard].lock().expect("ring lock");
        ring.events.drain(..).collect()
    }

    /// Merges every shard's ring into the snapshot in time order —
    /// sorted by `(cycle, shard)`, ties preserving per-shard emit order
    /// (per-shard cycle stamps are monotone, so a stable sort is a true
    /// merge) — together with the eviction count. The order is
    /// deterministic even when shards raced in real time, and identical
    /// logical runs export identical streams regardless of shard count.
    pub fn collect_into(&self, snap: &mut Snapshot) {
        let Some(rings) = &self.rings else {
            return;
        };
        let mut events = Vec::new();
        let mut evicted = 0;
        for ring in rings.per_shard.iter() {
            let ring = ring.lock().expect("ring lock");
            events.extend(ring.events.iter().copied());
            evicted += ring.evicted;
        }
        events.sort_by_key(|e| (e.cycle, e.shard));
        snap.set_events(events, evicted);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(enabled={})", self.is_enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.emit(0, 1, EventKind::Enqueue, 2, 3);
        let mut snap = Snapshot::empty(1);
        t.collect_into(&mut snap);
        assert_eq!(snap.events().len(), 0);
        assert!(!Tracer::new(4, 0).is_enabled(), "capacity 0 disables");
    }

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let t = Tracer::new(1, 3);
        for i in 0..5 {
            t.emit(0, i, EventKind::Dequeue, i, 0);
        }
        let mut snap = Snapshot::empty(1);
        t.collect_into(&mut snap);
        let cycles: Vec<u64> = snap.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert_eq!(snap.value("events_evicted"), Some(2.0));
        assert_eq!(snap.value("events_captured"), Some(3.0));
    }

    #[test]
    fn events_merge_time_ordered_across_shards() {
        // Regression: collect_into used to concatenate shard-major, so
        // two shards whose cycles interleave exported a permuted stream.
        let t = Tracer::new(2, 8);
        t.emit(1, 10, EventKind::Enqueue, 0, 0);
        t.emit(0, 5, EventKind::Enqueue, 1, 0);
        t.emit(0, 20, EventKind::Dequeue, 1, 0);
        t.emit(1, 15, EventKind::Dequeue, 0, 0);
        let mut snap = Snapshot::empty(2);
        t.collect_into(&mut snap);
        let order: Vec<(u64, u32)> = snap.events().iter().map(|e| (e.cycle, e.shard)).collect();
        assert_eq!(
            order,
            vec![(5, 0), (10, 1), (15, 1), (20, 0)],
            "events must merge by (cycle, shard), not shard-major"
        );
    }

    #[test]
    fn equal_cycles_tie_break_by_shard_then_emit_order() {
        let t = Tracer::new(2, 8);
        t.emit(1, 4, EventKind::Enqueue, 10, 0);
        t.emit(0, 4, EventKind::Enqueue, 20, 0);
        t.emit(0, 4, EventKind::Dequeue, 21, 0);
        let mut snap = Snapshot::empty(2);
        t.collect_into(&mut snap);
        let order: Vec<(u32, u64)> = snap.events().iter().map(|e| (e.shard, e.a)).collect();
        assert_eq!(order, vec![(0, 20), (0, 21), (1, 10)]);
    }

    #[test]
    fn sink_sees_every_event_and_evictions_stop_counting_as_losses() {
        let t = Tracer::new(1, 2);
        let sink = crate::sink::MemorySink::new();
        assert!(t.set_sink(Box::new(sink.clone())).is_none());
        for i in 0..5 {
            t.emit(0, i, EventKind::Enqueue, i, 0);
        }
        let mut snap = Snapshot::empty(1);
        t.collect_into(&mut snap);
        assert_eq!(snap.value("events_evicted"), Some(0.0), "sink lost nothing");
        assert_eq!(snap.value("events_captured"), Some(2.0), "ring keeps tail");
        let streamed: Vec<u64> = sink.events().iter().map(|e| e.cycle).collect();
        assert_eq!(streamed, vec![0, 1, 2, 3, 4], "sink streamed all 5");

        // Detaching restores loss accounting.
        assert!(t.take_sink().is_some());
        t.emit(0, 5, EventKind::Enqueue, 5, 0);
        let mut snap = Snapshot::empty(1);
        t.collect_into(&mut snap);
        assert_eq!(snap.value("events_evicted"), Some(1.0));
        assert_eq!(sink.len(), 5, "detached sink sees no new events");
    }

    #[test]
    fn set_sink_on_disabled_tracer_hands_the_sink_back() {
        let t = Tracer::disabled();
        let sink = crate::sink::MemorySink::new();
        assert!(t.set_sink(Box::new(sink)).is_some());
        assert!(t.take_sink().is_none());
        assert_eq!(t.shards(), 0);
    }

    #[test]
    fn drain_empties_one_ring_and_preserves_order() {
        let t = Tracer::new(2, 4);
        assert_eq!(t.shards(), 2);
        t.emit(0, 1, EventKind::Enqueue, 0, 0);
        t.emit(0, 2, EventKind::Dequeue, 0, 0);
        t.emit(1, 3, EventKind::Enqueue, 9, 0);
        let drained = t.drain(0);
        let cycles: Vec<u64> = drained.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert!(t.drain(0).is_empty(), "drain leaves the ring empty");
        assert_eq!(t.drain(1).len(), 1, "other shards untouched");
        assert!(Tracer::disabled().drain(0).is_empty());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::TrieBulkDelete.name(), "trie_bulk_delete");
        assert_eq!(EventKind::VclockWrap.name(), "vclock_wrap");
        assert_eq!(EventKind::FaultInject.name(), "fault_inject");
        assert_eq!(EventKind::FaultDetect.name(), "fault_detect");
        assert_eq!(EventKind::Repair.name(), "repair");
        assert_eq!(EventKind::MigrateOut.name(), "migrate_out");
        assert_eq!(EventKind::MigrateIn.name(), "migrate_in");
    }

    #[test]
    fn kind_codes_round_trip() {
        for code in 0..=10u8 {
            let kind = EventKind::from_code(code).expect("assigned code");
            assert_eq!(kind.code(), code);
        }
        assert_eq!(EventKind::from_code(11), None);
        assert_eq!(EventKind::from_code(255), None);
    }
}
