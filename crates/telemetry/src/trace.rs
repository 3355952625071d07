//! Cycle-stamped bounded event tracing.
//!
//! Every shard owns an [`EventRing`] of [`Event`]s; when the ring is
//! full the oldest event is evicted (and counted), so tracing a long run
//! keeps the *last* `capacity` events per shard — the ones that explain
//! the state the run ended in. The ring is a plain field of the
//! scheduler it describes and is written through `&mut self`.
//!
//! A run that traces nothing holds no ring at all
//! ([`crate::Telemetry::ring`] returns `None`), so every record site is
//! one branch on an `Option`.
//!
//! Long runs that need *every* event (not just the tail) attach a
//! streaming [`EventSink`] via [`crate::Telemetry::set_sink`]: every
//! ring of the run forwards each emit to that one sink before the event
//! enters the ring, so the sink sees the run's emit order, and ring
//! evictions stop counting as losses (the sink already has the event).
//! Pull-based exporters can instead call [`EventRing::drain`]
//! periodically.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

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

/// The one streaming sink a run's rings write, in emit order.
pub(crate) type SharedSink = Rc<RefCell<Option<Box<dyn EventSink>>>>;

/// One shard's bounded, cycle-stamped event ring, plus a handle on its
/// run's streaming sink. Obtained from [`crate::Telemetry::ring`].
#[derive(Clone)]
pub struct EventRing {
    shard: u32,
    capacity: usize,
    events: VecDeque<Event>,
    evicted: u64,
    sink: SharedSink,
}

impl EventRing {
    pub(crate) fn new(shard: usize, capacity: usize, sink: SharedSink) -> Self {
        Self {
            shard: shard as u32,
            capacity,
            events: VecDeque::with_capacity(capacity),
            evicted: 0,
            sink,
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    ///
    /// With a sink attached the event is streamed to the sink first,
    /// and a resulting eviction is *not* counted as a loss — the sink
    /// already holds the event.
    #[inline]
    pub fn emit(&mut self, cycle: u64, kind: EventKind, a: u64, b: u64) {
        let event = Event {
            shard: self.shard,
            cycle,
            kind,
            a,
            b,
        };
        let streamed = match self.sink.borrow_mut().as_mut() {
            Some(sink) => {
                sink.record(&event);
                true
            }
            None => false,
        };
        if self.events.len() == self.capacity {
            self.events.pop_front();
            if !streamed {
                self.evicted += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Removes and returns everything currently buffered, oldest first,
    /// leaving the ring empty (the eviction count is untouched).
    /// Pull-based alternative to a sink for incremental export.
    pub fn drain(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }

    /// Installs the buffered events and the eviction count into `snap`
    /// (see [`Snapshot::set_events`]).
    pub fn collect_into(&self, snap: &mut Snapshot) {
        snap.set_events(self.events.iter().copied().collect(), self.evicted);
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("shard", &self.shard)
            .field("capacity", &self.capacity)
            .field("len", &self.events.len())
            .field("evicted", &self.evicted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn ring(shards: usize, capacity: usize, shard: usize) -> EventRing {
        Telemetry::with_tracing(shards, capacity)
            .ring(shard)
            .expect("tracing on")
    }

    /// Every ring's snapshot, joined the way a sharded frontend joins
    /// its ports.
    fn joined(rings: &[&EventRing]) -> Snapshot {
        Snapshot::join(
            rings
                .iter()
                .map(|r| {
                    let mut snap = Snapshot::empty(1);
                    r.collect_into(&mut snap);
                    snap
                })
                .collect(),
        )
    }

    /// Collects what it records into a buffer the test keeps a handle on.
    struct Recording(Rc<RefCell<Vec<Event>>>);

    impl EventSink for Recording {
        fn record(&mut self, event: &Event) {
            self.0.borrow_mut().push(*event);
        }
    }

    #[test]
    fn no_ring_exists_without_tracing_capacity() {
        assert!(Telemetry::disabled().ring(0).is_none());
        assert!(Telemetry::new(4).ring(3).is_none(), "capacity 0 disables");
        assert!(Telemetry::with_tracing(4, 0).ring(0).is_none());
    }

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let mut t = ring(1, 3, 0);
        for i in 0..5 {
            t.emit(i, EventKind::Dequeue, i, 0);
        }
        let snap = joined(&[&t]);
        let cycles: Vec<u64> = snap.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert_eq!(snap.value("events_evicted"), Some(2.0));
        assert_eq!(snap.value("events_captured"), Some(3.0));
    }

    #[test]
    fn events_merge_time_ordered_across_shards() {
        // Regression: the merge used to concatenate shard-major, so two
        // shards whose cycles interleave exported a permuted stream.
        let tel = Telemetry::with_tracing(2, 8);
        let (mut t0, mut t1) = (tel.ring(0).unwrap(), tel.ring(1).unwrap());
        t1.emit(10, EventKind::Enqueue, 0, 0);
        t0.emit(5, EventKind::Enqueue, 1, 0);
        t0.emit(20, EventKind::Dequeue, 1, 0);
        t1.emit(15, EventKind::Dequeue, 0, 0);
        let snap = joined(&[&t0, &t1]);
        let order: Vec<(u64, u32)> = snap.events().iter().map(|e| (e.cycle, e.shard)).collect();
        assert_eq!(
            order,
            vec![(5, 0), (10, 1), (15, 1), (20, 0)],
            "events must merge by (cycle, shard), not shard-major"
        );
    }

    #[test]
    fn equal_cycles_tie_break_by_shard_then_emit_order() {
        let tel = Telemetry::with_tracing(2, 8);
        let (mut t0, mut t1) = (tel.ring(0).unwrap(), tel.ring(1).unwrap());
        t1.emit(4, EventKind::Enqueue, 10, 0);
        t0.emit(4, EventKind::Enqueue, 20, 0);
        t0.emit(4, EventKind::Dequeue, 21, 0);
        let snap = joined(&[&t1, &t0]);
        let order: Vec<(u32, u64)> = snap.events().iter().map(|e| (e.shard, e.a)).collect();
        assert_eq!(order, vec![(0, 20), (0, 21), (1, 10)]);
    }

    #[test]
    fn sink_sees_every_event_and_evictions_stop_counting_as_losses() {
        let tel = Telemetry::with_tracing(2, 2);
        let (mut t0, mut t1) = (tel.ring(0).unwrap(), tel.ring(1).unwrap());
        let streamed = Rc::new(RefCell::new(Vec::new()));
        assert!(tel
            .set_sink(Box::new(Recording(Rc::clone(&streamed))))
            .is_none());
        for i in 0..5 {
            t0.emit(i, EventKind::Enqueue, i, 0);
        }
        t1.emit(2, EventKind::Drop, 9, 0);
        let snap = joined(&[&t0]);
        assert_eq!(snap.value("events_evicted"), Some(0.0), "sink lost nothing");
        assert_eq!(snap.value("events_captured"), Some(2.0), "ring keeps tail");
        let order: Vec<(u32, u64)> = streamed
            .borrow()
            .iter()
            .map(|e| (e.shard, e.cycle))
            .collect();
        assert_eq!(
            order,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 2)],
            "one sink streams every ring's events in emit order"
        );

        // Detaching restores loss accounting.
        assert!(tel.take_sink().is_some());
        t0.emit(5, EventKind::Enqueue, 5, 0);
        assert_eq!(joined(&[&t0]).value("events_evicted"), Some(1.0));
        assert_eq!(
            streamed.borrow().len(),
            6,
            "detached sink sees no new events"
        );
    }

    #[test]
    fn drain_empties_one_ring_and_preserves_order() {
        let tel = Telemetry::with_tracing(2, 4);
        let (mut t0, mut t1) = (tel.ring(0).unwrap(), tel.ring(1).unwrap());
        t0.emit(1, EventKind::Enqueue, 0, 0);
        t0.emit(2, EventKind::Dequeue, 0, 0);
        t1.emit(3, EventKind::Enqueue, 9, 0);
        let cycles: Vec<u64> = t0.drain().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert!(t0.drain().is_empty(), "drain leaves the ring empty");
        assert_eq!(t1.drain().len(), 1, "other shards untouched");
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
