//! Per-flow latency attribution.
//!
//! Counters say *how many* packets moved; this module says **where each
//! packet's time went**. A [`LatencyTracker`] accumulates per-flow
//! sojourn histograms in two time domains:
//!
//! * **circuit cycles** — the sort/retrieve circuit's own clock, the
//!   figure of merit the paper's architecture bounds (`flow{N}_sojourn`);
//! * **simulated wall-clock nanoseconds** — split into buffer residency
//!   (arrival → service start, `flow{N}_wait_ns`) and
//!   retrieve-to-departure (service start → departure finish,
//!   `flow{N}_service_ns`), plus their sum (`flow{N}_sojourn_ns`).
//!
//! Two ways to feed it:
//!
//! * **Directly** — the link simulations call [`LatencyTracker::record`]
//!   at each departure with the cycle stamps and simulated times in
//!   hand (global flow ids, both time domains).
//! * **From the event stream** — an [`EventJoiner`] (itself an
//!   [`EventSink`]) joins `Enqueue`/`Dequeue` event pairs by
//!   `(shard, flow, seq)` into cycle-domain sojourns, for analyses that
//!   only have a trace. Events carry shard-*local* flow ids in a
//!   sharded frontend, so joined attribution is per-shard there.
//!
//! Exported through the deterministic [`Snapshot`] contract: each
//! histogram flattens to `_count/_mean/_p50/_p90/_p99/_max` keys, so a
//! report exposes `flow{N}_sojourn_{p50,p99,max}` et al. with
//! byte-stable JSON for CI gating.

use std::collections::{BTreeMap, HashMap};

use crate::histogram::Histogram;
use crate::sink::EventSink;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::trace::{Event, EventKind};

/// One flow's attribution histograms.
#[derive(Debug, Clone, Default)]
struct FlowAcc {
    sojourn_cycles: Histogram,
    wait_ns: Histogram,
    service_ns: Histogram,
    sojourn_ns: Histogram,
}

/// Converts non-negative simulated seconds to whole nanoseconds.
fn secs_to_ns(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        (s * 1e9).round() as u64
    }
}

/// Per-flow sojourn histograms; see the module docs for the key schema.
///
/// Flows are kept in a `BTreeMap`, so iteration (and therefore
/// [`LatencyTracker::export`]) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    flows: BTreeMap<u32, FlowAcc>,
}

impl LatencyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served packet with full attribution: sojourn in
    /// circuit cycles plus the simulated wall-clock split — `wait_s`
    /// (arrival → service start, i.e. buffer residency) and `service_s`
    /// (service start → departure finish). Negative components clamp to
    /// zero; the wall-clock total is the sum of the two rounded parts,
    /// so `wait_ns + service_ns == sojourn_ns` holds exactly.
    pub fn record(&mut self, flow: u32, sojourn_cycles: u64, wait_s: f64, service_s: f64) {
        let wait_ns = secs_to_ns(wait_s);
        let service_ns = secs_to_ns(service_s);
        let acc = self.flows.entry(flow).or_default();
        acc.sojourn_cycles.observe(sojourn_cycles);
        acc.wait_ns.observe(wait_ns);
        acc.service_ns.observe(service_ns);
        acc.sojourn_ns.observe(wait_ns.saturating_add(service_ns));
    }

    /// Records a cycle-domain-only sample (the event joiner's path — an
    /// event trace carries no wall-clock view).
    pub fn record_cycles(&mut self, flow: u32, sojourn_cycles: u64) {
        self.flows
            .entry(flow)
            .or_default()
            .sojourn_cycles
            .observe(sojourn_cycles);
    }

    /// Number of flows with at least one sample.
    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// Total number of recorded samples (cycle-domain count).
    pub fn samples(&self) -> u64 {
        self.flows.values().map(|a| a.sojourn_cycles.count()).sum()
    }

    /// The cycle-domain sojourn histogram of one flow, if it has
    /// samples (named `flow{N}_sojourn`, as exported).
    pub fn flow_sojourn(&self, flow: u32) -> Option<HistogramSnapshot> {
        self.flows
            .get(&flow)
            .map(|a| a.sojourn_cycles.snapshot(format!("flow{flow}_sojourn")))
    }

    /// Exports every flow's histograms into the snapshot —
    /// `flow{N}_sojourn` (cycles) always, the wall-clock triple
    /// (`_wait_ns`/`_service_ns`/`_sojourn_ns`) when wall-clock samples
    /// exist — plus `latency_flows` / `latency_samples` totals.
    pub fn export(&self, snap: &mut Snapshot) {
        for (flow, acc) in &self.flows {
            snap.add_histogram(acc.sojourn_cycles.snapshot(format!("flow{flow}_sojourn")));
            if acc.wait_ns.count() > 0 {
                snap.add_histogram(acc.wait_ns.snapshot(format!("flow{flow}_wait_ns")));
                snap.add_histogram(acc.service_ns.snapshot(format!("flow{flow}_service_ns")));
                snap.add_histogram(acc.sojourn_ns.snapshot(format!("flow{flow}_sojourn_ns")));
            }
        }
        snap.put("latency_flows", self.flows.len() as f64);
        snap.put("latency_samples", self.samples() as f64);
    }
}

/// Joins `Enqueue`/`Dequeue` event pairs by `(shard, flow, seq)` into a
/// cycle-domain [`LatencyTracker`].
///
/// Usable standalone (feed it with [`EventJoiner::observe`], e.g. over
/// `Snapshot::events` or `EventRing::drain` output) or attached as a
/// streaming [`EventSink`]. Dequeues whose matching enqueue was never
/// seen (e.g. a trace that starts mid-run, or a ring that evicted the
/// enqueue before a drain) are counted as [`EventJoiner::unmatched`],
/// not guessed at.
#[derive(Debug, Clone, Default)]
pub struct EventJoiner {
    pending: HashMap<(u32, u64, u64), u64>,
    tracker: LatencyTracker,
    unmatched: u64,
}

impl EventJoiner {
    /// An empty joiner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event; kinds other than `Enqueue`/`Dequeue` are
    /// ignored.
    pub fn observe(&mut self, e: &Event) {
        match e.kind {
            EventKind::Enqueue => {
                self.pending.insert((e.shard, e.a, e.b), e.cycle);
            }
            EventKind::Dequeue => match self.pending.remove(&(e.shard, e.a, e.b)) {
                Some(enqueued) => self
                    .tracker
                    .record_cycles(e.a as u32, e.cycle.saturating_sub(enqueued)),
                None => self.unmatched += 1,
            },
            _ => {}
        }
    }

    /// The accumulated tracker (borrow; see [`EventJoiner::into_tracker`]).
    pub fn tracker(&self) -> &LatencyTracker {
        &self.tracker
    }

    /// Consumes the joiner, yielding the accumulated tracker.
    pub fn into_tracker(self) -> LatencyTracker {
        self.tracker
    }

    /// Dequeues seen without a matching enqueue.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }

    /// Enqueues still waiting for their dequeue (packets in flight when
    /// the stream ended).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl EventSink for EventJoiner {
    fn record(&mut self, event: &Event) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(shard: u32, cycle: u64, kind: EventKind, flow: u64, seq: u64) -> Event {
        Event {
            shard,
            cycle,
            kind,
            a: flow,
            b: seq,
        }
    }

    #[test]
    fn joiner_pairs_enqueue_dequeue_by_flow_and_seq() {
        let mut j = EventJoiner::new();
        j.observe(&ev(0, 10, EventKind::Enqueue, 1, 0));
        j.observe(&ev(0, 14, EventKind::Enqueue, 2, 0));
        j.observe(&ev(0, 20, EventKind::Dequeue, 1, 0));
        j.observe(&ev(0, 30, EventKind::Dequeue, 2, 0));
        // Unrelated kinds are ignored; unknown dequeues are counted.
        j.observe(&ev(0, 31, EventKind::VclockWrap, 0, 0));
        j.observe(&ev(0, 40, EventKind::Dequeue, 9, 9));
        assert_eq!(j.unmatched(), 1);
        assert_eq!(j.in_flight(), 0);
        let t = j.into_tracker();
        assert_eq!(t.flows(), 2);
        assert_eq!(t.flow_sojourn(1).unwrap().max, 10);
        assert_eq!(t.flow_sojourn(2).unwrap().max, 16);
    }

    #[test]
    fn joiner_keys_include_the_shard() {
        // Shard-local flow ids collide across shards; the (shard, flow,
        // seq) key must keep the pairs apart.
        let mut j = EventJoiner::new();
        j.observe(&ev(0, 10, EventKind::Enqueue, 1, 0));
        j.observe(&ev(1, 100, EventKind::Enqueue, 1, 0));
        j.observe(&ev(1, 104, EventKind::Dequeue, 1, 0));
        j.observe(&ev(0, 12, EventKind::Dequeue, 1, 0));
        let t = j.tracker();
        let h = t.flow_sojourn(1).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 4, "cross-shard join would have yielded 94");
    }

    #[test]
    fn export_emits_per_flow_keys_through_the_snapshot_contract() {
        let mut t = LatencyTracker::new();
        t.record(3, 8, 2e-6, 1e-6);
        t.record(3, 12, 4e-6, 1e-6);
        t.record_cycles(7, 5);
        let mut snap = Snapshot::empty(1);
        t.export(&mut snap);
        assert_eq!(snap.value("flow3_sojourn_p50"), Some(8.0));
        assert_eq!(snap.value("flow3_sojourn_max"), Some(12.0));
        assert_eq!(
            snap.value("flow3_wait_ns_max"),
            Some(4000.0),
            "max is exact, 4 µs"
        );
        assert_eq!(snap.value("flow3_sojourn_ns_count"), Some(2.0));
        assert_eq!(snap.value("flow7_sojourn_p99"), Some(5.0));
        assert_eq!(
            snap.value("flow7_wait_ns_count"),
            None,
            "cycle-only flows export no wall-clock histograms"
        );
        assert_eq!(snap.value("latency_flows"), Some(2.0));
        assert_eq!(snap.value("latency_samples"), Some(3.0));
    }

    #[test]
    fn wall_clock_split_sums_exactly() {
        let mut t = LatencyTracker::new();
        // Rounding each part separately, the total is their exact sum.
        t.record(0, 1, 1.4e-9, 1.4e-9);
        let mut snap = Snapshot::empty(1);
        t.export(&mut snap);
        let wait = snap.value("flow0_wait_ns_max").unwrap();
        let service = snap.value("flow0_service_ns_max").unwrap();
        let total = snap.value("flow0_sojourn_ns_max").unwrap();
        assert_eq!(wait + service, total);
        // Negative (clock-skew) components clamp to zero.
        t.record(0, 1, -1.0, 0.5);
        assert_eq!(t.samples(), 2);
    }
}
