//! Timestamp-based fair queueing: WFQ, WF²Q, WF²Q+, SCFQ, and SFQ.
//!
//! All five follow the same shape — tag packets with virtual start/finish
//! times on arrival, serve by tag order — and differ in how virtual time
//! is tracked and which tag orders service. They are exactly the family
//! the paper's sort/retrieve circuit accelerates.

use std::collections::{BTreeSet, VecDeque};

use traffic::{FlowSpec, Packet, Time};

use crate::rank::dense_weights;
use crate::scheduler::Scheduler;
use crate::virtual_time::{GpsVirtualClock, VirtualTime};

/// A queued packet with its virtual start and finishing tags.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    pkt: Packet,
    start: VirtualTime,
    finish: VirtualTime,
}

/// Per-flow FIFO queues with an index of head-of-line finishing tags.
///
/// Within one flow both tags are non-decreasing, so only head-of-line
/// packets ever compete for service — the index holds exactly those.
#[derive(Debug, Clone)]
struct FlowQueues {
    queues: Vec<VecDeque<Tagged>>,
    /// Head-of-line packets keyed by (finish, flow): iteration order is
    /// the WFQ service order; ties broken by flow id for determinism.
    hol_by_finish: BTreeSet<(VirtualTime, u32)>,
    backlog: usize,
}

impl FlowQueues {
    fn new(flows: usize) -> Self {
        Self {
            queues: vec![VecDeque::new(); flows],
            hol_by_finish: BTreeSet::new(),
            backlog: 0,
        }
    }

    fn push(&mut self, flow: usize, t: Tagged) {
        if self.queues[flow].is_empty() {
            self.hol_by_finish.insert((t.finish, flow as u32));
        }
        self.queues[flow].push_back(t);
        self.backlog += 1;
    }

    /// Removes and returns flow's head-of-line packet, maintaining the
    /// index.
    fn pop(&mut self, flow: usize) -> Tagged {
        let t = self.queues[flow].pop_front().expect("pop from empty flow");
        self.hol_by_finish.remove(&(t.finish, flow as u32));
        if let Some(next) = self.queues[flow].front() {
            self.hol_by_finish.insert((next.finish, flow as u32));
        }
        self.backlog -= 1;
        t
    }

    /// Flow holding the smallest head-of-line finishing tag.
    fn min_finish_flow(&self) -> Option<usize> {
        self.hol_by_finish.iter().next().map(|&(_, f)| f as usize)
    }

    /// Flow with the smallest finishing tag among heads whose start tag
    /// is at or below `v` (WF²Q eligibility); `None` if nothing is
    /// eligible. The comparison carries a relative tolerance: a packet
    /// whose GPS service starts exactly "now" is eligible, and the
    /// incremental virtual-time integration must not lose that to
    /// floating-point rounding.
    fn min_finish_eligible(&self, v: VirtualTime) -> Option<usize> {
        let v_eps = VirtualTime(v.0 + v.0.abs() * 1e-9 + 1e-9);
        self.hol_by_finish
            .iter()
            .map(|&(_, f)| f as usize)
            .find(|&f| self.queues[f].front().is_some_and(|t| t.start <= v_eps))
    }

    /// Smallest head-of-line *start* tag (WF²Q+ virtual-time floor).
    fn min_hol_start(&self) -> Option<VirtualTime> {
        self.hol_by_finish
            .iter()
            .filter_map(|&(_, f)| self.queues[f as usize].front())
            .map(|t| t.start)
            .min()
    }
}

/// Weighted fair queueing (PGPS): tags from the exact GPS virtual clock,
/// service in increasing finishing-tag order — the algorithm the paper's
/// scheduler implements in hardware.
///
/// # Example
///
/// ```
/// use fairq::{Scheduler, Wfq};
/// use traffic::{FlowId, FlowSpec, Packet, Time};
///
/// let flows = [
///     FlowSpec::new(FlowId(0), 1.0, 1e6),
///     FlowSpec::new(FlowId(1), 1.0, 1e6),
/// ];
/// let mut wfq = Wfq::new(&flows, 1e6);
/// wfq.on_arrival(Packet { flow: FlowId(0), size_bytes: 1500, arrival: Time(0.0), seq: 0 });
/// wfq.on_arrival(Packet { flow: FlowId(1), size_bytes: 40, arrival: Time(0.0), seq: 1 });
/// // The small packet's finishing tag is smaller: it goes first.
/// assert_eq!(wfq.select(Time(0.0)).unwrap().seq, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Wfq {
    clock: GpsVirtualClock,
    queues: FlowQueues,
}

impl Wfq {
    /// Creates a WFQ scheduler for `flows` on a link of `rate_bps`.
    pub fn new(flows: &[FlowSpec], rate_bps: f64) -> Self {
        Self {
            clock: GpsVirtualClock::for_flows(flows, rate_bps),
            queues: FlowQueues::new(flows.len()),
        }
    }

    /// The finishing tag that was assigned to the most recent arrival —
    /// what the hardware forwards to the sort/retrieve circuit.
    pub fn virtual_clock(&self) -> &GpsVirtualClock {
        &self.clock
    }
}

impl Scheduler for Wfq {
    fn name(&self) -> &'static str {
        "WFQ"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        let (start, finish) = self
            .clock
            .on_arrival(pkt.flow, pkt.size_bits(), pkt.arrival);
        self.queues
            .push(pkt.flow.0 as usize, Tagged { pkt, start, finish });
    }

    fn select(&mut self, _now: Time) -> Option<Packet> {
        let flow = self.queues.min_finish_flow()?;
        Some(self.queues.pop(flow).pkt)
    }

    fn backlog(&self) -> usize {
        self.queues.backlog
    }
}

/// Worst-case fair weighted fair queueing (WF²Q): WFQ restricted to
/// packets whose GPS service has already started, removing PGPS's
/// ahead-of-GPS unfairness at the cost the paper notes in §I-B.
#[derive(Debug, Clone)]
pub struct Wf2q {
    clock: GpsVirtualClock,
    queues: FlowQueues,
    fallbacks: u64,
}

impl Wf2q {
    /// Creates a WF²Q scheduler for `flows` on a link of `rate_bps`.
    pub fn new(flows: &[FlowSpec], rate_bps: f64) -> Self {
        Self {
            clock: GpsVirtualClock::for_flows(flows, rate_bps),
            queues: FlowQueues::new(flows.len()),
            fallbacks: 0,
        }
    }

    /// Times the eligibility rule found nothing and the scheduler fell
    /// back to plain min-finish (work conservation guard; stays 0 in a
    /// correct run).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl Scheduler for Wf2q {
    fn name(&self) -> &'static str {
        "WF2Q"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        let (start, finish) = self
            .clock
            .on_arrival(pkt.flow, pkt.size_bits(), pkt.arrival);
        self.queues
            .push(pkt.flow.0 as usize, Tagged { pkt, start, finish });
    }

    fn select(&mut self, now: Time) -> Option<Packet> {
        if self.queues.backlog == 0 {
            return None;
        }
        self.clock.advance(now);
        let v = self.clock.virtual_now();
        let flow = match self.queues.min_finish_eligible(v) {
            Some(f) => f,
            None => {
                self.fallbacks += 1;
                self.queues.min_finish_flow()?
            }
        };
        Some(self.queues.pop(flow).pkt)
    }

    fn backlog(&self) -> usize {
        self.queues.backlog
    }
}

/// WF²Q+ — all of WF²Q's fairness with the cheap virtual clock of
/// Bennett & Zhang \[6\]: `V ← max(V + L/Φ, min HOL start)`.
#[derive(Debug, Clone)]
pub struct Wf2qPlus {
    weights: Vec<f64>,
    phi_total: f64,
    v: VirtualTime,
    last_finish: Vec<VirtualTime>,
    queues: FlowQueues,
    last_selected_bits: f64,
    fallbacks: u64,
}

impl Wf2qPlus {
    /// Creates a WF²Q+ scheduler for `flows` (link rate folds into the
    /// virtual clock's normalization and is not needed).
    pub fn new(flows: &[FlowSpec]) -> Self {
        let weights = dense_weights(flows);
        let phi_total = weights.iter().sum();
        Self {
            last_finish: vec![VirtualTime::ZERO; weights.len()],
            queues: FlowQueues::new(weights.len()),
            weights,
            phi_total,
            v: VirtualTime::ZERO,
            last_selected_bits: 0.0,
            fallbacks: 0,
        }
    }

    /// See [`Wf2q::fallbacks`].
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl Scheduler for Wf2qPlus {
    fn name(&self) -> &'static str {
        "WF2Q+"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        let idx = pkt.flow.0 as usize;
        let start = self.v.max(self.last_finish[idx]);
        let finish = VirtualTime(start.0 + pkt.size_bits() / self.weights[idx]);
        self.last_finish[idx] = finish;
        self.queues.push(idx, Tagged { pkt, start, finish });
    }

    fn select(&mut self, _now: Time) -> Option<Packet> {
        if self.queues.backlog == 0 {
            return None;
        }
        // The WF²Q+ system-clock update at each service opportunity.
        let advanced = VirtualTime(self.v.0 + self.last_selected_bits / self.phi_total);
        let floor = self.queues.min_hol_start().unwrap_or(advanced);
        self.v = advanced.max(floor);
        let flow = match self.queues.min_finish_eligible(self.v) {
            Some(f) => f,
            None => {
                self.fallbacks += 1;
                self.queues.min_finish_flow()?
            }
        };
        let t = self.queues.pop(flow);
        self.last_selected_bits = t.pkt.size_bits();
        Some(t.pkt)
    }

    fn backlog(&self) -> usize {
        self.queues.backlog
    }
}

/// Self-clocked fair queueing: virtual time is simply the finishing tag
/// of the packet in service — no GPS simulation at all.
#[derive(Debug, Clone)]
pub struct Scfq {
    weights: Vec<f64>,
    v: VirtualTime,
    last_finish: Vec<VirtualTime>,
    queues: FlowQueues,
}

impl Scfq {
    /// Creates an SCFQ scheduler for `flows`.
    pub fn new(flows: &[FlowSpec]) -> Self {
        let weights = dense_weights(flows);
        Self {
            last_finish: vec![VirtualTime::ZERO; weights.len()],
            queues: FlowQueues::new(weights.len()),
            weights,
            v: VirtualTime::ZERO,
        }
    }
}

impl Scheduler for Scfq {
    fn name(&self) -> &'static str {
        "SCFQ"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        let idx = pkt.flow.0 as usize;
        let start = self.v.max(self.last_finish[idx]);
        let finish = VirtualTime(start.0 + pkt.size_bits() / self.weights[idx]);
        self.last_finish[idx] = finish;
        self.queues.push(idx, Tagged { pkt, start, finish });
    }

    fn select(&mut self, _now: Time) -> Option<Packet> {
        let flow = self.queues.min_finish_flow()?;
        let t = self.queues.pop(flow);
        self.v = t.finish; // self-clocking
        Some(t.pkt)
    }

    fn backlog(&self) -> usize {
        self.queues.backlog
    }
}

/// Start-time fair queueing: like SCFQ but serves by *start* tag, with
/// virtual time self-clocked to the start tag of the packet in service.
#[derive(Debug, Clone)]
pub struct Sfq {
    weights: Vec<f64>,
    v: VirtualTime,
    last_finish: Vec<VirtualTime>,
    queues: Vec<VecDeque<Tagged>>,
    hol_by_start: BTreeSet<(VirtualTime, u32)>,
    backlog: usize,
}

impl Sfq {
    /// Creates an SFQ scheduler for `flows`.
    pub fn new(flows: &[FlowSpec]) -> Self {
        let weights = dense_weights(flows);
        Self {
            last_finish: vec![VirtualTime::ZERO; weights.len()],
            queues: vec![VecDeque::new(); weights.len()],
            hol_by_start: BTreeSet::new(),
            backlog: 0,
            weights,
            v: VirtualTime::ZERO,
        }
    }
}

impl Scheduler for Sfq {
    fn name(&self) -> &'static str {
        "SFQ"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        let idx = pkt.flow.0 as usize;
        let start = self.v.max(self.last_finish[idx]);
        let finish = VirtualTime(start.0 + pkt.size_bits() / self.weights[idx]);
        self.last_finish[idx] = finish;
        if self.queues[idx].is_empty() {
            self.hol_by_start.insert((start, pkt.flow.0));
        }
        self.queues[idx].push_back(Tagged { pkt, start, finish });
        self.backlog += 1;
    }

    fn select(&mut self, _now: Time) -> Option<Packet> {
        let &(start, flow) = self.hol_by_start.iter().next()?;
        self.hol_by_start.remove(&(start, flow));
        let t = self.queues[flow as usize]
            .pop_front()
            .expect("indexed head exists");
        if let Some(next) = self.queues[flow as usize].front() {
            self.hol_by_start.insert((next.start, flow));
        }
        self.backlog -= 1;
        self.v = t.start; // self-clocked on start tags
        Some(t.pkt)
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::FlowId;

    fn flows2() -> Vec<FlowSpec> {
        vec![
            FlowSpec::new(FlowId(0), 1.0, 1e6),
            FlowSpec::new(FlowId(1), 1.0, 1e6),
        ]
    }

    fn pkt(seq: u64, flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq,
        }
    }

    #[test]
    fn wfq_orders_by_finishing_tag_not_arrival() {
        let mut s = Wfq::new(&flows2(), 1e6);
        s.on_arrival(pkt(0, 0, 0.0, 1500)); // F = 12000
        s.on_arrival(pkt(1, 1, 0.0, 100)); // F = 800
        s.on_arrival(pkt(2, 1, 0.0, 100)); // F = 1600
        let order: Vec<u64> = std::iter::from_fn(|| s.select(Time(1.0)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn wfq_respects_per_flow_fifo() {
        let mut s = Wfq::new(&flows2(), 1e6);
        for i in 0..5 {
            s.on_arrival(pkt(i, 0, 0.0, 500));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.select(Time(1.0)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wf2q_defers_ahead_of_gps_packets() {
        // The classic WF²Q example shape: a heavy flow dumps a burst; its
        // later packets have start tags in the GPS future and must not
        // monopolize the link early even if their finish tags are small.
        let flows = vec![
            FlowSpec::new(FlowId(0), 10.0, 1e6),
            FlowSpec::new(FlowId(1), 1.0, 1e6),
        ];
        let mut wf2q = Wf2q::new(&flows, 1e6);
        for i in 0..5 {
            wf2q.on_arrival(pkt(i, 0, 0.0, 1000)); // burst on heavy flow
        }
        wf2q.on_arrival(pkt(5, 1, 0.0, 1000));
        // Serve at the times a 1 Mb/s link would finish each packet.
        let mut order = Vec::new();
        let mut now = Time(0.0);
        while let Some(p) = wf2q.select(now) {
            now = now + p.service_time(1e6);
            order.push(p.seq);
        }
        assert_eq!(wf2q.fallbacks(), 0, "eligibility rule must suffice");
        // WFQ would serve all five heavy packets first (tags 800..4000 vs
        // 8000). WF²Q interleaves: flow 1's packet is eligible from t=0
        // and must appear before the heavy flow's GPS-future packets.
        let pos_light = order.iter().position(|&s| s == 5).unwrap();
        assert!(
            pos_light < 5,
            "WF2Q must interleave the light flow, got {order:?}"
        );
        // WFQ on the same input serves the light packet last.
        let mut wfq = Wfq::new(&flows, 1e6);
        for i in 0..5 {
            wfq.on_arrival(pkt(i, 0, 0.0, 1000));
        }
        wfq.on_arrival(pkt(5, 1, 0.0, 1000));
        let wfq_order: Vec<u64> = std::iter::from_fn(|| wfq.select(Time(1.0)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(wfq_order.last(), Some(&5));
    }

    #[test]
    fn wf2q_plus_matches_wf2q_interleaving() {
        let flows = vec![
            FlowSpec::new(FlowId(0), 10.0, 1e6),
            FlowSpec::new(FlowId(1), 1.0, 1e6),
        ];
        let mut s = Wf2qPlus::new(&flows);
        for i in 0..5 {
            s.on_arrival(pkt(i, 0, 0.0, 1000));
        }
        s.on_arrival(pkt(5, 1, 0.0, 1000));
        let mut order = Vec::new();
        let mut now = Time(0.0);
        while let Some(p) = s.select(now) {
            now = now + p.service_time(1e6);
            order.push(p.seq);
        }
        let pos_light = order.iter().position(|&q| q == 5).unwrap();
        assert!(pos_light < 5, "WF2Q+ should interleave, got {order:?}");
    }

    #[test]
    fn scfq_tags_without_gps_clock() {
        let mut s = Scfq::new(&flows2());
        s.on_arrival(pkt(0, 0, 0.0, 1000)); // F = 8000
        s.on_arrival(pkt(1, 1, 0.0, 250)); // F = 2000
        assert_eq!(s.select(Time(0.0)).unwrap().seq, 1);
        // V jumped to 2000; a new arrival on flow 1 starts there.
        s.on_arrival(pkt(2, 1, 0.0, 250)); // F = 2000 + 2000
        assert_eq!(s.select(Time(0.0)).unwrap().seq, 2);
        assert_eq!(s.select(Time(0.0)).unwrap().seq, 0);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn sfq_serves_by_start_tag() {
        let mut s = Sfq::new(&flows2());
        s.on_arrival(pkt(0, 0, 0.0, 1500)); // S=0, F=12000
        s.on_arrival(pkt(1, 0, 0.0, 100)); // S=12000
        s.on_arrival(pkt(2, 1, 0.0, 100)); // S=0, F=800
        let order: Vec<u64> = std::iter::from_fn(|| s.select(Time(0.0)))
            .map(|p| p.seq)
            .collect();
        // Ties at S=0 break by flow id (flow 0 first), then S=12000.
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn all_timestamp_schedulers_drain_completely() {
        let flows = flows2();
        let mk: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Wfq::new(&flows, 1e6)),
            Box::new(Wf2q::new(&flows, 1e6)),
            Box::new(Wf2qPlus::new(&flows)),
            Box::new(Scfq::new(&flows)),
            Box::new(Sfq::new(&flows)),
        ];
        for mut s in mk {
            for i in 0..20 {
                s.on_arrival(pkt(i, (i % 2) as u32, i as f64 * 1e-4, 200));
            }
            assert_eq!(s.backlog(), 20, "{}", s.name());
            let mut served = std::collections::BTreeSet::new();
            let mut now = Time(0.01);
            while let Some(p) = s.select(now) {
                now = now + p.service_time(1e6);
                assert!(served.insert(p.seq), "{}: duplicate service", s.name());
            }
            assert_eq!(served.len(), 20, "{}: lost packets", s.name());
            assert_eq!(s.backlog(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "dense and unique")]
    fn sparse_flow_ids_rejected() {
        let flows = vec![FlowSpec::new(FlowId(5), 1.0, 1e6)];
        let _ = Wfq::new(&flows, 1e6);
    }
}
