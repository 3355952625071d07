//! The round-robin family: WRR, DRR, and MDRR (paper §I-B).
//!
//! These are the schedulers the paper argues *against* for full QoS:
//! WRR needs the mean packet size in advance, and none of the family can
//! bound delay for variable-size packets the way fair queueing does —
//! which experiment E10 demonstrates quantitatively.

use std::collections::VecDeque;

use traffic::{FlowId, FlowSpec, Packet, Time};

use crate::rank::dense_by_id;
use crate::scheduler::Scheduler;

/// Weighted round robin \[2\]: flow *i* sends `nᵢ` packets per round, with
/// `nᵢ` derived from the weights normalized by each flow's *mean* packet
/// size — the advance knowledge requirement the paper criticizes.
#[derive(Debug, Clone)]
pub struct Wrr {
    queues: Vec<VecDeque<Packet>>,
    /// Packets each flow may send per round.
    per_round: Vec<u32>,
    /// Remaining credit in the current round, per flow.
    credit: Vec<u32>,
    cursor: usize,
    backlog: usize,
}

impl Wrr {
    /// Builds per-round packet counts from the specs' weights and
    /// *declared* mean packet sizes (`spec.sizes.mean_bytes()`), smallest
    /// share normalized to one packet per round.
    ///
    /// # Panics
    ///
    /// Panics if flow ids are not dense indices.
    pub fn new(flows: &[FlowSpec]) -> Self {
        let n = flows.len();
        let rate = dense_by_id(flows, |f| f.weight / f.sizes.mean_bytes());
        let min_rate = rate.iter().cloned().fold(f64::INFINITY, f64::min);
        let per_round: Vec<u32> = rate
            .iter()
            .map(|r| ((r / min_rate).round() as u32).max(1))
            .collect();
        Self {
            queues: vec![VecDeque::new(); n],
            credit: per_round.clone(),
            per_round,
            cursor: 0,
            backlog: 0,
        }
    }

    /// Packets per round granted to `flow`.
    pub fn per_round(&self, flow: FlowId) -> u32 {
        self.per_round[flow.0 as usize]
    }
}

impl Scheduler for Wrr {
    fn name(&self) -> &'static str {
        "WRR"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        self.queues[pkt.flow.0 as usize].push_back(pkt);
        self.backlog += 1;
    }

    fn select(&mut self, _now: Time) -> Option<Packet> {
        if self.backlog == 0 {
            return None;
        }
        let n = self.queues.len();
        // At most two full sweeps: one to exhaust stale credit, one after
        // the round restarts.
        for _ in 0..=2 * n {
            let i = self.cursor;
            if self.credit[i] > 0 && !self.queues[i].is_empty() {
                self.credit[i] -= 1;
                if self.credit[i] == 0 || self.queues[i].len() == 1 {
                    self.advance_cursor(i);
                }
                self.backlog -= 1;
                return self.queues[i].pop_front();
            }
            self.advance_cursor(i);
        }
        unreachable!("WRR scan failed with non-empty backlog");
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

impl Wrr {
    fn advance_cursor(&mut self, from: usize) {
        self.credit[from] = 0;
        self.cursor = (from + 1) % self.queues.len();
        if self.cursor == 0 {
            // New round: refresh everyone's credit.
            self.credit.copy_from_slice(&self.per_round);
        }
    }
}

/// Deficit round robin \[3\]: byte-accurate rounds without knowing packet
/// sizes in advance. Each visit adds a weight-proportional quantum to the
/// flow's deficit; packets are sent while the deficit covers them.
#[derive(Debug, Clone)]
pub struct Drr {
    queues: Vec<VecDeque<Packet>>,
    quantum: Vec<f64>,
    deficit: Vec<f64>,
    /// Backlogged flows awaiting a visit, in round order.
    active: VecDeque<usize>,
    /// Flow currently being visited, if its deficit still has credit.
    visiting: Option<usize>,
    backlog: usize,
}

impl Drr {
    /// Creates a DRR scheduler; `base_quantum_bytes` is the quantum of a
    /// weight-1.0 flow (use at least the MTU to keep rounds O(1)).
    ///
    /// # Panics
    ///
    /// Panics if flow ids are not dense or the quantum is not positive.
    pub fn new(flows: &[FlowSpec], base_quantum_bytes: f64) -> Self {
        assert!(base_quantum_bytes > 0.0, "quantum must be positive");
        let n = flows.len();
        let quantum = dense_by_id(flows, |f| f.weight * base_quantum_bytes);
        Self {
            queues: vec![VecDeque::new(); n],
            deficit: vec![0.0; n],
            quantum,
            active: VecDeque::new(),
            visiting: None,
            backlog: 0,
        }
    }
}

impl Scheduler for Drr {
    fn name(&self) -> &'static str {
        "DRR"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        let idx = pkt.flow.0 as usize;
        let was_empty = self.queues[idx].is_empty();
        self.queues[idx].push_back(pkt);
        self.backlog += 1;
        if was_empty && self.visiting != Some(idx) {
            self.active.push_back(idx);
        }
    }

    fn select(&mut self, _now: Time) -> Option<Packet> {
        if self.backlog == 0 {
            return None;
        }
        loop {
            let flow = match self.visiting {
                Some(f) => f,
                None => {
                    let f = self
                        .active
                        .pop_front()
                        .expect("backlog implies active flows");
                    self.deficit[f] += self.quantum[f];
                    self.visiting = Some(f);
                    f
                }
            };
            let hol_bytes = f64::from(
                self.queues[flow]
                    .front()
                    .expect("active flow has packets")
                    .size_bytes,
            );
            if self.deficit[flow] >= hol_bytes {
                self.deficit[flow] -= hol_bytes;
                self.backlog -= 1;
                let pkt = self.queues[flow].pop_front();
                if self.queues[flow].is_empty() {
                    // Shreedhar–Varghese: an emptied flow forfeits its
                    // deficit and leaves the round.
                    self.deficit[flow] = 0.0;
                    self.visiting = None;
                }
                return pkt;
            }
            // Deficit exhausted: rotate to the back of the round.
            self.visiting = None;
            self.active.push_back(flow);
            // Next loop iteration visits the following flow and tops up
            // its deficit — deficits grow monotonically, so this
            // terminates.
        }
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

/// Modified deficit round robin: DRR plus one strict-priority low-latency
/// queue — the Cisco extension the paper cites for VoIP prioritization.
#[derive(Debug, Clone)]
pub struct Mdrr {
    priority_flow: usize,
    priority_queue: VecDeque<Packet>,
    inner: Drr,
}

impl Mdrr {
    /// Creates an MDRR scheduler with `priority` as the strict-priority
    /// low-latency queue; all other flows share DRR rounds.
    ///
    /// # Panics
    ///
    /// Panics if `priority` is not one of the flows.
    pub fn new(flows: &[FlowSpec], base_quantum_bytes: f64, priority: FlowId) -> Self {
        assert!(
            flows.iter().any(|f| f.id == priority),
            "priority flow {priority} not among the flows"
        );
        Self {
            priority_flow: priority.0 as usize,
            priority_queue: VecDeque::new(),
            inner: Drr::new(flows, base_quantum_bytes),
        }
    }
}

impl Scheduler for Mdrr {
    fn name(&self) -> &'static str {
        "MDRR"
    }

    fn on_arrival(&mut self, pkt: Packet) {
        if pkt.flow.0 as usize == self.priority_flow {
            self.priority_queue.push_back(pkt);
        } else {
            self.inner.on_arrival(pkt);
        }
    }

    fn select(&mut self, now: Time) -> Option<Packet> {
        if let Some(pkt) = self.priority_queue.pop_front() {
            return Some(pkt);
        }
        self.inner.select(now)
    }

    fn backlog(&self) -> usize {
        self.priority_queue.len() + self.inner.backlog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::SizeDist;

    fn pkt(seq: u64, flow: u32, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(0.0),
            seq,
        }
    }

    fn specs(weights: &[f64]) -> Vec<FlowSpec> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| FlowSpec::new(FlowId(i as u32), w, 1e6).size(SizeDist::Fixed(500)))
            .collect()
    }

    #[test]
    fn wrr_round_allocation_follows_weights() {
        let wrr = Wrr::new(&specs(&[1.0, 3.0]));
        assert_eq!(wrr.per_round(FlowId(0)), 1);
        assert_eq!(wrr.per_round(FlowId(1)), 3);
    }

    #[test]
    fn wrr_serves_weighted_shares_of_fixed_packets() {
        let mut s = Wrr::new(&specs(&[1.0, 3.0]));
        for i in 0..8 {
            s.on_arrival(pkt(i, 0, 500));
            s.on_arrival(pkt(100 + i, 1, 500));
        }
        let first8: Vec<u32> = std::iter::from_fn(|| s.select(Time(0.0)))
            .take(8)
            .map(|p| p.flow.0)
            .collect();
        let f1 = first8.iter().filter(|&&f| f == 1).count();
        assert_eq!(f1, 6, "flow 1 should get 3 of every 4 slots: {first8:?}");
    }

    #[test]
    fn wrr_normalizes_by_mean_packet_size() {
        // Equal weights but flow 1 declares packets twice as large: it
        // gets half the packets per round.
        let flows = vec![
            FlowSpec::new(FlowId(0), 1.0, 1e6).size(SizeDist::Fixed(500)),
            FlowSpec::new(FlowId(1), 1.0, 1e6).size(SizeDist::Fixed(1000)),
        ];
        let wrr = Wrr::new(&flows);
        assert_eq!(wrr.per_round(FlowId(0)), 2);
        assert_eq!(wrr.per_round(FlowId(1)), 1);
    }

    #[test]
    fn drr_is_byte_fair_with_mixed_sizes() {
        // Flow 0 sends big packets, flow 1 small ones; equal weights must
        // yield equal *bytes*, i.e. 1 big per 3 small at 1500 vs 500.
        let mut s = Drr::new(&specs(&[1.0, 1.0]), 1500.0);
        for i in 0..6 {
            s.on_arrival(pkt(i, 0, 1500));
        }
        for i in 0..18 {
            s.on_arrival(pkt(100 + i, 1, 500));
        }
        let mut bytes = [0u64; 2];
        for _ in 0..12 {
            let p = s.select(Time(0.0)).unwrap();
            bytes[p.flow.0 as usize] += u64::from(p.size_bytes);
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "byte shares should be equal: {bytes:?}"
        );
    }

    #[test]
    fn drr_carries_deficit_across_rounds() {
        // Quantum 800 < packet 1500: a flow must accumulate two rounds of
        // deficit before sending. With only one flow this still works.
        let mut s = Drr::new(&specs(&[1.0]), 800.0);
        s.on_arrival(pkt(0, 0, 1500));
        assert_eq!(s.select(Time(0.0)).unwrap().seq, 0);
    }

    #[test]
    fn mdrr_priority_queue_preempts_rounds() {
        let flows = specs(&[1.0, 1.0, 1.0]);
        let mut s = Mdrr::new(&flows, 1500.0, FlowId(2));
        s.on_arrival(pkt(0, 0, 500));
        s.on_arrival(pkt(1, 1, 500));
        s.on_arrival(pkt(2, 2, 500));
        s.on_arrival(pkt(3, 2, 500));
        let order: Vec<u64> = std::iter::from_fn(|| s.select(Time(0.0)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(&order[..2], &[2, 3], "LLQ first: {order:?}");
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn round_robins_drain_completely() {
        let flows = specs(&[1.0, 2.0, 4.0]);
        let mk: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Wrr::new(&flows)),
            Box::new(Drr::new(&flows, 1500.0)),
            Box::new(Mdrr::new(&flows, 1500.0, FlowId(0))),
        ];
        for mut s in mk {
            for i in 0..30 {
                s.on_arrival(pkt(i, (i % 3) as u32, 300 + (i as u32 % 5) * 250));
            }
            let mut count = 0;
            while s.select(Time(0.0)).is_some() {
                count += 1;
            }
            assert_eq!(count, 30, "{} lost packets", s.name());
            assert_eq!(s.backlog(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "priority flow")]
    fn mdrr_requires_valid_priority() {
        let _ = Mdrr::new(&specs(&[1.0]), 1500.0, FlowId(7));
    }

    /// A zero weight, whose rate and quantum are zero, hides no
    /// repeated id.
    #[test]
    fn a_zero_weight_cannot_hide_a_repeated_id() {
        let mut table = specs(&[1.0, 1.0]);
        table[0].weight = 0.0;
        table[1].id = FlowId(0);
        let builds: [fn(&[FlowSpec]); 2] = [|t| drop(Wrr::new(t)), |t| drop(Drr::new(t, 1500.0))];
        for build in builds {
            let err = std::panic::catch_unwind(|| build(&table)).expect_err("table accepted");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("dense and unique"), "{msg}");
        }
    }
}
