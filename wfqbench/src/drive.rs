//! The frontend surface the benchmark drives, the untimed oracle pass
//! that turns a workload into a fixed call stream, and the replay that
//! times that stream in batches.
//!
//! The oracle pass couples a `HeapSorter`-backed frontend to a modeled
//! egress link (as `campaign::run_one` does): arrivals keep their seeded
//! schedule, and whenever simulated time passes the link's free instant
//! the frontend's head packet is served. Every call it makes is
//! recorded. Timed runs then replay exactly those calls against the
//! benchmarked backend, back to back: a closed loop in host time over an
//! open-loop schedule in simulated time. Every output of the replay is
//! checked against the oracle's.

use std::time::Instant;

use fairq::RankPolicy;
use scheduler::{HwScheduler, Placement, RebalancerConfig, ShardedScheduler};
use tagsort::SortBackend;
use telemetry::Telemetry;
use traffic::{FlowId, Packet, Time};

use crate::stats;
use crate::workload::Workload;

/// Frontend calls per timed batch: 1024 packets, each one enqueue plus
/// one dequeue.
pub const BATCH_CALLS: u32 = 2048;

/// Fewest timed repetitions per run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a step over a whole 64-bit word.
pub fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Folds a departure's `(flow, seq, size)` into the departure hash.
pub fn fnv(h: u64, p: &Packet) -> u64 {
    let h = fnv_word(h, u64::from(p.flow.0));
    let h = fnv_word(h, p.seq);
    fnv_word(h, u64::from(p.size_bytes))
}

/// What the benchmark needs from a scheduler frontend.
pub trait Frontend: Sized {
    /// The sort engine behind each shard.
    type Backend: SortBackend;
    /// The rank policy of each shard.
    type Policy: RankPolicy + Default;

    /// Builds the workload's frontend, with counters telemetry attached
    /// when `telemetry` is set.
    fn build(wl: &Workload, telemetry: bool) -> Self;
    /// Admits one arrival; `false` when it is refused.
    fn enqueue(&mut self, pkt: Packet) -> bool;
    /// Serves the next packet and the port that served it.
    fn dequeue(&mut self) -> Option<(usize, Packet)>;
    /// One rebalance round: the migration made, if any.
    fn rebalance(&mut self) -> Option<(FlowId, usize, usize)>;
    /// The port `flow` is routed to.
    fn port_of(&self, flow: FlowId) -> usize;
    /// Packets extracted for migration so far, per port.
    fn migrated_out(&self) -> Vec<u64>;
    /// Layer facts read once a run has drained.
    fn facts(&self) -> Facts;
}

/// Facts a frontend reports about itself after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Facts {
    /// Peak buffer occupancy, frontend-wide.
    pub buffer_peak: usize,
    /// Completed flow migrations.
    pub migrations: u64,
    /// Max/mean of per-port admissions (1 for one port).
    pub balance: f64,
    /// Peak resident ÷ total sorter state words (1 when the backend
    /// keeps everything resident).
    pub resident_ratio: f64,
    /// Modeled sort-memory cycles, summed over shards.
    pub sort_cycles: u64,
}

fn resident_ratio<B: SortBackend, P: RankPolicy>(s: &HwScheduler<B, P>) -> f64 {
    s.resident_memory().map_or(1.0, |m| {
        m.peak_resident_words as f64 / m.total_words.max(1) as f64
    })
}

impl<B: SortBackend, P: RankPolicy + Default> Frontend for HwScheduler<B, P> {
    type Backend = B;
    type Policy = P;

    fn build(wl: &Workload, telemetry: bool) -> Self {
        shard_scheduler(wl, wl.link_bps, telemetry.then(|| Telemetry::new(1)), 0)
    }

    #[inline]
    fn enqueue(&mut self, pkt: Packet) -> bool {
        HwScheduler::enqueue(self, pkt).is_ok()
    }

    #[inline]
    fn dequeue(&mut self) -> Option<(usize, Packet)> {
        HwScheduler::dequeue(self).map(|p| (0, p))
    }

    fn rebalance(&mut self) -> Option<(FlowId, usize, usize)> {
        None
    }

    fn port_of(&self, _flow: FlowId) -> usize {
        0
    }

    fn migrated_out(&self) -> Vec<u64> {
        vec![self.stats().migrated_out]
    }

    fn facts(&self) -> Facts {
        let stats = self.stats();
        Facts {
            buffer_peak: stats.buffer.peak,
            migrations: 0,
            balance: 1.0,
            resident_ratio: resident_ratio(self),
            sort_cycles: stats.circuit.store_cycles,
        }
    }
}

/// One shard's scheduler exactly as the workload's frontend builds it:
/// the full flow table (dynamic placement gives every port all flows),
/// paged state when the workload pages, and counters telemetry recorded
/// as `shard` when a registry is given.
pub fn shard_scheduler<B: SortBackend, P: RankPolicy + Default>(
    wl: &Workload,
    rate_bps: f64,
    telemetry: Option<Telemetry>,
    shard: usize,
) -> HwScheduler<B, P> {
    let mut s =
        HwScheduler::<B, P>::with_backend_and_policy(&wl.flows, rate_bps, wl.config, &P::default());
    if wl.paged {
        s.set_paged_state();
    }
    if let Some(tel) = telemetry {
        s.attach_telemetry(&tel, shard);
    }
    s
}

impl<B: SortBackend, P: RankPolicy + Default> Frontend for ShardedScheduler<B, P> {
    type Backend = B;
    type Policy = P;

    fn build(wl: &Workload, telemetry: bool) -> Self {
        let rates = vec![wl.shard_rate(); wl.ports];
        let mut s = ShardedScheduler::<B, P>::with_policy_port_rates_placement(
            &wl.flows,
            &rates,
            wl.config,
            &P::default(),
            Placement::Dynamic,
        )
        .with_rebalancer(RebalancerConfig::default());
        if telemetry {
            s.attach_telemetry(&Telemetry::new(wl.ports));
        }
        s
    }

    #[inline]
    fn enqueue(&mut self, pkt: Packet) -> bool {
        ShardedScheduler::enqueue(self, pkt).is_ok()
    }

    #[inline]
    fn dequeue(&mut self) -> Option<(usize, Packet)> {
        ShardedScheduler::dequeue(self)
    }

    fn rebalance(&mut self) -> Option<(FlowId, usize, usize)> {
        self.maybe_rebalance()
    }

    fn port_of(&self, flow: FlowId) -> usize {
        ShardedScheduler::port_of(self, flow).expect("configured flow")
    }

    fn migrated_out(&self) -> Vec<u64> {
        self.stats()
            .per_port
            .iter()
            .map(|s| s.migrated_out)
            .collect()
    }

    fn facts(&self) -> Facts {
        let stats = self.stats();
        Facts {
            buffer_peak: stats.aggregate.buffer.peak,
            migrations: self.migrations(),
            balance: stats.shard_balance(),
            resident_ratio: (0..self.ports())
                .map(|p| resident_ratio(self.shard(p)))
                .fold(0.0, f64::max),
            sort_cycles: stats.per_port.iter().map(|s| s.circuit.store_cycles).sum(),
        }
    }
}

/// One recorded frontend call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An admitted arrival.
    Enq,
    /// A refused arrival.
    Drop,
    /// A dequeue that served a packet.
    Deq,
    /// A dequeue that found every queue empty.
    Idle,
    /// A rebalance round (not counted as a call).
    Rebalance,
}

/// The same stream seen one level down: the calls each shard's
/// `HwScheduler` receives, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOp {
    Enq {
        port: u8,
        seq: u32,
        ok: bool,
    },
    Deq {
        port: u8,
        seq: Option<u32>,
    },
    /// A flow migration: extract from `from`, install on `to`; `to` is
    /// `None` for an install the destination refused, after which the
    /// flow goes back where it was.
    Migrate {
        flow: u32,
        from: u8,
        to: Option<u8>,
        moved: u32,
    },
}

/// Where a batch starts in each recorded sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor {
    pub op: usize,
    pub pkt: usize,
    pub dep: usize,
    pub shard_op: usize,
}

/// A batch's call counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchInfo {
    /// Enqueue and dequeue calls.
    pub calls: u32,
    /// Enqueue calls.
    pub arrivals: u32,
    /// Whether the batch lies in a drain phase (after a round's last
    /// arrival).
    pub drain: bool,
}

impl BatchInfo {
    /// Packets in the batch: one enqueue plus one dequeue each.
    pub fn packets(&self) -> f64 {
        f64::from(self.calls) / 2.0
    }
}

/// The deterministic, user-visible outcome of the simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// p99 queueing delay on the modeled link, arrival to service start.
    pub delay_p99_us: f64,
    /// Packets served ÷ packets offered.
    pub delivered: f64,
    /// Jain's index over flows of served ÷ offered bytes.
    pub fairness: f64,
}

/// Everything the oracle pass recorded.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Arrivals in enqueue order (`packets[i].seq == i`), with their
    /// final simulated arrival times.
    pub packets: Vec<Packet>,
    pub ops: Vec<Op>,
    /// Expected sequence number of each `Op::Deq`.
    pub departures: Vec<u32>,
    pub shard_ops: Vec<ShardOp>,
    /// `cursors[b]` opens batch `b`; the last entry closes the stream.
    pub cursors: Vec<Cursor>,
    pub batches: Vec<BatchInfo>,
    /// Departure hash of the oracle run.
    pub hash: u64,
    pub outcome: SimOutcome,
    /// The oracle frontend's own facts.
    pub facts: Facts,
}

impl Stream {
    fn cursor(&self) -> Cursor {
        Cursor {
            op: self.ops.len(),
            pkt: self.packets.len(),
            dep: self.departures.len(),
            shard_op: self.shard_ops.len(),
        }
    }

    /// Whether the open batch has recorded nothing yet.
    fn batch_empty(&self) -> bool {
        self.cursors.last().is_some_and(|c| c.op == self.ops.len())
    }

    fn open_batch(&mut self, drain: bool) {
        let info = BatchInfo {
            drain,
            ..BatchInfo::default()
        };
        if self.batch_empty() {
            *self.batches.last_mut().expect("a batch is open") = info;
            return;
        }
        self.cursors.push(self.cursor());
        self.batches.push(info);
    }

    /// Records one op, opening a new batch first when a call would
    /// overfill the current one. Record the op before its details, so
    /// they land in the same batch.
    fn call(&mut self, op: Op) {
        let full = self.batches.last().is_some_and(|b| b.calls == BATCH_CALLS);
        if full && op != Op::Rebalance {
            let drain = self.batches.last().is_some_and(|b| b.drain);
            self.open_batch(drain);
        }
        self.ops.push(op);
        if op != Op::Rebalance {
            let b = self.batches.last_mut().expect("a batch is open");
            b.calls += 1;
            b.arrivals += u32::from(matches!(op, Op::Enq | Op::Drop));
        }
    }

    /// Ops of batch `b`, with the cursors it starts from.
    pub fn batch(&self, b: usize) -> (Cursor, Cursor) {
        (self.cursors[b], self.cursors[b + 1])
    }

    /// Total frontend calls.
    pub fn calls(&self) -> u64 {
        self.batches.iter().map(|b| u64::from(b.calls)).sum()
    }
}

/// The modeled egress link.
struct Link {
    rate_bps: f64,
    free_at: f64,
}

impl Link {
    /// Starts transmitting `p`; returns its queueing delay in seconds.
    fn serve(&mut self, p: &Packet) -> f64 {
        let start = self.free_at.max(p.arrival.0);
        self.free_at = start + p.size_bits() / self.rate_bps;
        start - p.arrival.0
    }
}

/// The untimed oracle pass: drives frontend `F` (the `HeapSorter`
/// build) through the workload on the modeled link and records every
/// call, its expected output, and the run's simulated outcome.
pub fn oracle<F: Frontend>(wl: &Workload) -> Stream {
    let ports = wl.ports;
    let mut fe = F::build(wl, wl.telemetry);
    let mut s = Stream {
        packets: Vec::with_capacity(wl.packets()),
        ops: Vec::with_capacity(2 * wl.packets() + 1024),
        departures: Vec::with_capacity(wl.packets()),
        shard_ops: Vec::new(),
        cursors: Vec::new(),
        batches: Vec::new(),
        hash: FNV_BASIS,
        outcome: SimOutcome {
            delay_p99_us: 0.0,
            delivered: 0.0,
            fairness: 0.0,
        },
        facts: Facts::default(),
    };
    s.open_batch(false);
    let mut link = Link {
        rate_bps: wl.link_bps,
        free_at: 0.0,
    };
    let mut delays = Vec::with_capacity(wl.packets());
    let mut offered = vec![0u64; wl.flows.len()];
    let mut served = vec![0u64; wl.flows.len()];
    // Admitted packets per flow: the frontend's rebalancer moves the
    // hottest flow by this count, and a refused move is replayed by it.
    let mut admitted = vec![0u64; wl.flows.len()];
    // The sharded frontend's work-conserving round-robin starts each
    // dequeue at the port after the last one served.
    let mut cursor = 0usize;
    let mut dequeue = |fe: &mut F, s: &mut Stream, link: &mut Link, delays: &mut Vec<f64>| {
        let got = fe.dequeue();
        s.call(if got.is_some() { Op::Deq } else { Op::Idle });
        // The shards asked, in round-robin order: up to the one that
        // served, or every one when none could.
        let tried = got.map_or(ports, |(port, _)| (port + ports - cursor) % ports + 1);
        for step in 0..tried {
            let port = (cursor + step) % ports;
            let seq = got
                .filter(|&(p, _)| p == port)
                .map(|(_, pkt)| pkt.seq as u32);
            s.shard_ops.push(ShardOp::Deq {
                port: port as u8,
                seq,
            });
        }
        let Some((port, pkt)) = got else {
            return false;
        };
        cursor = (port + 1) % ports;
        s.departures.push(pkt.seq as u32);
        s.hash = fnv(s.hash, &pkt);
        served[pkt.flow.0 as usize] += u64::from(pkt.size_bytes);
        delays.push(link.serve(&pkt));
        true
    };
    let mut offset = 0.0;
    let mut arrivals = 0u64;
    for round in &wl.rounds {
        for p in round {
            let pkt = Packet {
                arrival: Time(offset + p.arrival.0),
                ..*p
            };
            let now = pkt.arrival.0;
            // Serve everything the link starts before this arrival; an
            // empty queue idles the link until it.
            while link.free_at <= now {
                if !dequeue(&mut fe, &mut s, &mut link, &mut delays) {
                    link.free_at = now;
                    break;
                }
            }
            offered[pkt.flow.0 as usize] += u64::from(pkt.size_bytes);
            let port = fe.port_of(pkt.flow);
            let ok = fe.enqueue(pkt);
            if ok {
                admitted[pkt.flow.0 as usize] += 1;
            }
            s.call(if ok { Op::Enq } else { Op::Drop });
            s.shard_ops.push(ShardOp::Enq {
                port: port as u8,
                seq: pkt.seq as u32,
                ok,
            });
            s.packets.push(pkt);
            arrivals += 1;
            if wl
                .rebalance_every
                .is_some_and(|n| arrivals.is_multiple_of(n))
            {
                let before = fe.migrated_out();
                let moved = fe.rebalance();
                let after = fe.migrated_out();
                let delta = |port: usize| (after[port] - before[port]) as u32;
                s.call(Op::Rebalance);
                if let Some((flow, from, to)) = moved {
                    s.shard_ops.push(ShardOp::Migrate {
                        flow: flow.0,
                        from: from as u8,
                        to: Some(to as u8),
                        moved: delta(from),
                    });
                } else if let Some(from) = (0..ports).find(|&p| after[p] != before[p]) {
                    // A refused install: the frontend extracted its
                    // hottest flow on `from` and put it back.
                    let flow = (0..wl.flows.len())
                        .filter(|&f| fe.port_of(FlowId(f as u32)) == from)
                        .max_by_key(|&f| (admitted[f], std::cmp::Reverse(f)))
                        .expect("the source port owns a flow");
                    s.shard_ops.push(ShardOp::Migrate {
                        flow: flow as u32,
                        from: from as u8,
                        to: None,
                        moved: delta(from),
                    });
                }
            }
        }
        // The round's last arrival is in: from here the link drains.
        s.open_batch(true);
        while dequeue(&mut fe, &mut s, &mut link, &mut delays) {}
        offset = link.free_at;
        s.open_batch(false);
    }
    if s.batch_empty() {
        s.batches.pop();
        s.cursors.pop();
    }
    let end = s.cursor();
    s.cursors.push(end);

    let offered_pkts = s.packets.len() as u64;
    let jain = {
        let shares: Vec<f64> = offered
            .iter()
            .zip(&served)
            .filter(|(o, _)| **o > 0)
            .map(|(&o, &v)| v as f64 / o as f64)
            .collect();
        let sum: f64 = shares.iter().sum();
        let sq: f64 = shares.iter().map(|x| x * x).sum();
        sum * sum / (shares.len() as f64 * sq)
    };
    s.outcome = SimOutcome {
        delay_p99_us: stats::percentile(&delays, 99.0) * 1e6,
        delivered: s.departures.len() as f64 / offered_pkts as f64,
        fairness: jain,
    };
    s.facts = fe.facts();
    s
}

/// Running output check of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Departure hash so far.
    pub hash: u64,
    /// Calls whose output differed from the oracle's.
    pub failed: u64,
    /// Calls made.
    pub attempted: u64,
}

impl Check {
    pub fn new() -> Self {
        Check {
            hash: FNV_BASIS,
            failed: 0,
            attempted: 0,
        }
    }
}

/// Replays batch `b` of the stream against `fe`, checking every output.
pub fn run_batch<F: Frontend>(fe: &mut F, s: &Stream, b: usize, chk: &mut Check) {
    let (from, to) = s.batch(b);
    let (mut pi, mut di) = (from.pkt, from.dep);
    for &op in &s.ops[from.op..to.op] {
        match op {
            Op::Enq | Op::Drop => {
                let ok = fe.enqueue(s.packets[pi]);
                pi += 1;
                chk.failed += u64::from(ok != (op == Op::Enq));
            }
            Op::Deq => {
                match fe.dequeue() {
                    Some((_, p)) => {
                        chk.hash = fnv(chk.hash, &p);
                        chk.failed += u64::from(p.seq != u64::from(s.departures[di]));
                    }
                    None => chk.failed += 1,
                }
                di += 1;
            }
            Op::Idle => chk.failed += u64::from(fe.dequeue().is_some()),
            Op::Rebalance => {
                fe.rebalance();
            }
        }
    }
    chk.attempted += u64::from(s.batches[b].calls);
}

/// One timed repetition on a freshly built frontend.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Build plus the first (warm-up) batch, seconds.
    pub setup_s: f64,
    /// Wall ns of every batch; batch 0 is the warm-up.
    pub batch_ns: Vec<f64>,
    /// Heap bytes the frontend held at its peak.
    pub mem_bytes: usize,
    pub check: Check,
    pub facts: Facts,
}

impl Rep {
    /// The rep's statistic: median over the timed batches (all but the
    /// warm-up) of wall ns per packet.
    pub fn median_ns(&self, s: &Stream) -> f64 {
        let per_pkt: Vec<f64> = (1..s.batches.len())
            .map(|b| self.batch_ns[b] / s.batches[b].packets())
            .collect();
        stats::median(&per_pkt)
    }

    /// Failed output checks: calls whose result differed from the
    /// oracle's, plus one for a departure hash that differs.
    pub fn mismatches(&self, s: &Stream) -> u64 {
        self.check.failed + u64::from(self.check.hash != s.hash)
    }
}

/// Each batch's time across repetitions: the nearest-rank lower
/// quartile of its repetitions' times.
///
/// Batch b is the same work in every repetition, and on a shared host
/// other tenants slow whole repetitions by up to 2x for seconds at a
/// time, and now and then a brief quiet spell speeds a few up. The
/// lower quartile ignores both: slowdowns that hit up to three quarters
/// of the repetitions, and fast spells that hit fewer than a quarter.
pub fn batch_times(reps: &[&[f64]]) -> Vec<f64> {
    stats::column_percentile(reps, 25.0)
}

/// Builds a fresh `F` and replays the whole stream, timing each batch.
/// `hook` sees each batch's index and start/end instants (the traced
/// run records spans through it).
pub fn timed_rep<F: Frontend>(
    wl: &Workload,
    s: &Stream,
    telemetry: bool,
    mut hook: impl FnMut(usize, Instant, Instant),
) -> Rep {
    let mut batch_ns = Vec::with_capacity(s.batches.len());
    crate::alloc::reset_peak();
    let base = crate::alloc::live();
    let mut chk = Check::new();
    let t0 = Instant::now();
    let mut fe = F::build(wl, telemetry);
    let mut setup_s = 0.0;
    for b in 0..s.batches.len() {
        let start = Instant::now();
        run_batch(&mut fe, s, b, &mut chk);
        let end = Instant::now();
        if b == 0 {
            setup_s = (end - t0).as_secs_f64();
        }
        hook(b, start, end);
        batch_ns.push((end - start).as_nanos() as f64);
    }
    let mem_bytes = crate::alloc::peak() - base;
    Rep {
        setup_s,
        batch_ns,
        mem_bytes,
        check: chk,
        facts: fe.facts(),
    }
}
