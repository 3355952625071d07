//! The four seeded workloads: the arrivals each one offers, the modeled
//! egress link that serves them, and the frontend configuration they
//! run against. The seed reaches the arrivals only; the scheduler under
//! test sees nothing but the generated packets.

use fairq::{RankPolicy, StfqRank, WfqRank};
use scheduler::{AdmissionPolicy, SchedulerConfig};
use tagsort::Geometry;
use traffic::rng::Rng;
use traffic::{ChurnSpec, FlowId, FlowSpec, Packet, ScaleConfig, ScaleWorkload, Time};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// E11 drifting-tag pairs: 64 weighted flows at exactly the link
    /// rate over a standing backlog of 64 — the bookkeeping around a
    /// cheap, L1-resident sorter dominates.
    Pairs,
    /// Incast rounds into a 2^20-flow Zipf population at 4x the link
    /// rate, each drained before the next — a ~2^18-deep backlog that
    /// misses cache in rank and sort.
    DeepZipf,
    /// The E18 paged-trie soak cell, shortened: the paper's circuit at
    /// scale under a flash crowd, with a shallow backlog.
    SoakTrie,
    /// A 4-port sharded frontend under 1.3x overload: routing,
    /// migration, rebalancing, push-out and telemetry.
    ShardedOverload,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Pairs,
        Kind::DeepZipf,
        Kind::SoakTrie,
        Kind::ShardedOverload,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pairs => "pairs",
            Kind::DeepZipf => "deep_zipf",
            Kind::SoakTrie => "soak_trie",
            Kind::ShardedOverload => "sharded_overload",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything one run of a workload needs, generated from its seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    /// The flow table (dense ids).
    pub flows: Vec<FlowSpec>,
    /// Arrivals in rounds. Round 0 starts at time 0; every later round
    /// starts once the link has drained the one before it, so its
    /// arrival times count from its own start.
    pub rounds: Vec<Vec<Packet>>,
    /// Service rate of the modeled egress link, bits per second.
    pub link_bps: f64,
    /// Output ports: 1 is a bare `HwScheduler`, more is a
    /// `ShardedScheduler` with dynamic placement.
    pub ports: usize,
    /// Per-shard scheduler configuration.
    pub config: SchedulerConfig,
    /// Whether the sorter runs with paged state memory.
    pub paged: bool,
    /// Whether counters telemetry is attached.
    pub telemetry: bool,
    /// A rebalance round every this many arrivals (sharded only).
    pub rebalance_every: Option<u64>,
}

/// Size of the generated workload: `Full` is what the benchmark runs,
/// `Small` keeps the same shape at a size unit tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

impl Workload {
    /// Generates workload `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64, size: Size) -> Self {
        let small = size == Size::Small;
        match kind {
            Kind::Pairs => pairs(seed, if small { 4096 } else { 2_000_000 }),
            Kind::DeepZipf => {
                if small {
                    deep_zipf(seed, 1 << 12, 2, 1 << 10)
                } else {
                    deep_zipf(seed, 1 << 20, 2, 1 << 18)
                }
            }
            Kind::SoakTrie => {
                if small {
                    soak_trie(seed, 1 << 14, 20_000, 1_000)
                } else {
                    soak_trie(seed, 1 << 20, 2_000_000, 100_000)
                }
            }
            Kind::ShardedOverload => {
                if small {
                    sharded_overload(seed, 256, 20_000, 1 << 7)
                } else {
                    sharded_overload(seed, 4096, 2_000_000, 1 << 10)
                }
            }
        }
    }

    /// Arrivals across all rounds.
    pub fn packets(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Each port's rate: an equal share of the modeled link. (Every
    /// port's scheduler gets the whole flow table: dynamic placement.)
    pub fn shard_rate(&self) -> f64 {
        self.link_bps / self.ports as f64
    }
}

/// E11 pairs: 140 B packets every 28 ns into a 40 Gb/s link (load
/// exactly 1), after a burst of one packet per flow at time 0 that
/// stays queued as the standing backlog. Weights are E11's 1–7 cycle;
/// the seed picks the flow of every later arrival.
fn pairs(seed: u64, arrivals: usize) -> Workload {
    const FLOWS: u32 = 64;
    const LINK_BPS: f64 = 40e9;
    const GAP_S: f64 = 140.0 * 8.0 / LINK_BPS;
    let mut rng = Rng::seed_from_u64(seed);
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), f64::from(1 + i % 7), LINK_BPS / 64.0))
        .collect();
    let mut trace = Vec::with_capacity(FLOWS as usize + arrivals);
    for f in 0..FLOWS {
        trace.push(packet(trace.len(), f, 140, 0.0));
    }
    for k in 1..=arrivals {
        let flow = rng.below_u32(FLOWS);
        trace.push(packet(trace.len(), flow, 140, k as f64 * GAP_S));
    }
    Workload {
        kind: Kind::Pairs,
        flows,
        rounds: vec![trace],
        link_bps: LINK_BPS,
        ports: 1,
        config: SchedulerConfig {
            capacity: 1 << 14,
            tick_scale: 2000.0,
            ..SchedulerConfig::default()
        },
        paged: false,
        telemetry: false,
        rebalance_every: None,
    }
}

/// Incast rounds: each round offers `per_round` Zipf-1.05 arrivals at
/// 4x the 10 Gb/s link rate, and the next round waits for the drain.
fn deep_zipf(seed: u64, flows: u32, rounds: usize, per_round: usize) -> Workload {
    const LINK_BPS: f64 = 10e9;
    let stream = ScaleWorkload::new(ScaleConfig {
        flows,
        packets: (rounds * per_round) as u64,
        zipf_exponent: 1.05,
        rate_bps: 4.0 * LINK_BPS,
        min_bytes: 64,
        max_bytes: 1500,
        churn: None,
        seed,
    });
    let mut all: Vec<Packet> = stream.collect();
    // Re-zero each round's clock at the previous round's last arrival,
    // so the first gap of a round is an ordinary Poisson gap.
    let mut last = 0.0;
    for round in all.chunks_mut(per_round) {
        let base = last;
        last = round.last().map_or(last, |p| p.arrival.0);
        for p in round {
            p.arrival = Time(p.arrival.0 - base);
        }
    }
    Workload {
        kind: Kind::DeepZipf,
        flows: unit_flows(flows, LINK_BPS),
        rounds: all.chunks(per_round).map(<[Packet]>::to_vec).collect(),
        link_bps: LINK_BPS,
        ports: 1,
        config: SchedulerConfig {
            capacity: per_round,
            geometry: Geometry::new(6, 3),
            tick_scale: WfqRank::default().tick_scale(LINK_BPS),
            ..SchedulerConfig::default()
        },
        paged: false,
        telemetry: false,
        rebalance_every: None,
    }
}

/// The E18 soak cell (Zipf 1.05, load 0.8 on 10 Gb/s, a flash crowd of
/// `crowd` cold flows) shortened to `packets`, with the crowd window
/// scaled to the same place in the shorter run.
fn soak_trie(seed: u64, flows: u32, packets: u64, crowd: u32) -> Workload {
    const OFFERED_BPS: f64 = 10e9;
    const LOAD: f64 = 0.8;
    let mut cfg = ScaleConfig {
        flows,
        packets,
        zipf_exponent: 1.05,
        rate_bps: OFFERED_BPS,
        min_bytes: 64,
        max_bytes: 1500,
        churn: None,
        seed,
    };
    // The 10 M-packet soak runs 6.25 s with its crowd at 2.0–3.0 s.
    let span_s = packets as f64 / cfg.mean_pps();
    cfg.churn = Some(ChurnSpec {
        start_s: 0.32 * span_s,
        duration_s: 0.16 * span_s,
        crowd_flows: crowd,
        boost: 0.5,
    });
    let link_bps = OFFERED_BPS / LOAD;
    Workload {
        kind: Kind::SoakTrie,
        flows: unit_flows(flows, OFFERED_BPS),
        rounds: vec![ScaleWorkload::new(cfg).collect()],
        link_bps,
        ports: 1,
        config: SchedulerConfig {
            capacity: 1 << 14,
            geometry: Geometry::new(6, 4),
            tick_scale: WfqRank::default().tick_scale(link_bps),
            ..SchedulerConfig::default()
        },
        paged: true,
        telemetry: false,
        rebalance_every: None,
    }
}

/// Four ports under 1.3x overload: Zipf-1.1 flows, STFQ ranks, push-out
/// admission, dynamic placement rebalanced every 1024 arrivals, and
/// counters telemetry on.
fn sharded_overload(seed: u64, flows: u32, packets: u64, capacity: usize) -> Workload {
    const OFFERED_BPS: f64 = 10e9;
    const LOAD: f64 = 1.3;
    let link_bps = OFFERED_BPS / LOAD;
    let trace = ScaleWorkload::new(ScaleConfig {
        flows,
        packets,
        zipf_exponent: 1.1,
        rate_bps: OFFERED_BPS,
        min_bytes: 64,
        max_bytes: 1500,
        churn: None,
        seed,
    });
    Workload {
        kind: Kind::ShardedOverload,
        flows: unit_flows(flows, OFFERED_BPS),
        rounds: vec![trace.collect()],
        link_bps,
        ports: 4,
        config: SchedulerConfig {
            capacity,
            tick_scale: StfqRank::default().tick_scale(link_bps),
            admission: AdmissionPolicy::PushOut,
            ..SchedulerConfig::default()
        },
        paged: false,
        telemetry: true,
        rebalance_every: Some(1024),
    }
}

fn unit_flows(flows: u32, offered_bps: f64) -> Vec<FlowSpec> {
    let rate = offered_bps / f64::from(flows);
    (0..flows)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, rate))
        .collect()
}

fn packet(seq: usize, flow: u32, size_bytes: u32, arrival_s: f64) -> Packet {
    Packet {
        flow: FlowId(flow),
        size_bytes,
        arrival: Time(arrival_s),
        seq: seq as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every arrival's fields: equal traces hash equal.
    fn trace_hash(w: &Workload) -> u64 {
        let mut h = crate::drive::FNV_BASIS;
        for p in w.rounds.iter().flatten() {
            h = crate::drive::fnv(h, p);
            h = crate::drive::fnv_word(h, p.arrival.0.to_bits());
        }
        h
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for kind in Kind::ALL {
            let a = trace_hash(&Workload::new(kind, 7, Size::Small));
            let b = trace_hash(&Workload::new(kind, 7, Size::Small));
            let c = trace_hash(&Workload::new(kind, 8, Size::Small));
            assert_eq!(a, b, "{}", kind.name());
            assert_ne!(a, c, "{}", kind.name());
        }
    }

    #[test]
    fn sequence_numbers_index_the_arrivals() {
        for kind in Kind::ALL {
            let w = Workload::new(kind, 3, Size::Small);
            for (i, p) in w.rounds.iter().flatten().enumerate() {
                assert_eq!(p.seq, i as u64, "{}", kind.name());
                assert!((p.flow.0 as usize) < w.flows.len());
            }
            for round in &w.rounds {
                assert!(round.windows(2).all(|x| x[0].arrival <= x[1].arrival));
                assert!(round.first().is_some_and(|p| p.arrival.0 >= 0.0));
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
