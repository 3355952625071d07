//! Policy library × reference-model conformance.
//!
//! Every shipped rank policy must be *the algorithm it claims to be*,
//! not merely self-consistent across backends. For each policy this
//! suite builds a small independent discrete-event model — the rank
//! formula restated from its paper, a plain `Vec` serve-the-minimum
//! queue with FIFO ties, and the same back-to-back egress stepping as
//! `HwLinkSim` — and requires the full hardware pipeline (tag
//! computation → quantization → shared buffer → sorting circuit) to
//! reproduce the model's departure sequence exactly, on every seeded
//! workload, for all three sorting backends.
//!
//! The model deliberately shares no code with the scheduler stack
//! except `GpsVirtualClock` (the WFQ/hierarchical rank *formula*, paper
//! eq. (1), which has its own tests against software WFQ); quantization,
//! clamping, rebase, tie-breaking, and time-stepping are all restated
//! here from first principles.

use fairq::{AnyPolicy, GpsVirtualClock, RankPolicy};
use fastpath::FfsSorter;
use scheduler::{HwLinkSim, HwScheduler, SchedulerConfig};
use tagsort::{Geometry, HeapSorter, SortBackend, SortRetrieveCircuit};
use traffic::{generate, FlowId, FlowSpec, Packet, SizeDist};

/// Departure identity: which packet left, in which position.
type Dep = (u32, u64);

fn flows() -> Vec<FlowSpec> {
    vec![
        FlowSpec::new(FlowId(0), 4.0, 300_000.0).size(SizeDist::Fixed(140)),
        FlowSpec::new(FlowId(1), 1.0, 500_000.0).size(SizeDist::Imix),
        FlowSpec::new(FlowId(2), 2.0, 200_000.0).size(SizeDist::Fixed(700)),
    ]
}

/// The reference rank computation: per-policy state plus the three
/// callbacks the model's queue invokes. Each implementation restates
/// its policy's published formula.
trait RefRank {
    fn rank(&mut self, pkt: &Packet) -> f64;
    fn on_service(&mut self, _rank: f64) {}
    /// Lower bound on all future ranks (quantizer rebase point).
    fn rank_floor(&self) -> f64;
    /// Bounded-domain policies never rebase.
    fn monotone(&self) -> bool {
        true
    }
}

/// WFQ (PGPS): rank = GPS virtual finishing time, paper eq. (1).
struct RefWfq(GpsVirtualClock);

impl RefRank for RefWfq {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        self.0
            .on_arrival(pkt.flow, pkt.size_bits(), pkt.arrival)
            .1
            .value()
    }
    fn rank_floor(&self) -> f64 {
        self.0.virtual_now().value()
    }
}

/// STFQ (Goyal et al.): rank = virtual start tag; V chases served ranks.
struct RefStfq {
    v: f64,
    weights: Vec<f64>,
    last_finish: Vec<f64>,
}

impl RefRank for RefStfq {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        let f = pkt.flow.0 as usize;
        let start = self.v.max(self.last_finish[f]);
        self.last_finish[f] = start + pkt.size_bits() / self.weights[f];
        start
    }
    fn on_service(&mut self, rank: f64) {
        self.v = self.v.max(rank);
    }
    fn rank_floor(&self) -> f64 {
        self.v
    }
}

/// SRPT: rank = packet length in bits.
struct RefSrpt;

impl RefRank for RefSrpt {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        pkt.size_bits()
    }
    fn rank_floor(&self) -> f64 {
        0.0
    }
    fn monotone(&self) -> bool {
        false
    }
}

/// FIFO+ (Clark/Shenker/Zhang): rank = arrival time.
struct RefFifoPlus {
    last_arrival: f64,
}

impl RefRank for RefFifoPlus {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        self.last_arrival = pkt.arrival.0;
        pkt.arrival.0
    }
    fn rank_floor(&self) -> f64 {
        self.last_arrival
    }
}

/// Strict priority: rank = priority class (heavier weight ⇒ class 0).
struct RefPrio {
    prio_of: Vec<u32>,
}

impl RefPrio {
    fn new(fl: &[FlowSpec]) -> Self {
        let mut distinct: Vec<f64> = fl.iter().map(|f| f.weight).collect();
        distinct.sort_by(|a, b| b.total_cmp(a));
        distinct.dedup();
        let mut prio_of = vec![0u32; fl.len()];
        for f in fl {
            prio_of[f.id.0 as usize] = distinct.iter().position(|&d| d == f.weight).unwrap() as u32;
        }
        Self { prio_of }
    }
}

impl RefRank for RefPrio {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        f64::from(self.prio_of[pkt.flow.0 as usize])
    }
    fn rank_floor(&self) -> f64 {
        0.0
    }
    fn monotone(&self) -> bool {
        false
    }
}

/// Leaky-bucket shaping order: rank = the packet's conforming time under
/// its flow's contracted token rate.
struct RefLeaky {
    rates: Vec<f64>,
    eta: Vec<f64>,
    last_arrival: f64,
}

impl RefRank for RefLeaky {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        let f = pkt.flow.0 as usize;
        self.last_arrival = pkt.arrival.0;
        let conforming = self.eta[f].max(pkt.arrival.0) + pkt.size_bits() / self.rates[f];
        self.eta[f] = conforming;
        conforming
    }
    fn rank_floor(&self) -> f64 {
        self.last_arrival
    }
}

/// Two-level hierarchical WFQ: one GPS clock per class, each running at
/// the class's aggregate-weight share of the link; class = flow id %
/// classes. Restates the composition; only the per-class clock formula
/// is shared with the policy under test.
struct RefHwfq {
    clocks: Vec<GpsVirtualClock>,
    class_of: Vec<usize>,
}

impl RefHwfq {
    fn new(fl: &[FlowSpec], rate: f64, classes: usize) -> Self {
        let mut weights = vec![0.0; fl.len()];
        for f in fl {
            weights[f.id.0 as usize] = f.weight;
        }
        let classes = classes.min(fl.len()).max(1);
        let class_of: Vec<usize> = (0..fl.len()).map(|f| f % classes).collect();
        let total: f64 = weights.iter().sum();
        let clocks = (0..classes)
            .map(|c| {
                let share: f64 = weights
                    .iter()
                    .enumerate()
                    .filter(|&(f, _)| class_of[f] == c)
                    .map(|(_, &w)| w)
                    .sum();
                GpsVirtualClock::new(&weights, rate * share / total)
            })
            .collect();
        Self { clocks, class_of }
    }
}

impl RefRank for RefHwfq {
    fn rank(&mut self, pkt: &Packet) -> f64 {
        let class = self.class_of[pkt.flow.0 as usize];
        self.clocks[class]
            .on_arrival(pkt.flow, pkt.size_bits(), pkt.arrival)
            .1
            .value()
    }
    fn rank_floor(&self) -> f64 {
        self.clocks
            .iter()
            .map(|c| c.virtual_now().value())
            .fold(f64::INFINITY, f64::min)
    }
}

/// The reference scheduler: rank → quantize (floor-divide by the tick
/// scale, saturate-clamp to the top of lap 0, rebase to the
/// rank floor whenever the queue drains under a monotone policy) →
/// serve the smallest tick, FIFO among equals.
struct RefModel<R: RefRank> {
    rank: R,
    scale: f64,
    space: u64,
    base: f64,
    /// (tick, insertion order, packet, raw rank)
    queue: Vec<(u64, u64, Packet, f64)>,
    counter: u64,
}

impl<R: RefRank> RefModel<R> {
    fn new(rank: R, scale: f64, space: u64) -> Self {
        Self {
            rank,
            scale,
            space,
            base: 0.0,
            queue: Vec::new(),
            counter: 0,
        }
    }

    fn enqueue(&mut self, pkt: Packet) {
        let r = self.rank.rank(&pkt);
        if self.queue.is_empty() && self.rank.monotone() {
            self.base = self.rank.rank_floor();
        }
        let tick = (((r - self.base) / self.scale).floor() as u64).min(self.space - 1);
        self.queue.push((tick, self.counter, pkt, r));
        self.counter += 1;
    }

    fn dequeue(&mut self) -> Option<Packet> {
        let i = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)?;
        let (_, _, pkt, r) = self.queue.remove(i);
        self.rank.on_service(r);
        Some(pkt)
    }
}

/// The reference egress link: identical stepping to `HwLinkSim::run` —
/// admit every arrival at or before `now`, serve back-to-back, jump an
/// idle link to the next arrival.
fn run_reference<R: RefRank>(mut model: RefModel<R>, rate: f64, trace: &[Packet]) -> Vec<Dep> {
    let mut out = Vec::with_capacity(trace.len());
    let mut now = 0.0f64;
    let mut next = 0usize;
    loop {
        while next < trace.len() && trace[next].arrival.0 <= now {
            model.enqueue(trace[next]);
            next += 1;
        }
        match model.dequeue() {
            Some(pkt) => {
                out.push((pkt.flow.0, pkt.seq));
                now += pkt.size_bits() / rate;
            }
            None if next < trace.len() => now = trace[next].arrival.0,
            None => break,
        }
    }
    out
}

/// Runs the trace through the real pipeline behind sorting backend `B`.
fn run_hardware<B: SortBackend>(
    fl: &[FlowSpec],
    rate: f64,
    proto: &AnyPolicy,
    trace: &[Packet],
) -> Vec<Dep> {
    let geometry = Geometry::new(4, 5);
    let config = SchedulerConfig {
        geometry,
        capacity: 1 << 12,
        tick_scale: proto.tick_scale(rate),
        ..SchedulerConfig::default()
    };
    let hw = HwScheduler::<B, AnyPolicy>::with_backend_and_policy(fl, rate, config, proto);
    HwLinkSim::new(rate, hw)
        .run(trace)
        .expect("reference workloads fit the configuration")
        .into_iter()
        .map(|d| (d.packet.flow.0, d.packet.seq))
        .collect()
}

/// Builds the reference model for one policy name, mirroring the
/// policy's default prototype configuration.
fn reference_departures(name: &str, fl: &[FlowSpec], rate: f64, trace: &[Packet]) -> Vec<Dep> {
    let proto = AnyPolicy::by_name(name).expect("known policy");
    let scale = proto.tick_scale(rate);
    let space = Geometry::new(4, 5).tag_space();
    let mut weights = vec![0.0; fl.len()];
    for f in fl {
        weights[f.id.0 as usize] = f.weight;
    }
    match name {
        "wfq" => run_reference(
            RefModel::new(RefWfq(GpsVirtualClock::new(&weights, rate)), scale, space),
            rate,
            trace,
        ),
        "stfq" => run_reference(
            RefModel::new(
                RefStfq {
                    v: 0.0,
                    last_finish: vec![0.0; weights.len()],
                    weights,
                },
                scale,
                space,
            ),
            rate,
            trace,
        ),
        "srpt" => run_reference(RefModel::new(RefSrpt, scale, space), rate, trace),
        "fifo+" => run_reference(
            RefModel::new(RefFifoPlus { last_arrival: 0.0 }, scale, space),
            rate,
            trace,
        ),
        "prio" => run_reference(RefModel::new(RefPrio::new(fl), scale, space), rate, trace),
        "leaky" => run_reference(
            RefModel::new(
                RefLeaky {
                    rates: fl.iter().map(|f| f.rate_bps).collect(),
                    eta: vec![0.0; fl.len()],
                    last_arrival: 0.0,
                },
                scale,
                space,
            ),
            rate,
            trace,
        ),
        // The default hwfq prototype is two classes.
        "hwfq" => run_reference(
            RefModel::new(RefHwfq::new(fl, rate, 2), scale, space),
            rate,
            trace,
        ),
        other => panic!("no reference model for policy {other}"),
    }
}

/// The conformance sweep: every policy, three seeds, three backends —
/// each hardware run must reproduce the reference model's departure
/// sequence exactly.
#[test]
fn every_policy_matches_its_reference_model_on_every_backend() {
    let fl = flows();
    let rate = 1e6;
    for name in AnyPolicy::NAMES {
        for seed in [31, 47, 202] {
            let trace = generate(&fl, 0.8, seed);
            let reference = reference_departures(name, &fl, rate, &trace);
            assert_eq!(
                reference.len(),
                trace.len(),
                "policy {name} seed {seed}: reference lost packets"
            );
            let proto = AnyPolicy::by_name(name).expect("known policy");
            for (backend, got) in [
                (
                    "trie",
                    run_hardware::<SortRetrieveCircuit>(&fl, rate, &proto, &trace),
                ),
                (
                    "fastpath",
                    run_hardware::<FfsSorter>(&fl, rate, &proto, &trace),
                ),
                (
                    "heap",
                    run_hardware::<HeapSorter>(&fl, rate, &proto, &trace),
                ),
            ] {
                assert_eq!(
                    got, reference,
                    "policy {name} seed {seed}: backend {backend} diverges from the \
                     reference model"
                );
            }
        }
    }
}

/// The WFQ reference model itself is the pre-policy pipeline: its
/// departure order must match the software `fairq::Wfq` scheduler's
/// per-flow service share on the same trace (sanity that the model is
/// WFQ, not merely self-consistent).
#[test]
fn wfq_reference_model_orders_by_gps_finish_tags() {
    let fl = flows();
    let rate = 1e6;
    let trace = generate(&fl, 0.5, 31);
    let reference = reference_departures("wfq", &fl, rate, &trace);
    let hw = run_hardware::<SortRetrieveCircuit>(&fl, rate, &AnyPolicy::default(), &trace);
    assert_eq!(hw, reference, "default pipeline must be the WFQ model");
}
