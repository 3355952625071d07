//! The traced run: the replay ladder.
//!
//! Each rung replays one layer's recorded calls (see [`crate::model`])
//! through that layer's public functions alone, batch by batch, on the
//! workload's real backend, and checks every output against the record:
//!
//! | rung        | replays                                                   |
//! |-------------|-----------------------------------------------------------|
//! | `frontend`  | the frontend call stream (as the untraced run does)       |
//! | `hwsched`   | each shard's `HwScheduler` calls, migrations included     |
//! | `rank`      | `RankPolicy::rank`/`on_service`/floor/flow hand-over      |
//! | `quantize`  | `TagQuantizer::quantize`/`rebase`                         |
//! | `buffer`    | `PacketBuffer::store`/`try_release`                       |
//! | `sort`      | `SortBackend::insert`/`pop_min`/`pop_max`/`recycle_section`/`extract_flow` |
//!
//! A batch covers the same packets on every rung, so a layer's self
//! time per batch is its rung minus the rungs below it. Spans — one per
//! (rung, batch) — are kept in memory and written out at the end.
//! Two more rungs time the frontend untraced (for the tracing overhead)
//! and with telemetry toggled (for its cost).

use std::io::Write as _;
use std::time::Instant;

use fairq::{RankPolicy, VirtualTime};
use scheduler::{HwScheduler, PacketBuffer, TagQuantizer};
use tagsort::{BackendSpec, SortBackend, PAPER_CLOCK_HZ};
use telemetry::Telemetry;
use traffic::FlowId;

use crate::drive::{self, Frontend, ShardOp, Stream};
use crate::model::{BufOp, Layer, Logs, QuantOp, RankOp, SortOp};
use crate::report::Metric;
use crate::stats;
use crate::workload::Workload;

/// One timed (rung, batch) interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub rep: u32,
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans relative to one epoch.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            rep: 0,
        }
    }

    fn push(
        &mut self,
        layer: &'static str,
        parent: Option<&'static str>,
        b: usize,
        t: (Instant, Instant),
    ) {
        let ns = |i: Instant| (i - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            rep: self.rep,
            layer,
            parent,
            batch: b as u32,
            start_ns: ns(t.0),
            end_ns: ns(t.1),
        });
    }

    /// Runs `f` once per batch, recording a span each; returns each
    /// batch's nanoseconds.
    fn rung(
        &mut self,
        layer: &'static str,
        parent: Option<&'static str>,
        batches: usize,
        mut f: impl FnMut(usize),
    ) -> Vec<f64> {
        (0..batches)
            .map(|b| {
                let start = Instant::now();
                f(b);
                let end = Instant::now();
                self.push(layer, parent, b, (start, end));
                (end - start).as_nanos() as f64
            })
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"rep\": {}, \"layer\": \"{}\", \"parent\": {}, \"batch\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.rep,
                s.layer,
                s.parent.map_or("null".into(), |p| format!("\"{p}\"")),
                s.batch,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Output checks across every rung.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Per-batch nanoseconds of every rung.
struct RungTimes {
    frontend: Vec<f64>,
    untraced: Vec<f64>,
    toggled: Vec<f64>,
    hwsched: Vec<f64>,
    rank: Vec<f64>,
    quantize: Vec<f64>,
    buffer: Vec<f64>,
    sort: Vec<f64>,
}

impl RungTimes {
    /// Each rung's batch times across repetitions (see
    /// [`drive::batch_times`]).
    fn across(reps: &[RungTimes]) -> RungTimes {
        let rung = |f: fn(&RungTimes) -> &Vec<f64>| {
            let rows: Vec<&[f64]> = reps.iter().map(|r| f(r).as_slice()).collect();
            drive::batch_times(&rows)
        };
        RungTimes {
            frontend: rung(|r| &r.frontend),
            untraced: rung(|r| &r.untraced),
            toggled: rung(|r| &r.toggled),
            hwsched: rung(|r| &r.hwsched),
            rank: rung(|r| &r.rank),
            quantize: rung(|r| &r.quantize),
            buffer: rung(|r| &r.buffer),
            sort: rung(|r| &r.sort),
        }
    }
}

/// Runs ladder repetitions for at least `seconds` (and at least
/// [`drive::MIN_REPS`]), returning the per-layer metrics.
pub fn run<F: Frontend>(
    wl: &Workload,
    s: &Stream,
    logs: &Logs,
    seconds: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let started = Instant::now();
    let mut reps: Vec<RungTimes> = Vec::new();
    let mut facts = s.facts;
    let frontend_rung = |telemetry: bool, tracer: Option<&mut Tracer>, tally: &mut Tally| {
        let r = match tracer {
            Some(t) => drive::timed_rep::<F>(wl, s, telemetry, |b, t0, t1| {
                t.push("frontend", None, b, (t0, t1))
            }),
            None => drive::timed_rep::<F>(wl, s, telemetry, |_, _, _| {}),
        };
        tally.attempted += r.check.attempted;
        tally.failed += r.mismatches(s);
        r
    };
    while reps.len() < drive::MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        tracer.rep = reps.len() as u32;
        let traced = frontend_rung(wl.telemetry, Some(tracer), tally);
        facts = traced.facts;
        let hwsched = hwsched_rung::<F>(wl, s, tracer, tally);
        let rank = rank_rung::<F::Policy>(wl, s, logs, tracer, tally);
        let quantize = quantize_rung(wl, logs, tracer, tally);
        let buffer = buffer_rung(wl, s, logs, tracer, tally);
        let sort = sort_rung::<F::Backend>(wl, logs, tracer, tally);
        let untraced = frontend_rung(wl.telemetry, None, tally);
        let toggled = frontend_rung(!wl.telemetry, None, tally);
        reps.push(RungTimes {
            frontend: traced.batch_ns,
            untraced: untraced.batch_ns,
            toggled: toggled.batch_ns,
            hwsched,
            rank,
            quantize,
            buffer,
            sort,
        });
    }
    metrics(wl, s, logs, &RungTimes::across(&reps), facts)
}

/// Folds the rung times into the per-layer metrics. Each timing is a
/// median over the timed batches (batch 0, the warm-up, excluded); a
/// self time is taken per batch, rung minus the rungs below it.
fn metrics(
    wl: &Workload,
    s: &Stream,
    logs: &Logs,
    t: &RungTimes,
    facts: drive::Facts,
) -> Vec<Metric> {
    let nb = s.batches.len();
    let count = |layer: Layer, want: fn(&Logs, usize) -> bool| -> Vec<f64> {
        (0..nb)
            .map(|b| logs.range(layer, b).filter(|&i| want(logs, i)).count() as f64)
            .collect()
    };
    let rank_calls = count(Layer::Rank, |l, i| matches!(l.rank[i], RankOp::Rank { .. }));
    let quant_calls = count(Layer::Quantize, |l, i| {
        matches!(l.quant[i], QuantOp::Quantize { .. })
    });
    let pkts: Vec<f64> = s.batches.iter().map(|b| b.packets()).collect();
    // Median over the timed batches of f(b), skipping batches where it
    // is undefined.
    let over = |f: &dyn Fn(usize) -> Option<f64>| -> f64 {
        let xs: Vec<f64> = (1..nb).filter_map(f).collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            stats::median(&xs)
        }
    };
    let per_pkt = |v: &[f64]| over(&|b| Some(v[b] / pkts[b]));
    let per_call = |v: &[f64], calls: &[f64]| over(&|b| (calls[b] > 0.0).then(|| v[b] / calls[b]));
    let arrivals: f64 = s.batches.iter().map(|b| f64::from(b.arrivals)).sum();
    let per_kpkt = |n: usize| n as f64 * 1e3 / arrivals;
    let (mut recycles, mut clamps) = (0, 0);
    for op in &logs.quant {
        if let QuantOp::Quantize {
            clamped,
            recycles: r,
            ..
        } = op
        {
            recycles += *r as usize;
            clamps += usize::from(*clamped);
        }
    }
    let pop_max = logs
        .sort
        .iter()
        .filter(|op| matches!(op, SortOp::PopMax { .. }))
        .count();
    let cycles_per_pkt = facts.sort_cycles as f64 / pkts.iter().sum::<f64>();

    let fe = per_pkt(&t.frontend);
    let shard_self = over(&|b| Some((t.frontend[b] - t.hwsched[b]) / pkts[b]));
    let hw_self = over(&|b| {
        let children = t.rank[b] + t.quantize[b] + t.buffer[b] + t.sort[b];
        Some((t.hwsched[b] - children) / pkts[b])
    });
    let sort = per_pkt(&t.sort);
    // Telemetry's cost: the frontend with counters minus without.
    let (with, without) = if wl.telemetry {
        (&t.frontend, &t.toggled)
    } else {
        (&t.toggled, &t.frontend)
    };
    let telemetry = over(&|b| Some((with[b] - without[b]) / pkts[b]));
    let tail = {
        let xs: Vec<f64> = (1..nb).map(|b| t.frontend[b] / pkts[b]).collect();
        stats::tail(&xs).map_or_else(|| stats::percentile(&xs, 100.0), |t| t.1)
    };
    let values = [
        ("frontend.ns_per_pkt", fe),
        (
            "frontend.fill_ns_per_arrival",
            over(&|b| {
                let info = s.batches[b];
                (!info.drain && info.arrivals > 0).then(|| t.frontend[b] / f64::from(info.arrivals))
            }),
        ),
        (
            "frontend.drain_ns_per_pkt",
            over(&|b| {
                let info = s.batches[b];
                info.drain.then(|| t.frontend[b] / f64::from(info.calls))
            }),
        ),
        ("frontend.batch_ns_tail", tail),
        ("frontend.batches", (nb - 1) as f64),
        ("shard.self_ns_per_pkt", shard_self),
        ("shard.share", shard_self / fe),
        ("shard.migrations", facts.migrations as f64),
        ("shard.balance_max_over_mean", facts.balance),
        ("hwsched.ns_per_pkt", per_pkt(&t.hwsched)),
        ("hwsched.self_ns_per_pkt", hw_self),
        ("hwsched.share", hw_self / fe),
        ("rank.ns_per_call", per_call(&t.rank, &rank_calls)),
        ("rank.share", per_pkt(&t.rank) / fe),
        ("quantize.ns_per_call", per_call(&t.quantize, &quant_calls)),
        ("quantize.share", per_pkt(&t.quantize) / fe),
        ("quantize.recycles_per_kpkt", per_kpkt(recycles)),
        ("quantize.clamps_per_kpkt", per_kpkt(clamps)),
        ("buffer.ns_per_pkt", per_pkt(&t.buffer)),
        ("buffer.share", per_pkt(&t.buffer) / fe),
        ("buffer.peak_occupancy", facts.buffer_peak as f64),
        ("sort.ns_per_pkt", sort),
        ("sort.share", sort / fe),
        ("sort.pop_max_per_kpkt", per_kpkt(pop_max)),
        ("sort.cycles_per_pkt", cycles_per_pkt),
        (
            "sort.measured_over_modeled",
            sort / (cycles_per_pkt / PAPER_CLOCK_HZ * 1e9),
        ),
        ("telemetry.ns_per_pkt", telemetry),
        ("telemetry.share", telemetry / fe),
        ("paged.resident_peak_ratio", facts.resident_ratio),
        ("trace.overhead_ratio", per_pkt(&t.untraced) / fe),
    ];
    values
        .iter()
        .map(|&(name, v)| Metric::exact(name, v))
        .collect()
}

/// The `hwsched` rung: every shard's `HwScheduler`, driven with the
/// calls the frontend made on it.
fn hwsched_rung<F: Frontend>(
    wl: &Workload,
    s: &Stream,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let tel = wl.telemetry.then(|| Telemetry::new(wl.ports));
    let mut shards: Vec<HwScheduler<F::Backend, F::Policy>> = (0..wl.ports)
        .map(|p| drive::shard_scheduler(wl, wl.shard_rate(), tel.clone(), p))
        .collect();
    let mut failed = 0u64;
    let mut calls = 0u64;
    let times = tracer.rung("hwsched", Some("frontend"), s.batches.len(), |b| {
        let (from, to) = s.batch(b);
        for op in &s.shard_ops[from.shard_op..to.shard_op] {
            calls += 1;
            let ok = match *op {
                ShardOp::Enq { port, seq, ok } => {
                    shards[port as usize]
                        .enqueue(s.packets[seq as usize])
                        .is_ok()
                        == ok
                }
                ShardOp::Deq { port, seq } => {
                    shards[port as usize].dequeue().map(|p| p.seq as u32) == seq
                }
                ShardOp::Migrate {
                    flow,
                    from,
                    to,
                    moved,
                } => {
                    let moving = shards[from as usize].extract_flow(FlowId(flow));
                    let dst = to.unwrap_or(from) as usize;
                    moving.len() == moved as usize
                        && shards[dst].install_flow(FlowId(flow), &moving).is_ok()
                }
            };
            failed += u64::from(!ok);
        }
    });
    tally.attempted += calls;
    tally.failed += failed;
    times
}

/// The `rank` rung: a fresh policy per shard.
fn rank_rung<P: RankPolicy + Default>(
    wl: &Workload,
    s: &Stream,
    logs: &Logs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut policies: Vec<P> = (0..wl.ports)
        .map(|_| P::default().for_link(&wl.flows, wl.shard_rate()))
        .collect();
    let same = |a: VirtualTime, b: f64| a.value().to_bits() == b.to_bits();
    let mut failed = 0u64;
    let times = tracer.rung("rank", Some("hwsched"), s.batches.len(), |b| {
        for op in &logs.rank[logs.range(Layer::Rank, b)] {
            let ok = match *op {
                RankOp::Rank { shard, seq, out } => {
                    same(policies[shard as usize].rank(&s.packets[seq as usize]), out)
                }
                RankOp::Service { shard, seq, rank } => {
                    policies[shard as usize]
                        .on_service(&s.packets[seq as usize], VirtualTime(rank));
                    true
                }
                RankOp::Floor { shard, out } => same(policies[shard as usize].rank_floor(), out),
                RankOp::FlowFinish { shard, flow, out } => {
                    same(policies[shard as usize].flow_finish(FlowId(flow)), out)
                }
                RankOp::Adopt {
                    shard,
                    flow,
                    finish,
                } => {
                    policies[shard as usize].adopt_flow(FlowId(flow), VirtualTime(finish));
                    true
                }
            };
            failed += u64::from(!ok);
        }
    });
    tally.attempted += logs.rank.len() as u64;
    tally.failed += failed;
    times
}

/// The `quantize` rung: a fresh quantizer per shard.
fn quantize_rung(wl: &Workload, logs: &Logs, tracer: &mut Tracer, tally: &mut Tally) -> Vec<f64> {
    let cfg = wl.config;
    let mut quantizers: Vec<TagQuantizer> = (0..wl.ports)
        .map(|_| TagQuantizer::with_policy(cfg.geometry, cfg.tick_scale, cfg.wrap_policy))
        .collect();
    let mut recycled = logs.recycled.iter();
    let mut failed = 0u64;
    let times = tracer.rung("quantize", Some("hwsched"), logs.starts.len() - 1, |b| {
        for op in &logs.quant[logs.range(Layer::Quantize, b)] {
            match *op {
                QuantOp::Quantize {
                    shard,
                    finish,
                    min_tick,
                    tag,
                    tick,
                    clamped,
                    recycles,
                } => {
                    let out = quantizers[shard as usize].quantize(VirtualTime(finish), min_tick);
                    let want = recycled.by_ref().take(recycles as usize);
                    let ok = out.tag.value() == tag
                        && out.tick == tick
                        && out.clamped == clamped
                        && out.recycle.iter().eq(want);
                    failed += u64::from(!ok);
                }
                QuantOp::Rebase { shard, at } => {
                    quantizers[shard as usize].rebase(VirtualTime(at));
                }
            }
        }
    });
    tally.attempted += logs.quant.len() as u64;
    tally.failed += failed;
    times
}

/// The `buffer` rung: a fresh packet buffer per shard.
fn buffer_rung(
    wl: &Workload,
    s: &Stream,
    logs: &Logs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut buffers: Vec<PacketBuffer> = (0..wl.ports)
        .map(|_| PacketBuffer::new(wl.config.capacity))
        .collect();
    let mut failed = 0u64;
    let times = tracer.rung("buffer", Some("hwsched"), s.batches.len(), |b| {
        for op in &logs.buf[logs.range(Layer::Buffer, b)] {
            let ok = match *op {
                BufOp::Store { shard, seq, out } => {
                    buffers[shard as usize].store(s.packets[seq as usize]) == out
                }
                BufOp::Release { shard, r, seq } => {
                    buffers[shard as usize].try_release(r).map(|p| p.seq as u32) == seq
                }
            };
            failed += u64::from(!ok);
        }
    });
    tally.attempted += logs.buf.len() as u64;
    tally.failed += failed;
    times
}

/// The `sort` rung: a fresh backend per shard (paged when the workload
/// pages).
fn sort_rung<B: SortBackend>(
    wl: &Workload,
    logs: &Logs,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let cfg = wl.config;
    let spec = BackendSpec {
        geometry: cfg.geometry,
        capacity: cfg.capacity,
        cleanup: cfg.cleanup,
        memory: cfg.memory,
    };
    let mut sorters: Vec<B> = (0..wl.ports)
        .map(|_| {
            let mut b = B::build(&spec);
            if wl.paged {
                b.set_paged();
            }
            b
        })
        .collect();
    // Each extraction's slots, sorted for the membership test.
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut next = 0;
    for op in &logs.sort {
        if let SortOp::Extract { taken, .. } = *op {
            let mut set: Vec<u32> = logs.taken[next..next + taken as usize]
                .iter()
                .map(|(_, r)| r.index())
                .collect();
            set.sort_unstable();
            sets.push(set);
            next += taken as usize;
        }
    }
    let (mut set_i, mut taken_i) = (0, 0);
    let mut failed = 0u64;
    let times = tracer.rung("sort", Some("hwsched"), logs.starts.len() - 1, |b| {
        for op in &logs.sort[logs.range(Layer::Sort, b)] {
            let ok = match *op {
                SortOp::Insert {
                    shard,
                    tag,
                    slot,
                    ok,
                } => sorters[shard as usize].insert(tag, slot).is_ok() == ok,
                SortOp::PopMin { shard, out } => sorters[shard as usize].pop_min() == out,
                SortOp::PopMax { shard, out } => sorters[shard as usize].pop_max() == out,
                SortOp::Recycle { shard, section } => {
                    sorters[shard as usize].recycle_section(section);
                    true
                }
                SortOp::Extract { shard, taken } => {
                    let set = &sets[set_i];
                    let got = sorters[shard as usize]
                        .extract_flow(&mut |r| set.binary_search(&r.index()).is_ok());
                    let want = &logs.taken[taken_i..taken_i + taken as usize];
                    set_i += 1;
                    taken_i += taken as usize;
                    got == want
                }
            };
            failed += u64::from(!ok);
        }
    });
    tally.attempted += logs.sort.len() as u64;
    tally.failed += failed;
    times
}
