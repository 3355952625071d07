//! **Experiment E20 — dynamic shard rebalancing:** what live flow
//! migration buys over static flow-affinity hashing on a Zipf-skewed
//! multi-port frontend, and what it costs.
//!
//! The workload is the adversary the ROADMAP carried since PR 1: a
//! Zipf-1.2 popularity law concentrates a quarter of all traffic on one
//! flow, static hashing pins that flow (plus whatever else shares its
//! hash bucket) to one port, and that port's backlog dominates the
//! run's completion time while its neighbors idle. The dynamic runs arm
//! the [`scheduler::Rebalancer`] and execute one round every 1024
//! arrivals.
//!
//! Every metric is a pure function of the seeded workload — bit-stable
//! on any host — so the JSON gates exactly:
//!
//! * `rebalance_makespan_gain` — static completion time over dynamic
//!   (floor; the headline: dynamic must finish the skewed workload
//!   meaningfully earlier).
//! * `rebalance_balance_gain` / `ceil_rebalance_balance_dynamic` —
//!   max/mean per-port admissions, static over dynamic (floor) and the
//!   dynamic run's own figure (ceiling: placement must stay near even).
//! * `ceil_rebalance_migrations` — the migration-cost ceiling: the
//!   rebalancer must not thrash; each migration stalls both shards for
//!   the flow's backlog length.
//! * `rebalance_seq_par_agree` — 1.0 iff the sequential and
//!   thread-per-shard frontends, driven identically, produce the same
//!   departure hash and migration count (the live-migration
//!   determinism bit).
//! * `rebalance_ckpt_deterministic` — 1.0 iff checkpointing the same
//!   logical state twice, and from an identically-driven twin, is
//!   byte-identical (the checkpoint byte-diff gate).
//!
//! With `--json [PATH]` the metrics are written as a flat JSON object
//! (default `BENCH_rebalance.json`) for `check_regression`; `--quick`
//! shrinks the packet count (ratios barely move).

use bench::{json_object, print_table};
use fairq::{serve_links, DropPolicy, WfqRank};
use scheduler::{
    Executor, HwScheduler, Inline, Placement, RebalancerConfig, SchedulerConfig, ShardedFrontend,
    Threads, WrapPolicy,
};
use tagsort::SortRetrieveCircuit;
use traffic::{FlowId, FlowSpec, ScaleConfig, ScaleWorkload};

const PORTS: usize = 8;
const FLOWS: u32 = 64;
const ZIPF: f64 = 1.2;
const RATE_BPS: f64 = 1e9;
const LOAD: f64 = 0.97;
const SEED: u64 = 20;
const REBALANCE_EVERY: usize = 1024;

/// The frontend under test on executor `X`: the sequential and threaded
/// runs share this type and one drive loop, so they are *provably*
/// driven identically.
type Frontend<X> = ShardedFrontend<SortRetrieveCircuit, WfqRank, X>;

fn workload(packets: u64) -> ScaleWorkload {
    ScaleWorkload::new(ScaleConfig {
        flows: FLOWS,
        packets,
        zipf_exponent: ZIPF,
        rate_bps: RATE_BPS,
        min_bytes: 64,
        max_bytes: 1500,
        churn: None,
        seed: SEED,
    })
}

fn flow_table() -> Vec<FlowSpec> {
    (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, RATE_BPS / f64::from(FLOWS)))
        .collect()
}

fn config(port_rate: f64) -> SchedulerConfig {
    SchedulerConfig {
        capacity: 1 << 17,
        tick_scale: fairq::RankPolicy::tick_scale(&WfqRank::default(), port_rate),
        wrap_policy: WrapPolicy::Saturate,
        ..SchedulerConfig::default()
    }
}

/// One run's outputs: per-port fluid-link completion time, admission
/// balance, a departure hash, and the migration bill.
struct RunResult {
    makespan_s: f64,
    balance: f64,
    served: u64,
    dropped: u64,
    migrations: u64,
    hash: u64,
}

/// Drives `fe` through the seeded workload with [`serve_links`]: every
/// port is an independent egress link at `port_rate`; arrivals are
/// enqueued in trace order; dynamic runs get one rebalance round every
/// [`REBALANCE_EVERY`] arrivals. The departure hash folds
/// `(port, flow, seq)` in service order — the sequential/parallel
/// agreement witness.
fn drive<X: Executor<SortRetrieveCircuit, WfqRank>>(
    fe: &mut Frontend<X>,
    packets: u64,
    port_rate: f64,
    rebalance: bool,
) -> RunResult {
    let mut makespan_s = 0.0f64;
    let mut served = 0u64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let dropped = serve_links(
        fe,
        &[port_rate; PORTS],
        workload(packets),
        DropPolicy::CountAndContinue,
        rebalance.then_some(REBALANCE_EVERY),
        |port, d, _| {
            makespan_s = makespan_s.max(d.finish.0);
            served += 1;
            for word in [port as u64, u64::from(d.packet.flow.0), d.packet.seq] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x100_0000_01b3);
                }
            }
        },
    )
    .expect("only buffer refusals, and those are counted");
    let stats = fe.stats();
    RunResult {
        makespan_s,
        balance: stats.shard_balance(),
        served,
        dropped,
        migrations: fe.migrations(),
        hash,
    }
}

/// A frontend on executor `X`; dynamic placement arms the rebalancer.
fn frontend<X: Executor<SortRetrieveCircuit, WfqRank>>(
    placement: Placement,
    port_rate: f64,
) -> Frontend<X> {
    let fe = ShardedFrontend::with_policy_port_rates_placement(
        &flow_table(),
        &[port_rate; PORTS],
        config(port_rate),
        &WfqRank::default(),
        placement,
    );
    match placement {
        Placement::Dynamic => fe.with_rebalancer(RebalancerConfig::default()),
        Placement::Hash => fe,
    }
}

/// The checkpoint byte-diff gate: the same logical state must
/// checkpoint to identical bytes — twice from one scheduler (the read
/// is nondestructive) and once from an identically-driven twin.
fn checkpoint_deterministic(packets: u64) -> bool {
    let build = || {
        let mut s = HwScheduler::<SortRetrieveCircuit, WfqRank>::with_backend_and_policy(
            &flow_table(),
            RATE_BPS,
            config(RATE_BPS),
            &WfqRank::default(),
        );
        for pkt in workload(packets.min(2_000)) {
            s.enqueue(pkt).expect("capacity covers the prefix");
        }
        s
    };
    let mut a = build();
    let first = a.checkpoint().to_bytes();
    let second = a.checkpoint().to_bytes();
    let twin = build().checkpoint().to_bytes();
    first == second && first == twin
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_rebalance.json".into())
    });
    let packets: u64 = if quick { 15_000 } else { 60_000 };
    // Aggregate service capacity RATE/LOAD split evenly: the frontend
    // keeps up overall, but a hot port under static hashing does not.
    let port_rate = RATE_BPS / LOAD / PORTS as f64;

    let stat = drive(
        &mut frontend::<Inline<_, _>>(Placement::Hash, port_rate),
        packets,
        port_rate,
        false,
    );
    let dyn_seq = drive(
        &mut frontend::<Inline<_, _>>(Placement::Dynamic, port_rate),
        packets,
        port_rate,
        true,
    );
    let dyn_par = drive(
        &mut frontend::<Threads<_, _>>(Placement::Dynamic, port_rate),
        packets,
        port_rate,
        true,
    );

    let agree = dyn_seq.hash == dyn_par.hash && dyn_seq.migrations == dyn_par.migrations;
    let ckpt_ok = checkpoint_deterministic(packets);

    let rows = vec![
        vec![
            "static hash".into(),
            format!("{:.4}", stat.makespan_s),
            format!("{:.3}", stat.balance),
            format!("{}", stat.served),
            format!("{}", stat.dropped),
            "-".into(),
        ],
        vec![
            "dynamic (sequential)".into(),
            format!("{:.4}", dyn_seq.makespan_s),
            format!("{:.3}", dyn_seq.balance),
            format!("{}", dyn_seq.served),
            format!("{}", dyn_seq.dropped),
            format!("{}", dyn_seq.migrations),
        ],
        vec![
            "dynamic (parallel)".into(),
            format!("{:.4}", dyn_par.makespan_s),
            format!("{:.3}", dyn_par.balance),
            format!("{}", dyn_par.served),
            format!("{}", dyn_par.dropped),
            format!("{}", dyn_par.migrations),
        ],
    ];
    print_table(
        &format!(
            "E20: dynamic rebalancing vs static hashing ({PORTS} ports, Zipf {ZIPF}, {packets} packets)"
        ),
        &["placement", "makespan s", "balance", "served", "dropped", "migrations"],
        &rows,
    );
    println!(
        "\nmakespan gain {:.3}x, balance gain {:.3}x, {} migration(s); seq/par agree: {}, checkpoint deterministic: {}",
        stat.makespan_s / dyn_seq.makespan_s,
        stat.balance / dyn_seq.balance,
        dyn_seq.migrations,
        if agree { "yes" } else { "NO" },
        if ckpt_ok { "yes" } else { "NO" },
    );

    let metrics = vec![
        (
            "rebalance_makespan_gain".to_string(),
            stat.makespan_s / dyn_seq.makespan_s,
        ),
        (
            "rebalance_balance_gain".to_string(),
            stat.balance / dyn_seq.balance,
        ),
        ("rebalance_balance_static".to_string(), stat.balance),
        (
            "ceil_rebalance_balance_dynamic".to_string(),
            dyn_seq.balance,
        ),
        (
            "ceil_rebalance_migrations".to_string(),
            dyn_seq.migrations as f64,
        ),
        (
            "ceil_rebalance_dropped".to_string(),
            (dyn_seq.dropped + dyn_par.dropped) as f64,
        ),
        ("rebalance_served".to_string(), dyn_seq.served as f64),
        (
            "rebalance_seq_par_agree".to_string(),
            f64::from(u8::from(agree)),
        ),
        (
            "rebalance_ckpt_deterministic".to_string(),
            f64::from(u8::from(ckpt_ok)),
        ),
    ];
    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&metrics)).expect("write bench JSON");
        println!("wrote {path}");
    }
}
