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
    HwScheduler, Placement, RebalancerConfig, SchedulerConfig, ShardedScheduler, WrapPolicy,
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
/// balance, and the migration bill.
struct RunResult {
    makespan_s: f64,
    balance: f64,
    served: u64,
    dropped: u64,
    migrations: u64,
}

/// Drives `fe` through the seeded workload with [`serve_links`]: every
/// port is an independent egress link at `port_rate`; arrivals are
/// enqueued in trace order; dynamic runs get one rebalance round every
/// [`REBALANCE_EVERY`] arrivals.
fn drive(fe: &mut ShardedScheduler, packets: u64, port_rate: f64, rebalance: bool) -> RunResult {
    let mut makespan_s = 0.0f64;
    let mut served = 0u64;
    let dropped = serve_links(
        fe,
        &[port_rate; PORTS],
        workload(packets),
        DropPolicy::CountAndContinue,
        rebalance.then_some(REBALANCE_EVERY),
        |_, d, _| {
            makespan_s = makespan_s.max(d.finish.0);
            served += 1;
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
    }
}

/// A frontend of the paper's circuit and WFQ ranks; dynamic placement
/// arms the rebalancer.
fn frontend(placement: Placement, port_rate: f64) -> ShardedScheduler {
    let fe = ShardedScheduler::with_policy_port_rates_placement(
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
        &mut frontend(Placement::Hash, port_rate),
        packets,
        port_rate,
        false,
    );
    let dynamic = drive(
        &mut frontend(Placement::Dynamic, port_rate),
        packets,
        port_rate,
        true,
    );
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
            "dynamic".into(),
            format!("{:.4}", dynamic.makespan_s),
            format!("{:.3}", dynamic.balance),
            format!("{}", dynamic.served),
            format!("{}", dynamic.dropped),
            format!("{}", dynamic.migrations),
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
        "\nmakespan gain {:.3}x, balance gain {:.3}x, {} migration(s); checkpoint deterministic: {}",
        stat.makespan_s / dynamic.makespan_s,
        stat.balance / dynamic.balance,
        dynamic.migrations,
        if ckpt_ok { "yes" } else { "NO" },
    );

    let metrics = vec![
        (
            "rebalance_makespan_gain".to_string(),
            stat.makespan_s / dynamic.makespan_s,
        ),
        (
            "rebalance_balance_gain".to_string(),
            stat.balance / dynamic.balance,
        ),
        ("rebalance_balance_static".to_string(), stat.balance),
        (
            "ceil_rebalance_balance_dynamic".to_string(),
            dynamic.balance,
        ),
        (
            "ceil_rebalance_migrations".to_string(),
            dynamic.migrations as f64,
        ),
        ("ceil_rebalance_dropped".to_string(), dynamic.dropped as f64),
        ("rebalance_served".to_string(), dynamic.served as f64),
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
