//! **Experiment E11 — multi-port scaling:** aggregate throughput of the
//! sharded frontend at 1, 2, 4, and 8 output ports.
//!
//! Each port replicates the paper's sort/retrieve circuit, so every
//! shard keeps the fixed four-cycle slot no matter how the others are
//! loaded. This experiment drives the packet-level analogue of the
//! drifting tag workload (steady enqueue+dequeue pairs whose finishing
//! tags sweep upward with bounded spread, the Fig. 6 regime) through
//! every port count and reports:
//!
//! * **modeled** aggregate Mpps — per-shard cycle accounting at the
//!   paper's 143.2 MHz clock. Deterministic, but *definitional*: each
//!   shard's slot cost is 4 cycles by construction, so the modeled
//!   speedup is exactly the port count. Gating it in CI only catches
//!   changes to the cycle model itself, never behavioral regressions.
//! * **port balance** — the max/mean of per-port admissions
//!   ([`scheduler::ShardStats::shard_balance`]) after the frontend's
//!   own routing has placed the whole stream. It is an exact function
//!   of the stream and the flow-affinity hash, so CI gates it as a
//!   `ceil_` ceiling: a routing bug piling flows onto one shard raises
//!   it towards the port count.
//! * **measured** speedup — each port's enqueue/dequeue work is timed
//!   separately on this host, and the frontend's service time is the
//!   *slowest* shard's. The frontend runs every port on one thread, so
//!   this ratio of per-port loop times measures host noise as much as
//!   the code: it is printed and written to the JSON but not gated.
//!   Each port count keeps the best of [`REPS`] repetitions.
//!
//! With `--json [PATH]` every metric is written as a flat JSON object
//! (default `BENCH_shard_throughput.json`) for the regression gate
//! (`check_regression`), which reads only the baselined keys. Raw
//! single-thread wall-clock simulation speed is printed but never
//! gated (host-dependent).

use std::time::Instant;

use bench::{eng, json_object, print_table};
use scheduler::{SchedulerConfig, ShardedScheduler};
use tagsort::{PAPER_CLOCK_HZ, PAPER_MEAN_PACKET_BYTES};
use traffic::{FlowId, FlowSpec, Packet, Time};

const FLOWS: usize = 64;
const WARMUP: usize = 64;
/// Timed enqueue+dequeue pairs per port, so per-port timing granularity
/// is the same at every port count.
const PAIRS_PER_PORT: usize = 25_000;
/// Timing noise on a loaded host is one-sided (interruptions only slow
/// a loop down), so each port count takes the best of this many
/// repetitions; a genuine regression degrades every repetition.
const REPS: usize = 3;

struct RunResult {
    /// Modeled aggregate pps (cycle accounting, deterministic).
    modeled_pps: f64,
    /// Measured aggregate pps: total ops / slowest shard's elapsed.
    measured_pps: f64,
    /// Raw single-thread simulation speed (informational only).
    wall_pps: f64,
    /// Max/mean of per-port admissions (deterministic).
    balance: f64,
}

/// Steady-state enqueue+dequeue pairs on every port, with each port's
/// work timed separately so concurrent-shard throughput can be measured
/// rather than assumed.
fn run(ports: usize) -> RunResult {
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i as u32), 1.0 + (i % 7) as f64, 1e6))
        .collect();
    let mut fe = ShardedScheduler::new(
        &flows,
        40e9,
        ports,
        SchedulerConfig {
            capacity: 1 << 14,
            tick_scale: 2000.0,
            ..SchedulerConfig::default()
        },
    );
    // One global arrival stream, bucketed by the frontend's own routing
    // so imbalance from the flow-affinity hash shows up in the timing.
    let mut t = 0.0;
    let mut per_port: Vec<Vec<Packet>> = vec![Vec::new(); ports];
    for seq in 0..((WARMUP + PAIRS_PER_PORT) * ports) as u64 {
        t += 28e-9; // 140 B at 40 Gb/s
        let pkt = Packet {
            flow: FlowId((seq % FLOWS as u64) as u32),
            size_bytes: 140,
            arrival: Time(t),
            seq,
        };
        per_port[fe.port_of(pkt.flow).expect("configured flow")].push(pkt);
    }
    let started = Instant::now();
    let mut total_pairs = 0usize;
    let mut slowest = 0.0f64;
    for (port, arrivals) in per_port.iter().enumerate() {
        let (warm, pairs) = arrivals.split_at(WARMUP.min(arrivals.len()));
        // Warm a backlog so the shard stays busy through the timed loop.
        for &pkt in warm {
            fe.enqueue(pkt).expect("capacity");
        }
        let port_started = Instant::now();
        for &pkt in pairs {
            fe.enqueue(pkt).expect("capacity");
            fe.dequeue_port(port).expect("backlogged");
        }
        slowest = slowest.max(port_started.elapsed().as_secs_f64());
        total_pairs += pairs.len();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = fe.stats();
    RunResult {
        balance: stats.shard_balance(),
        modeled_pps: stats.modeled_packets_per_second(PAPER_CLOCK_HZ),
        measured_pps: 2.0 * total_pairs as f64 / slowest,
        wall_pps: 2.0 * total_pairs as f64 / elapsed,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_shard_throughput.json".into())
    });

    let port_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut modeled_1 = 0.0;
    let mut measured_1 = 0.0;
    for &ports in &port_counts {
        let mut r = run(ports);
        for _ in 1..REPS {
            let again = run(ports);
            if again.measured_pps > r.measured_pps {
                r.measured_pps = again.measured_pps;
            }
            if again.wall_pps > r.wall_pps {
                r.wall_pps = again.wall_pps;
            }
        }
        if ports == 1 {
            modeled_1 = r.modeled_pps;
            measured_1 = r.measured_pps;
        }
        let modeled_speedup = r.modeled_pps / modeled_1;
        let measured_speedup = r.measured_pps / measured_1;
        rows.push(vec![
            format!("{ports}"),
            format!("{}pps", eng(r.modeled_pps)),
            format!("{}b/s", eng(r.modeled_pps * PAPER_MEAN_PACKET_BYTES * 8.0)),
            format!("{modeled_speedup:.2}x"),
            format!("{:.3}", r.balance),
            format!("{measured_speedup:.2}x"),
            format!("{}pps", eng(r.wall_pps)),
        ]);
        metrics.push((format!("ports_{ports}_modeled_mpps"), r.modeled_pps / 1e6));
        metrics.push((format!("speedup_ports_{ports}"), modeled_speedup));
        metrics.push((format!("ceil_port_balance_ports_{ports}"), r.balance));
        metrics.push((format!("measured_speedup_ports_{ports}"), measured_speedup));
    }
    print_table(
        "Multi-port frontend — aggregate throughput (143.2 MHz/shard)",
        &[
            "ports",
            "modeled",
            "line rate (140 B)",
            "modeled speedup",
            "port balance",
            "measured speedup",
            "sim wall-clock",
        ],
        &rows,
    );
    println!(
        "\nModeled speedup is cycle accounting: every shard keeps the single\n\
         circuit's four-cycle slot, so it equals the port count by\n\
         construction. Port balance is the max/mean of per-port admissions\n\
         under the frontend's own routing: exact, and what the CI gate\n\
         reads. Measured speedup times each shard's work on this host and\n\
         takes the slowest shard as the frontend's service time; one thread\n\
         runs every port, so it moves with host noise and is not gated.\n\
         The wall-clock column is this host simulating all shards on one\n\
         thread — informational, not part of the baseline."
    );

    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&metrics)).expect("write json");
        println!("\nwrote {path}");
    }
}
