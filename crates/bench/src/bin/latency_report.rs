//! **Experiment E14 — per-flow latency attribution:** the sojourn
//! pipeline end to end, as a deterministic regression gate.
//!
//! Two runs, both pure functions of the seeded workload:
//!
//! * **Sharded profile** — the wfqsim default 4-port, 16-flow seeded
//!   trace through [`ShardedLinkSim`] with latency attribution on. The
//!   exported metrics are lower-is-better `ceil_*` ceilings over every
//!   flow's sojourn histogram: worst p99 and max in sorter cycles, and
//!   worst p99 of the wall-clock sojourn in nanoseconds. Wall-clock here
//!   is *simulated* time (departure minus arrival), so it is exactly as
//!   bit-stable across hosts as the cycle counts.
//! * **Join-vs-direct agreement** — a single-shard [`HwLinkSim`] run
//!   with both attribution paths active at once: direct stamping via
//!   `dequeue_stamped`, and an [`EventJoiner`] replaying the traced
//!   Enqueue/Dequeue pairs. The two are stamped at the same points in
//!   the machine, so every per-flow cycle histogram must agree exactly;
//!   `latency_join_agreement` is 1.0 only when they do and no event was
//!   left unmatched. `latency_join_agreement_ports4` repeats the gate on
//!   a 4-port sharded run — it holds only because traced events carry
//!   global flow ids, so one joiner can merge all shards' rings.
//!
//! With `--json [PATH]` everything is written as a flat JSON object
//! (default `BENCH_latency.json`) for `check_regression`.

use bench::{json_object, print_table};
use scheduler::{HwLinkSim, HwScheduler, SchedulerConfig, ShardedLinkSim, ShardedScheduler};
use tagsort::Geometry;
use telemetry::{EventJoiner, LatencyTracker, Snapshot, Telemetry};
use traffic::{generate, ArrivalProcess, FlowId, FlowSpec, Packet, SizeDist};

const FLOWS: usize = 16;
const PORTS: usize = 4;
const RATE: f64 = 2e6;
const HORIZON_S: f64 = 1.0;
const SEED: u64 = 42;

/// The wfqsim default synthetic mix: CBR/IMIX-Poisson/bursty on-off in
/// rotation, weights 1..=N.
fn flows() -> Vec<FlowSpec> {
    (0..FLOWS)
        .map(|i| {
            let spec = FlowSpec::new(FlowId(i as u32), (i + 1) as f64, RATE * 0.9 / FLOWS as f64);
            match i % 3 {
                0 => spec
                    .size(SizeDist::Fixed(140))
                    .arrivals(ArrivalProcess::Cbr),
                1 => spec.size(SizeDist::Imix).arrivals(ArrivalProcess::Poisson),
                _ => spec
                    .size(SizeDist::Bimodal {
                        small: 40,
                        large: 1500,
                        p_small: 0.3,
                    })
                    .arrivals(ArrivalProcess::OnOff {
                        on_mean_s: 0.03,
                        off_mean_s: 0.03,
                    }),
            }
        })
        .collect()
}

fn config(trace_len: usize, rate: f64) -> SchedulerConfig {
    SchedulerConfig {
        geometry: Geometry::new(4, 5),
        tick_scale: rate / 50_000.0,
        capacity: (trace_len + 1).next_power_of_two(),
        ..SchedulerConfig::default()
    }
}

/// The sharded profile: worst-case sojourn ceilings over all flows.
fn sharded_profile(fl: &[FlowSpec], trace: &[Packet]) -> (Vec<(String, f64)>, Vec<Vec<String>>) {
    let fe = ShardedScheduler::new(fl, RATE, PORTS, config(trace.len(), RATE));
    let mut sim = ShardedLinkSim::new(fe).with_latency();
    sim.run(trace).expect("seeded trace fits the buffers");
    let lat = sim.latency().expect("latency attribution is on");

    let mut snap = Snapshot::empty(1);
    lat.export(&mut snap);
    let v = |key: &str| snap.value(key).unwrap_or_else(|| panic!("{key} missing"));

    let mut worst_p99_cycles = 0.0f64;
    let mut worst_max_cycles = 0.0f64;
    let mut worst_p99_ns = 0.0f64;
    let mut rows = Vec::new();
    for flow in 0..FLOWS {
        let p99 = v(&format!("flow{flow}_sojourn_p99"));
        let max = v(&format!("flow{flow}_sojourn_max"));
        let p99_ns = v(&format!("flow{flow}_sojourn_ns_p99"));
        worst_p99_cycles = worst_p99_cycles.max(p99);
        worst_max_cycles = worst_max_cycles.max(max);
        worst_p99_ns = worst_p99_ns.max(p99_ns);
        rows.push(vec![
            format!("flow {flow}"),
            format!("{:.0}", v(&format!("flow{flow}_sojourn_count"))),
            format!("{:.0}", v(&format!("flow{flow}_sojourn_p50"))),
            format!("{p99:.0}"),
            format!("{max:.0}"),
            format!("{:.3}", p99_ns / 1e6),
        ]);
    }
    let metrics = vec![
        ("latency_flows".into(), lat.flows() as f64),
        ("latency_samples".into(), lat.samples() as f64),
        ("ceil_worst_sojourn_p99_cycles".into(), worst_p99_cycles),
        ("ceil_worst_sojourn_max_cycles".into(), worst_max_cycles),
        ("ceil_worst_sojourn_p99_ms".into(), worst_p99_ns / 1e6),
    ];
    (metrics, rows)
}

/// Exports `tracker` and keeps only the cycle-histogram keys (the
/// event-joined tracker has no wall-clock figures to compare).
fn cycle_keys(tracker: &LatencyTracker) -> Vec<(String, f64)> {
    let mut snap = Snapshot::empty(1);
    tracker.export(&mut snap);
    snap.flatten()
        .into_iter()
        .filter(|(k, _)| k.contains("_sojourn_") && !k.contains("_ns_"))
        .collect()
}

/// Runs the single-shard pipeline with direct stamping and the event
/// joiner side by side; 1.0 when every per-flow cycle histogram agrees
/// exactly and no event was orphaned.
fn join_vs_direct(fl: &[FlowSpec], trace: &[Packet]) -> f64 {
    // Ring big enough that no event is evicted before the join.
    let ring = (3 * trace.len() + 1).next_power_of_two();
    let tel = Telemetry::with_tracing(1, ring);
    let mut hw = HwScheduler::new(fl, RATE, config(trace.len(), RATE));
    hw.attach_telemetry(&tel, 0);
    let mut sim = HwLinkSim::new(RATE, hw).with_latency();
    sim.run(trace).expect("seeded trace fits the buffers");
    let events = sim.scheduler_mut().drain_events();
    let direct = sim.latency().expect("latency attribution is on");

    let mut joiner = EventJoiner::new();
    for event in events {
        joiner.observe(&event);
    }
    if joiner.unmatched() > 0 || joiner.in_flight() > 0 {
        return 0.0;
    }
    let joined = cycle_keys(joiner.tracker());
    let direct_keys = cycle_keys(direct);
    if joined.is_empty() || joined != direct_keys {
        return 0.0;
    }
    1.0
}

/// The multi-port twin of [`join_vs_direct`]: a 4-port sharded run with
/// both attribution paths active. The traced events carry *global* flow
/// ids, so one joiner fed from every shard's ring must reproduce the
/// direct tracker's per-flow cycle histograms exactly.
fn join_vs_direct_sharded(fl: &[FlowSpec], trace: &[Packet]) -> f64 {
    let ring = (3 * trace.len() + 1).next_power_of_two();
    let tel = Telemetry::with_tracing(PORTS, ring);
    let mut fe = ShardedScheduler::new(fl, RATE, PORTS, config(trace.len(), RATE));
    fe.attach_telemetry(&tel);
    let mut sim = ShardedLinkSim::new(fe).with_latency();
    sim.run(trace).expect("seeded trace fits the buffers");
    let events: Vec<_> = (0..PORTS)
        .flat_map(|port| sim.frontend_mut().drain_events(port))
        .collect();
    let direct = sim.latency().expect("latency attribution is on");

    let mut joiner = EventJoiner::new();
    for event in events {
        joiner.observe(&event);
    }
    if joiner.unmatched() > 0 || joiner.in_flight() > 0 {
        return 0.0;
    }
    let joined = cycle_keys(joiner.tracker());
    let direct_keys = cycle_keys(direct);
    if joined.is_empty() || joined != direct_keys {
        return 0.0;
    }
    1.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_latency.json".into())
    });

    let fl = flows();
    let trace = generate(&fl, HORIZON_S, SEED);
    let (mut metrics, rows) = sharded_profile(&fl, &trace);
    metrics.push(("latency_join_agreement".into(), join_vs_direct(&fl, &trace)));
    metrics.push((
        "latency_join_agreement_ports4".into(),
        join_vs_direct_sharded(&fl, &trace),
    ));

    print_table(
        &format!(
            "Per-flow sojourn — {PORTS}-port frontend, seeded trace ({} pkts)",
            trace.len()
        ),
        &["flow", "packets", "p50 cyc", "p99 cyc", "max cyc", "p99 ms"],
        &rows,
    );
    println!(
        "\nEvery figure is a pure function of the seeded workload (wall\n\
         clock is simulated time), so the ceil_* ceilings and the\n\
         join-vs-direct agreement bit are gated exactly, not as noisy\n\
         host measurements."
    );
    for (key, value) in &metrics {
        println!("  {key} = {value:.4}");
    }

    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&metrics)).expect("write json");
        println!("\nwrote {path}");
    }
}
