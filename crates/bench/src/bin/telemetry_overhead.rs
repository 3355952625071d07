//! **Experiment E13 — telemetry overhead:** throughput cost of the
//! telemetry subsystem on the sharded frontend, in three configurations:
//!
//! * **off** — disabled [`Telemetry`] is attached, so every record
//!   site takes the branch-and-return path. This is the cost the
//!   subsystem imposes on uninstrumented production runs.
//! * **counters** — telemetry enabled (the schedulers' histograms),
//!   event tracing off.
//! * **tracing** — plus a bounded per-shard event ring, sized small
//!   enough that eviction churn is part of the measured cost.
//!
//! Each mode drives the same drifting-tag enqueue+dequeue pair workload
//! as the E11 throughput bench and keeps the best of [`REPS`]
//! repetitions (interruptions only ever slow a timed loop down). The
//! same-host ratios `counters_over_off_ratio` and
//! `tracing_over_off_ratio` are printed but not gated: on a shared host
//! their noise is larger than the cost they measure.
//!
//! What is gated is a deterministic small-buffer overload, replayed with
//! telemetry and a ring that keeps every event. Its snapshot gives the
//! lower-is-better `ceil_*` metrics: drops, peak queue depth and p99
//! tag-sort latency, and the telemetry's own work — observations per
//! offered packet of each histogram (`ceil_hist_*_obs_per_pkt`) and
//! traced events per offered packet of each kind
//! (`ceil_events_*_per_pkt`). They come from the cycle-accurate
//! simulation, are bit-stable across hosts, and are gated by
//! `check_regression`'s ceiling rule (fail when current > baseline /
//! min_ratio), so one extra record per packet fails its key.
//!
//! With `--json [PATH]` everything is written as a flat JSON object
//! (default `BENCH_telemetry.json`) for the regression gate.

use std::time::Instant;

use bench::{eng, json_object, print_table};
use scheduler::{SchedulerConfig, ShardedScheduler};
use telemetry::{EventKind, Telemetry};
use traffic::{FlowId, FlowSpec, Packet, Time};

const FLOWS: usize = 64;
const PORTS: usize = 4;
const WARMUP: usize = 64;
/// Timed enqueue+dequeue pairs per port.
const PAIRS_PER_PORT: usize = 20_000;
/// Best-of repetitions per mode (timing noise is one-sided).
const REPS: usize = 3;
/// Event-ring slots per shard in tracing mode — small on purpose, so
/// the measured cost includes steady-state eviction, not just filling.
const TRACE_RING: usize = 256;

#[derive(Clone, Copy)]
enum Mode {
    Off,
    Counters,
    Tracing,
}

impl Mode {
    fn telemetry(self) -> Telemetry {
        match self {
            Mode::Off => Telemetry::disabled(),
            Mode::Counters => Telemetry::new(PORTS),
            Mode::Tracing => Telemetry::with_tracing(PORTS, TRACE_RING),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Counters => "counters",
            Mode::Tracing => "counters+tracing",
        }
    }
}

fn flows() -> Vec<FlowSpec> {
    (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i as u32), 1.0 + (i % 7) as f64, 1e6))
        .collect()
}

/// The E11 drifting-tag pair workload with `mode`'s telemetry attached;
/// returns measured packets/s over the timed pair loops (warm-up
/// excluded).
fn run(mode: Mode) -> f64 {
    let fl = flows();
    let tel = mode.telemetry();
    let mut fe = ShardedScheduler::new(
        &fl,
        40e9,
        PORTS,
        SchedulerConfig {
            capacity: 1 << 14,
            tick_scale: 2000.0,
            ..SchedulerConfig::default()
        },
    );
    fe.attach_telemetry(&tel);
    let mut t = 0.0;
    let mut per_port: Vec<Vec<Packet>> = vec![Vec::new(); PORTS];
    for seq in 0..((WARMUP + PAIRS_PER_PORT) * PORTS) as u64 {
        t += 28e-9; // 140 B at 40 Gb/s
        let pkt = Packet {
            flow: FlowId((seq % FLOWS as u64) as u32),
            size_bytes: 140,
            arrival: Time(t),
            seq,
        };
        per_port[fe.port_of(pkt.flow).expect("configured flow")].push(pkt);
    }
    let mut timed = 0.0f64;
    let mut pairs = 0usize;
    for (port, arrivals) in per_port.iter().enumerate() {
        let (warm, paired) = arrivals.split_at(WARMUP.min(arrivals.len()));
        // Warm a backlog so the shard stays busy through the timed loop.
        for &pkt in warm {
            fe.enqueue(pkt).expect("capacity");
        }
        let started = Instant::now();
        for &pkt in paired {
            fe.enqueue(pkt).expect("capacity");
            fe.dequeue_port(port).expect("backlogged");
        }
        timed += started.elapsed().as_secs_f64();
        pairs += paired.len();
    }
    2.0 * pairs as f64 / timed
}

/// Arrivals in the deterministic overload profile.
const PROFILE_PACKETS: u64 = 4096;

/// Deterministic overload: a burst far past a tiny shared buffer, then a
/// full drain, with telemetry and a ring that keeps every event. The
/// snapshot's drop count, peak queue depth, p99 tag-sort latency, and
/// records per offered packet are pure functions of the workload — any
/// growth means the pipeline, or what telemetry records per packet,
/// changed.
fn deterministic_profile() -> Vec<(String, f64)> {
    let fl = flows();
    // At most a handoff, a drop or enqueue, a dequeue and a clock wrap
    // per arrival, all of which may land on one port.
    let tel = Telemetry::with_tracing(PORTS, 4 * PROFILE_PACKETS as usize);
    let mut fe = ShardedScheduler::new(
        &fl,
        40e9,
        PORTS,
        SchedulerConfig {
            capacity: 64,
            tick_scale: 2000.0,
            ..SchedulerConfig::default()
        },
    );
    fe.attach_telemetry(&tel);
    let mut t = 0.0;
    for seq in 0..PROFILE_PACKETS {
        t += 28e-9;
        let pkt = Packet {
            flow: FlowId((seq % FLOWS as u64) as u32),
            size_bytes: 140,
            arrival: Time(t),
            seq,
        };
        // Rejections past each shard's 64-slot buffer are the point.
        let _ = fe.enqueue(pkt);
    }
    while fe.dequeue().is_some() {}
    let snap = fe.telemetry_snapshot();
    let v = |key: &str| snap.value(key).unwrap_or_else(|| panic!("{key} missing"));
    assert_eq!(v("events_evicted"), 0.0, "a ring evicted an event");
    let per_pkt = |n: f64| n / PROFILE_PACKETS as f64;
    let mut out: Vec<(String, f64)> = vec![
        ("ceil_overload_drops".into(), v("sched_dropped_total")),
        ("ceil_overload_peak_depth".into(), v("queue_depth_peak")),
        (
            "ceil_tag_sort_p99_cycles".into(),
            v("tag_sort_latency_cycles_p99"),
        ),
    ];
    for (key, hist) in [
        ("tag_sort", "tag_sort_latency_cycles"),
        ("occupancy", "buffer_occupancy_pkts"),
        ("fault_detect", "fault_detect_latency_cycles"),
        ("fault_repair", "fault_repair_cost_cycles"),
    ] {
        let key = format!("ceil_hist_{key}_obs_per_pkt");
        out.push((key, per_pkt(v(&format!("{hist}_count")))));
    }
    for kind in (0..).map_while(EventKind::from_code) {
        let events = snap.events().iter().filter(|e| e.kind == kind).count();
        out.push((
            format!("ceil_events_{}_per_pkt", kind.name()),
            per_pkt(events as f64),
        ));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_telemetry.json".into())
    });

    let modes = [Mode::Off, Mode::Counters, Mode::Tracing];
    // The modes take turns within each repetition, so a host slowdown
    // spanning several consecutive runs hits every mode alike rather
    // than all of one mode's repetitions.
    let mut best = vec![0.0f64; modes.len()];
    for _ in 0..REPS {
        for (pps, &mode) in best.iter_mut().zip(&modes) {
            *pps = pps.max(run(mode));
        }
    }

    let mut rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (&mode, &pps) in modes.iter().zip(&best) {
        let ratio = pps / best[0];
        rows.push(vec![
            mode.name().into(),
            format!("{}pps", eng(pps)),
            format!("{:.1}%", ratio * 100.0),
        ]);
    }
    metrics.push(("telemetry_off_mpps".into(), best[0] / 1e6));
    metrics.push(("counters_over_off_ratio".into(), best[1] / best[0]));
    metrics.push(("tracing_over_off_ratio".into(), best[2] / best[0]));
    metrics.extend(deterministic_profile());

    print_table(
        &format!("Telemetry overhead — {PORTS}-port frontend, pair workload"),
        &["mode", "throughput", "vs off"],
        &rows,
    );
    println!(
        "\nThe throughputs and their same-host ratios are informational,\n\
         never gated. The ceil_* metrics replay a deterministic\n\
         small-buffer overload and gate drops, peak queue depth, p99\n\
         tag-sort latency, and histogram observations and traced events\n\
         per offered packet as ceilings (lower is better)."
    );
    for (key, value) in &metrics {
        println!("  {key} = {value:.4}");
    }

    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&metrics)).expect("write json");
        println!("\nwrote {path}");
    }
}
