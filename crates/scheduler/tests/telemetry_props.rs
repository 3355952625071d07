//! No observer effect: attaching telemetry (counters, gauges,
//! histograms, and the bounded event tracer) to a frontend must not
//! change what the scheduler does — only what it reports. Instrumented
//! and uninstrumented runs over the same trace must produce identical
//! dequeue sequences, and the instrumented run's counters must agree
//! with the packets that actually moved. A repeated run records the
//! same snapshot: recording is deterministic. And the counters are the
//! scheduler's own, so a restored scheduler reports its whole history.

use proptest::prelude::*;

use fairq::{RankPolicy, StfqRank, WfqRank};
use fastpath::FfsSorter;
use scheduler::{
    AdmissionPolicy, HwScheduler, Placement, RebalancerConfig, SchedulerConfig, ShardedScheduler,
};
use telemetry::{Snapshot, Telemetry};
use traffic::{FlowId, FlowSpec, Packet, ScaleConfig, ScaleWorkload, SizeDist, Time};

fn flows(n: usize) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| {
            FlowSpec::new(FlowId(i as u32), 1.0 + (i % 5) as f64, 1e6).size(SizeDist::Fixed(500))
        })
        .collect()
}

/// A deterministic arrival stream over `n` flows (flow choice and sizes
/// driven by the generated `picks`).
fn stream(picks: &[u32], n: usize) -> Vec<Packet> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &p)| Packet {
            flow: FlowId(p % n as u32),
            size_bytes: 40 + (p % 1461),
            arrival: Time(i as f64 * 1e-6),
            seq: i as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fully instrumented run (metrics + a small
    /// event ring, so eviction churn is also exercised) drains the exact
    /// dequeue sequence of a bare run, and the merged counters match the
    /// observed packet flow.
    #[test]
    fn instrumented_sharded_scheduler_matches_bare_run(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        ports in 1usize..6,
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);

        let mut bare = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        for p in &trace {
            bare.enqueue(*p).unwrap();
        }
        let mut reference = Vec::new();
        while let Some(served) = bare.dequeue() {
            reference.push(served);
        }

        let tel = Telemetry::with_tracing(ports, 4);
        let mut wired = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        wired.attach_telemetry(&tel);
        for p in &trace {
            wired.enqueue(*p).unwrap();
        }
        let mut observed = Vec::new();
        while let Some(served) = wired.dequeue() {
            observed.push(served);
        }

        prop_assert_eq!(&observed, &reference, "telemetry changed the schedule");

        // The counters must agree with what actually happened.
        let snap = wired.telemetry_snapshot();
        let n = trace.len() as f64;
        prop_assert_eq!(snap.value("sched_enqueued_total"), Some(n));
        prop_assert_eq!(snap.value("sched_dequeued_total"), Some(n));
        prop_assert_eq!(snap.value("shard_handoffs_total"), Some(n));
        prop_assert_eq!(snap.value("sched_dropped_total"), Some(0.0));
    }
}

/// A `sharded_overload`-shaped run: 4 ports, STFQ
/// ranks, push-out admission into small buffers, dynamic placement with
/// a rebalance round every 1024 arrivals, telemetry on. Ten
/// packets leave for every thirteen that arrive (1.3x load). Returns the
/// departures and the telemetry snapshot.
fn overload_run(seed: u64) -> (Vec<(usize, Packet)>, Snapshot) {
    const PORTS: usize = 4;
    const FLOWS: u32 = 256;
    const OFFERED_BPS: f64 = 10e9;
    let link_bps = OFFERED_BPS / 1.3;
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, OFFERED_BPS / f64::from(FLOWS)))
        .collect();
    let config = SchedulerConfig {
        capacity: 1 << 7,
        tick_scale: StfqRank::default().tick_scale(link_bps),
        admission: AdmissionPolicy::PushOut,
        ..SchedulerConfig::default()
    };
    let tel = Telemetry::new(PORTS);
    let mut fe = ShardedScheduler::<FfsSorter, StfqRank>::with_policy_port_rates_placement(
        &flows,
        &[link_bps / PORTS as f64; PORTS],
        config,
        &StfqRank::default(),
        Placement::Dynamic,
    )
    .with_rebalancer(RebalancerConfig::default());
    fe.attach_telemetry(&tel);
    let trace = ScaleWorkload::new(ScaleConfig {
        flows: FLOWS,
        packets: 8_000,
        zipf_exponent: 1.1,
        rate_bps: OFFERED_BPS,
        min_bytes: 64,
        max_bytes: 1500,
        churn: None,
        seed,
    });
    let mut served = Vec::new();
    for (i, pkt) in trace.enumerate() {
        let _ = fe.enqueue(pkt); // push-out refusals are part of the load
        if i % 13 < 10 {
            served.extend(fe.dequeue());
        }
        if (i + 1) % 1024 == 0 {
            fe.maybe_rebalance();
        }
    }
    served.extend(fe.drain());
    (served, fe.telemetry_snapshot())
}

/// The overload run is deterministic and its counters agree with what
/// moved: two runs of a seed depart identically and record a
/// byte-identical counter, gauge and histogram snapshot, in which
/// push-out and migration both happened and every departure is counted.
#[test]
fn overload_run_records_deterministically() {
    for seed in [7, 11] {
        let (served, snap) = overload_run(seed);
        let (again_served, again) = overload_run(seed);
        assert_eq!(again_served, served, "seed {seed}: departures");
        assert_eq!(again.to_json(), snap.to_json(), "seed {seed}: snapshot");
        let value = |key: &str| snap.value(key).unwrap_or_else(|| panic!("{key} missing"));
        assert!(value("sched_pushed_out_total") > 0.0, "seed {seed}");
        assert!(value("sched_migrated_out_total") > 0.0, "seed {seed}");
        assert_eq!(value("sched_dequeued_total"), served.len() as f64);
    }
}

/// The snapshot is a view over the scheduler's own counts, so telemetry
/// attached after a restore reports the restored totals, exactly as
/// `stats()` and its `export` do — not only what happened since attach.
#[test]
fn a_restored_scheduler_reports_its_whole_history() {
    let fl = flows(8);
    let config = SchedulerConfig {
        capacity: 16,
        admission: AdmissionPolicy::PushOut,
        ..SchedulerConfig::default()
    };
    let mut original = HwScheduler::new(&fl, 1e9, config);
    let trace = stream(&(0..64u32).map(|i| i * 7919).collect::<Vec<_>>(), 8);
    for (i, p) in trace.iter().enumerate() {
        let _ = original.enqueue(*p); // push-out refusals are part of the load
        if i % 3 == 0 {
            original.dequeue();
        }
    }
    let moved = original.extract_flow(FlowId(2));
    original.install_flow(FlowId(2), &moved).unwrap();
    let ckpt = original.checkpoint();
    let mut restored: HwScheduler =
        HwScheduler::restore(&fl, 1e9, config, &WfqRank::default(), &ckpt).unwrap();
    restored.attach_telemetry(&Telemetry::new(1), 0);
    let stats = restored.stats();
    assert!(stats.pushed_out > 0 && stats.migrated_in > 0, "{stats:?}");
    let mut snap = restored.telemetry_snapshot();
    stats.export("hw", &mut snap);
    for (key, value) in [
        ("enqueued", stats.enqueued),
        ("dequeued", stats.dequeued),
        ("pushed_out", stats.pushed_out),
        ("migrated_in", stats.migrated_in),
        ("migrated_out", stats.migrated_out),
    ] {
        let total = snap.value(&format!("sched_{key}_total"));
        assert_eq!(total, Some(value as f64), "sched_{key}_total");
        assert_eq!(total, snap.value(&format!("hw_{key}")), "hw_{key}");
    }
    assert_eq!(snap.value("queue_depth"), Some(restored.len() as f64));
}
