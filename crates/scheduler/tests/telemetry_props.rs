//! No observer effect: attaching telemetry (counters, gauges,
//! histograms, and the bounded event tracer) to a frontend must not
//! change what the scheduler does — only what it reports. Instrumented
//! and uninstrumented runs over the same trace must produce identical
//! dequeue sequences, and the instrumented run's counters must agree
//! with the packets that actually moved. And no lost update: each
//! shard's cells have one writer, so the thread-per-port frontend must
//! record exactly what the inline one does.

use proptest::prelude::*;

use fairq::{RankPolicy, StfqRank};
use fastpath::FfsSorter;
use scheduler::{
    AdmissionPolicy, Executor, Inline, ParallelShardedScheduler, Placement, RebalancerConfig,
    SchedulerConfig, ShardedFrontend, ShardedScheduler, Threads,
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

    /// Sequential frontend: a fully instrumented run (metrics + a small
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
        bare.enqueue_batch(&trace).unwrap();
        let mut reference = Vec::new();
        while let Some(served) = bare.dequeue() {
            reference.push(served);
        }

        let tel = Telemetry::with_tracing(ports, 4);
        let mut wired = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        wired.attach_telemetry(&tel);
        wired.enqueue_batch(&trace).unwrap();
        let mut observed = Vec::new();
        while let Some(served) = wired.dequeue() {
            observed.push(served);
        }

        prop_assert_eq!(&observed, &reference, "telemetry changed the schedule");

        // The counters must agree with what actually happened.
        let snap = tel.snapshot();
        let n = trace.len() as f64;
        prop_assert_eq!(snap.value("sched_enqueued_total"), Some(n));
        prop_assert_eq!(snap.value("sched_dequeued_total"), Some(n));
        prop_assert_eq!(snap.value("shard_handoffs_total"), Some(n));
        prop_assert_eq!(snap.value("sched_dropped_total"), Some(0.0));
    }

    /// Thread-per-shard frontend: attached telemetry must not perturb
    /// the drained global sequence relative to an uninstrumented
    /// parallel run.
    #[test]
    fn instrumented_parallel_frontend_matches_bare_run(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        ports in 1usize..5,
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);

        let mut bare = ParallelShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        bare.enqueue_batch(&trace).unwrap();
        let reference = bare.drain();

        let tel = Telemetry::with_tracing(ports, 4);
        let mut wired = ParallelShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        wired.attach_telemetry(&tel);
        wired.enqueue_batch(&trace).unwrap();
        let observed = wired.drain();

        prop_assert_eq!(&observed, &reference, "telemetry changed the schedule");

        let snap = tel.snapshot();
        let n = trace.len() as f64;
        prop_assert_eq!(snap.value("sched_enqueued_total"), Some(n));
        prop_assert_eq!(snap.value("sched_dequeued_total"), Some(n));
        prop_assert_eq!(snap.value("shard_handoffs_total"), Some(n));
    }
}

/// A `sharded_overload`-shaped run on executor `X`: 4 ports, STFQ
/// ranks, push-out admission into small buffers, dynamic placement with
/// a rebalance round every 1024 arrivals, counters telemetry on. Ten
/// packets leave for every thirteen that arrive (1.3x load). Returns the
/// departures and the telemetry snapshot.
fn overload_run<X: Executor<FfsSorter, StfqRank>>(seed: u64) -> (Vec<(usize, Packet)>, Snapshot) {
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
    let mut fe = ShardedFrontend::<FfsSorter, StfqRank, X>::with_policy_port_rates_placement(
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
    drop(fe); // joins any workers: every write happens-before the read
    (served, tel.snapshot())
}

/// Threads lose no update: the thread-per-port executor, each worker
/// the one writer of its shard's cells, yields a byte-identical counter,
/// gauge and histogram snapshot to the inline executor's.
#[test]
fn threaded_executor_records_exactly_what_inline_does() {
    for seed in [7, 11] {
        let (inline_served, inline) = overload_run::<Inline<_, _>>(seed);
        let (threads_served, threads) = overload_run::<Threads<_, _>>(seed);
        assert_eq!(threads_served, inline_served, "seed {seed}: departures");
        assert_eq!(threads.to_json(), inline.to_json(), "seed {seed}: snapshot");
        let value = |key: &str| inline.value(key).unwrap_or_else(|| panic!("{key} missing"));
        assert!(value("sched_pushed_out_total") > 0.0, "seed {seed}");
        assert!(value("sched_migrated_out_total") > 0.0, "seed {seed}");
        assert_eq!(value("sched_dequeued_total"), inline_served.len() as f64);
    }
}
