//! No observer effect: attaching telemetry (counters, gauges,
//! histograms, and the bounded event tracer) to a frontend must not
//! change what the scheduler does — only what it reports. Instrumented
//! and uninstrumented runs over the same trace must produce identical
//! dequeue sequences, and the instrumented run's counters must agree
//! with the packets that actually moved.

use proptest::prelude::*;

use scheduler::{ParallelShardedScheduler, SchedulerConfig, ShardedScheduler};
use telemetry::Telemetry;
use traffic::{FlowId, FlowSpec, Packet, SizeDist, Time};

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
