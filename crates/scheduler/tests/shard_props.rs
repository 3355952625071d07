//! Property tests for the sharded frontends: routing stability across
//! batch sizes, global↔local flow-id round-trips, and determinism of the
//! thread-per-shard frontend against the sequential reference.

use proptest::prelude::*;

use scheduler::{
    shard_of, AdmissionPolicy, ParallelShardedScheduler, SchedulerConfig, ShardedScheduler,
};
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Routing is a pure function of the flow id: however a trace is cut
    /// into batches, every packet lands on `shard_of`'s port and the
    /// occupancy totals agree with single-packet enqueue.
    #[test]
    fn routing_is_stable_across_batch_sizes(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        ports in 1usize..9,
        cut in 1usize..32,
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);

        let mut whole = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        whole.enqueue_batch(&trace).unwrap();

        let mut chunked = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        for chunk in trace.chunks(cut) {
            chunked.enqueue_batch(chunk).unwrap();
        }

        for port in 0..ports {
            prop_assert_eq!(whole.port_len(port), chunked.port_len(port));
        }
        // And the live routing is exactly the static map.
        for p in &trace {
            prop_assert_eq!(whole.port_of(p.flow), Some(shard_of(p.flow, ports)));
        }
    }

    /// Global → local → global flow-id remapping round-trips: every
    /// packet comes back out carrying the same global flow id it went in
    /// with, on the port the static map promised.
    #[test]
    fn flow_ids_round_trip_through_local_renumbering(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        ports in 1usize..9,
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);
        let mut fe = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        fe.enqueue_batch(&trace).unwrap();
        let mut seen = 0usize;
        while let Some((port, pkt)) = fe.dequeue() {
            prop_assert!((pkt.flow.0 as usize) < 24, "local id leaked out");
            prop_assert_eq!(port, shard_of(pkt.flow, ports), "served off-shard");
            seen += 1;
        }
        prop_assert_eq!(seen, trace.len());
    }

    /// Determinism despite threading, under any admission policy: for
    /// any trace, port count and buffer size, the thread-per-shard
    /// frontend admits exactly what the sequential one admits — burst
    /// by burst through `enqueue_batch`, with the same accepted counts
    /// and refusals, alternating with packet-by-packet bursts — agrees
    /// on occupancy after every burst (push-out and WRED evict queued
    /// packets to admit new ones), and drains the exact global
    /// round-robin sequence of the sequential frontend: same packets,
    /// same ports, same order, and nothing left behind.
    #[test]
    fn parallel_frontend_matches_sequential_dequeue_sequence(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        ports in 1usize..5,
        admission in 0usize..3,
        small in 0usize..2,
        cut in 1usize..32,
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);
        let config = SchedulerConfig {
            capacity: [2, 8][small],
            admission: [
                AdmissionPolicy::TailDrop,
                AdmissionPolicy::PushOut,
                AdmissionPolicy::wred(),
            ][admission],
            ..SchedulerConfig::default()
        };

        let mut seq = ShardedScheduler::new(&fl, 1e9, ports, config);
        let mut par = ParallelShardedScheduler::new(&fl, 1e9, ports, config);
        for (i, burst) in trace.chunks(cut).enumerate() {
            if i % 2 == 0 {
                prop_assert_eq!(seq.enqueue_batch(burst), par.enqueue_batch(burst));
            } else {
                for p in burst {
                    prop_assert_eq!(seq.enqueue(*p), par.enqueue(*p));
                }
            }
            prop_assert_eq!(seq.len(), par.len());
            for port in 0..ports {
                prop_assert_eq!(seq.port_len(port), par.port_len(port));
            }
        }
        let mut reference = Vec::new();
        while let Some(served) = seq.dequeue() {
            reference.push(served);
        }
        prop_assert_eq!(par.drain(), reference);
        prop_assert!(par.dequeue().is_none(), "drain left packets behind");
        prop_assert!(par.is_empty());
    }
}
