//! Property tests for the sharded frontend: global↔local flow-id
//! round-trips.

use proptest::prelude::*;

use scheduler::{shard_of, SchedulerConfig, ShardedScheduler};
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
        for p in &trace {
            fe.enqueue(*p).unwrap();
        }
        let mut seen = 0usize;
        while let Some((port, pkt)) = fe.dequeue() {
            prop_assert!((pkt.flow.0 as usize) < 24, "local id leaked out");
            prop_assert_eq!(port, shard_of(pkt.flow, ports), "served off-shard");
            seen += 1;
        }
        prop_assert_eq!(seen, trace.len());
    }

}
