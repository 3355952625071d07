//! Sharded multi-port frontend invariants: stable flow-affinity routing,
//! work-conserving service across ports, and conservation of traffic
//! against the single-scheduler reference.

use scheduler::{shard_of, HwScheduler, SchedulerConfig, ShardedLinkSim, ShardedScheduler};
use traffic::{generate, profiles, FlowId, FlowSpec, Packet, Time};

fn mixed_flows(n: usize) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| {
            let base = FlowSpec::new(FlowId(i as u32), 1.0 + (i % 4) as f64, 300_000.0);
            match i % 3 {
                0 => base.size(traffic::SizeDist::Fixed(140)),
                1 => base.size(traffic::SizeDist::Imix),
                _ => base
                    .size(traffic::SizeDist::Fixed(500))
                    .arrivals(traffic::ArrivalProcess::Poisson),
            }
        })
        .collect()
}

/// Rebuilding the frontend — a router restart, a rehash — reassigns every
/// flow to the same port, because the affinity map is a pure function of
/// the flow id; and live routing agrees with that map.
#[test]
fn flow_affinity_is_stable_under_rehash() {
    let fl = mixed_flows(24);
    for ports in [1usize, 2, 3, 4, 8] {
        let a = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        let b = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        for f in 0..24u32 {
            assert_eq!(a.port_of(FlowId(f)), b.port_of(FlowId(f)));
            assert_eq!(a.port_of(FlowId(f)), Some(shard_of(FlowId(f), ports)));
        }
        // And routing in motion lands every packet on the mapped port.
        let mut fe = a;
        let trace = generate(&fl, 0.05, 3);
        for p in &trace {
            let port = fe.port_of(p.flow).unwrap();
            let before = fe.port_len(port);
            fe.enqueue(*p).unwrap();
            assert_eq!(fe.port_len(port), before + 1, "packet missed its shard");
        }
        while let Some((port, pkt)) = fe.dequeue() {
            assert_eq!(port, shard_of(pkt.flow, ports), "served off-shard");
        }
    }
}

/// The round-robin dequeue never reports an idle frontend while any port
/// holds backlog, and a backlogged port waits at most one full rotation.
#[test]
fn dequeue_is_work_conserving_across_ports() {
    let fl = mixed_flows(24);
    let ports = 4;
    let mut fe = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
    let trace = generate(&fl, 0.1, 17);
    for p in &trace {
        fe.enqueue(*p).unwrap();
    }
    let mut since_served = vec![0usize; ports];
    let mut total = 0usize;
    while !fe.is_empty() {
        let backlog: Vec<usize> = (0..ports).map(|p| fe.port_len(p)).collect();
        let (port, _) = fe
            .dequeue()
            .expect("frontend idle while ports hold backlog");
        total += 1;
        for (p, waited) in since_served.iter_mut().enumerate() {
            if p == port {
                *waited = 0;
            } else if backlog[p] > 0 {
                *waited += 1;
                assert!(
                    *waited < ports,
                    "port {p} starved for {waited} services with backlog"
                );
            }
        }
    }
    assert_eq!(total, trace.len());
}

/// Sharding loses nothing: every packet of the trace is served exactly
/// once, and the aggregate packet/byte counts match a single-scheduler
/// run of the same trace.
#[test]
fn aggregate_counts_match_the_single_scheduler_reference() {
    let fl = mixed_flows(24);
    let trace = generate(&fl, 0.1, 29);
    let total_bytes: u64 = trace.iter().map(|p| u64::from(p.size_bytes)).sum();

    // Reference: the whole trace through one scheduler.
    let mut single = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
    let served = single.sort_trace(&trace).unwrap();
    let single_bytes: u64 = served.iter().map(|p| u64::from(p.size_bytes)).sum();
    assert_eq!(single_bytes, total_bytes);

    for ports in [1usize, 2, 4] {
        let mut fe = ShardedScheduler::new(&fl, 1e9, ports, SchedulerConfig::default());
        for p in &trace {
            fe.enqueue(*p).unwrap();
        }
        let mut seqs: Vec<u64> = Vec::new();
        let mut bytes = 0u64;
        while let Some((_, pkt)) = fe.dequeue() {
            seqs.push(pkt.seq);
            bytes += u64::from(pkt.size_bytes);
        }
        assert_eq!(bytes, single_bytes, "{ports} ports lost bytes");
        seqs.sort_unstable();
        let mut expect: Vec<u64> = trace.iter().map(|p| p.seq).collect();
        expect.sort_unstable();
        assert_eq!(seqs, expect, "{ports} ports served a different packet set");
        let stats = fe.stats();
        assert_eq!(stats.aggregate.enqueued, trace.len() as u64);
        assert_eq!(stats.aggregate.dequeued, trace.len() as u64);
        assert_eq!(stats.aggregate.buffer.rejected, 0);
    }
}

/// One-port sharding is literally the single scheduler: identical service
/// order, packet for packet.
#[test]
fn one_port_frontend_equals_the_single_scheduler() {
    let fl = mixed_flows(12);
    let trace = generate(&fl, 0.1, 41);
    let mut single = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
    let reference = single.sort_trace(&trace).unwrap();

    let mut fe = ShardedScheduler::new(&fl, 1e9, 1, SchedulerConfig::default());
    for p in &trace {
        fe.enqueue(*p).unwrap();
    }
    let sharded: Vec<Packet> = std::iter::from_fn(|| fe.dequeue().map(|(_, p)| p)).collect();
    assert_eq!(sharded, reference);
}

/// The per-port link simulation serves a mixed two-population workload
/// end to end: every generated packet departs, per-flow order holds, and
/// each port's transmissions never overlap.
#[test]
fn link_sim_runs_a_multiport_workload() {
    // Two populations renumbered into one dense id space; the frontend
    // routes them by its own flow-affinity partition.
    let mut fl = profiles::diverse_mix(6, 700_000.0);
    fl.extend(profiles::voip(5));
    for (i, f) in fl.iter_mut().enumerate() {
        f.id = FlowId(i as u32);
    }
    let trace = generate(&fl, 0.2, 19);
    let fe = ShardedScheduler::new(&fl, 1e7, 2, SchedulerConfig::default());
    let mut sim = ShardedLinkSim::new(fe);
    let deps = sim.run(&trace).unwrap();
    assert_eq!(deps.len(), trace.len());

    for port in 0..2 {
        let mut last_finish = Time::ZERO;
        for d in deps.iter().filter(|d| d.port == port) {
            assert!(d.departure.start >= last_finish, "port {port} overlaps");
            last_finish = d.departure.finish;
        }
    }
    // Per-flow FIFO order survives sharding (the point of flow affinity).
    let mut last_seq: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for d in &deps {
        let f = d.departure.packet.flow.0;
        if let Some(prev) = last_seq.insert(f, d.departure.packet.seq) {
            assert!(prev < d.departure.packet.seq, "flow {f} reordered");
        }
    }
}
