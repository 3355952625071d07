//! The one link-service loop ([`fairq::serve_links`]) behind
//! [`ShardedLinkSim`], checked against the per-port reference loop it
//! replaced: each port simulated alone over its own slice of the trace.
//!
//! Because routing is static without migrations, a port's service
//! depends only on its own arrivals, so the reference is exact: every
//! port must depart the same packets at the same times with the same
//! circuit-cycle stamps, and — because each shard sees the identical
//! enqueue/dequeue call sequence — fault campaigns must write the same
//! ledgers. Traces force same-instant arrivals and links that free
//! exactly at an arrival instant, the cases a loop that serves before
//! admitting gets wrong.

use fairq::{Departure, RankPolicy, WfqRank};
use faultsim::{FaultConfig, FaultPolicy, FaultSpec};
use proptest::prelude::*;
use scheduler::{
    DropPolicy, Placement, PortDeparture, RebalancerConfig, SchedulerConfig, SchedulerError,
    ShardError, ShardedLinkSim, ShardedScheduler,
};
use traffic::{FlowId, FlowSpec, Packet, SizeDist, Time};

const FLOWS: u32 = 16;
/// A power of two, as are packet sizes (multiples of 128 bytes) and
/// arrival gaps (multiples of 2^-10 s): service times and arrival
/// instants are exact binary fractions, so links often free exactly at
/// an arrival instant.
const RATE: f64 = (1u64 << 20) as f64;

/// One generated arrival: its flow, its size in 128-byte units, and its
/// gap after the previous arrival in 2^-10 s units (0 = same instant).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    flow: u32,
    units: u32,
    gap: u32,
}

/// Everything a case fixes besides its arrivals.
#[derive(Debug, Clone, Copy)]
struct Setup {
    ports: usize,
    capacity: usize,
    /// `(count, seed)` of an `any`-component fault plan.
    faults: Option<(u32, u64)>,
    /// A rebalance cadence, with a rebalancer that never fires.
    rebalance_every: Option<usize>,
}

fn trace(arrivals: &[Arrival]) -> Vec<Packet> {
    let mut ticks = 0u64;
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            ticks += u64::from(a.gap);
            Packet {
                flow: FlowId(a.flow),
                size_bytes: 128 * a.units,
                arrival: Time(ticks as f64 / 1024.0),
                seq: i as u64,
            }
        })
        .collect()
}

fn frontend(setup: &Setup, packets: usize) -> ShardedScheduler {
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), 1.0 + f64::from(i % 4), RATE).size(SizeDist::Fixed(128)))
        .collect();
    let rates: Vec<f64> = (0..setup.ports)
        .map(|p| RATE * (1 + p % 2) as f64)
        .collect();
    let faults = setup.faults.map(|(count, seed)| {
        let spec: FaultSpec = format!("{count}@{seed}:any:1").parse().expect("valid spec");
        FaultConfig::new(spec, FaultPolicy::ScrubAndRepair, 2 * packets as u64)
    });
    let placement = if setup.rebalance_every.is_some() {
        Placement::Dynamic
    } else {
        Placement::Hash
    };
    let fe = ShardedScheduler::with_policy_port_rates_placement(
        &flows,
        &rates,
        SchedulerConfig {
            capacity: setup.capacity,
            tick_scale: WfqRank::default().tick_scale(2.0 * RATE),
            faults,
            ..SchedulerConfig::default()
        },
        &WfqRank::default(),
        placement,
    );
    if setup.rebalance_every.is_some() {
        fe.with_rebalancer(RebalancerConfig {
            imbalance: 1e12,
            ..RebalancerConfig::default()
        })
    } else {
        fe
    }
}

/// The per-port reference loop: each port runs alone over its own
/// arrivals, admitting everything that has arrived by the instant its
/// link frees and then serving one packet.
fn reference(fe: &mut ShardedScheduler, trace: &[Packet]) -> (Vec<Vec<PortDeparture>>, u64) {
    let mut drops = 0;
    let mut out = Vec::new();
    for port in 0..fe.ports() {
        let arrivals: Vec<Packet> = trace
            .iter()
            .filter(|p| fe.port_of(p.flow) == Some(port))
            .copied()
            .collect();
        let mut deps = Vec::new();
        let mut now = Time::ZERO;
        let mut next = 0;
        loop {
            while next < arrivals.len() && arrivals[next].arrival <= now {
                match fe.enqueue(arrivals[next]) {
                    Ok(()) => {}
                    Err(ShardError::Port {
                        source: SchedulerError::BufferFull { .. } | SchedulerError::Sorter(_),
                        ..
                    }) => drops += 1,
                    Err(e) => panic!("reference refused {e}"),
                }
                next += 1;
            }
            match fe.dequeue_port_stamped(port) {
                Some((pkt, cycles)) => {
                    let finish = now + pkt.service_time(fe.port_rate(port));
                    deps.push(PortDeparture {
                        port,
                        departure: Departure {
                            packet: pkt,
                            start: now,
                            finish,
                        },
                        cycles,
                    });
                    now = finish;
                }
                None if next < arrivals.len() => now = arrivals[next].arrival,
                None => break,
            }
        }
        out.push(deps);
    }
    (out, drops)
}

/// Everything a port's run leaves behind that the two loops must agree
/// on.
fn ledger(fe: &mut ShardedScheduler) -> Vec<String> {
    fe.reconcile_faults();
    (0..fe.ports())
        .map(|port| {
            let shard = fe.shard(port);
            let records: Vec<String> = shard.fault_records().iter().map(|r| r.to_line()).collect();
            format!(
                "totals {:?} rejections {:?} records {records:?} stats {:?}",
                shard.fault_totals(),
                shard.fault_rejections(),
                shard.stats(),
            )
        })
        .collect()
}

fn run(setup: &Setup, arrivals: &[Arrival]) -> Result<(), String> {
    let trace = trace(arrivals);
    let mut expected_fe = frontend(setup, trace.len());
    let (expected, dropped) = reference(&mut expected_fe, &trace);

    let mut sim = ShardedLinkSim::new(frontend(setup, trace.len()))
        .with_drop_policy(DropPolicy::CountAndContinue);
    if let Some(every) = setup.rebalance_every {
        sim = sim.with_rebalance_every(every);
    }
    let deps = sim.run(&trace).map_err(|e| format!("run failed: {e}"))?;
    for (port, want) in expected.iter().enumerate() {
        let got: Vec<&PortDeparture> = deps.iter().filter(|d| d.port == port).collect();
        if let Some(i) =
            (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i).copied())
        {
            return Err(format!(
                "port {port}, departure {i}: loop {:?}, reference {:?}",
                got.get(i),
                want.get(i)
            ));
        }
    }
    if sim.drops() != dropped {
        return Err(format!("drops: loop {}, reference {dropped}", sim.drops()));
    }
    let (got, want) = (ledger(sim.frontend_mut()), ledger(&mut expected_fe));
    for (port, (g, w)) in got.iter().zip(&want).enumerate() {
        if g != w {
            return Err(format!(
                "port {port} ledger:\n  loop      {g}\n  reference {w}"
            ));
        }
    }
    if sim.frontend().migrations() != 0 {
        return Err("the rebalancer fired".into());
    }
    Ok(())
}

fn check(setup: &Setup, arrivals: &[Arrival]) -> Result<(), TestCaseError> {
    if run(setup, arrivals).is_ok() {
        return Ok(());
    }
    let (arrivals, error) = proptest::shrink(arrivals.to_vec(), |a| run(setup, a));
    Err(TestCaseError(format!(
        "{error}\n  {setup:?}, shrunk trace ({} arrivals): {arrivals:?}",
        arrivals.len()
    )))
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (0..FLOWS, 1..13u32, prop_oneof![Just(0u32), 0..6u32]).prop_map(|(flow, units, gap)| Arrival {
        flow,
        units,
        gap,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_one_loop_serves_every_port_like_the_per_port_reference(
        ports in 1..5usize,
        small in any::<bool>(),
        faults in prop_oneof![Just(None), (1..12u32, 0..1_000u64).prop_map(Some)],
        rebalance_every in prop_oneof![Just(None), (1..8usize).prop_map(Some)],
        arrivals in proptest::collection::vec(arrival(), 1..120),
    ) {
        let setup = Setup {
            ports,
            capacity: if small { 6 } else { 1024 },
            faults,
            rebalance_every,
        };
        check(&setup, &arrivals)?;
    }
}

/// At t = 0 three flows arrive together on one port; WFQ must serve the
/// heaviest-weighted one first, not the first listed.
#[test]
fn a_link_freeing_at_an_arrival_instant_chooses_among_the_whole_group() {
    let setup = Setup {
        ports: 1,
        capacity: 1024,
        faults: None,
        rebalance_every: Some(1),
    };
    let arrivals = [
        Arrival {
            flow: 0,
            units: 4,
            gap: 0,
        },
        Arrival {
            flow: 1,
            units: 4,
            gap: 0,
        },
        Arrival {
            flow: 3,
            units: 4,
            gap: 0,
        },
    ];
    run(&setup, &arrivals).unwrap();
    let trace = trace(&arrivals);
    let mut sim = ShardedLinkSim::new(frontend(&setup, 3)).with_rebalance_every(1);
    let deps = sim.run(&trace).unwrap();
    assert_eq!(deps[0].departure.packet.flow, FlowId(3), "weight 4 wins");
}

/// The frontend-wide buffer peak is the largest backlog held across all
/// ports at one instant: after admitting the arrivals at `t`, the
/// frontend holds every packet that has arrived by `t` minus those whose
/// service started before `t`.
#[test]
fn the_aggregate_peak_is_the_largest_simultaneous_backlog() {
    let setup = Setup {
        ports: 4,
        capacity: 1024,
        faults: None,
        rebalance_every: None,
    };
    // A seeded burst-and-drain trace over all sixteen flows.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound) as u32
    };
    let arrivals: Vec<Arrival> = (0..400)
        .map(|_| Arrival {
            flow: draw(u64::from(FLOWS)),
            units: 1 + draw(12),
            gap: if draw(3) == 0 { draw(40) } else { 0 },
        })
        .collect();
    let trace = trace(&arrivals);
    let mut sim = ShardedLinkSim::new(frontend(&setup, trace.len()));
    let deps = sim.run(&trace).unwrap();
    assert_eq!(deps.len(), trace.len());

    let held_after = |t: Time| {
        let arrived = trace.iter().filter(|p| p.arrival <= t).count();
        let started = deps.iter().filter(|d| d.departure.start < t).count();
        arrived - started
    };
    let true_peak = trace.iter().map(|p| held_after(p.arrival)).max().unwrap();
    let stats = sim.frontend().stats();
    let port_peak = stats.per_port.iter().map(|s| s.buffer.peak).max().unwrap();
    assert_eq!(stats.aggregate.buffer.peak, true_peak);
    assert!(
        true_peak > port_peak,
        "the trace must load several ports at once ({true_peak} vs {port_peak})"
    );
}
