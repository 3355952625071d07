//! Fault-tolerance properties of the instrumented scheduler.
//!
//! Two guarantees from DESIGN.md §13, exercised over randomized
//! workloads and fault plans:
//!
//! 1. **Scrub-and-repair exactness** — when every trie section is
//!    audited each dequeue round, a run whose injected trie faults are
//!    all repaired before the affected tag is retrieved serves the
//!    *exact* dequeue sequence of a fault-free run.
//! 2. **Detect-and-count accounting** — under `DetectAndCount` the
//!    scheduler never panics, and after reconciliation every injected
//!    fault is either detected or counted as a silent corruption:
//!    `faults_detected + silent_corruptions == faults_injected`.

use proptest::prelude::*;

use fairq::{AnyPolicy, RankPolicy};
use faultsim::{DetectionKind, FaultConfig, FaultPolicy, FaultSpec, ScrubOrder};
use scheduler::{HwScheduler, SchedulerConfig, ShardedScheduler};
use tagsort::{Geometry, SortRetrieveCircuit};
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

fn drain(sched: &mut HwScheduler) -> Vec<Packet> {
    let mut out = Vec::new();
    while let Some(p) = sched.dequeue() {
        out.push(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With a full audit of every section each dequeue round, every
    /// injected trie *or translation* fault is repaired in the same
    /// round it lands — before the pop — so the served sequence is
    /// byte-identical to a fault-free run. (Trie repairs rebuild from
    /// the translation table; translation repairs rebuild from the tag
    /// store's per-section check codes and list walk.)
    #[test]
    fn scrub_and_repair_preserves_the_dequeue_sequence(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        count in 1u32..24,
        seed in 0u64..1_000,
        component in prop_oneof![Just("trie"), Just("translation")],
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);

        let mut clean = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
        for p in &trace {
            clean.enqueue(*p).unwrap();
        }
        let reference = drain(&mut clean);

        let spec: FaultSpec = format!("{count}@{seed}:{component}:1").parse().unwrap();
        let mut cfg = FaultConfig::new(
            spec,
            FaultPolicy::ScrubAndRepair,
            2 * trace.len() as u64,
        );
        cfg.scrub_sections = Geometry::paper().sections();
        let mut faulted = HwScheduler::new(
            &fl,
            1e9,
            SchedulerConfig { faults: Some(cfg), ..SchedulerConfig::default() },
        );
        for p in &trace {
            faulted.enqueue(*p).unwrap();
        }
        let observed = drain(&mut faulted);

        prop_assert_eq!(&observed, &reference, "repair changed the schedule");

        // The run must have actually exercised the machinery: faults
        // landed, and every detected one was repaired.
        faulted.reconcile_faults();
        let (injected, detected, repaired, silent) = faulted.fault_totals();
        prop_assert!(injected > 0, "no faults materialized");
        prop_assert_eq!(detected, repaired, "a detected fault went unrepaired");
        prop_assert_eq!(detected + silent, injected);
    }

    /// `DetectAndCount` tolerates faults in any component without
    /// panicking, and the exported counters reconcile exactly:
    /// detected + silent == injected.
    #[test]
    fn detect_and_count_never_panics_and_reconciles(
        picks in proptest::collection::vec(0u32..10_000, 16..200),
        count in 1u32..24,
        seed in 0u64..1_000,
        bits in 1u32..3,
    ) {
        let fl = flows(24);
        let trace = stream(&picks, 24);

        let spec: FaultSpec = format!("{count}@{seed}:any:{bits}").parse().unwrap();
        let cfg = FaultConfig::new(
            spec,
            FaultPolicy::DetectAndCount,
            2 * trace.len() as u64,
        );
        let tel = Telemetry::with_tracing(1, 8);
        let mut sched = HwScheduler::new(
            &fl,
            1e9,
            SchedulerConfig { faults: Some(cfg), ..SchedulerConfig::default() },
        );
        sched.attach_telemetry(&tel, 0);
        for p in &trace {
            sched.enqueue(*p).unwrap();
        }
        let served = drain(&mut sched);
        // Corruption may lose packets, but never invent them.
        prop_assert!(served.len() <= trace.len());

        sched.reconcile_faults();
        let (injected, detected, _repaired, silent) = sched.fault_totals();
        prop_assert!(injected > 0, "no faults materialized");
        prop_assert_eq!(detected + silent, injected);

        // The exported snapshot must agree with the ledger.
        let snap = sched.telemetry_snapshot();
        prop_assert_eq!(snap.value("faults_injected_total"), Some(injected as f64));
        prop_assert_eq!(
            snap.value("faults_detected_total").unwrap()
                + snap.value("silent_corruptions_total").unwrap(),
            injected as f64
        );
    }
}

/// Buffer SEUs go through the same ledger as sorter faults: descriptor
/// corruption is caught by the per-slot parity check at release (odd
/// flip counts), or folded into `silent_corruptions` at reconciliation
/// (even flips, or flips into already-released slots). Either way the
/// books balance exactly.
#[test]
fn buffer_fault_ledger_reconciles() {
    let fl = flows(24);
    let picks: Vec<u32> = (0..400u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let trace = stream(&picks, 24);
    let mut detected_somewhere = 0u64;
    for seed in 0..8u64 {
        let spec: FaultSpec = format!("12@{seed}:buffer:1").parse().unwrap();
        let cfg = FaultConfig::new(spec, FaultPolicy::DetectAndCount, 2 * trace.len() as u64);
        // A buffer sized to the trace keeps most slots occupied, so the
        // plan's uniform word draws mostly land on live descriptors.
        let mut sched = HwScheduler::new(
            &fl,
            1e9,
            SchedulerConfig {
                capacity: 512,
                faults: Some(cfg),
                ..SchedulerConfig::default()
            },
        );
        for p in &trace {
            sched.enqueue(*p).unwrap();
        }
        while sched.dequeue().is_some() {}
        sched.reconcile_faults();
        let (injected, detected, repaired, silent) = sched.fault_totals();
        assert!(injected > 0, "seed {seed}: no buffer faults materialized");
        assert_eq!(
            detected + silent,
            injected,
            "seed {seed}: buffer ledger must reconcile"
        );
        assert_eq!(repaired, 0, "detect-and-count never repairs");
        assert!(
            sched
                .fault_records()
                .iter()
                .all(|r| r.component == faultsim::FaultComponent::Buffer),
            "a buffer-only plan may not touch other components"
        );
        detected_somewhere += detected;
    }
    assert!(
        detected_somewhere > 0,
        "across seeds, the release parity check must catch some corruption"
    );
}

/// The sharded frontend's fault ledgers reconcile across ports. A
/// plan's op clock also ticks on *empty* dequeues: the program keeps the
/// backlog short (three `dequeue()`s per four arrivals), so the round
/// robin polls idle ports while plan entries are still coming due.
#[test]
fn sharded_frontend_reconciles_fault_ledgers_with_idle_port_polls() {
    let picks: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let trace = stream(&picks, 24);
    for seed in 0..20u64 {
        let component = ["trie", "translation", "any"][seed as usize % 3];
        let spec: FaultSpec = format!("12@{seed}:{component}:1").parse().unwrap();
        let mut cfg = FaultConfig::new(spec, FaultPolicy::ScrubAndRepair, 256);
        cfg.scrub_sections = Geometry::paper().sections();
        let config = SchedulerConfig {
            faults: Some(cfg),
            ..SchedulerConfig::default()
        };
        let mut fe = ShardedScheduler::new(&flows(24), 1e9, 4, config);
        let mut served = 0;
        for (i, p) in trace.iter().enumerate() {
            fe.enqueue(*p).unwrap();
            if i % 4 != 3 {
                served += usize::from(fe.dequeue().is_some());
            }
        }
        served += fe.drain().len();
        assert_eq!(served, trace.len(), "seed {seed}: packets lost");
        let totals = fe.reconcile_faults();
        assert_eq!(fe.reconcile_faults(), totals, "reconcile is idempotent");
        let (injected, detected, repaired, silent) = totals;
        assert!(
            injected > 0,
            "seed {seed}/{component}: no faults materialized"
        );
        assert_eq!(
            detected + silent,
            injected,
            "seed {seed}/{component}: the ledger must reconcile"
        );
        // Scrub-and-repair with a full-section budget repairs every
        // trie and translation fault it detects; parity detections on
        // other components (`any`) are counted, never repaired.
        if component != "any" {
            assert_eq!(
                detected, repaired,
                "seed {seed}/{component}: a detected fault went unrepaired"
            );
        }
    }
}

/// Detection-latency accounting for the scrub orders on *skewed*
/// writes. The strict-priority policy maps every rank to a tiny class
/// index, so under the paper geometry every tag lands in trie section
/// 0 — the most extreme write skew expressible. With a one-section
/// scrub budget and an interleaved enqueue/dequeue loop (each insert
/// re-dirties section 0 before the next audit), write-priority spends
/// every round on the hot section and catches its faults almost
/// immediately, while round-robin blindly rotates through all sixteen
/// sections. Returns the summed scrub-detection latency and count.
fn scrub_latency(order: ScrubOrder, fault_seed: u64, trace: &[Packet]) -> (u64, u64) {
    let fl = flows(24);
    let proto = AnyPolicy::by_name("prio").expect("prio is a library policy");
    let spec: FaultSpec = format!("64@{fault_seed}:trie:1").parse().unwrap();
    let mut cfg = FaultConfig::new(spec, FaultPolicy::DetectAndCount, 2 * trace.len() as u64);
    cfg.scrub_sections = 1;
    cfg.scrub_order = order;
    let mut sched = HwScheduler::<SortRetrieveCircuit, AnyPolicy>::with_backend_and_policy(
        &fl,
        1e6,
        SchedulerConfig {
            tick_scale: proto.tick_scale(1e6),
            faults: Some(cfg),
            ..SchedulerConfig::default()
        },
        &proto,
    );
    let mut arrivals = trace.iter();
    for p in arrivals.by_ref().take(8) {
        sched.enqueue(*p).unwrap();
    }
    for p in arrivals {
        sched.enqueue(*p).unwrap();
        sched.dequeue();
    }
    while sched.dequeue().is_some() {}
    sched.reconcile_faults();
    let mut latency = 0u64;
    let mut scrub_detected = 0u64;
    for r in sched.fault_records() {
        if r.detected_by == Some(DetectionKind::Scrub) {
            latency += r.detected_cycle.unwrap() - r.injected_cycle;
            scrub_detected += 1;
        }
    }
    (latency, scrub_detected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On write-skewed workloads the write-priority scrub order detects
    /// faults by scrubbing with a lower mean latency than round-robin:
    /// its budget goes to the section the traffic keeps writing (where
    /// a landed fault is audited the very next round), where the blind
    /// rotation averages half a sweep before revisiting any section.
    /// Summed over a handful of fault plans to wash out per-plan luck.
    #[test]
    fn write_priority_scrub_detects_faster_on_skewed_writes(
        hot in proptest::collection::vec(0u32..3, 192..256),
    ) {
        let trace = stream(&hot, 24);
        let (mut rr_lat, mut rr_n, mut wp_lat, mut wp_n) = (0u64, 0u64, 0u64, 0u64);
        for fault_seed in [2, 5, 8, 13] {
            let (lat, n) = scrub_latency(ScrubOrder::RoundRobin, fault_seed, &trace);
            rr_lat += lat;
            rr_n += n;
            let (lat, n) = scrub_latency(ScrubOrder::WritePriority, fault_seed, &trace);
            wp_lat += lat;
            wp_n += n;
        }
        prop_assert!(rr_n > 0, "round-robin scrubbing must detect something");
        prop_assert!(wp_n > 0, "write-priority scrubbing must detect something");
        let rr_mean = rr_lat as f64 / rr_n as f64;
        let wp_mean = wp_lat as f64 / wp_n as f64;
        prop_assert!(
            wp_mean < rr_mean,
            "write-priority mean scrub latency {wp_mean:.0} cycles should beat \
             round-robin's {rr_mean:.0} on fully skewed writes"
        );
    }
}
