//! `HwScheduler` against an independent shadow-set reference model.
//!
//! The scheduler keeps no copy of the queued tags: under
//! `WrapPolicy::Saturate` it asks the sorter for its maximum and never
//! needs the minimum, and under `WrapPolicy::Wrap` it keeps only live
//! counts per top-level section. The reference below composes the same
//! public layers — rank policy, `TagQuantizer`, `PacketBuffer` and a
//! `SortBackend` — the straightforward way instead: it mirrors every
//! queued tick in an ordered set, feeds the minimum tick to the
//! quantizer, checks push-out against the largest queued tag, and counts
//! an inversion whenever a served tick is above the smallest queued
//! one. Random programs over every wrap policy × admission policy ×
//! rank policy × backend must yield identical departures, admission
//! outcomes and `stats()`.

use std::collections::BTreeSet;

use fairq::{AnyPolicy, RankPolicy, VirtualTime};
use fastpath::FfsSorter;
use proptest::prelude::*;
use scheduler::{
    AdmissionPolicy, HwScheduler, PacketBuffer, SchedulerConfig, SchedulerError, SchedulerStats,
    TagQuantizer, WrapPolicy,
};
use statesync::{Checkpoint, CheckpointError};
use tagsort::{
    BackendSpec, Geometry, HeapSorter, PacketRef, PipelinedSortBackend, SortBackend,
    SortRetrieveCircuit,
};
use traffic::{FlowId, FlowSpec, Packet, Time};

const RATE: f64 = 1e6;

fn flows() -> Vec<FlowSpec> {
    vec![
        FlowSpec::new(FlowId(0), 4.0, 300_000.0),
        FlowSpec::new(FlowId(1), 1.0, 500_000.0),
        FlowSpec::new(FlowId(2), 2.0, 200_000.0),
    ]
}

/// The sideband the reference keeps per buffer slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tick: u64,
    stamp: u64,
    finish: VirtualTime,
    full: PacketRef,
}

/// The shadow-set scheduler: every queued `(tick, stamp)` pair lives in
/// `outstanding` as well as in the sorter.
struct Reference<B> {
    policy: AnyPolicy,
    quantizer: TagQuantizer,
    buffer: PacketBuffer,
    sorter: B,
    admission: AdmissionPolicy,
    flows: usize,
    outstanding: BTreeSet<(u64, u64)>,
    slots: Vec<Option<Slot>>,
    next_stamp: u64,
    wred_coins: u64,
    enqueued: u64,
    dequeued: u64,
    inversions: u64,
    pushed_out: u64,
}

impl<B: SortBackend> Reference<B> {
    fn new(fl: &[FlowSpec], config: SchedulerConfig, proto: &AnyPolicy) -> Self {
        Self {
            policy: proto.for_link(fl, RATE),
            quantizer: TagQuantizer::with_policy(
                config.geometry,
                config.tick_scale,
                config.wrap_policy,
            ),
            buffer: PacketBuffer::new(config.capacity),
            sorter: B::build(&BackendSpec {
                geometry: config.geometry,
                capacity: config.capacity,
                cleanup: config.cleanup,
                memory: config.memory,
            }),
            admission: config.admission,
            flows: fl.len(),
            outstanding: BTreeSet::new(),
            slots: vec![None; config.capacity],
            next_stamp: 0,
            wred_coins: 0,
            enqueued: 0,
            dequeued: 0,
            inversions: 0,
            pushed_out: 0,
        }
    }

    fn enqueue(&mut self, pkt: Packet) -> Result<(), SchedulerError> {
        if pkt.flow.0 as usize >= self.flows {
            return Err(SchedulerError::UnknownFlow {
                flow: pkt.flow.0,
                flows: self.flows,
            });
        }
        let finish = self.policy.rank(&pkt);
        if self.sorter.is_empty()
            && self.quantizer.policy() == WrapPolicy::Saturate
            && self.policy.monotone()
        {
            self.quantizer.rebase(self.policy.rank_floor());
        }
        let min_tick = self.outstanding.first().map(|&(t, _)| t);
        let out = self.quantizer.quantize(finish, min_tick);
        for &section in &out.recycle {
            self.sorter.recycle_section(section);
        }
        if let AdmissionPolicy::Wred {
            min_pct,
            max_pct,
            max_p_pm,
        } = self.admission
        {
            let occupied = self.buffer.stats().occupied;
            let capacity = self.buffer.capacity();
            let min = capacity * min_pct as usize / 100;
            let max = capacity * max_pct as usize / 100;
            if occupied >= min.max(1) {
                let evict = occupied >= max || {
                    let span = (max - min).max(1) as u64;
                    let threshold = u64::from(max_p_pm) * (occupied - min) as u64 / span;
                    self.wred_coin() < threshold
                };
                if evict {
                    self.push_out(out.tick);
                }
            }
        }
        let mut stored = self.buffer.store(pkt);
        if stored.is_none()
            && self.admission != AdmissionPolicy::TailDrop
            && self.push_out(out.tick)
        {
            stored = self.buffer.store(pkt);
        }
        let Some(full) = stored else {
            return Err(SchedulerError::BufferFull {
                capacity: self.buffer.capacity(),
            });
        };
        let slot = PacketRef(full.index());
        if let Err(e) = self.sorter.insert(out.tag, slot) {
            self.buffer.release(full);
            return Err(e.into());
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.outstanding.insert((out.tick, stamp));
        self.slots[slot.index() as usize] = Some(Slot {
            tick: out.tick,
            stamp,
            finish,
            full,
        });
        self.enqueued += 1;
        Ok(())
    }

    /// The sorter serves and evicts in tag order, so push-out compares
    /// the arrival's tag with the largest queued tag — the tick itself
    /// under Saturate, where every tick lies in lap 0.
    fn push_out(&mut self, tick: u64) -> bool {
        let space = self.quantizer.geometry().tag_space();
        let Some(max_tag) = self.outstanding.iter().map(|&(t, _)| t % space).max() else {
            return false;
        };
        if tick % space >= max_tag {
            return false;
        }
        let (_, slot) = self.sorter.pop_max().expect("queued entries");
        let victim = self.slots[slot.index() as usize].take().expect("sideband");
        self.outstanding.remove(&(victim.tick, victim.stamp));
        self.buffer.release(victim.full);
        self.pushed_out += 1;
        true
    }

    /// The scheduler's counter-keyed WRED coin, restated.
    fn wred_coin(&mut self) -> u64 {
        let mut z = 0x5752_4544_434f_494e ^ self.wred_coins;
        self.wred_coins += 1;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 1000
    }

    fn dequeue(&mut self) -> Option<Packet> {
        let (_, slot) = self.sorter.pop_min()?;
        let s = self.slots[slot.index() as usize].take().expect("sideband");
        let pkt = self.buffer.release(s.full);
        self.policy.on_service(&pkt, s.finish);
        let &(min_tick, _) = self.outstanding.first().expect("served entry is queued");
        if s.tick > min_tick {
            self.inversions += 1;
        }
        self.outstanding.remove(&(s.tick, s.stamp));
        self.dequeued += 1;
        Some(pkt)
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            circuit: self.sorter.stats(),
            buffer: self.buffer.stats(),
            enqueued: self.enqueued,
            dequeued: self.dequeued,
            clamped: self.quantizer.clamped_count(),
            inversions: self.inversions,
            pushed_out: self.pushed_out,
            migrated_in: 0,
            migrated_out: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Enqueue { flow: u32, bytes: u32, gap: f64 },
    Dequeue,
}

/// A burst of `(flow, bytes, gap class)` arrivals and a dequeue count.
type Round = (Vec<(u32, u32, u8)>, usize);

fn round_strategy() -> impl Strategy<Value = Round> {
    (
        proptest::collection::vec(
            (
                0u32..3,
                prop_oneof![Just(64u32), Just(125), Just(700), Just(1500)],
                0u8..3,
            ),
            1..12,
        ),
        0usize..14,
    )
}

/// Flattens rounds into operations. Under Wrap every arrival follows a
/// generous gap and every round drains fully, which keeps the live
/// window inside the quantizer's recycling slack; under Saturate rounds
/// may leave backlog and arrive back to back, so busy periods run long
/// enough to clamp.
fn program(rounds: &[Round], wrap: WrapPolicy) -> Vec<Op> {
    let mut ops = Vec::new();
    for (burst, pops) in rounds {
        for &(flow, bytes, gap) in burst {
            let gap = match (wrap, gap) {
                (WrapPolicy::Wrap, _) | (_, 2) => 0.1,
                (_, 1) => 1e-4,
                _ => 0.0,
            };
            ops.push(Op::Enqueue { flow, bytes, gap });
        }
        let pops = if wrap == WrapPolicy::Wrap {
            burst.len() + 1
        } else {
            *pops
        };
        ops.extend(std::iter::repeat_n(Op::Dequeue, pops));
    }
    ops
}

/// What a program drives and reads.
trait Queue {
    fn enqueue(&mut self, pkt: Packet) -> Result<(), SchedulerError>;
    fn dequeue(&mut self) -> Option<Packet>;
    fn stats(&self) -> SchedulerStats;
}

impl<B: SortBackend> Queue for HwScheduler<B, AnyPolicy> {
    fn enqueue(&mut self, pkt: Packet) -> Result<(), SchedulerError> {
        HwScheduler::enqueue(self, pkt)
    }
    fn dequeue(&mut self) -> Option<Packet> {
        HwScheduler::dequeue(self)
    }
    fn stats(&self) -> SchedulerStats {
        HwScheduler::stats(self)
    }
}

impl<B: SortBackend> Queue for Reference<B> {
    fn enqueue(&mut self, pkt: Packet) -> Result<(), SchedulerError> {
        Reference::enqueue(self, pkt)
    }
    fn dequeue(&mut self) -> Option<Packet> {
        Reference::dequeue(self)
    }
    fn stats(&self) -> SchedulerStats {
        Reference::stats(self)
    }
}

/// Runs a program, returning every operation's outcome, the final
/// drain, and `stats()`.
fn run(q: &mut impl Queue, ops: &[Op]) -> (Vec<String>, SchedulerStats) {
    let mut log = Vec::with_capacity(ops.len());
    let mut t = 0.0;
    for (seq, op) in ops.iter().enumerate() {
        match *op {
            Op::Enqueue { flow, bytes, gap } => {
                t += gap;
                let pkt = Packet {
                    flow: FlowId(flow),
                    size_bytes: bytes,
                    arrival: Time(t),
                    seq: seq as u64,
                };
                log.push(format!("enq {seq}: {:?}", q.enqueue(pkt)));
            }
            Op::Dequeue => log.push(format!("deq: {:?}", q.dequeue().map(|p| p.seq))),
        }
    }
    while let Some(p) = q.dequeue() {
        log.push(format!("drain: {}", p.seq));
    }
    (log, q.stats())
}

fn scheduler<B: SortBackend>(
    config: SchedulerConfig,
    proto: &AnyPolicy,
) -> HwScheduler<B, AnyPolicy> {
    HwScheduler::with_backend_and_policy(&flows(), RATE, config, proto)
}

fn check<B: SortBackend>(config: SchedulerConfig, proto: &AnyPolicy, ops: &[Op], cell: &str) {
    let (got, got_stats) = run(&mut scheduler::<B>(config, proto), ops);
    let (want, want_stats) = run(&mut Reference::<B>::new(&flows(), config, proto), ops);
    if let Some(i) = want.iter().zip(&got).position(|(a, b)| a != b) {
        panic!(
            "{cell}: scheduler diverges from the reference at step {i}\n  reference: {}\n  scheduler: {}",
            want[i], got[i]
        );
    }
    assert_eq!(want.len(), got.len(), "{cell}: step counts differ");
    assert_eq!(want_stats, got_stats, "{cell}: stats differ");
}

fn configs() -> Vec<(String, SchedulerConfig, AnyPolicy)> {
    let mut out = Vec::new();
    for wrap_policy in [WrapPolicy::Saturate, WrapPolicy::Wrap] {
        for admission in [
            AdmissionPolicy::TailDrop,
            AdmissionPolicy::PushOut,
            AdmissionPolicy::Wred {
                min_pct: 25,
                max_pct: 75,
                max_p_pm: 500,
            },
        ] {
            for name in ["wfq", "stfq", "srpt"] {
                let proto = AnyPolicy::by_name(name).expect("known policy");
                // Saturate at the policy's own scale clamps long busy
                // periods; Wrap at a third of the resolution laps the
                // 12-bit space within the recycling slack.
                let scale = match wrap_policy {
                    WrapPolicy::Saturate => 1.0,
                    WrapPolicy::Wrap => 3.0,
                };
                let config = SchedulerConfig {
                    geometry: Geometry::paper(),
                    capacity: 8,
                    tick_scale: proto.tick_scale(RATE) * scale,
                    wrap_policy,
                    admission,
                    ..SchedulerConfig::default()
                };
                out.push((format!("{wrap_policy:?}/{admission}/{name}"), config, proto));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scheduler_matches_the_shadow_set_reference(
        rounds in proptest::collection::vec(round_strategy(), 1..30),
    ) {
        for (cell, config, proto) in configs() {
            let ops = program(&rounds, config.wrap_policy);
            check::<SortRetrieveCircuit>(config, &proto, &ops, &format!("{cell}/trie"));
            check::<FfsSorter>(config, &proto, &ops, &format!("{cell}/fastpath"));
            check::<HeapSorter>(config, &proto, &ops, &format!("{cell}/heap"));
            check::<PipelinedSortBackend>(config, &proto, &ops, &format!("{cell}/pipelined"));
        }
    }
}

/// A fixed program reaches every mechanism the comparison is about:
/// clamps under Saturate, recycling under Wrap, and evictions under
/// push-out and WRED.
#[test]
fn a_fixed_program_reaches_clamps_recycles_and_evictions() {
    let rounds: Vec<Round> = (0..24u32)
        .map(|r| {
            let burst = (0..11)
                .map(|i| {
                    (
                        (r + i) % 3,
                        [1500, 64, 700][(i % 3) as usize],
                        (i % 3) as u8,
                    )
                })
                .collect();
            (burst, 4)
        })
        .collect();
    for (cell, config, proto) in configs() {
        let ops = program(&rounds, config.wrap_policy);
        check::<SortRetrieveCircuit>(config, &proto, &ops, &cell);
        let (_, stats) = run(&mut scheduler::<SortRetrieveCircuit>(config, &proto), &ops);
        if proto.monotone() {
            match config.wrap_policy {
                WrapPolicy::Saturate => assert!(stats.clamped > 0, "{cell}: no clamp"),
                WrapPolicy::Wrap => {
                    assert!(stats.circuit.recycled_sections > 0, "{cell}: no recycle")
                }
            }
        }
        if config.admission != AdmissionPolicy::TailDrop {
            assert!(stats.pushed_out > 0, "{cell}: no eviction");
        }
    }
}

/// The wrap-policy ablation of E4 against the reference: ~90 laps with
/// a warm backlog of 8 straddling each lap boundary and a full drain
/// per round, so the section counts must reproduce the shadow set's
/// inversion count.
#[test]
fn wrap_inversions_match_the_reference_across_many_laps() {
    let config = SchedulerConfig {
        tick_scale: 10.0,
        wrap_policy: WrapPolicy::Wrap,
        ..SchedulerConfig::default()
    };
    let proto = AnyPolicy::by_name("wfq").expect("known policy");
    let mut ops = Vec::new();
    for _ in 0..120 {
        for _ in 0..8 {
            ops.push(Op::Enqueue {
                flow: 1,
                bytes: 125,
                gap: 1e-3,
            });
        }
        for _ in 0..25 {
            ops.push(Op::Enqueue {
                flow: 1,
                bytes: 125,
                gap: 1e-3,
            });
            ops.push(Op::Dequeue);
        }
        ops.extend(std::iter::repeat_n(Op::Dequeue, 9));
    }
    let (_, stats) = run(&mut scheduler::<SortRetrieveCircuit>(config, &proto), &ops);
    assert!(
        stats.inversions > 0,
        "the sweep must straddle lap boundaries"
    );
    check::<SortRetrieveCircuit>(config, &proto, &ops, "lap sweep/trie");
    check::<FfsSorter>(config, &proto, &ops, "lap sweep/fastpath");
}

/// FNV-1a over the little-endian bytes — the checkpoint seal.
fn seal(words: &mut [u64]) {
    let (last, body) = words.split_last_mut().expect("non-empty");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in body.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    *last = hash;
}

/// Every older format is refused, not reinterpreted. Version 2 is the
/// last one whose hierarchical-WFQ state held every flow in every class
/// clock, so the image here is taken under that policy.
#[test]
fn older_checkpoint_versions_are_refused() {
    let config = SchedulerConfig::default();
    let hwfq = AnyPolicy::by_name("hwfq").expect("hwfq is a policy");
    let mut s = HwScheduler::<SortRetrieveCircuit, AnyPolicy>::with_backend_and_policy(
        &flows(),
        RATE,
        config,
        &hwfq,
    );
    for seq in 0..5 {
        s.enqueue(Packet {
            flow: FlowId(seq as u32 % 3),
            size_bytes: 500,
            arrival: Time(0.0),
            seq,
        })
        .unwrap();
    }
    let current = s.checkpoint().words().to_vec();
    assert_eq!(current[1], statesync::VERSION);
    for version in 1..statesync::VERSION {
        let mut words = current.clone();
        words[1] = version;
        seal(&mut words);
        let old = Checkpoint::from_words(words);
        let restored = HwScheduler::<SortRetrieveCircuit, AnyPolicy>::restore(
            &flows(),
            RATE,
            config,
            &hwfq,
            &old,
        );
        assert_eq!(
            restored.err(),
            Some(CheckpointError::BadVersion { found: version })
        );
    }
}
