//! Backend × workload conformance matrix.
//!
//! The `SortBackend` contract promises that swapping the sorting engine
//! never changes *what* the scheduler serves — only how fast the host
//! executes it. These tests pin that promise at the scheduler level:
//! the trie circuit (the paper's hardware), the FFS fast path (the
//! Eiffel-style software sorter), and the binary-heap oracle must
//! produce **identical departure sequences** on every seeded workload,
//! and identical per-operation outcomes (including errors) on adversarial
//! interleaves that wrap the virtual clock and recycle trie sections.
//!
//! A divergence fails with the first differing departure spelled out, so
//! a broken backend is diagnosable from the CI log alone.

use fairq::{AnyPolicy, RankPolicy};
use fastpath::FfsSorter;
use proptest::prelude::*;
use scheduler::{AdmissionPolicy, HwLinkSim, HwScheduler, SchedulerConfig, WrapPolicy};
use tagsort::{
    BackendSpec, CleanupPolicy, Geometry, HeapSorter, MemoryKind, PacketRef, PipelinedSortBackend,
    SortBackend, SortRetrieveCircuit, Tag,
};
use traffic::{generate, FlowId, FlowSpec, Packet, SizeDist, Time};

fn flows() -> Vec<FlowSpec> {
    vec![
        FlowSpec::new(FlowId(0), 4.0, 300_000.0).size(SizeDist::Fixed(140)),
        FlowSpec::new(FlowId(1), 1.0, 500_000.0).size(SizeDist::Imix),
        FlowSpec::new(FlowId(2), 2.0, 200_000.0).size(SizeDist::Fixed(700)),
    ]
}

/// One departure, reduced to what identity means for the contract: which
/// packet left, in which position.
type Dep = (u32, u64);

/// Panics with a readable first-divergence diff when two backends'
/// departure sequences differ.
fn assert_identical(workload: &str, ref_name: &str, reference: &[Dep], name: &str, got: &[Dep]) {
    if reference == got {
        return;
    }
    let i = reference
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| reference.len().min(got.len()));
    let window = |v: &[Dep]| {
        let lo = i.saturating_sub(2);
        v[lo..v.len().min(i + 3)].to_vec()
    };
    panic!(
        "workload `{workload}`: backend `{name}` diverges from `{ref_name}` \
         at departure #{i}\n  {ref_name}: ..{:?}.. ({} total)\n  {name}: ..{:?}.. ({} total)",
        window(reference),
        reference.len(),
        window(got),
        got.len(),
    );
}

/// Runs one workload through an egress link backed by `B`, returning the
/// departure sequence.
fn departures<B: SortBackend>(
    fl: &[FlowSpec],
    rate: f64,
    config: SchedulerConfig,
    trace: &[Packet],
) -> Vec<Dep> {
    let hw = HwScheduler::<B>::with_backend(fl, rate, config);
    HwLinkSim::new(rate, hw)
        .run(trace)
        .expect("conformance workloads fit the configuration")
        .into_iter()
        .map(|d| (d.packet.flow.0, d.packet.seq))
        .collect()
}

/// The CI matrix: every backend pair, across wrap policies, memory
/// technologies, and seeds. The trie circuit is the reference; fastpath
/// and the heap oracle must reproduce it departure for departure.
#[test]
fn backend_matrix_sequence_identity_on_seeded_workloads() {
    let fl = flows();
    let rate = 1e6;
    for seed in [31, 47, 202] {
        let trace = generate(&fl, 0.8, seed);
        for wrap_policy in [WrapPolicy::Saturate, WrapPolicy::Wrap] {
            for memory in [MemoryKind::SinglePort, MemoryKind::QdrLike] {
                let config = SchedulerConfig {
                    geometry: Geometry::new(4, 5),
                    capacity: 1 << 12,
                    tick_scale: 30.0,
                    wrap_policy,
                    memory,
                    ..SchedulerConfig::default()
                };
                let workload = format!("seed={seed}/{wrap_policy:?}/{memory:?}");
                let trie = departures::<SortRetrieveCircuit>(&fl, rate, config, &trace);
                assert_eq!(trie.len(), trace.len(), "{workload}: packet loss");
                let ffs = departures::<FfsSorter>(&fl, rate, config, &trace);
                let heap = departures::<HeapSorter>(&fl, rate, config, &trace);
                let pipelined = departures::<PipelinedSortBackend>(&fl, rate, config, &trace);
                assert_identical(&workload, "trie", &trie, "fastpath", &ffs);
                assert_identical(&workload, "trie", &trie, "heap", &heap);
                assert_identical(&workload, "trie", &trie, "pipelined", &pipelined);
            }
        }
    }
}

/// The policy dimension of the matrix: the `SortBackend` contract must
/// hold for *every* rank policy, not just the default WFQ — each policy
/// stresses a different tag distribution (bounded SRPT/priority ranks,
/// clustered FIFO+ timestamps, shaped leaky-bucket debt) against the
/// same three engines.
#[test]
fn backend_matrix_holds_for_every_rank_policy() {
    fn policy_departures<B: SortBackend>(
        fl: &[FlowSpec],
        rate: f64,
        config: SchedulerConfig,
        proto: &AnyPolicy,
        trace: &[Packet],
    ) -> Vec<Dep> {
        let hw = HwScheduler::<B, AnyPolicy>::with_backend_and_policy(fl, rate, config, proto);
        HwLinkSim::new(rate, hw)
            .run(trace)
            .expect("conformance workloads fit the configuration")
            .into_iter()
            .map(|d| (d.packet.flow.0, d.packet.seq))
            .collect()
    }
    let fl = flows();
    let rate = 1e6;
    for name in AnyPolicy::NAMES {
        let proto = AnyPolicy::by_name(name).expect("known policy");
        for admission in [AdmissionPolicy::TailDrop, AdmissionPolicy::PushOut] {
            let config = SchedulerConfig {
                geometry: Geometry::new(4, 5),
                capacity: 1 << 12,
                tick_scale: proto.tick_scale(rate),
                admission,
                ..SchedulerConfig::default()
            };
            let trace = generate(&fl, 0.6, 47);
            let workload = format!("policy={name}/{admission:?}");
            let trie = policy_departures::<SortRetrieveCircuit>(&fl, rate, config, &proto, &trace);
            assert_eq!(trie.len(), trace.len(), "{workload}: packet loss");
            let ffs = policy_departures::<FfsSorter>(&fl, rate, config, &proto, &trace);
            let heap = policy_departures::<HeapSorter>(&fl, rate, config, &proto, &trace);
            let pipelined =
                policy_departures::<PipelinedSortBackend>(&fl, rate, config, &proto, &trace);
            assert_identical(&workload, "trie", &trie, "fastpath", &ffs);
            assert_identical(&workload, "trie", &trie, "heap", &heap);
            assert_identical(&workload, "trie", &trie, "pipelined", &pipelined);
        }
    }
}

/// One step of a direct-drive program against a scheduler, with its
/// observable outcome — the unit of comparison for the adversarial
/// interleaves below.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Enqueued(Result<(), String>),
    Dequeued(Option<Dep>),
}

#[derive(Debug, Clone)]
enum Op {
    Enqueue { flow: u32, bytes: u32 },
    Dequeue,
}

/// Replays an op program against a fresh `B`-backed scheduler, recording
/// every observable outcome plus the final recycle counters.
fn replay<B: SortBackend>(
    fl: &[FlowSpec],
    config: SchedulerConfig,
    ops: &[Op],
) -> (Vec<Outcome>, u64, u64) {
    let mut hw = HwScheduler::<B>::with_backend(fl, 1e6, config);
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut seq = 0u64;
    let mut t = 0.0f64;
    for op in ops {
        match op {
            Op::Enqueue { flow, bytes } => {
                // Generous inter-arrival gaps let the GPS virtual clock
                // catch up to every flow's finish between rounds (V never
                // overshoots the max outstanding finish), so tags stay
                // pinned near V and cross-flow drift cannot accumulate
                // past the Wrap policy's recycling-slack bound.
                t += 0.1;
                let pkt = Packet {
                    flow: FlowId(*flow),
                    size_bytes: *bytes,
                    arrival: Time(t),
                    seq,
                };
                seq += 1;
                outcomes.push(Outcome::Enqueued(
                    hw.enqueue(pkt).map_err(|e| e.to_string()),
                ));
            }
            Op::Dequeue => {
                outcomes.push(Outcome::Dequeued(hw.dequeue().map(|p| (p.flow.0, p.seq))));
            }
        }
    }
    while let Some(p) = hw.dequeue() {
        outcomes.push(Outcome::Dequeued(Some((p.flow.0, p.seq))));
    }
    let stats = hw.stats();
    (
        outcomes,
        stats.circuit.recycled_sections,
        stats.circuit.recycled_markers,
    )
}

/// Panics with the first divergent operation when two replays differ.
fn assert_replay_identical(name: &str, reference: &[Outcome], got: &[Outcome]) {
    if reference == got {
        return;
    }
    let i = reference
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| reference.len().min(got.len()));
    panic!(
        "backend `{name}` diverges from `trie` at op #{i}:\n  \
         trie: {:?}\n  {name}: {:?}",
        reference.get(i),
        got.get(i),
    );
}

fn wrap_config(tick_scale: f64, capacity: usize) -> SchedulerConfig {
    SchedulerConfig {
        tick_scale,
        capacity,
        wrap_policy: WrapPolicy::Wrap,
        ..SchedulerConfig::default()
    }
}

/// The deterministic lap-sweep of the trie's wrap test, run on all three
/// backends at once: ~70 laps of the 12-bit tag space, with the
/// quantizer bulk-deleting (recycling) sections as the virtual clock
/// wraps, and — at capacity 1 — the buffer's 8-bit slot generation
/// wrapping its full 256-value range several times over.
#[test]
fn wrap_recycling_and_generation_reuse_agree_across_backends() {
    let fl = vec![FlowSpec::new(FlowId(0), 1.0, 1e6)];
    // Each 125-byte packet advances the tag by 100 ticks; drain lulls
    // every 25 packets keep the live window inside the lap (the same
    // shape as the trie's own wrap test).
    let mut ops = Vec::new();
    for _ in 0..120 {
        for _ in 0..25 {
            ops.push(Op::Enqueue {
                flow: 0,
                bytes: 125,
            });
            ops.push(Op::Dequeue);
        }
        for _ in 0..3 {
            ops.push(Op::Dequeue);
        }
    }
    // Capacity 1: every packet reuses the single buffer slot, so 3000
    // reuses sweep the 8-bit generation space ~12 times.
    let config = wrap_config(10.0, 1);
    let (trie, trie_sections, trie_markers) = replay::<SortRetrieveCircuit>(&fl, config, &ops);
    let (ffs, ffs_sections, ffs_markers) = replay::<FfsSorter>(&fl, config, &ops);
    let (heap, heap_sections, heap_markers) = replay::<HeapSorter>(&fl, config, &ops);
    let (pipe, pipe_sections, pipe_markers) = replay::<PipelinedSortBackend>(&fl, config, &ops);
    assert_replay_identical("fastpath", &trie, &ffs);
    assert_replay_identical("heap", &trie, &heap);
    assert_replay_identical("pipelined", &trie, &pipe);
    assert!(
        trie_sections > 0,
        "the sweep must actually exercise section recycling"
    );
    assert_eq!(
        (trie_sections, trie_markers),
        (ffs_sections, ffs_markers),
        "fastpath bulk-delete accounting diverged"
    );
    assert_eq!(
        (trie_sections, trie_markers),
        (heap_sections, heap_markers),
        "heap bulk-delete accounting diverged"
    );
    assert_eq!(
        (trie_sections, trie_markers),
        (pipe_sections, pipe_markers),
        "pipelined bulk-delete accounting diverged"
    );
}

/// A burst of arrivals followed by a full drain (plus a few extra pops
/// against the empty queue). Draining every round keeps the live-tag
/// window inside the Wrap policy's recycling-slack bound — the same
/// service-lull shape as the deterministic sweep above — while the burst
/// contents stay arbitrary.
fn round_strategy() -> impl Strategy<Value = (Vec<(u32, u32)>, usize)> {
    (
        proptest::collection::vec(
            (
                0u32..3,
                prop_oneof![Just(125u32), Just(700u32), Just(1500u32)],
            ),
            1..12,
        ),
        0usize..3,
    )
}

/// Flattens burst/drain rounds into the op program `replay` consumes.
fn rounds_to_ops(rounds: &[(Vec<(u32, u32)>, usize)]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (burst, extra_pops) in rounds {
        for &(flow, bytes) in burst {
            ops.push(Op::Enqueue { flow, bytes });
        }
        for _ in 0..burst.len() + extra_pops {
            ops.push(Op::Dequeue);
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bulk-delete equivalence under virtual-clock wrap: arbitrary
    /// burst/drain programs against a small wrap-mode scheduler (an
    /// 8-slot buffer, so bursts overflow it and slot generations recycle
    /// constantly) must agree across all three backends — per-operation
    /// outcomes including refusals, the full drain, and the
    /// section-recycle counters.
    #[test]
    fn wrapped_section_bulk_delete_is_backend_equivalent(
        rounds in proptest::collection::vec(round_strategy(), 1..60),
    ) {
        let fl = flows();
        let ops = rounds_to_ops(&rounds);
        // Coarse ticks: a worst-case burst (eleven 1500-byte packets on
        // the weight-1 flow) spans ~2200 ticks, inside the Wrap policy's
        // 3840-tick recycling-slack bound.
        let config = wrap_config(60.0, 8);
        let (trie, trie_sections, trie_markers) =
            replay::<SortRetrieveCircuit>(&fl, config, &ops);
        let (ffs, ffs_sections, ffs_markers) = replay::<FfsSorter>(&fl, config, &ops);
        let (heap, heap_sections, heap_markers) = replay::<HeapSorter>(&fl, config, &ops);
        let (pipe, pipe_sections, pipe_markers) =
            replay::<PipelinedSortBackend>(&fl, config, &ops);
        assert_replay_identical("fastpath", &trie, &ffs);
        assert_replay_identical("heap", &trie, &heap);
        assert_replay_identical("pipelined", &trie, &pipe);
        prop_assert_eq!((trie_sections, trie_markers), (ffs_sections, ffs_markers));
        prop_assert_eq!((trie_sections, trie_markers), (heap_sections, heap_markers));
        prop_assert_eq!((trie_sections, trie_markers), (pipe_sections, pipe_markers));
    }

    /// Hazard machinery must never leak into functional behaviour:
    /// arbitrary programs hammering back-to-back operations on a handful
    /// of trie sections — with section recycling standing in for
    /// virtual-clock laps and a tiny capacity forcing constant slot
    /// generation reuse — must be observation-identical between the deep
    /// pipeline and the sequential circuit oracle, and the pipeline's
    /// stall/forward/conflict counters must be a pure function of the op
    /// stream (identical across re-runs).
    #[test]
    fn back_to_back_section_traffic_matches_the_sequential_oracle(
        ops in proptest::collection::vec(direct_op_strategy(), 1..200),
    ) {
        let (oracle_log, _) = drive::<SortRetrieveCircuit>(&ops);
        let (pipe_log, pipe) = drive::<PipelinedSortBackend>(&ops);
        prop_assert_eq!(&oracle_log, &pipe_log, "pipelined diverges from the sequential oracle");
        let (replay_log, pipe_again) = drive::<PipelinedSortBackend>(&ops);
        prop_assert_eq!(&pipe_log, &replay_log, "pipelined replay diverged from itself");
        prop_assert_eq!(
            pipe.pipeline_stats(),
            pipe_again.pipeline_stats(),
            "stall/forward/conflict counts must be deterministic"
        );
    }

    /// `peek_max` names the tag `pop_max` would pop — the live maximum,
    /// never a stale lazy-cleanup marker — on every backend, under eager
    /// and lazy cleanup alike, and charges no cycles.
    #[test]
    fn peek_max_names_the_tag_pop_max_pops(
        ops in proptest::collection::vec(direct_op_strategy(), 1..200),
    ) {
        for cleanup in [CleanupPolicy::Eager, CleanupPolicy::Lazy] {
            check_peek_max::<SortRetrieveCircuit>(&ops, cleanup);
            check_peek_max::<FfsSorter>(&ops, cleanup);
            check_peek_max::<HeapSorter>(&ops, cleanup);
            check_peek_max::<PipelinedSortBackend>(&ops, cleanup);
        }
    }
}

/// Drives a direct program against a fresh `B`, checking before every
/// step that `peek_max` is the live maximum and leaves the cycle count
/// alone, and at every `PopMax` that the popped tag is the peeked one.
fn check_peek_max<B: SortBackend>(ops: &[DirectOp], cleanup: CleanupPolicy) {
    let mut backend = B::build(&BackendSpec {
        geometry: Geometry::paper(),
        capacity: 16,
        cleanup,
        memory: MemoryKind::SinglePort,
    });
    let mut live: Vec<Tag> = Vec::new();
    let take = |live: &mut Vec<Tag>, popped: Option<(Tag, PacketRef)>| {
        if let Some((tag, _)) = popped {
            let at = live.iter().position(|&t| t == tag).expect("popped live");
            live.swap_remove(at);
        }
    };
    let name = backend.name();
    for (i, op) in ops.iter().enumerate() {
        let cycles = backend.cycles();
        let peeked = backend.peek_max();
        assert_eq!(
            backend.cycles(),
            cycles,
            "{name}/{cleanup:?}: peek_max charged"
        );
        assert_eq!(
            peeked,
            live.iter().max().copied(),
            "{name}/{cleanup:?} before op #{i}: peek_max is not the live maximum"
        );
        match op {
            DirectOp::Insert { section, offset } => {
                let tag = Tag(u32::from(*section) << 8 | u32::from(*offset));
                if backend.insert(tag, PacketRef(i as u32)).is_ok() {
                    live.push(tag);
                }
            }
            DirectOp::PopMin => take(&mut live, backend.pop_min()),
            DirectOp::PopMax => {
                let popped = backend.pop_max();
                assert_eq!(popped.map(|(t, _)| t), peeked, "{name}/{cleanup:?} op #{i}");
                take(&mut live, popped);
            }
            DirectOp::Recycle { section } => {
                if !live.iter().any(|&t| t.0 >> 8 == u32::from(*section)) {
                    backend.recycle_section(u32::from(*section));
                }
            }
        }
    }
}

/// One direct-drive step against a bare `SortBackend`, biased so
/// consecutive ops frequently land in the same trie section (sections are
/// drawn from a pool of four) — the read-after-write shape the deep
/// pipeline's hazard unit exists for.
#[derive(Debug, Clone)]
enum DirectOp {
    Insert { section: u8, offset: u8 },
    PopMin,
    PopMax,
    Recycle { section: u8 },
}

fn direct_op_strategy() -> impl Strategy<Value = DirectOp> {
    prop_oneof![
        5 => (0u16..4, 0u16..256)
            .prop_map(|(section, offset)| DirectOp::Insert {
                section: section as u8,
                offset: offset as u8,
            }),
        3 => Just(DirectOp::PopMin),
        1 => Just(DirectOp::PopMax),
        1 => (0u8..4).prop_map(|section| DirectOp::Recycle { section }),
    ]
}

/// Replays a direct-drive program against a fresh `B` at the paper
/// geometry with a 16-tag capacity (so inserts overflow and refusals are
/// compared too), logging every observable outcome plus a full drain;
/// returns the backend for post-mortem inspection.
fn drive<B: SortBackend>(ops: &[DirectOp]) -> (Vec<String>, B) {
    let spec = BackendSpec {
        geometry: Geometry::paper(),
        capacity: 16,
        cleanup: CleanupPolicy::Eager,
        memory: MemoryKind::SinglePort,
    };
    let mut backend = B::build(&spec);
    let mut log = Vec::with_capacity(ops.len());
    // Live-tag shadow: recycling a section that still holds tags is a
    // contract violation (the circuit asserts on it), so the driver only
    // recycles empty sections — mirroring the quantizer, which recycles
    // only sections the virtual clock has fully drained.
    let mut live: Vec<Tag> = Vec::new();
    let section_of = |tag: Tag| tag.0 >> 8;
    for (i, op) in ops.iter().enumerate() {
        log.push(match op {
            DirectOp::Insert { section, offset } => {
                let tag = Tag(u32::from(*section) << 8 | u32::from(*offset));
                let result = backend.insert(tag, PacketRef(i as u32));
                if result.is_ok() {
                    live.push(tag);
                }
                format!("{result:?}")
            }
            DirectOp::PopMin => {
                let popped = backend.pop_min();
                if let Some((tag, _)) = popped {
                    let at = live.iter().position(|&t| t == tag).expect("popped live");
                    live.swap_remove(at);
                }
                format!("{popped:?}")
            }
            DirectOp::PopMax => {
                let popped = backend.pop_max();
                if let Some((tag, _)) = popped {
                    let at = live.iter().position(|&t| t == tag).expect("popped live");
                    live.swap_remove(at);
                }
                format!("{popped:?}")
            }
            DirectOp::Recycle { section } => {
                if live.iter().any(|&t| section_of(t) == u32::from(*section)) {
                    "recycle skipped (live section)".to_string()
                } else {
                    format!("recycled {}", backend.recycle_section(u32::from(*section)))
                }
            }
        });
    }
    while let Some(popped) = backend.pop_min() {
        log.push(format!("{popped:?}"));
    }
    log.push(format!("len {}", backend.len()));
    (log, backend)
}
