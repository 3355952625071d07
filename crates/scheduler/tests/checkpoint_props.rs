//! Property tests for checkpoint/restore determinism.
//!
//! The pinned invariant of [`HwScheduler::checkpoint`] /
//! [`HwScheduler::restore`]: splitting a run at **any** point —
//! checkpoint, restore into a fresh scheduler, continue — produces the
//! departure sequence of the unsplit run, packet for packet, across
//! every sorting backend and every rank policy. Example-based tests pin a few split points; this sweeps
//! seeded workloads and arbitrary splits over the whole matrix.

use fairq::{AnyPolicy, RankPolicy};
use fastpath::FfsSorter;
use proptest::prelude::*;
use scheduler::{HwScheduler, SchedulerConfig, WrapPolicy};
use tagsort::{HeapSorter, PipelinedSortBackend, SortBackend, SortRetrieveCircuit};
use traffic::{generate, ArrivalProcess, FlowId, FlowSpec, SizeDist};

const RATE: f64 = 1e6;

fn flows() -> Vec<FlowSpec> {
    [4.0, 1.0, 2.0, 1.0]
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            FlowSpec::new(FlowId(i as u32), w, RATE / 5.0)
                .size(SizeDist::Bimodal {
                    small: 64,
                    large: 1200,
                    p_small: 0.5,
                })
                .arrivals(ArrivalProcess::Poisson)
        })
        .collect()
}

fn config(proto: &AnyPolicy) -> SchedulerConfig {
    SchedulerConfig {
        tick_scale: proto.tick_scale(RATE),
        capacity: 1 << 10,
        wrap_policy: WrapPolicy::Saturate,
        ..SchedulerConfig::default()
    }
}

/// One deterministic program step: enqueue the next packet, and after
/// every third enqueue serve one packet — so the split lands in a
/// half-drained queue, not at a quiet boundary.
///
/// Runs the program over `trace`, splitting at `split` (checkpoint →
/// restore → continue) when `Some`, and returns the full departure
/// sequence as `(flow, seq)` pairs.
fn run_program<B: SortBackend>(
    proto: &AnyPolicy,
    trace: &[traffic::Packet],
    split: Option<usize>,
) -> Vec<(u32, u64)> {
    let fl = flows();
    let mut sched =
        HwScheduler::<B, AnyPolicy>::with_backend_and_policy(&fl, RATE, config(proto), proto);
    let mut out = Vec::new();
    for (i, pkt) in trace.iter().enumerate() {
        if Some(i) == split {
            let ckpt = sched.checkpoint();
            ckpt.verify().expect("fresh checkpoint verifies");
            sched = HwScheduler::<B, AnyPolicy>::restore(&fl, RATE, config(proto), proto, &ckpt)
                .expect("uncorrupted checkpoint restores");
        }
        sched.enqueue(*pkt).expect("capacity covers the trace");
        if i % 3 == 2 {
            if let Some(p) = sched.dequeue() {
                out.push((p.flow.0, p.seq));
            }
        }
    }
    while let Some(p) = sched.dequeue() {
        out.push((p.flow.0, p.seq));
    }
    out
}

fn check_split(backend: usize, policy: &str, seed: u64, split_frac: f64) {
    let proto = AnyPolicy::by_name(policy).unwrap();
    let trace = generate(&flows(), 0.5, seed);
    assert!(!trace.is_empty(), "0.5 s of 4-flow traffic is never empty");
    let split = ((trace.len() - 1) as f64 * split_frac) as usize;
    let run = |s: Option<usize>| match backend {
        0 => run_program::<SortRetrieveCircuit>(&proto, &trace, s),
        1 => run_program::<FfsSorter>(&proto, &trace, s),
        2 => run_program::<HeapSorter>(&proto, &trace, s),
        3 => run_program::<PipelinedSortBackend>(&proto, &trace, s),
        _ => unreachable!(),
    };
    let unsplit = run(None);
    let rejoined = run(Some(split));
    assert_eq!(
        unsplit,
        rejoined,
        "departure sequence diverged: backend {backend}, policy {policy}, \
         seed {seed}, split {split}/{}",
        trace.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any split point, any backend × policy: the
    /// checkpointed-and-restored run departs identically to the
    /// unsplit one.
    #[test]
    fn any_split_point_restores_the_exact_departure_sequence(
        backend in 0usize..4,
        policy in prop_oneof![
            Just("wfq"), Just("stfq"), Just("srpt"), Just("fifo+"),
            Just("prio"), Just("leaky"), Just("hwfq"),
        ],
        seed in 0u64..1_000,
        split_frac in 0.0f64..1.0,
    ) {
        check_split(backend, policy, seed, split_frac);
    }
}

/// The full matrix at one fixed seed and mid-run split, so every
/// backend × policy pair is exercised on every CI run (the proptest
/// above samples the space; this pins the corners).
#[test]
fn every_backend_and_policy_survives_a_mid_run_split() {
    for backend in 0..4 {
        for policy in AnyPolicy::NAMES {
            check_split(backend, policy, 7, 0.5);
        }
    }
}
