//! What the scheduler allocates, counted by a global allocator that
//! tracks live bytes, their peak and the number of allocation calls.
//!
//! - Building a hardware scheduler allocates its per-flow and per-slot
//!   records and nothing of the same size beside them: at 2^20 flows
//!   and a 2^18-packet buffer, 16 MiB of 16-byte GPS flow records and
//!   12 MiB of 48-byte slot records, plus a 4-byte free-list entry per
//!   slot (1 MiB) and the fastpath sorter's arrays (under 0.1 MiB):
//!   31.06 MiB in all. The bound leaves under 0.2 MiB above that, so
//!   a second per-slot sideband array (8 MiB) fails it, and so does a
//!   transient per-flow byte such as the 1 MiB `seen` flag vector the
//!   build once kept beside the rank policy's own check of the ids.
//! - The inline sharded frontend's per-packet path allocates nothing:
//!   each enqueue and dequeue is a direct call on its port. The setup
//!   follows the `sharded_overload` benchmark workload (FFS sorter,
//!   STFQ ranks, push-out, dynamic placement, telemetry attached).
//!
//! The tests take a lock so that no other test's allocations land in
//! a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use fairq::{RankPolicy, StfqRank, WfqRank};
use fastpath::FfsSorter;
use scheduler::{AdmissionPolicy, HwScheduler, Placement, SchedulerConfig, ShardedScheduler};
use tagsort::Geometry;
use telemetry::Telemetry;
use traffic::{FlowId, FlowSpec, Packet, Time};

/// Tracks the bytes currently allocated, their high-water mark, and the
/// allocation calls made.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn grow(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwards the caller's layout to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counts the old and new blocks as live together, as a moving
        // reallocation holds both.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

#[test]
fn building_a_million_flow_scheduler_peaks_at_its_records() {
    let _lock = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    const FLOWS: u32 = 1 << 20;
    const CAPACITY: usize = 1 << 18;
    const LINK_BPS: f64 = 10e9;
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, LINK_BPS / f64::from(FLOWS)))
        .collect();
    let config = SchedulerConfig {
        capacity: CAPACITY,
        geometry: Geometry::new(6, 3),
        tick_scale: WfqRank::default().tick_scale(LINK_BPS),
        ..SchedulerConfig::default()
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let sched = HwScheduler::<FfsSorter, WfqRank>::with_backend(&flows, LINK_BPS, config);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        peak < 31 * MIB + MIB / 4,
        "HwScheduler construction peaked at {:.1} MiB for {FLOWS} flows and {CAPACITY} slots",
        peak as f64 / MIB as f64
    );
    assert_eq!(sched.stats().buffer.occupied, 0);
}

#[test]
fn inline_sharded_enqueue_dequeue_pairs_allocate_nothing() {
    const PORTS: usize = 4;
    const FLOWS: u64 = 64;
    const BACKLOG: u64 = 256;
    const PAIRS: u64 = 100_000;
    const PORT_BPS: f64 = 1e9;
    let _lock = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let flows: Vec<FlowSpec> = (0..FLOWS as u32)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, 1e6))
        .collect();
    let config = SchedulerConfig {
        capacity: 1 << 10,
        tick_scale: StfqRank::default().tick_scale(PORT_BPS),
        admission: AdmissionPolicy::PushOut,
        ..SchedulerConfig::default()
    };
    let mut fe = ShardedScheduler::<FfsSorter, StfqRank>::with_policy_port_rates_placement(
        &flows,
        &[PORT_BPS; PORTS],
        config,
        &StfqRank::default(),
        Placement::Dynamic,
    );
    fe.attach_telemetry(&Telemetry::new(PORTS));
    let packet = |seq: u64| Packet {
        flow: FlowId((seq.wrapping_mul(0x9e37_79b9) % FLOWS) as u32),
        size_bytes: 64 + (seq % 1437) as u32,
        arrival: Time(seq as f64 * 1e-7),
        seq,
    };
    let mut pairs = |from: u64, to: u64| {
        for seq in from..to {
            fe.enqueue(packet(seq))
                .expect("push-out admits every arrival");
            if seq >= BACKLOG {
                fe.dequeue().expect("a standing backlog");
            }
        }
    };
    // Warm-up: a standing backlog, then as many pairs again as are
    // counted, so every port's structures reach their working size.
    pairs(0, BACKLOG + PAIRS);
    let before = CALLS.load(Ordering::Relaxed);
    pairs(BACKLOG + PAIRS, BACKLOG + 2 * PAIRS);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        calls, 0,
        "{PAIRS} enqueue/dequeue pairs allocated {calls} times"
    );
}
