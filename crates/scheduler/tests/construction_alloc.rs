//! Building a hardware scheduler allocates its per-flow and per-slot
//! records and nothing of the same size beside them.
//!
//! At 2^20 flows and a 2^18-packet buffer the GPS clock's 16-byte flow
//! records cost 16 MiB and the buffer's 48-byte slot records 12 MiB,
//! with a 4-byte free-list entry per slot and the fastpath sorter's
//! arrays on top. A second per-slot array of sideband records beside the
//! buffer would add 8 MiB more. A counting global allocator tracks live
//! bytes and their peak while `HwScheduler::with_backend` runs.
//!
//! This file holds one test so that no other test's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fairq::{RankPolicy, WfqRank};
use fastpath::FfsSorter;
use scheduler::{HwScheduler, SchedulerConfig};
use tagsort::Geometry;
use traffic::{FlowId, FlowSpec};

/// Tracks the bytes currently allocated and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
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
        peak < 33 * MIB,
        "HwScheduler construction peaked at {:.1} MiB for {FLOWS} flows and {CAPACITY} slots",
        peak as f64 / MIB as f64
    );
    assert_eq!(sched.stats().buffer.occupied, 0);
}
