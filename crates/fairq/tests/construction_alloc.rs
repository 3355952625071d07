//! Building the WFQ rank policy for a link allocates its per-flow
//! records and nothing of the same size beside them.
//!
//! At 2^20 flows the GPS clock's 16-byte records cost 16 MiB. A dense
//! per-flow weight vector built on the way would add 8 MiB more to the
//! construction peak. A counting global allocator tracks live bytes and
//! their peak while `WfqRank::for_link` runs.
//!
//! This file holds one test so that no other test's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fairq::{RankPolicy, WfqRank};
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
fn building_wfq_for_a_million_flows_peaks_at_its_records() {
    const FLOWS: u32 = 1 << 20;
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, 1e6))
        .collect();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let policy = WfqRank::default().for_link(&flows, 10e9);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        peak < 17 * MIB,
        "for_link peaked at {:.1} MiB for {FLOWS} flows",
        peak as f64 / MIB as f64
    );
    assert_eq!(policy.clock().busy_sessions(), 0);
}
