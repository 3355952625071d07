//! Building the trie circuit allocates no tag-space-sized table.
//!
//! At the campaign soak's 6×4 geometry the tag space has 2^24 values.
//! A translation table allocated up front at 8 bytes an entry would
//! cost 128 MiB before the first packet; the paged table costs a page
//! directory. A counting global allocator measures what `build` asks
//! for, and the circuit's own residency accounting is checked after
//! traffic.
//!
//! This file holds one test so that no other test's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tagsort::{
    BackendSpec, CleanupPolicy, Geometry, MemoryKind, PacketRef, SortBackend, SortRetrieveCircuit,
    Tag,
};

/// Counts every byte requested from the system allocator.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwards the caller's layout to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

#[test]
fn building_the_soak_geometry_allocates_no_tag_space_table() {
    let spec = BackendSpec {
        geometry: Geometry::new(6, 4),
        capacity: 1 << 14,
        cleanup: CleanupPolicy::Eager,
        memory: MemoryKind::SinglePort,
    };
    let before = ALLOCATED.load(Ordering::Relaxed);
    let mut circuit = SortRetrieveCircuit::build(&spec);
    let built = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(
        built < 8 * MIB,
        "build allocated {:.1} MiB for a 2^24-value tag space",
        built as f64 / MIB as f64
    );

    // A few thousand operations over a drifting tag window: the state
    // that becomes resident follows the live tags, not the tag space.
    for round in 0..3_000u32 {
        let tag = Tag((round * 97) % (1 << 16));
        circuit.insert(tag, PacketRef(round)).unwrap();
        if round % 3 != 0 {
            circuit.pop_min().unwrap();
        }
    }
    while circuit.pop_min().is_some() {}
    // The on-chip trie (266,305 node words here) is always resident;
    // the translation table and the tag store add only their live pages.
    let mem = circuit.resident_memory();
    assert!(
        mem.peak_resident_words * 32 < mem.total_words,
        "peak resident {} of {} words",
        mem.peak_resident_words,
        mem.total_words
    );
}
