//! Paged state at the scheduler level: the trie circuit builds its
//! translation table and tag store paged, so a scheduler's resident
//! footprint follows live tags instead of the tag universe.
//!
//! That paging is invisible to the datapath is pinned one layer down,
//! where the paged arrays are driven against plain `Vec` reference
//! models (`crates/core/tests/paged_reference.rs` and
//! `crates/hwsim/tests/sram_reference.rs`), and end to end by the
//! backend matrix, whose trie runs are paged.

use scheduler::{HwScheduler, SchedulerConfig};
use tagsort::{Geometry, SortRetrieveCircuit};
use traffic::{generate, FlowId, FlowSpec, SizeDist};

fn flows() -> Vec<FlowSpec> {
    vec![
        FlowSpec::new(FlowId(0), 4.0, 300_000.0).size(SizeDist::Fixed(140)),
        FlowSpec::new(FlowId(1), 1.0, 500_000.0).size(SizeDist::Imix),
        FlowSpec::new(FlowId(2), 2.0, 200_000.0).size(SizeDist::Fixed(700)),
    ]
}

/// Resident memory is a live-tag figure, not a universe figure: a
/// scheduler holding a handful of packets keeps a small fraction of
/// the tag universe's words resident, and never grows residency while
/// it drains.
#[test]
fn paged_resident_memory_tracks_live_tags() {
    let fl = flows();
    let trace = generate(&fl, 0.5, 31);
    let config = SchedulerConfig {
        geometry: Geometry::new(4, 5),
        capacity: 1 << 12,
        tick_scale: 30.0,
        ..SchedulerConfig::default()
    };
    let mut hw = HwScheduler::<SortRetrieveCircuit>::with_backend(&fl, 1e6, config);
    let before = hw.resident_memory().expect("the trie models memory");
    for p in &trace {
        hw.enqueue(*p).expect("trace fits");
    }
    let loaded = hw.resident_memory().expect("the trie models memory");
    while hw.dequeue().is_some() {}
    let drained = hw.resident_memory().expect("the trie models memory");

    assert!(
        loaded.resident_words > before.resident_words,
        "pages materialize on write"
    );
    assert!(
        loaded.peak_resident_words * 4 < loaded.total_words,
        "peak resident {} should stay well under the {}-word universe",
        loaded.peak_resident_words,
        loaded.total_words
    );
    assert!(
        drained.resident_words <= loaded.resident_words,
        "draining must never grow residency"
    );
    // The compatibility call only reports that the state is paged.
    assert!(hw.set_paged_state());
    assert_eq!(hw.resident_memory(), Some(drained));
}
