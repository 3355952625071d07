//! Property tests for the tag quantizer: monotonicity, clamping, and the
//! circular recycling order, under arbitrary virtual-time trajectories.

use proptest::prelude::*;

use fairq::VirtualTime;
use scheduler::{TagQuantizer, WrapPolicy};
use tagsort::Geometry;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ticks never decrease for a monotone virtual-time input, under
    /// either policy, and the clamped flag fires exactly when the tick
    /// was reduced.
    #[test]
    fn ticks_are_monotone(
        steps in proptest::collection::vec(0.0f64..500.0, 1..200),
        saturate in proptest::bool::ANY,
    ) {
        let policy = if saturate { WrapPolicy::Saturate } else { WrapPolicy::Wrap };
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, policy);
        let mut v = 0.0;
        let mut last_tick = 0u64;
        // Track a window of outstanding ticks (drain aggressively so the
        // wrap policy's slack bound holds for any generated trajectory).
        let mut outstanding: std::collections::VecDeque<u64> = Default::default();
        for s in steps {
            v += s;
            let min = outstanding.front().copied();
            // Keep the window under half a lap.
            let out = q.quantize(VirtualTime(v), min);
            prop_assert!(out.tick >= last_tick, "tick went backwards");
            prop_assert_eq!(
                out.tag.value() as u64,
                out.tick % 4096,
                "tag is the wrapped tick"
            );
            last_tick = out.tick;
            outstanding.push_back(out.tick);
            while outstanding.len() > 4
                || outstanding
                    .front()
                    .is_some_and(|&f| out.tick - f > 1800)
            {
                outstanding.pop_front();
            }
        }
    }

    /// Under Saturate, every assigned tick stays in lap 0 — the
    /// invariant that makes modular reduction order-preserving — and no
    /// section is ever recycled, whatever minimum the caller passes.
    #[test]
    fn saturate_confines_ticks_to_lap_zero(
        steps in proptest::collection::vec(0.0f64..3000.0, 1..150),
    ) {
        let mut q = TagQuantizer::new(Geometry::paper(), 1.0);
        let mut v = 0.0;
        let mut outstanding: Vec<u64> = Vec::new();
        for s in steps {
            v += s;
            let min = outstanding.iter().min().copied();
            let out = q.quantize(VirtualTime(v), min);
            prop_assert_eq!(out.tick / 4096, 0, "tick left lap 0");
            prop_assert_eq!(out.tag.value() as u64, out.tick, "tick is the tag");
            prop_assert!(out.recycle.is_empty(), "saturate recycled a section");
            outstanding.push(out.tick);
            if outstanding.len() > 6 {
                outstanding.remove(0);
            }
        }
    }

    /// Recycled sections always appear in circular order with no skips,
    /// whatever the trajectory (Wrap policy, bounded window).
    #[test]
    fn recycling_is_circular_and_gapless(
        steps in proptest::collection::vec(1.0f64..300.0, 1..300),
    ) {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let mut v = 0.0;
        let mut expected_next: Option<u32> = Some(0);
        for s in steps {
            v += s;
            // Keep the window trivially small: nothing outstanding.
            let out = q.quantize(VirtualTime(v), None);
            for r in out.recycle {
                prop_assert_eq!(Some(r), expected_next, "out-of-order recycle");
                expected_next = Some((r + 1) % 16);
            }
        }
    }

    /// Rebase restarts numbering without ever producing a smaller
    /// virtual-time base than before (monotone bases).
    #[test]
    fn rebase_roundtrip(jumps in proptest::collection::vec(0.0f64..5000.0, 1..50)) {
        let mut q = TagQuantizer::new(Geometry::paper(), 2.0);
        let mut v = 0.0;
        for j in jumps {
            v += j;
            q.rebase(VirtualTime(v));
            let out = q.quantize(VirtualTime(v + 10.0), None);
            // 10 virtual units / scale 2 = 5 ticks, minus at most one
            // tick of floating-point floor slack.
            prop_assert!((4..=5).contains(&out.tick), "tick {}", out.tick);
            prop_assert!(!out.clamped);
        }
    }
}
