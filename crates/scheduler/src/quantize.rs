//! Finishing-tag quantization and wrap-around (paper Fig. 6).
//!
//! The WFQ virtual clock produces unbounded real-valued tags; the silicon
//! sorts fixed-width integers. The quantizer divides virtual time into
//! ticks and maps each tag onto the circular W-bit space, recycling
//! top-level sections as the window advances — the Fig. 6 protocol.
//!
//! One subtlety the paper does not spell out: when live tags straddle the
//! wrap boundary, a *linear* sorter would serve just-wrapped (logically
//! newest) tags before the old lap's largest tags. This module makes the
//! resolution explicit via [`WrapPolicy`]:
//!
//! * [`WrapPolicy::Saturate`] (default) — the tag window is lap 0: every
//!   tick at or above 2^W is clamped to 2^W − 1, whatever is queued. So
//!   tick and tag coincide for every live tag, service order is
//!   preserved exactly, and Saturate never recycles a section. The
//!   clamp introduces a bounded quantization error that disappears once
//!   the system drains empty and the base is rebased.
//! * [`WrapPolicy::Wrap`] — the paper-literal behaviour: tags wrap
//!   modulo 2^W. Order inversions at the boundary are possible and are
//!   *measured* by experiment E4 rather than hidden.

use fairq::VirtualTime;
use tagsort::{Geometry, Tag};

/// How tags behave at the top of the W-bit range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapPolicy {
    /// Clamp ticks past the range top to 2^W − 1 until the system drains
    /// (order-preserving; bounded extra quantization error).
    #[default]
    Saturate,
    /// Wrap modulo 2^W, as the paper describes; boundary inversions are
    /// possible and left observable.
    Wrap,
}

/// Result of quantizing one finishing tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizeOutcome {
    /// The W-bit tag to hand to the sorter.
    pub tag: Tag,
    /// The unwrapped tick the tag was derived from (equal to the tag
    /// under [`WrapPolicy::Saturate`]).
    pub tick: u64,
    /// Sections that must be recycled (cleared) before this tag is
    /// inserted, in circular order — usually empty or one entry; more
    /// after a large virtual-time jump.
    pub recycle: Vec<u32>,
    /// Whether the saturate policy clamped this tag.
    pub clamped: bool,
}

/// Maps continuous [`VirtualTime`] finishing tags onto the sorter's
/// circular integer space.
///
/// # Example
///
/// ```
/// use fairq::VirtualTime;
/// use scheduler::TagQuantizer;
/// use tagsort::Geometry;
///
/// let mut q = TagQuantizer::new(Geometry::paper(), 100.0); // 100 v-units per tick
/// let out = q.quantize(VirtualTime(1234.0), None);
/// assert_eq!(out.tag.value(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct TagQuantizer {
    geometry: Geometry,
    /// Virtual-time units per tag tick.
    scale: f64,
    policy: WrapPolicy,
    /// Virtual time corresponding to tick 0 of the current numbering.
    base: f64,
    /// Ticks per top-level section.
    section_ticks: u64,
    /// Last section that was prepared (recycled) for allocation.
    prepared_through: u64,
    clamped: u64,
}

impl TagQuantizer {
    /// Creates a quantizer with `scale` virtual units per tag tick.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn new(geometry: Geometry, scale: f64) -> Self {
        Self::with_policy(geometry, scale, WrapPolicy::default())
    }

    /// Creates a quantizer with an explicit wrap policy.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_policy(geometry: Geometry, scale: f64, policy: WrapPolicy) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        let section_ticks = geometry.tag_space() / u64::from(geometry.sections());
        Self {
            geometry,
            scale,
            policy,
            base: 0.0,
            section_ticks,
            prepared_through: geometry.tag_space() - 1,
            clamped: 0,
        }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Virtual units per tick.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// How many tags the saturate policy has clamped so far.
    pub fn clamped_count(&self) -> u64 {
        self.clamped
    }

    /// The wrap policy in force.
    pub fn policy(&self) -> WrapPolicy {
        self.policy
    }

    /// Quantizes a finishing tag. Under [`WrapPolicy::Wrap`],
    /// `min_outstanding_tick` is the smallest [`QuantizeOutcome::tick`]
    /// of earlier calls whose tags are still queued (`None` when the
    /// sorter is empty), and bounds the live window; under
    /// [`WrapPolicy::Saturate`] it is ignored, because the window is
    /// always lap 0.
    ///
    /// Returns the sorter tag plus any sections that must be recycled
    /// first (never any under Saturate). Callers must perform the
    /// recycling *before* inserting the tag.
    ///
    /// # Panics
    ///
    /// Panics if `finish` precedes the current base (virtual time never
    /// runs backwards) or if — under [`WrapPolicy::Wrap`] — the live
    /// window leaves less than one section of recycling slack, which no
    /// wrap protocol can recover.
    pub fn quantize(
        &mut self,
        finish: VirtualTime,
        min_outstanding_tick: Option<u64>,
    ) -> QuantizeOutcome {
        assert!(
            finish.value() >= self.base - 1e-9,
            "virtual time ran backwards past the quantizer base"
        );
        let space = self.geometry.tag_space();
        // `as u64` truncates and saturates, so it equals `.floor() as
        // u64` on every f64 (a negative or NaN tick is 0 either way)
        // without the software `floor` of the baseline x86-64 target.
        let mut tick = ((finish.value() - self.base) / self.scale) as u64;
        let mut clamped = false;
        if self.policy == WrapPolicy::Saturate {
            // Modular reduction is monotone only within one lap, so every
            // live tick stays in lap 0: clamping to its top keeps tick ==
            // tag and order exact. A clamp anchored anywhere else could
            // re-anchor when a lower tick arrives later in the busy
            // period and serve packets out of order. The rebase when the
            // sorter drains restores headroom.
            if tick > space - 1 {
                tick = space - 1;
                clamped = true;
                self.clamped += 1;
            }
        } else {
            // (saturating: PGPS may legitimately emit a tag below the
            // smallest outstanding one; the window is then zero.)
            // One section of slack guarantees that when allocation enters
            // a wrapped section, the same section of the previous lap has
            // fully drained — the precondition for recycling it.
            let window = tick.saturating_sub(min_outstanding_tick.unwrap_or(tick));
            assert!(
                window <= space - self.section_ticks,
                "live tag window ({window} ticks) leaves no recycling slack"
            );
        }
        // Recycle any sections this tick newly enters. No lookahead: a
        // section is cleared exactly when its first wrapped tick is
        // allocated, at which point the window bound above guarantees the
        // previous lap's occupants of that section have departed.
        let mut recycle = Vec::new();
        while self.prepared_through < tick {
            let next_section_base = self.prepared_through + 1;
            let section =
                (next_section_base / self.section_ticks) % u64::from(self.geometry.sections());
            recycle.push(section as u32);
            self.prepared_through = next_section_base + self.section_ticks - 1;
        }
        QuantizeOutcome {
            // The tag space is a power of two: the mask is `tick % space`.
            tag: Tag((tick & (space - 1)) as u32),
            tick,
            recycle,
            clamped,
        }
    }

    /// Rebases tick 0 to virtual time `at` — call when the sorter drains
    /// empty so tick numbering (and float precision) restarts cleanly.
    pub fn rebase(&mut self, at: VirtualTime) {
        self.base = at.value();
        self.prepared_through = self.geometry.tag_space() - 1;
    }

    /// The quantizer's mutable state as checkpoint words (base, a
    /// reserved word, section preparation cursor, clamp count).
    /// Configuration — geometry, scale, policy — is not included: a
    /// restore rebuilds the quantizer identically configured and then
    /// loads these words.
    pub fn state_words(&self) -> Vec<u64> {
        vec![
            self.base.to_bits(),
            0, // reserved, so the four-word layout is unchanged
            self.prepared_through,
            self.clamped,
        ]
    }

    /// Restores the state captured by [`TagQuantizer::state_words`].
    ///
    /// # Panics
    ///
    /// Panics if the word count is wrong.
    pub fn load_state_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), 4, "quantizer state is four words");
        self.base = f64::from_bits(words[0]);
        // words[1] is reserved (a tick high-water mark nothing read).
        self.prepared_through = words[2];
        self.clamped = words[3];
    }
}

/// Live-entry counts per top-level section under [`WrapPolicy::Wrap`]
/// (Fig. 6's recycle unit, at most 64 sections), with a cursor on the
/// oldest live one — the Wrap window, kept by the scheduler as entries
/// are queued and leave.
///
/// The recycle guard never lets allocation enter a section whose
/// previous lap is still queued, so live sections are distinct modulo
/// the section count and can be counted by the tag's section. (An
/// arrival a whole lap below the newest queued tick would alias two
/// laps in one count; the counts assume PGPS lag never reaches that
/// far.) That answers both questions the
/// scheduler asks: recycling a section is safe exactly when its count
/// is zero, and a served entry is an inversion exactly when it did not
/// come from the oldest live section. (Within one section the sorter
/// serves ticks in order, so it can only overtake across sections.)
#[derive(Debug, Clone)]
pub(crate) struct SectionCounts {
    live: Vec<u32>,
    /// Absolute section (tick ÷ section ticks) of the oldest queued
    /// entry; stale while nothing is queued.
    oldest: u64,
    queued: u64,
    section_ticks: u64,
}

impl SectionCounts {
    pub(crate) fn new(geometry: Geometry) -> Self {
        let sections = geometry.sections();
        Self {
            live: vec![0; sections as usize],
            oldest: 0,
            queued: 0,
            section_ticks: geometry.tag_space() / u64::from(sections),
        }
    }

    /// Counts a queued entry quantized to `tick`.
    pub(crate) fn admit(&mut self, tick: u64) {
        let abs = tick / self.section_ticks;
        if self.queued == 0 || abs < self.oldest {
            self.oldest = abs;
        }
        self.queued += 1;
        let section = abs % self.live.len() as u64;
        self.live[section as usize] += 1;
    }

    /// Uncounts an entry of `section`, returning whether it lay outside
    /// the oldest live section (an inversion, when the entry was served).
    pub(crate) fn retire(&mut self, section: u8) -> bool {
        let n = self.live.len() as u64;
        self.live[usize::from(section)] -= 1;
        self.queued -= 1;
        if u64::from(section) != self.oldest % n {
            return true;
        }
        while self.queued > 0 && self.live[(self.oldest % n) as usize] == 0 {
            self.oldest += 1;
        }
        false
    }

    /// The Fig. 6 recycle guard: allocation may enter a wrapped section
    /// only once the previous lap's entries in it have all departed.
    ///
    /// # Panics
    ///
    /// Panics if `section` still holds queued entries.
    pub(crate) fn assert_recyclable(&self, section: u32) {
        let live = self.live[section as usize];
        assert!(
            live == 0,
            "live tag window leaves no recycling slack ({live} tags still queued in section {section})"
        );
    }

    /// The oldest-section cursor, for checkpoints.
    pub(crate) fn oldest(&self) -> u64 {
        self.oldest
    }

    /// Recounts restored entries from their tags' sections, with the
    /// checkpointed cursor.
    pub(crate) fn reload(&mut self, sections: impl Iterator<Item = u32>, oldest: u64) {
        for section in sections {
            self.live[section as usize] += 1;
            self.queued += 1;
        }
        self.oldest = oldest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quant() -> TagQuantizer {
        // 12-bit space (4096 ticks), 16 sections of 256 ticks.
        TagQuantizer::new(Geometry::paper(), 1.0)
    }

    #[test]
    fn quantizes_by_scale() {
        let mut q = TagQuantizer::new(Geometry::paper(), 100.0);
        let out = q.quantize(VirtualTime(1234.0), None);
        assert_eq!(out.tag, Tag(12));
        assert_eq!(out.tick, 12);
        assert!(!out.clamped);
        assert!(out.recycle.is_empty());
    }

    /// The truncating cast and the mask the quantizer uses agree with
    /// `floor` and `%` on every edge of the tick range.
    #[test]
    fn truncation_and_mask_match_floor_and_modulo() {
        let space = Geometry::paper().tag_space();
        let below_one = 1.0f64.next_down();
        let edges = [
            0.0,
            -0.0,
            1.0,
            2.0,
            4095.0,
            4096.0,
            below_one,
            4095.0 + below_one,
            4096.0f64.next_down(),
            -1e-10,
            -below_one,
            -1.0,
            -1e300,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(64).next_down(),
            2f64.powi(64),
            2f64.powi(65),
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            let tick = x as u64;
            assert_eq!(tick, x.floor() as u64, "{x:e}");
            assert_eq!(tick & (space - 1), tick % space, "{x:e}");
        }
        // Through the quantizer: at base 0 and scale 1, every finish that
        // is not before the base gets tick floor(finish), clamped to the
        // top of lap 0, and tag == tick.
        for x in edges.into_iter().filter(|&x| x >= -1e-9) {
            let mut q = quant();
            let out = q.quantize(VirtualTime(x), None);
            let want = (x.floor() as u64).min(space - 1);
            assert_eq!(
                (out.tick, u64::from(out.tag.value())),
                (want, want),
                "{x:e}"
            );
        }
    }

    #[test]
    fn first_lap_needs_no_recycling() {
        let mut q = quant();
        for v in [0.0, 100.0, 2000.0, 4095.0] {
            let out = q.quantize(VirtualTime(v), Some(0));
            assert!(out.recycle.is_empty(), "at {v}: {:?}", out.recycle);
            assert_eq!(out.tag.value() as f64, v.floor());
        }
    }

    #[test]
    fn entering_wrapped_sections_recycles_them() {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        q.quantize(VirtualTime(4000.0), Some(3800));
        // Tick 4100 wraps into section 0 (ticks 4096..4351 → wrapped 4..).
        let out = q.quantize(VirtualTime(4100.0), Some(3900));
        assert_eq!(out.tag, Tag(4)); // 4100 mod 4096
        assert!(out.recycle.contains(&0), "{:?}", out.recycle);
    }

    #[test]
    fn sections_recycle_in_circular_order() {
        // Wrap policy: the paper's Fig. 6 protocol reuses sections
        // circularly as the window advances.
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let mut recycled = Vec::new();
        for step in 0..40u64 {
            let v = step as f64 * 256.0; // one section per step
            let min_tick = (step * 256).saturating_sub(200);
            let out = q.quantize(VirtualTime(v), Some(min_tick));
            recycled.extend(out.recycle);
        }
        // After several laps every section appears, in ascending circular
        // order.
        assert!(recycled.len() >= 16, "{recycled:?}");
        for w in recycled.windows(2) {
            assert_eq!((w[0] + 1) % 16, w[1], "{recycled:?}");
        }
    }

    #[test]
    fn saturate_clamps_to_the_live_lap_top() {
        let mut q = quant();
        // Oldest outstanding at tick 10 (lap 0); a tag 9000 would cross
        // into lap 2, breaking modular order — clamp to 4095.
        let out = q.quantize(VirtualTime(9000.0), Some(10));
        assert!(out.clamped);
        assert_eq!(out.tag, Tag(4095));
        assert_eq!(q.clamped_count(), 1);
        // A clamped tag never sorts below the live minimum.
        assert!(out.tag.value() >= 10);
    }

    #[test]
    fn saturate_window_is_lap_zero_whatever_the_minimum() {
        let mut q = quant();
        // A busy period that opens past 2^W clamps to the top of lap 0,
        // not of the opening tick's lap; a later, lower tick then still
        // sorts at or below it instead of re-anchoring the window.
        let first = q.quantize(VirtualTime(5000.0), None);
        assert_eq!(
            (first.tick, first.tag, first.clamped),
            (4095, Tag(4095), true)
        );
        let later = q.quantize(VirtualTime(4200.0), Some(first.tick));
        assert_eq!(later.tag, Tag(4095));
        let lower = q.quantize(VirtualTime(100.0), Some(first.tick));
        assert_eq!((lower.tag, lower.clamped), (Tag(100), false));
        // Saturate never recycles, even for ticks far past the range: a
        // tiny scale must not enumerate the sections in between.
        let mut fine = TagQuantizer::new(Geometry::paper(), 1e-9);
        let out = fine.quantize(VirtualTime(1e3), None);
        assert_eq!((out.tag, out.recycle.len()), (Tag(4095), 0));
    }

    #[test]
    fn saturate_preserves_order_across_rebases() {
        let mut q = quant();
        let a = q.quantize(VirtualTime(4000.0), Some(3990));
        let b = q.quantize(VirtualTime(5000.0), Some(3990));
        assert!(b.clamped);
        assert!(b.tag >= a.tag, "clamped tag must not precede older tags");
        // After the sorter drains, rebasing restores full resolution.
        q.rebase(VirtualTime(5000.0));
        let c = q.quantize(VirtualTime(5010.0), None);
        assert!(!c.clamped);
        assert_eq!(c.tag, Tag(10));
    }

    #[test]
    fn wrap_policy_wraps_and_panics_only_past_a_full_lap() {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let out = q.quantize(VirtualTime(5000.0), Some(2000));
        assert_eq!(out.tag.value(), 5000 % 4096);
        assert!(!out.clamped);
    }

    #[test]
    #[should_panic(expected = "leaves no recycling slack")]
    fn wrap_policy_rejects_oversized_window() {
        let mut q = TagQuantizer::with_policy(Geometry::paper(), 1.0, WrapPolicy::Wrap);
        let _ = q.quantize(VirtualTime(5000.0), Some(0));
    }

    #[test]
    fn rebase_restarts_numbering() {
        let mut q = quant();
        let _ = q.quantize(VirtualTime(3000.0), Some(2900));
        q.rebase(VirtualTime(3000.0));
        let out = q.quantize(VirtualTime(3005.0), None);
        assert_eq!(out.tag, Tag(5));
    }

    #[test]
    #[should_panic(expected = "ran backwards")]
    fn backwards_virtual_time_rejected() {
        let mut q = quant();
        q.rebase(VirtualTime(100.0));
        let _ = q.quantize(VirtualTime(50.0), None);
    }
}
