//! The GPS virtual clock — the algorithm inside the paper's WFQ tag
//! computation circuit (eq. (1), reference \[8\]).

use std::collections::HashMap;
use std::fmt;

use traffic::{FlowId, FlowSpec, Time};

/// GPS virtual time, in bits-per-unit-weight.
///
/// Finishing tags are virtual times: packet *k* of flow *i* gets
/// `F = max(V(arrival), F_prev) + L/φᵢ`. The sorter stores a quantized
/// form of these values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualTime(pub f64);

impl VirtualTime {
    /// Virtual time zero.
    pub const ZERO: VirtualTime = VirtualTime(0.0);

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The larger of two virtual times.
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for VirtualTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for VirtualTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VirtualTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V={:.6}", self.0)
    }
}

/// A checkpoint image that does not fit the clock or rank policy it is
/// loaded into: a length or count for another flow population, a float
/// that is not finite, or a flag out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateError {
    /// What the offending word encodes.
    pub field: &'static str,
    /// The word found (a float's bit pattern).
    pub value: u64,
}

impl StateError {
    /// Requires `found == expected`.
    pub(crate) fn require(field: &'static str, found: u64, expected: u64) -> Result<(), Self> {
        let err = Self {
            field,
            value: found,
        };
        (found == expected).then_some(()).ok_or(err)
    }

    /// Decodes a word that must hold a finite float.
    pub(crate) fn finite(field: &'static str, word: u64) -> Result<f64, Self> {
        let x = f64::from_bits(word);
        let err = Self { field, value: word };
        x.is_finite().then_some(x).ok_or(err)
    }
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} word {:#x} does not fit", self.field, self.value)
    }
}

impl std::error::Error for StateError {}

/// Incremental tracker of the GPS virtual time V(t) of paper eq. (1).
///
/// V advances at rate `R / Σφᵢ` over the *busy* sessions — sessions whose
/// GPS backlog has not yet drained. Draining a session is itself a
/// virtual-time event, so advancing real time runs the classic iterated
/// deletion: repeatedly find the next session whose last finishing tag V
/// will reach, advance to it, and drop the session from the busy set.
///
/// This is exactly the computation the paper's tag computation circuit
/// \[8\] performs, including its dependence on `F_min` — the smallest tag
/// still in the sorter — via the session-drain events.
///
/// # Data layout
///
/// Each flow has one 16-byte record: its last finishing tag, its
/// position in the busy heap (`IDLE` when the flow is not busy), and
/// its weight class. The class indexes a table of the distinct weights,
/// stored exactly, so `L/φᵢ` and the busy weight `Σφᵢ` are the same
/// float operations on the same values as with a per-flow weight.
///
/// The busy set is an indexed 4-ary min-heap whose entries carry their
/// key: one `u128` per busy flow, the last finishing tag's bits in the
/// high half (mapped so that unsigned order is `f64::total_cmp` order)
/// and the flow id in the low half. Comparing two entries is one
/// integer compare that never reads a flow record, and the order
/// `(last finish, flow id)` is total and unique per flow, so sessions
/// drain in one fixed sequence — ties on the finish tag leave in
/// flow-id order — and V is a pure function of the arrivals. Each
/// operation touches one heap path:
///
/// - an arrival on an idle flow pushes it;
/// - an arrival on a busy flow grows its key: one sift-down from its
///   position;
/// - a session drain pops the root;
/// - [`GpsVirtualClock::set_last_finish`] removes the flow from its
///   position and pushes it again if it is still ahead of V.
///
/// # Example
///
/// ```
/// use fairq::GpsVirtualClock;
/// use traffic::{FlowId, Time};
///
/// let mut clock = GpsVirtualClock::new(&[1.0, 1.0], 1_000_000.0);
/// // 500-byte packet on flow 0 at t=0: F = 0 + 4000 bits / weight 1.
/// let (s, f) = clock.on_arrival(FlowId(0), 4000.0, Time(0.0));
/// assert_eq!(s.value(), 0.0);
/// assert_eq!(f.value(), 4000.0);
/// ```
#[derive(Debug, Clone)]
pub struct GpsVirtualClock {
    flows: Vec<FlowRec>,
    /// The distinct weights, indexed by `FlowRec::class`.
    weights: Vec<f64>,
    /// Busy flows as packed [`entry`] keys in a 4-ary min-heap.
    /// `flows[flow_of(heap[i])].pos == i` for every slot.
    heap: Vec<u128>,
    rate_bps: f64,
    v: f64,
    t_last: f64,
    sum_phi_busy: f64,
    /// Breakpoints of the piecewise-linear V(t) trajectory, recorded for
    /// virtual→real inversion when enabled (the fluid GPS reference
    /// needs it). Monotone in both coordinates.
    breakpoints: Vec<(f64, f64)>,
    record_segments: bool,
}

/// One flow's clock state.
#[derive(Debug, Clone, Copy)]
struct FlowRec {
    /// Largest finishing tag handed out so far; the heap key while busy.
    last_finish: f64,
    /// Slot in the busy heap, or [`IDLE`].
    pos: u32,
    /// Index of the flow's weight in `GpsVirtualClock::weights`.
    class: u32,
}

const _: () = assert!(std::mem::size_of::<FlowRec>() == 16);

impl FlowRec {
    /// A flow of weight class `class` with no history.
    fn idle(class: u32) -> Self {
        Self {
            last_finish: 0.0,
            pos: IDLE,
            class,
        }
    }
}

/// `FlowRec::pos` of a flow outside the busy heap.
const IDLE: u32 = u32::MAX;

/// `FlowRec::class` of a flow whose weight is not yet known (while
/// [`Records`] are built out of id order).
const UNSET: u32 = u32::MAX;

/// One clock's flow records while they are built.
///
/// Specs in id order append records, so the common table is streamed
/// once and each record written once. The first spec out of id order
/// fills the remaining records as [`UNSET`], and from then on each spec
/// claims its record in place.
struct Records {
    flows: Vec<FlowRec>,
    /// The clock's flow count.
    members: usize,
    /// The distinct weights, in order of first use.
    weights: Vec<f64>,
    index: HashMap<u64, u32>,
    /// The weight of the last claim (NaN before the first), and its
    /// class: an equal weight is already checked and interned.
    last: (f64, u32),
}

impl Records {
    fn with_members(members: usize) -> Self {
        Self {
            flows: Vec::with_capacity(members),
            members,
            weights: Vec::new(),
            index: HashMap::new(),
            last: (f64::NAN, UNSET),
        }
    }

    /// Gives local flow `local` (below `members`) the weight `weight`.
    #[inline]
    fn claim(&mut self, local: usize, weight: f64) {
        if weight != self.last.0 {
            self.intern(weight);
        }
        if local == self.flows.len() {
            self.flows.push(FlowRec::idle(self.last.1));
        } else {
            self.claim_in_place(local);
        }
    }

    /// Checks a weight unlike the last one and makes it the last.
    #[cold]
    fn intern(&mut self, weight: f64) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weights must be positive and finite"
        );
        let class = *self.index.entry(weight.to_bits()).or_insert_with(|| {
            self.weights.push(weight);
            (self.weights.len() - 1) as u32
        });
        self.last = (weight, class);
    }

    /// Claims the record of a spec out of id order.
    #[cold]
    fn claim_in_place(&mut self, local: usize) {
        self.flows.resize(self.members, FlowRec::idle(UNSET));
        let slot = self
            .flows
            .get_mut(local)
            .filter(|slot| slot.class == UNSET)
            .expect("flow ids must be dense and unique");
        slot.class = self.last.1;
    }
}

/// Children per busy-heap node: a full group of four 16-byte entries
/// spans 64 bytes, and the heap is half as deep as a binary one.
const ARITY: usize = 4;

/// The busy-heap entry of `flow` with last finishing tag `finish`.
/// Unsigned order on entries is `(finish, flow)` with the finish under
/// `f64::total_cmp`: a negative finish has all its bits flipped, a
/// non-negative one only its sign bit.
fn entry(finish: f64, flow: u32) -> u128 {
    let bits = finish.to_bits();
    let ordered = bits ^ (((bits as i64 >> 63) as u64) | (1 << 63));
    (u128::from(ordered) << 64) | u128::from(flow)
}

/// The finishing tag packed into a busy-heap entry; inverts [`entry`].
fn finish_of(entry: u128) -> f64 {
    let ordered = (entry >> 64) as u64;
    // A set top bit marks a non-negative finish.
    let mask = (ordered >> 63).wrapping_sub(1) | (1 << 63);
    f64::from_bits(ordered ^ mask)
}

/// The flow id packed into a busy-heap entry.
fn flow_of(entry: u128) -> u32 {
    entry as u32
}

impl GpsVirtualClock {
    /// Creates a clock for flows `0..weights.len()` on a link of
    /// `rate_bps`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or holds `u32::MAX` flows or more,
    /// any weight is non-positive, or the rate is non-positive.
    pub fn new(weights: &[f64], rate_bps: f64) -> Self {
        let flows = weights.iter().copied().enumerate();
        Self::build(weights.len(), 1, flows, rate_bps).remove(0)
    }

    /// Creates a clock for `flows` on a link of `rate_bps`, taking each
    /// flow's weight from its spec. The specs may come in any order;
    /// their ids must cover `0..flows.len()` exactly once.
    ///
    /// # Panics
    ///
    /// Panics if flow ids are not dense and unique, and as
    /// [`GpsVirtualClock::new`] does.
    pub fn for_flows(flows: &[FlowSpec], rate_bps: f64) -> Self {
        Self::for_classes(flows, 1, rate_bps).remove(0)
    }

    /// Creates one clock per class of `flows` in one pass over the
    /// specs: flow `f` joins clock `f % classes` under the local id
    /// `f / classes`, with the weight from its spec. Every clock runs
    /// at `rate`.
    ///
    /// # Panics
    ///
    /// As [`GpsVirtualClock::for_flows`], and if `classes` is zero or
    /// exceeds the flow count.
    pub(crate) fn for_classes(flows: &[FlowSpec], classes: usize, rate: f64) -> Vec<Self> {
        let weights = flows.iter().map(|f| (f.id.0 as usize, f.weight));
        Self::build(flows.len(), classes, weights, rate)
    }

    /// Builds the clocks of [`GpsVirtualClock::for_classes`] from exactly
    /// `n` `(flow, weight)` pairs, which must name each of `0..n` once:
    /// with `n` pairs and `n` records, each pair claiming a distinct
    /// record covers them all.
    fn build(
        n: usize,
        classes: usize,
        weights: impl Iterator<Item = (usize, f64)>,
        rate_bps: f64,
    ) -> Vec<Self> {
        assert!(n > 0, "at least one flow required");
        assert!(n < IDLE as usize, "flow ids must fit below u32::MAX");
        assert!((1..=n).contains(&classes), "1..=flows classes required");
        assert!(
            rate_bps > 0.0 && rate_bps.is_finite(),
            "rate must be positive and finite"
        );
        let mut clocks: Vec<Records> = (0..classes)
            .map(|c| Records::with_members((n + classes - 1 - c) / classes))
            .collect();
        for (id, weight) in weights {
            assert!(id < n, "flow ids must be dense and unique");
            let (class, local) = if classes == 1 {
                (0, id)
            } else {
                (id % classes, id / classes)
            };
            clocks[class].claim(local, weight);
        }
        clocks
            .into_iter()
            .map(|r| Self {
                flows: r.flows,
                weights: r.weights,
                heap: Vec::new(),
                rate_bps,
                v: 0.0,
                t_last: 0.0,
                sum_phi_busy: 0.0,
                breakpoints: vec![(0.0, 0.0)],
                record_segments: false,
            })
            .collect()
    }

    /// Enables segment recording for virtual→real inversion (used by the
    /// fluid GPS reference).
    pub(crate) fn recording(mut self) -> Self {
        self.record_segments = true;
        self
    }

    /// The sum of the flows' weights, in flow-id order.
    pub(crate) fn weight_sum(&self) -> f64 {
        self.flows
            .iter()
            .map(|f| self.weights[f.class as usize])
            .sum()
    }

    /// Flow `flow`'s weight.
    pub(crate) fn weight(&self, flow: usize) -> f64 {
        self.weights[self.flows[flow].class as usize]
    }

    /// Sets the rate the clock's flows share.
    ///
    /// # Panics
    ///
    /// Panics if the rate is non-positive or not finite.
    pub(crate) fn set_rate(&mut self, rate_bps: f64) {
        assert!(
            rate_bps > 0.0 && rate_bps.is_finite(),
            "rate must be positive and finite"
        );
        self.rate_bps = rate_bps;
    }

    /// The current virtual time (as of the last processed event).
    pub fn virtual_now(&self) -> VirtualTime {
        VirtualTime(self.v)
    }

    /// Number of GPS-busy sessions.
    pub fn busy_sessions(&self) -> usize {
        self.heap.len()
    }

    /// Advances the clock to real time `to`, processing session drains.
    ///
    /// # Panics
    ///
    /// Panics if `to` is before a previously processed event.
    pub fn advance(&mut self, to: Time) {
        let to = to.seconds();
        assert!(
            to >= self.t_last - 1e-12,
            "time went backwards: {to} < {}",
            self.t_last
        );
        let to = to.max(self.t_last);
        loop {
            let Some(&head) = self.heap.first() else {
                // Idle: V holds (a zero-slope plateau).
                self.t_last = to;
                self.push_breakpoint();
                return;
            };
            let slope = self.rate_bps / self.sum_phi_busy;
            let drain_v = finish_of(head);
            let t_hit = self.t_last + (drain_v - self.v) / slope;
            if t_hit <= to {
                // The head session drains before (or at) `to`.
                self.v = drain_v;
                self.t_last = t_hit;
                self.push_breakpoint();
                self.remove(flow_of(head));
            } else {
                self.v += (to - self.t_last) * slope;
                self.t_last = to;
                self.push_breakpoint();
                return;
            }
        }
    }

    /// Processes a packet arrival: advances to `at`, computes the GPS
    /// start and finishing tags, and updates the busy set.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is out of range, the size is negative or
    /// NaN, or `at` precedes an earlier event.
    pub fn on_arrival(
        &mut self,
        flow: FlowId,
        size_bits: f64,
        at: Time,
    ) -> (VirtualTime, VirtualTime) {
        let idx = flow.0 as usize;
        assert!(idx < self.flows.len(), "unknown {flow}");
        assert!(
            size_bits >= 0.0,
            "packet size must be non-negative, got {size_bits}"
        );
        self.advance(at);
        let rec = &mut self.flows[idx];
        let weight = self.weights[rec.class as usize];
        let start = self.v.max(rec.last_finish);
        let finish = start + size_bits / weight;
        rec.last_finish = finish;
        let pos = rec.pos;
        if pos == IDLE {
            self.sum_phi_busy += weight;
            self.push(entry(finish, flow.0));
        } else {
            // A non-negative size never lowers the key.
            self.sift_down(pos as usize, entry(finish, flow.0));
        }
        (VirtualTime(start), VirtualTime(finish))
    }

    /// Advances until every busy session drains; returns the real time at
    /// which the GPS system empties.
    pub fn drain(&mut self) -> Time {
        while let Some(&head) = self.heap.first() {
            let slope = self.rate_bps / self.sum_phi_busy;
            let t_hit = self.t_last + (finish_of(head) - self.v) / slope;
            self.advance(Time(t_hit));
        }
        Time(self.t_last)
    }

    /// Maps a virtual time to the earliest real time at which V reaches
    /// it. Requires segment recording and `vt` at or below the current V.
    pub(crate) fn real_time_of(&self, vt: VirtualTime) -> Time {
        debug_assert!(self.record_segments, "recording not enabled");
        let target = vt.0;
        // First breakpoint at or above the target V.
        let idx = self.breakpoints.partition_point(|&(_, v)| v < target);
        if idx == 0 {
            return Time(self.breakpoints[0].0);
        }
        assert!(
            idx < self.breakpoints.len(),
            "virtual time {target} not reached yet (V = {})",
            self.v
        );
        let (t0, v0) = self.breakpoints[idx - 1];
        let (t1, v1) = self.breakpoints[idx];
        if v1 == v0 {
            Time(t0)
        } else {
            Time(t0 + (target - v0) / (v1 - v0) * (t1 - t0))
        }
    }

    /// The per-flow largest finishing tag handed out so far (the state
    /// a flow migration exports).
    ///
    /// # Panics
    ///
    /// Panics if the flow id is out of range.
    pub fn last_finish_of(&self, flow: FlowId) -> VirtualTime {
        let idx = flow.0 as usize;
        assert!(idx < self.flows.len(), "unknown {flow}");
        VirtualTime(self.flows[idx].last_finish)
    }

    /// Overwrites one flow's last finishing tag, keeping the busy set
    /// consistent: the flow is busy exactly while its tag is ahead of
    /// V. This is how a migrated-in flow is adopted — its translated
    /// finish from the source shard becomes its history here, so its
    /// next tag is `max(V, finish) + L/φ` and the flow's packets keep
    /// their relative order across the move.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is out of range or the tag is non-finite.
    pub fn set_last_finish(&mut self, flow: FlowId, v: VirtualTime) {
        let idx = flow.0 as usize;
        assert!(idx < self.flows.len(), "unknown {flow}");
        assert!(v.0.is_finite(), "finish tag must be finite, got {v}");
        if self.flows[idx].pos != IDLE {
            self.remove(flow.0);
        }
        self.flows[idx].last_finish = v.0;
        if v.0 > self.v {
            self.sum_phi_busy += self.weights[self.flows[idx].class as usize];
            self.push(entry(v.0, flow.0));
        }
    }

    /// Serializes the clock's mutable state as checkpoint words: V,
    /// the last event time, every per-flow finish tag, and the busy
    /// flags. Configuration (weights, rate) is *not* included — a
    /// restore rebuilds the clock for the same link first and then
    /// loads these words. Segment recording is excluded too (the fluid
    /// GPS reference records; scheduler clocks never do).
    pub fn state_words(&self) -> Vec<u64> {
        let n = self.flows.len();
        let mut words = Vec::with_capacity(3 + 2 * n);
        words.push(self.v.to_bits());
        words.push(self.t_last.to_bits());
        words.push(n as u64);
        words.extend(self.flows.iter().map(|r| r.last_finish.to_bits()));
        words.extend(self.flows.iter().map(|r| u64::from(r.pos != IDLE)));
        words
    }

    /// Restores the state captured by [`GpsVirtualClock::state_words`]
    /// into a clock built for the same flows and link. The busy set and
    /// its aggregate weight are rebuilt from the flags, so the restored
    /// clock's V trajectory continues exactly where the source left
    /// off.
    ///
    /// # Errors
    ///
    /// A [`StateError`], with the clock unchanged, if the words do not
    /// describe a clock over the same number of flows (a checkpoint CRC
    /// guards against corruption upstream; this guards against
    /// restoring into the wrong link), if V, the last event time or a
    /// finish tag is not finite, or if a busy flag is neither 0 nor 1.
    /// A non-finite busy key would sort outside every real tag and
    /// never drain, freezing V's slope.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        let n = self.flows.len();
        StateError::require("clock state length", words.len() as u64, 3 + 2 * n as u64)?;
        StateError::require("clock flow count", words[2], n as u64)?;
        let v = StateError::finite("clock V", words[0])?;
        let t_last = StateError::finite("clock last event time", words[1])?;
        let (finishes, flags) = words[3..].split_at(n);
        for (&f, &busy) in finishes.iter().zip(flags) {
            StateError::finite("clock finish tag", f)?;
            StateError::require("clock busy flag", busy, busy & 1)?; // 0 or 1
        }
        self.v = v;
        self.t_last = t_last;
        self.heap.clear();
        self.sum_phi_busy = 0.0;
        for (i, (&f, &busy)) in finishes.iter().zip(flags).enumerate() {
            let rec = &mut self.flows[i];
            let finish = f64::from_bits(f);
            rec.last_finish = finish;
            rec.pos = IDLE;
            if busy == 1 {
                self.sum_phi_busy += self.weights[rec.class as usize];
                self.push(entry(finish, i as u32));
            }
        }
        self.breakpoints = vec![(self.t_last, self.v)];
        Ok(())
    }

    fn push_breakpoint(&mut self) {
        if !self.record_segments {
            return;
        }
        let point = (self.t_last, self.v);
        if self.breakpoints.last() != Some(&point) {
            self.breakpoints.push(point);
        }
    }

    fn place(&mut self, slot: usize, entry: u128) {
        self.heap[slot] = entry;
        self.flows[flow_of(entry) as usize].pos = slot as u32;
    }

    fn push(&mut self, entry: u128) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Takes a busy flow out of the heap and out of the busy weight.
    fn remove(&mut self, flow: u32) {
        let rec = &mut self.flows[flow as usize];
        let slot = rec.pos as usize;
        rec.pos = IDLE;
        self.sum_phi_busy -= self.weights[rec.class as usize];
        let last = self.heap.pop().expect("a busy flow is in the heap");
        if slot < self.heap.len() {
            // The last slot's entry fills the hole, from either side.
            if slot > 0 && last < self.heap[(slot - 1) / ARITY] {
                self.sift_up(slot, last);
            } else {
                self.sift_down(slot, last);
            }
        }
        if self.heap.is_empty() {
            self.sum_phi_busy = 0.0; // kill accumulated error
        }
    }

    /// Moves `entry` from `slot` towards the root until its parent is
    /// smaller.
    fn sift_up(&mut self, mut slot: usize, entry: u128) {
        while slot > 0 {
            let parent = (slot - 1) / ARITY;
            let above = self.heap[parent];
            if entry >= above {
                break;
            }
            self.place(slot, above);
            slot = parent;
        }
        self.place(slot, entry);
    }

    /// Moves `entry` from `slot` towards the leaves until no child is
    /// smaller.
    fn sift_down(&mut self, mut slot: usize, entry: u128) {
        let len = self.heap.len();
        loop {
            let first = slot * ARITY + 1;
            let best = if let Some(group) = self.heap.get(first..first + ARITY) {
                // A full group: a branch-free tournament of four.
                let low = usize::from(group[1] < group[0]);
                let high = 2 + usize::from(group[3] < group[2]);
                first + if group[high] < group[low] { high } else { low }
            } else if first < len {
                (first + 1..len).fold(first, |best, child| {
                    if self.heap[child] < self.heap[best] {
                        child
                    } else {
                        best
                    }
                })
            } else {
                break;
            };
            let below = self.heap[best];
            if below >= entry {
                break;
            }
            self.place(slot, below);
            slot = best;
        }
        self.place(slot, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_tags_accumulate() {
        let mut c = GpsVirtualClock::new(&[2.0], 1e6);
        let (s1, f1) = c.on_arrival(FlowId(0), 8000.0, Time(0.0));
        assert_eq!(s1, VirtualTime(0.0));
        assert_eq!(f1, VirtualTime(4000.0)); // 8000 bits / weight 2
                                             // Back-to-back arrival queues behind the first.
        let (s2, f2) = c.on_arrival(FlowId(0), 8000.0, Time(0.0));
        assert_eq!(s2, f1);
        assert_eq!(f2, VirtualTime(8000.0));
    }

    #[test]
    fn virtual_time_slows_with_more_busy_sessions() {
        let mut c = GpsVirtualClock::new(&[1.0, 1.0], 1e6);
        // Keep both flows busy with big packets.
        c.on_arrival(FlowId(0), 1e6, Time(0.0));
        c.on_arrival(FlowId(1), 1e6, Time(0.0));
        // Two unit-weight sessions: V advances at R/2 per second.
        c.advance(Time(1.0));
        assert!((c.virtual_now().value() - 0.5e6).abs() < 1.0);
    }

    #[test]
    fn sessions_drain_and_speed_recovers() {
        let mut c = GpsVirtualClock::new(&[1.0, 1.0], 1e6);
        c.on_arrival(FlowId(0), 100_000.0, Time(0.0)); // F = 100k
        c.on_arrival(FlowId(1), 500_000.0, Time(0.0)); // F = 500k
        assert_eq!(c.busy_sessions(), 2);
        // Flow 0 drains when V = 100k: at t = 0.2 s (slope R/2 = 500k/s).
        c.advance(Time(0.2));
        assert_eq!(c.busy_sessions(), 1);
        // After that V runs at full rate for flow 1: V(0.3) = 100k + 0.1*1e6.
        c.advance(Time(0.3));
        assert!((c.virtual_now().value() - 200_000.0).abs() < 1.0);
        let drained_at = c.drain();
        // Flow 1 finishes at V=500k: 0.3 + 300k/1e6 = 0.6 s.
        assert!((drained_at.seconds() - 0.6).abs() < 1e-9);
        assert_eq!(c.busy_sessions(), 0);
    }

    #[test]
    fn arrival_after_idle_starts_at_current_v() {
        let mut c = GpsVirtualClock::new(&[1.0], 1e6);
        c.on_arrival(FlowId(0), 1000.0, Time(0.0));
        c.drain();
        let v_after = c.virtual_now();
        let (s, _) = c.on_arrival(FlowId(0), 1000.0, Time(10.0));
        // V froze during idle; the new start tag is the frozen V, not the
        // flow's old finish (which V already passed).
        assert_eq!(s, v_after);
    }

    #[test]
    fn new_tags_never_precede_smallest_in_system() {
        // The property the paper's backup path relies on (§III-A): tags
        // are >= the smallest tag yet to depart.
        let mut c = GpsVirtualClock::new(&[1.0, 5.0, 2.0], 1e6);
        let mut state = 7u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut t = 0.0;
        let mut outstanding: Vec<(f64, f64)> = Vec::new(); // (finish, tag)
        for _ in 0..500 {
            t += (rnd() % 1000) as f64 * 1e-6;
            let flow = (rnd() % 3) as u32;
            let bits = 400.0 + (rnd() % 12000) as f64;
            let (_, f) = c.on_arrival(FlowId(flow), bits, Time(t));
            // Smallest outstanding tag (GPS still to finish): any tag
            // with virtual finish > V now.
            let v = c.virtual_now().value();
            outstanding.retain(|&(fin, _)| fin > v);
            if let Some(min_out) = outstanding
                .iter()
                .map(|&(_, tag)| tag)
                .min_by(f64::total_cmp)
            {
                assert!(
                    f.value() >= min_out - 1e-6,
                    "tag {f} precedes smallest outstanding {min_out}"
                );
            }
            outstanding.push((f.value(), f.value()));
        }
    }

    #[test]
    fn recording_inverts_virtual_to_real() {
        let mut c = GpsVirtualClock::new(&[1.0, 1.0], 1e6).recording();
        c.on_arrival(FlowId(0), 200_000.0, Time(0.0));
        c.on_arrival(FlowId(1), 200_000.0, Time(0.0));
        c.drain();
        // Both flows busy: V slope 500k/s until both drain at V=200k.
        let t = c.real_time_of(VirtualTime(100_000.0));
        assert!((t.seconds() - 0.2).abs() < 1e-9, "got {t}");
        let t = c.real_time_of(VirtualTime(200_000.0));
        assert!((t.seconds() - 0.4).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn restore_refuses_wrong_shapes_non_finite_words_and_bad_busy_flags() {
        let mut src = GpsVirtualClock::new(&[1.0, 2.0], 1e6);
        src.on_arrival(FlowId(0), 8000.0, Time(0.0));
        src.on_arrival(FlowId(1), 8000.0, Time(1e-3));
        let words = src.state_words();
        // Words: V, last event time, flow count, finish tags, busy flags.
        let negative_nan = (-f64::NAN).to_bits();
        let bad = [
            (0, negative_nan, "clock V"),
            (0, f64::INFINITY.to_bits(), "clock V"),
            (1, f64::NAN.to_bits(), "clock last event time"),
            (2, 3, "clock flow count"),
            (3, negative_nan, "clock finish tag"),
            (4, f64::NEG_INFINITY.to_bits(), "clock finish tag"),
            (6, 2, "clock busy flag"),
        ];
        for (at, value, field) in bad {
            let mut image = words.clone();
            image[at] = value;
            let mut dst = GpsVirtualClock::new(&[1.0, 2.0], 1e6);
            let before = dst.state_words();
            let refused = dst.load_state_words(&image);
            let want = Err(StateError { field, value });
            // A refused image leaves the clock as it was.
            assert_eq!((refused, dst.state_words()), (want, before), "word {at}");
        }
        let mut dst = GpsVirtualClock::new(&[1.0, 2.0], 1e6);
        for len in [0, 3, words.len() - 1, words.len() + 1] {
            let mut image = words.clone();
            image.resize(len, 0);
            let refused = dst.load_state_words(&image).map_err(|e| (e.field, e.value));
            assert_eq!(refused, Err(("clock state length", len as u64)));
        }
        assert_eq!(dst.load_state_words(&words), Ok(()));
        assert_eq!(dst.state_words(), words);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_reversal_rejected() {
        let mut c = GpsVirtualClock::new(&[1.0], 1e6);
        c.advance(Time(1.0));
        c.advance(Time(0.5));
    }

    #[test]
    #[should_panic(expected = "packet size must be non-negative")]
    fn negative_size_rejected() {
        let mut c = GpsVirtualClock::new(&[1.0], 1e6);
        c.on_arrival(FlowId(0), -1.0, Time(0.0));
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn unknown_flow_rejected() {
        let mut c = GpsVirtualClock::new(&[1.0], 1e6);
        c.on_arrival(FlowId(9), 100.0, Time(0.0));
    }
}
