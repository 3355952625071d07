//! Programmable rank policies: the PIFO view of the sorting circuit.
//!
//! Sivaraman et al.'s *Programmable Packet Scheduling at Line Rate*
//! observes that a push-in-first-out queue — exactly what the paper's
//! sort/retrieve circuit implements — expresses a whole family of
//! schedulers if only the **rank computation** is swapped: WFQ, STFQ,
//! SRPT, shaping, strict priority, and hierarchical schemes all reduce
//! to "compute a rank, push, pop the minimum". [`RankPolicy`] is that
//! swap point. The scheduler stack (`scheduler::HwScheduler` and the
//! sharded frontend) is generic over it, with [`WfqRank`] — the
//! paper's WFQ finishing-tag computation — as the default, so the
//! default pipeline is bit-for-bit the pre-policy behavior.
//!
//! A policy owns all per-flow scheduling state. The contract with the
//! scheduler is small:
//!
//! * [`RankPolicy::rank`] is called once per arriving packet, in
//!   arrival order, and returns the packet's rank (served ascending,
//!   FIFO among equal ranks after quantization). The call may update
//!   per-flow state (virtual clocks, last-finish tags, bucket levels).
//! * [`RankPolicy::on_service`] is called once per departing packet
//!   with the rank it was enqueued under — the hook start-time fair
//!   queueing needs to advance its virtual time.
//! * [`RankPolicy::rank_floor`] must never exceed any rank the policy
//!   will emit in the future. The scheduler rebases its quantizer there
//!   when the sorter drains (monotone policies only), restoring tag
//!   headroom exactly as the WFQ pipeline always has.
//! * [`RankPolicy::monotone`] says whether ranks track a non-decreasing
//!   virtual time. Bounded-domain policies (SRPT, strict priority)
//!   return `false`: their ranks revisit small values forever, so the
//!   quantizer must never rebase past them.
//!
//! Policies are built with the **prototype pattern**: a prototype value
//! carries configuration only (e.g. the hierarchical class count), and
//! [`RankPolicy::for_link`] stamps out the live instance for a concrete
//! link — the sharded frontend calls it once per port with that port's
//! locally renumbered flows, exactly as it builds one sorter per port.
//!
//! See `POLICIES.md` at the repository root for the cookbook: each
//! policy's rank formula, reference-model pseudocode, and example
//! `wfqsim --policy` invocations.

use traffic::{FlowId, FlowSpec, Packet, Time};

use crate::virtual_time::{GpsVirtualClock, StateError, VirtualTime};

/// A programmable rank computation over the sorting circuit.
///
/// See the [module docs](self) for the contract. Implementations also
/// serve as their own prototypes: a value built by `Default` (or a
/// configuring constructor such as
/// [`HierarchicalWfqRank::with_classes`]) carries configuration, and
/// [`RankPolicy::for_link`] derives the live per-link instance.
pub trait RankPolicy: std::fmt::Debug + Clone {
    /// Builds the live policy instance for a link: `flows` are the
    /// link's flows and `link_rate_bps` its rate. Reads only this
    /// prototype's configuration, never its per-flow state.
    ///
    /// This pass is the only one a scheduler build makes over its flow
    /// table, so it validates the table: it must panic with "flow ids
    /// must be dense and unique" unless the ids cover
    /// `0..flows.len()` exactly once, in any order — also a policy
    /// that reads nothing else from the table.
    fn for_link(&self, flows: &[FlowSpec], link_rate_bps: f64) -> Self;

    /// Computes the rank of an arriving packet, updating per-flow
    /// state. Called once per packet, in arrival order.
    fn rank(&mut self, pkt: &Packet) -> VirtualTime;

    /// Notifies the policy that `pkt` — enqueued under `rank` — was
    /// served. Most policies ignore this; STFQ advances its virtual
    /// time here.
    fn on_service(&mut self, _pkt: &Packet, _rank: VirtualTime) {}

    /// Advances any internal real-time state to `now` without an
    /// arrival (the analogue of `GpsVirtualClock::advance`).
    fn advance(&mut self, _now: Time) {}

    /// A lower bound on every rank the policy will emit from now on.
    /// The scheduler rebases its quantizer here when the sorter drains
    /// (monotone policies only).
    fn rank_floor(&self) -> VirtualTime;

    /// Whether ranks track a non-decreasing virtual time. `false` for
    /// bounded-domain policies (SRPT, strict priority), whose ranks
    /// revisit small values forever; the scheduler then never rebases
    /// and requires eager marker cleanup.
    fn monotone(&self) -> bool {
        true
    }

    /// A sensible quantizer tick (rank units per tag tick) for this
    /// policy's rank domain on a link of `link_rate_bps` — what the CLI
    /// uses when no calibrated scale is supplied.
    fn tick_scale(&self, link_rate_bps: f64) -> f64;

    /// Stable lowercase policy name (`wfq`, `stfq`, ...), used in CLI
    /// flags and reports.
    fn name(&self) -> &'static str;

    /// The policy's mutable per-link state as checkpoint words (virtual
    /// clocks, last-finish tags, bucket levels — everything `rank`
    /// mutates). Configuration is *not* included: a restore builds the
    /// policy for the same link via [`RankPolicy::for_link`] first and
    /// then loads these words. Stateless policies return an empty
    /// vector, which is also the default.
    fn state_words(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores the state captured by [`RankPolicy::state_words`] into
    /// a policy built for the same link.
    ///
    /// # Errors
    ///
    /// A [`StateError`] if the words do not match this policy's shape
    /// (wrong policy, or a different flow population) or a word that
    /// holds a float is not finite. A refused image may leave the
    /// policy partly loaded; a restore discards it.
    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        StateError::require("rank-policy state length", words.len() as u64, 0)
    }

    /// The scheduling history a flow takes with it when it migrates off
    /// this link: the largest rank the policy has handed the flow so
    /// far, on this link's rank axis. Policies without per-flow history
    /// (the default) export the rank floor — the flow restarts at the
    /// destination as if freshly idle.
    fn flow_finish(&self, _flow: FlowId) -> VirtualTime {
        self.rank_floor()
    }

    /// Adopts a migrated-in flow: `finish` is the flow's exported
    /// history, already translated onto *this* link's rank axis (see
    /// `statesync::VClockXlat`). After adoption the flow's next rank
    /// must be ≥ `finish`, so its packets keep their relative order
    /// across the move. Policies without per-flow history ignore it.
    fn adopt_flow(&mut self, _flow: FlowId, _finish: VirtualTime) {}
}

/// The per-flow vector of `flows` in id order: `value(spec)` at each
/// spec's id. Ids are tracked apart from the values, so no value can
/// hide a repeated id.
///
/// # Panics
///
/// Panics if flow ids are not dense and unique (or `value` panics).
pub(crate) fn dense_by_id<T: Copy + Default>(
    flows: &[FlowSpec],
    value: impl Fn(&FlowSpec) -> T,
) -> Vec<T> {
    let mut values = vec![T::default(); flows.len()];
    let mut seen = vec![0u64; flows.len().div_ceil(64)];
    for f in flows {
        let idx = f.id.0 as usize;
        let bit = 1 << (idx % 64);
        assert!(
            idx < flows.len() && seen[idx / 64] & bit == 0,
            "flow ids must be dense and unique"
        );
        seen[idx / 64] |= bit;
        values[idx] = value(f);
    }
    values
}

/// Refuses a flow table whose ids are not dense and unique — the check
/// every [`RankPolicy::for_link`] makes, here for policies that read
/// nothing else from the table.
///
/// # Panics
///
/// Panics if flow ids are not dense and unique.
pub(crate) fn check_dense(flows: &[FlowSpec]) {
    dense_by_id(flows, |_| ());
}

/// Builds the dense per-flow weight vector of `flows`.
///
/// # Panics
///
/// Panics if flow ids are not dense and unique, or a weight is not
/// positive and finite.
pub(crate) fn dense_weights(flows: &[FlowSpec]) -> Vec<f64> {
    dense_by_id(flows, |f| {
        assert!(
            f.weight > 0.0 && f.weight.is_finite(),
            "weights must be positive and finite"
        );
        f.weight
    })
}

/// Decodes the `[scalar, n, n per-flow floats]` image that STFQ and the
/// leaky bucket share, for a link of `flows` flows; `[scalar, per_flow]`
/// name the floats, which must all be finite.
fn scalar_and_flows(
    [scalar, per_flow]: [&'static str; 2],
    words: &[u64],
    flows: usize,
) -> Result<(f64, Vec<f64>), StateError> {
    let length = words.len() as u64;
    StateError::require("rank-policy state length", length, 2 + flows as u64)?;
    StateError::require("rank-policy flow count", words[1], flows as u64)?;
    let x = StateError::finite(scalar, words[0])?;
    let per_flow = words[2..]
        .iter()
        .map(|&w| StateError::finite(per_flow, w))
        .collect::<Result<_, _>>()?;
    Ok((x, per_flow))
}

/// Weighted fair queueing (PGPS) — the paper's policy and the default.
///
/// Rank = the GPS virtual finishing time of paper eq. (1):
/// `F = max(V(t), F_prev) + L / φ`, computed by [`GpsVirtualClock`].
/// The default scheduler pipeline with this policy is bit-for-bit the
/// pre-policy WFQ pipeline.
#[derive(Debug, Clone, Default)]
pub struct WfqRank {
    /// `None` in the prototype; the live clock after
    /// [`RankPolicy::for_link`].
    clock: Option<GpsVirtualClock>,
}

impl WfqRank {
    /// The live GPS virtual clock (read access for experiments).
    ///
    /// # Panics
    ///
    /// Panics on a prototype that was never built for a link.
    pub fn clock(&self) -> &GpsVirtualClock {
        self.clock.as_ref().expect("policy not built for a link")
    }

    fn clock_mut(&mut self) -> &mut GpsVirtualClock {
        self.clock.as_mut().expect("policy not built for a link")
    }
}

impl RankPolicy for WfqRank {
    fn for_link(&self, flows: &[FlowSpec], link_rate_bps: f64) -> Self {
        Self {
            clock: Some(GpsVirtualClock::for_flows(flows, link_rate_bps)),
        }
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        self.clock_mut()
            .on_arrival(pkt.flow, pkt.size_bits(), pkt.arrival)
            .1
    }

    fn advance(&mut self, now: Time) {
        self.clock_mut().advance(now);
    }

    fn rank_floor(&self) -> VirtualTime {
        self.clock().virtual_now()
    }

    fn tick_scale(&self, link_rate_bps: f64) -> f64 {
        link_rate_bps / 50_000.0
    }

    fn name(&self) -> &'static str {
        "wfq"
    }

    fn state_words(&self) -> Vec<u64> {
        self.clock().state_words()
    }

    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        self.clock_mut().load_state_words(words)
    }

    fn flow_finish(&self, flow: FlowId) -> VirtualTime {
        self.clock().last_finish_of(flow)
    }

    fn adopt_flow(&mut self, flow: FlowId, finish: VirtualTime) {
        let cur = self.clock().last_finish_of(flow);
        self.clock_mut().set_last_finish(flow, cur.max(finish));
    }
}

/// Start-time fair queueing (Goyal et al.): rank = the packet's virtual
/// **start** tag.
///
/// `S = max(V, F_prev(flow))`, `F(flow) = S + L / φ`, and the virtual
/// time `V` advances to the start tag of each packet as it is served —
/// no per-arrival GPS simulation, which is why STFQ is the rank
/// computation programmable hardware actually ships.
#[derive(Debug, Clone, Default)]
pub struct StfqRank {
    v: f64,
    weights: Vec<f64>,
    last_finish: Vec<f64>,
}

impl RankPolicy for StfqRank {
    fn for_link(&self, flows: &[FlowSpec], _link_rate_bps: f64) -> Self {
        let weights = dense_weights(flows);
        Self {
            v: 0.0,
            last_finish: vec![0.0; weights.len()],
            weights,
        }
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        let f = pkt.flow.0 as usize;
        let start = self.v.max(self.last_finish[f]);
        self.last_finish[f] = start + pkt.size_bits() / self.weights[f];
        VirtualTime(start)
    }

    fn on_service(&mut self, _pkt: &Packet, rank: VirtualTime) {
        self.v = self.v.max(rank.value());
    }

    fn rank_floor(&self) -> VirtualTime {
        VirtualTime(self.v)
    }

    fn tick_scale(&self, link_rate_bps: f64) -> f64 {
        link_rate_bps / 50_000.0
    }

    fn name(&self) -> &'static str {
        "stfq"
    }

    fn state_words(&self) -> Vec<u64> {
        let mut words = vec![self.v.to_bits(), self.last_finish.len() as u64];
        words.extend(self.last_finish.iter().map(|f| f.to_bits()));
        words
    }

    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        let names = ["stfq virtual time", "stfq finish tag"];
        (self.v, self.last_finish) = scalar_and_flows(names, words, self.last_finish.len())?;
        Ok(())
    }

    fn flow_finish(&self, flow: FlowId) -> VirtualTime {
        VirtualTime(self.last_finish[flow.0 as usize])
    }

    fn adopt_flow(&mut self, flow: FlowId, finish: VirtualTime) {
        let f = flow.0 as usize;
        self.last_finish[f] = self.last_finish[f].max(finish.value());
    }
}

/// Shortest remaining processing time: rank = the packet's size in
/// bits, so the shortest queued packet is always served next
/// (size-based preemption happens between packets, not within one).
///
/// A bounded-domain policy: ranks revisit small values forever, so the
/// quantizer never rebases ([`RankPolicy::monotone`] is `false`).
#[derive(Debug, Clone, Default)]
pub struct SrptRank;

impl RankPolicy for SrptRank {
    fn for_link(&self, flows: &[FlowSpec], _link_rate_bps: f64) -> Self {
        check_dense(flows);
        Self
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        VirtualTime(pkt.size_bits())
    }

    fn rank_floor(&self) -> VirtualTime {
        VirtualTime::ZERO
    }

    fn monotone(&self) -> bool {
        false
    }

    fn tick_scale(&self, _link_rate_bps: f64) -> f64 {
        // One tick per byte: a 1500-byte packet spans 1500 ticks, well
        // inside even the fabricated 12-bit tag space.
        8.0
    }

    fn name(&self) -> &'static str {
        "srpt"
    }
}

/// FIFO+ (Clark/Shenker/Zhang): rank = the packet's arrival time at the
/// first hop. On one hop this serves in arrival order; across a network
/// the inherited timestamp gives distant flows the priority they lost
/// upstream. Realizing FIFO on a PIFO is what makes the one-queue
/// circuit a drop-in for every discipline in this module.
#[derive(Debug, Clone, Default)]
pub struct FifoPlusRank {
    last_arrival: f64,
}

impl RankPolicy for FifoPlusRank {
    fn for_link(&self, flows: &[FlowSpec], _link_rate_bps: f64) -> Self {
        check_dense(flows);
        Self::default()
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        self.last_arrival = pkt.arrival.0;
        VirtualTime(pkt.arrival.0)
    }

    fn rank_floor(&self) -> VirtualTime {
        VirtualTime(self.last_arrival)
    }

    fn tick_scale(&self, link_rate_bps: f64) -> f64 {
        // Ranks are seconds: one tick is the time of 500 bits on the
        // link, fine enough to separate back-to-back packets.
        500.0 / link_rate_bps
    }

    fn name(&self) -> &'static str {
        "fifo+"
    }

    fn state_words(&self) -> Vec<u64> {
        vec![self.last_arrival.to_bits()]
    }

    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        StateError::require("rank-policy state length", words.len() as u64, 1)?;
        self.last_arrival = StateError::finite("fifo+ last arrival", words[0])?;
        Ok(())
    }
}

/// Strict priority: rank = the flow's priority class, derived from its
/// weight (heavier weight ⇒ higher priority ⇒ smaller rank). Flows with
/// equal weight share one class, FIFO among themselves.
///
/// A bounded-domain policy ([`RankPolicy::monotone`] is `false`): a
/// high-priority arrival must always be able to rank below everything
/// queued.
#[derive(Debug, Clone, Default)]
pub struct StrictPriorityRank {
    /// Flow id → priority class (0 = highest).
    prio_of: Vec<u32>,
}

impl RankPolicy for StrictPriorityRank {
    fn for_link(&self, flows: &[FlowSpec], _link_rate_bps: f64) -> Self {
        let weights = dense_weights(flows);
        // Distinct weights, descending: class 0 is the heaviest.
        let mut distinct: Vec<f64> = weights.clone();
        distinct.sort_by(|a, b| b.total_cmp(a));
        distinct.dedup();
        let prio_of = weights
            .iter()
            .map(|w| {
                distinct
                    .iter()
                    .position(|d| d == w)
                    .expect("weight is in its own distinct set") as u32
            })
            .collect();
        Self { prio_of }
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        VirtualTime(f64::from(self.prio_of[pkt.flow.0 as usize]))
    }

    fn rank_floor(&self) -> VirtualTime {
        VirtualTime::ZERO
    }

    fn monotone(&self) -> bool {
        false
    }

    fn tick_scale(&self, _link_rate_bps: f64) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "prio"
    }
}

/// Leaky-bucket shaping order: rank = the time the packet *conforms* to
/// its flow's token rate (`FlowSpec::rate_bps`).
///
/// `η = max(arrival, η_prev) + L / r`: a flow inside its contract gets
/// ranks near its arrival times; a flow bursting above it accumulates
/// bucket debt and sorts behind everyone conforming. The queue stays
/// work-conserving — a PIFO cannot hold packets back — so this is the
/// shaping *order*, not a non-work-conserving shaper.
#[derive(Debug, Clone, Default)]
pub struct LeakyBucketRank {
    /// Flow id → contracted token rate, bits per second.
    rates: Vec<f64>,
    /// Flow id → bucket level: the conforming finish time of the flow's
    /// last packet, in seconds.
    eta: Vec<f64>,
    last_arrival: f64,
}

impl RankPolicy for LeakyBucketRank {
    fn for_link(&self, flows: &[FlowSpec], _link_rate_bps: f64) -> Self {
        let rates = dense_by_id(flows, |f| {
            assert!(
                f.rate_bps > 0.0 && f.rate_bps.is_finite(),
                "leaky-bucket shaping needs a positive contracted rate"
            );
            f.rate_bps
        });
        Self {
            eta: vec![0.0; rates.len()],
            rates,
            last_arrival: 0.0,
        }
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        let f = pkt.flow.0 as usize;
        self.last_arrival = pkt.arrival.0;
        let conforming = self.eta[f].max(pkt.arrival.0) + pkt.size_bits() / self.rates[f];
        self.eta[f] = conforming;
        VirtualTime(conforming)
    }

    fn rank_floor(&self) -> VirtualTime {
        // Every future rank exceeds its packet's arrival time, and
        // arrivals are non-decreasing.
        VirtualTime(self.last_arrival)
    }

    fn tick_scale(&self, link_rate_bps: f64) -> f64 {
        500.0 / link_rate_bps
    }

    fn name(&self) -> &'static str {
        "leaky"
    }

    fn state_words(&self) -> Vec<u64> {
        let mut words = vec![self.last_arrival.to_bits(), self.eta.len() as u64];
        words.extend(self.eta.iter().map(|e| e.to_bits()));
        words
    }

    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        let names = ["leaky last arrival", "leaky bucket level"];
        (self.last_arrival, self.eta) = scalar_and_flows(names, words, self.eta.len())?;
        Ok(())
    }

    fn flow_finish(&self, flow: FlowId) -> VirtualTime {
        VirtualTime(self.eta[flow.0 as usize])
    }

    fn adopt_flow(&mut self, flow: FlowId, finish: VirtualTime) {
        let f = flow.0 as usize;
        self.eta[f] = self.eta[f].max(finish.value());
    }
}

/// Two-level hierarchical WFQ: flows are grouped into classes, the link
/// is split between classes in proportion to their aggregate weight,
/// and each class runs its own GPS virtual clock at its share of the
/// link rate. Rank = the flow's finishing tag on its **class** clock.
///
/// Class membership is `flow id % classes` (over the link's dense local
/// ids — under a sharded frontend, each port classes its own local
/// population). Each class clock holds only its members, flow `f` under
/// the local id `f / classes`, so the policy keeps one clock record per
/// flow whatever the class count. With one class the policy
/// degenerates *exactly* to [`WfqRank`]: one clock, the full weight
/// vector, the full link rate.
#[derive(Debug, Clone)]
pub struct HierarchicalWfqRank {
    /// Configured class count (clamped to the flow count at build).
    classes: usize,
    /// One GPS clock per class over its members, running at the
    /// class's share of the link rate. Empty in the prototype.
    clocks: Vec<GpsVirtualClock>,
    /// The link's flow count. Zero in the prototype.
    flows: usize,
}

impl Default for HierarchicalWfqRank {
    /// A two-class prototype — the smallest genuinely hierarchical
    /// configuration.
    fn default() -> Self {
        Self::with_classes(2)
    }
}

impl HierarchicalWfqRank {
    /// A prototype with an explicit class count (clamped to the flow
    /// population at [`RankPolicy::for_link`] time; 1 degenerates to
    /// flat WFQ).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn with_classes(classes: usize) -> Self {
        assert!(classes > 0, "at least one class required");
        Self {
            classes,
            clocks: Vec::new(),
            flows: 0,
        }
    }

    /// The class a flow is assigned to (after [`RankPolicy::for_link`]).
    pub fn class_of(&self, flow: u32) -> Option<usize> {
        let flow = flow as usize;
        (flow < self.flows).then(|| flow % self.clocks.len())
    }

    /// The flow's class clock and its id on that clock.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is out of range.
    fn locate(&self, flow: FlowId) -> (usize, FlowId) {
        let class = self
            .class_of(flow.0)
            .unwrap_or_else(|| panic!("unknown {flow}"));
        (class, FlowId(flow.0 / self.clocks.len() as u32))
    }
}

impl RankPolicy for HierarchicalWfqRank {
    fn for_link(&self, flows: &[FlowSpec], link_rate_bps: f64) -> Self {
        let classes = self.classes.min(flows.len()).max(1);
        // The class clocks are built in one pass over the specs, at the
        // link rate until the class shares are known.
        let mut clocks = GpsVirtualClock::for_classes(flows, classes, link_rate_bps);
        // Both sums run in flow-id order, so every rate (and V) is
        // bit-identical to summing a dense weight vector.
        let total: f64 = (0..flows.len())
            .map(|f| clocks[f % classes].weight(f / classes))
            .sum();
        for clock in &mut clocks {
            // A class clock sees only its members' arrivals, so GPS
            // virtual time inside the class advances exactly as if the
            // other classes were idle.
            let class_weight = clock.weight_sum();
            clock.set_rate(link_rate_bps * class_weight / total);
        }
        Self {
            classes: self.classes,
            clocks,
            flows: flows.len(),
        }
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        let (class, local) = self.locate(pkt.flow);
        self.clocks[class]
            .on_arrival(local, pkt.size_bits(), pkt.arrival)
            .1
    }

    fn advance(&mut self, now: Time) {
        for clock in &mut self.clocks {
            clock.advance(now);
        }
    }

    fn rank_floor(&self) -> VirtualTime {
        self.clocks
            .iter()
            .map(GpsVirtualClock::virtual_now)
            .min()
            .unwrap_or(VirtualTime::ZERO)
    }

    fn tick_scale(&self, link_rate_bps: f64) -> f64 {
        link_rate_bps / 50_000.0
    }

    fn name(&self) -> &'static str {
        "hwfq"
    }

    fn state_words(&self) -> Vec<u64> {
        let mut words = vec![self.clocks.len() as u64];
        for clock in &self.clocks {
            let s = clock.state_words();
            words.push(s.len() as u64);
            words.extend(s);
        }
        words
    }

    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        let Some((&classes, mut rest)) = words.split_first() else {
            return Err(StateError {
                field: "hwfq state length",
                value: 0,
            });
        };
        StateError::require("hwfq class count", classes, self.clocks.len() as u64)?;
        for clock in &mut self.clocks {
            let truncated = StateError {
                field: "hwfq class state length",
                value: rest.first().copied().unwrap_or(0),
            };
            let (state, tail) = rest
                .split_first()
                .and_then(|(&len, tail)| tail.split_at_checked(usize::try_from(len).ok()?))
                .ok_or(truncated)?;
            clock.load_state_words(state)?;
            rest = tail;
        }
        StateError::require("hwfq trailing words", rest.len() as u64, 0)
    }

    fn flow_finish(&self, flow: FlowId) -> VirtualTime {
        let (class, local) = self.locate(flow);
        self.clocks[class].last_finish_of(local)
    }

    fn adopt_flow(&mut self, flow: FlowId, finish: VirtualTime) {
        let (class, local) = self.locate(flow);
        let cur = self.clocks[class].last_finish_of(local);
        self.clocks[class].set_last_finish(local, cur.max(finish));
    }
}

/// Every shipped policy behind one concrete type, for runtime selection
/// (the CLI's `--policy` flag): one monomorphization instead of one per
/// policy, at the cost of a per-packet `match`.
#[derive(Debug, Clone)]
pub enum AnyPolicy {
    /// [`WfqRank`].
    Wfq(WfqRank),
    /// [`StfqRank`].
    Stfq(StfqRank),
    /// [`SrptRank`].
    Srpt(SrptRank),
    /// [`FifoPlusRank`].
    FifoPlus(FifoPlusRank),
    /// [`StrictPriorityRank`].
    Prio(StrictPriorityRank),
    /// [`LeakyBucketRank`].
    Leaky(LeakyBucketRank),
    /// [`HierarchicalWfqRank`].
    Hwfq(HierarchicalWfqRank),
}

impl Default for AnyPolicy {
    fn default() -> Self {
        Self::Wfq(WfqRank::default())
    }
}

impl AnyPolicy {
    /// Every accepted policy name, in the order the CLI documents them.
    pub const NAMES: [&'static str; 7] = ["wfq", "stfq", "srpt", "fifo+", "prio", "leaky", "hwfq"];

    /// A prototype for `name`, or `None` for an unknown name (see
    /// [`AnyPolicy::NAMES`]).
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "wfq" => Self::Wfq(WfqRank::default()),
            "stfq" => Self::Stfq(StfqRank::default()),
            "srpt" => Self::Srpt(SrptRank),
            "fifo+" => Self::FifoPlus(FifoPlusRank::default()),
            "prio" => Self::Prio(StrictPriorityRank::default()),
            "leaky" => Self::Leaky(LeakyBucketRank::default()),
            "hwfq" => Self::Hwfq(HierarchicalWfqRank::default()),
            _ => return None,
        })
    }
}

macro_rules! delegate {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Wfq($p) => $body,
            AnyPolicy::Stfq($p) => $body,
            AnyPolicy::Srpt($p) => $body,
            AnyPolicy::FifoPlus($p) => $body,
            AnyPolicy::Prio($p) => $body,
            AnyPolicy::Leaky($p) => $body,
            AnyPolicy::Hwfq($p) => $body,
        }
    };
}

impl RankPolicy for AnyPolicy {
    fn for_link(&self, flows: &[FlowSpec], link_rate_bps: f64) -> Self {
        match self {
            Self::Wfq(p) => Self::Wfq(p.for_link(flows, link_rate_bps)),
            Self::Stfq(p) => Self::Stfq(p.for_link(flows, link_rate_bps)),
            Self::Srpt(p) => Self::Srpt(p.for_link(flows, link_rate_bps)),
            Self::FifoPlus(p) => Self::FifoPlus(p.for_link(flows, link_rate_bps)),
            Self::Prio(p) => Self::Prio(p.for_link(flows, link_rate_bps)),
            Self::Leaky(p) => Self::Leaky(p.for_link(flows, link_rate_bps)),
            Self::Hwfq(p) => Self::Hwfq(p.for_link(flows, link_rate_bps)),
        }
    }

    fn rank(&mut self, pkt: &Packet) -> VirtualTime {
        delegate!(self, p => p.rank(pkt))
    }

    fn on_service(&mut self, pkt: &Packet, rank: VirtualTime) {
        delegate!(self, p => p.on_service(pkt, rank))
    }

    fn advance(&mut self, now: Time) {
        delegate!(self, p => p.advance(now))
    }

    fn rank_floor(&self) -> VirtualTime {
        delegate!(self, p => p.rank_floor())
    }

    fn monotone(&self) -> bool {
        delegate!(self, p => p.monotone())
    }

    fn tick_scale(&self, link_rate_bps: f64) -> f64 {
        delegate!(self, p => p.tick_scale(link_rate_bps))
    }

    fn name(&self) -> &'static str {
        delegate!(self, p => p.name())
    }

    fn state_words(&self) -> Vec<u64> {
        delegate!(self, p => p.state_words())
    }

    fn load_state_words(&mut self, words: &[u64]) -> Result<(), StateError> {
        delegate!(self, p => p.load_state_words(words))
    }

    fn flow_finish(&self, flow: FlowId) -> VirtualTime {
        delegate!(self, p => p.flow_finish(flow))
    }

    fn adopt_flow(&mut self, flow: FlowId, finish: VirtualTime) {
        delegate!(self, p => p.adopt_flow(flow, finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::FlowId;

    fn flows(weights: &[f64]) -> Vec<FlowSpec> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| FlowSpec::new(FlowId(i as u32), w, 1e6))
            .collect()
    }

    fn pkt(flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq: 0,
        }
    }

    #[test]
    fn wfq_rank_matches_the_raw_virtual_clock() {
        let fl = flows(&[1.0, 3.0]);
        let mut policy = WfqRank::default().for_link(&fl, 1e6);
        let mut clock = GpsVirtualClock::new(&[1.0, 3.0], 1e6);
        for i in 0..40u32 {
            let p = pkt(i % 2, f64::from(i) * 1e-4, 200 + 37 * i);
            let want = clock.on_arrival(p.flow, p.size_bits(), p.arrival).1;
            assert_eq!(policy.rank(&p), want, "packet {i}");
            assert_eq!(policy.rank_floor(), clock.virtual_now());
        }
    }

    #[test]
    fn stfq_start_tags_are_monotone_per_flow_and_v_advances() {
        let fl = flows(&[1.0, 2.0]);
        let mut p = StfqRank::default().for_link(&fl, 1e6);
        let r0 = p.rank(&pkt(0, 0.0, 500));
        let r1 = p.rank(&pkt(0, 0.0, 500));
        assert_eq!(r0, VirtualTime::ZERO);
        assert_eq!(r1.value(), 4000.0, "second packet starts at F_prev");
        // Serving the 4000-rank packet advances V: flow 1's next start
        // is at least V.
        p.on_service(&pkt(0, 0.0, 500), r1);
        assert_eq!(p.rank_floor().value(), 4000.0);
        assert_eq!(p.rank(&pkt(1, 0.0, 500)).value(), 4000.0);
    }

    #[test]
    fn srpt_and_prio_are_bounded_domain() {
        let fl = flows(&[4.0, 1.0, 4.0]);
        let mut srpt = SrptRank.for_link(&fl, 1e6);
        assert!(!RankPolicy::monotone(&srpt));
        assert_eq!(srpt.rank(&pkt(0, 0.0, 100)).value(), 800.0);
        let mut prio = StrictPriorityRank::default().for_link(&fl, 1e6);
        assert!(!RankPolicy::monotone(&prio));
        // Weight 4 flows share class 0; weight 1 is class 1.
        assert_eq!(prio.rank(&pkt(0, 0.0, 100)).value(), 0.0);
        assert_eq!(prio.rank(&pkt(1, 0.0, 100)).value(), 1.0);
        assert_eq!(prio.rank(&pkt(2, 0.0, 100)).value(), 0.0);
    }

    #[test]
    fn leaky_bucket_accumulates_debt_above_contract() {
        let fl = flows(&[1.0, 1.0]); // 1 Mb/s contracted each
        let mut p = LeakyBucketRank::default().for_link(&fl, 10e6);
        // Flow 0 bursts 3 x 1250 B back-to-back: 10 ms of tokens each.
        let r1 = p.rank(&pkt(0, 0.0, 1250));
        let r2 = p.rank(&pkt(0, 0.0, 1250));
        let r3 = p.rank(&pkt(0, 0.0, 1250));
        assert!((r1.value() - 0.01).abs() < 1e-12);
        assert!((r2.value() - 0.02).abs() < 1e-12);
        assert!((r3.value() - 0.03).abs() < 1e-12);
        // A conforming flow arriving later still ranks first.
        let r = p.rank(&pkt(1, 0.005, 1250));
        assert!((r.value() - 0.015).abs() < 1e-12);
        assert!(r < r2);
    }

    #[test]
    fn hierarchical_with_one_class_is_flat_wfq() {
        let fl = flows(&[1.0, 3.0, 2.0]);
        let mut h = HierarchicalWfqRank::with_classes(1).for_link(&fl, 1e6);
        let mut w = WfqRank::default().for_link(&fl, 1e6);
        for i in 0..60u32 {
            let p = pkt(i % 3, f64::from(i) * 1e-4, 100 + 53 * i);
            assert_eq!(h.rank(&p), w.rank(&p), "packet {i}");
            assert_eq!(h.rank_floor(), w.rank_floor());
        }
    }

    #[test]
    fn hierarchical_classes_split_the_link() {
        let fl = flows(&[1.0, 1.0, 1.0, 1.0]);
        let h = HierarchicalWfqRank::with_classes(2).for_link(&fl, 1e6);
        assert_eq!(h.class_of(0), Some(0));
        assert_eq!(h.class_of(1), Some(1));
        assert_eq!(h.class_of(2), Some(0));
        assert_eq!(h.class_of(3), Some(1));
        // Class count is clamped to the population.
        let h = HierarchicalWfqRank::with_classes(9).for_link(&fl, 1e6);
        assert_eq!(h.class_of(3), Some(3));
    }

    #[test]
    fn state_words_round_trip_every_policy() {
        // Drive each policy through a mixed arrival/service history,
        // snapshot it, load the snapshot into a freshly built twin, and
        // check both emit identical ranks from there on.
        let fl = flows(&[1.0, 3.0, 2.0]);
        for name in AnyPolicy::NAMES {
            let proto = AnyPolicy::by_name(name).expect(name);
            let mut live = proto.for_link(&fl, 1e6);
            for i in 0..30u32 {
                let p = pkt(i % 3, f64::from(i) * 1e-4, 200 + 31 * i);
                let r = live.rank(&p);
                if i % 4 == 0 {
                    live.on_service(&p, r);
                }
            }
            let words = live.state_words();
            let mut twin = proto.for_link(&fl, 1e6);
            assert_eq!(twin.load_state_words(&words), Ok(()), "{name}");
            assert_eq!(twin.state_words(), words, "{name}: reload changed state");
            assert_eq!(twin.rank_floor(), live.rank_floor(), "{name}");
            for i in 30..60u32 {
                let p = pkt(i % 3, f64::from(i) * 1e-4, 200 + 31 * i);
                assert_eq!(twin.rank(&p), live.rank(&p), "{name} packet {i}");
            }
        }
    }

    #[test]
    fn state_words_refuse_wrong_lengths_and_non_finite_words() {
        // Every word of every policy's image is a float, a count, a
        // length or a 0/1 flag, so NaN or infinity bits in any of them
        // must be refused, as must one word too many or too few.
        let fl = flows(&[1.0, 3.0, 2.0]);
        for name in AnyPolicy::NAMES {
            let proto = AnyPolicy::by_name(name).expect(name);
            let mut live = proto.for_link(&fl, 1e6);
            for i in 0..12u32 {
                live.rank(&pkt(i % 3, f64::from(i) * 1e-4, 300));
            }
            let words = live.state_words();
            let load = |image: &[u64]| proto.for_link(&fl, 1e6).load_state_words(image);
            assert_eq!(load(&words), Ok(()), "{name}");
            let mut long = words.clone();
            long.push(0);
            assert!(load(&long).is_err(), "{name}: a trailing word restored");
            if let Some((_, short)) = words.split_last() {
                assert!(load(short).is_err(), "{name}: a short image restored");
            }
            for at in 0..words.len() {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut image = words.clone();
                    image[at] = bad.to_bits();
                    assert!(load(&image).is_err(), "{name}: {bad} at word {at}");
                }
            }
        }
    }

    #[test]
    fn hwfq_refuses_truncated_and_trailing_images() {
        let fl = flows(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut live = HierarchicalWfqRank::with_classes(2).for_link(&fl, 1e6);
        for i in 0..10u32 {
            live.rank(&pkt(i % 5, f64::from(i) * 1e-4, 300));
        }
        let words = live.state_words();
        let restore = |image: &[u64]| {
            HierarchicalWfqRank::with_classes(2)
                .for_link(&fl, 1e6)
                .load_state_words(image)
                .map_err(|e| e.field)
        };
        assert_eq!(restore(&words), Ok(()));
        assert_eq!(restore(&[]), Err("hwfq state length"));
        for cut in 1..words.len() {
            assert_eq!(
                restore(&words[..cut]),
                Err("hwfq class state length"),
                "cut at {cut}"
            );
        }
        let mut long = words.clone();
        long.push(0);
        assert_eq!(restore(&long), Err("hwfq trailing words"));
        // A length word past the end must not overflow the slice bound.
        let mut huge = words;
        huge[1] = u64::MAX;
        assert_eq!(restore(&huge), Err("hwfq class state length"));
    }

    #[test]
    fn hwfq_class_clocks_hold_only_their_members() {
        let fl = flows(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let h = HierarchicalWfqRank::with_classes(2).for_link(&fl, 1e6);
        // Class 0 holds flows 0, 2, 4 and class 1 flows 1, 3: one clock
        // record per flow in all, each a finish and a busy word.
        let clock_flows: Vec<u64> = h.clocks.iter().map(|c| c.state_words()[2]).collect();
        assert_eq!(clock_flows, [3, 2]);
        assert_eq!(h.class_of(5), None);
    }

    #[test]
    fn hwfq_built_from_scrambled_specs_ranks_as_dense_class_clocks() {
        // Uneven weights whose sums depend on the summation order, and
        // specs in no particular id order.
        let weights = [0.1, 3.0, 0.7, 1e-3, 2.5, 0.3, 7.0, 0.2, 1.1];
        let mut fl = flows(&weights);
        fl.reverse();
        fl.swap(2, 6);
        let classes = 3;
        let mut h = HierarchicalWfqRank::with_classes(classes).for_link(&fl, 1e6);
        let total: f64 = weights.iter().sum();
        let mut dense: Vec<GpsVirtualClock> = (0..classes)
            .map(|c| {
                let members: Vec<f64> = weights.iter().skip(c).step_by(classes).copied().collect();
                let class_weight: f64 = members.iter().sum();
                GpsVirtualClock::new(&members, 1e6 * class_weight / total)
            })
            .collect();
        for i in 0..90u32 {
            let p = pkt((i * 7) % 9, f64::from(i) * 3e-5, 64 + 97 * i);
            let local = FlowId(p.flow.0 / classes as u32);
            let clock = &mut dense[p.flow.0 as usize % classes];
            let want = clock.on_arrival(local, p.size_bits(), p.arrival).1;
            assert_eq!(
                h.rank(&p).value().to_bits(),
                want.value().to_bits(),
                "packet {i}"
            );
        }
    }

    /// Specs in any id order build the same clocks. The shuffled table
    /// keeps its first five specs in order, so the build appends records
    /// and then claims the rest in place.
    #[test]
    fn shuffled_and_ordered_tables_build_the_same_clocks() {
        let weights: Vec<f64> = (0..23).map(|i| [1.0, 1.0, 2.5, 0.3, 7.0][i % 5]).collect();
        let ordered = flows(&weights);
        let mut shuffled = ordered.clone();
        shuffled[5..].reverse();
        shuffled.swap(7, 20);
        let tables = [&ordered, &shuffled];
        let mut clocks = tables.map(|t| GpsVirtualClock::for_flows(t, 1e6));
        let mut hwfq = tables.map(|t| HierarchicalWfqRank::with_classes(3).for_link(t, 1e6));
        let bits = |(s, f): (VirtualTime, VirtualTime)| (s.value().to_bits(), f.value().to_bits());
        for i in 0..120u32 {
            let p = pkt((i * 5) % 23, f64::from(i) * 2e-5, 64 + 53 * i);
            let [a, b] = &mut clocks;
            let tags =
                |c: &mut GpsVirtualClock| bits(c.on_arrival(p.flow, p.size_bits(), p.arrival));
            assert_eq!(tags(a), tags(b), "clock, packet {i}");
            assert_eq!(a.state_words(), b.state_words(), "clock, packet {i}");
            let [a, b] = &mut hwfq;
            assert_eq!(a.rank(&p), b.rank(&p), "hwfq, packet {i}");
            assert_eq!(a.state_words(), b.state_words(), "hwfq, packet {i}");
        }
    }

    fn panic_message(build: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(build).expect_err("table accepted");
        err.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// The weight vector tracks seen ids apart from the weights, so a
    /// zero weight (the old "not yet seen" marker) hides no repeated id,
    /// and a weight that is not positive and finite is refused itself.
    #[test]
    fn a_zero_weight_cannot_hide_a_repeated_id() {
        let spec = |id, weight| FlowSpec {
            weight,
            ..FlowSpec::new(FlowId(id), 1.0, 1e6)
        };
        let cases = [
            (vec![spec(0, 1.0), spec(0, 0.0)], "dense and unique"),
            (vec![spec(0, 0.0), spec(0, 1.0)], "positive and finite"),
            (vec![spec(0, 1.0), spec(1, -2.0)], "positive and finite"),
            (vec![spec(0, f64::NAN), spec(1, 1.0)], "positive and finite"),
            (
                vec![spec(1, f64::INFINITY), spec(0, 1.0)],
                "positive and finite",
            ),
        ];
        for (table, want) in cases {
            for policy in [AnyPolicy::by_name("stfq"), AnyPolicy::by_name("prio")] {
                let policy = policy.expect("a listed name");
                let msg = panic_message(|| drop(policy.for_link(&table, 1e6)));
                assert!(msg.contains(want), "{} on {table:?}: {msg}", policy.name());
            }
        }
    }

    #[test]
    fn adopt_flow_keeps_per_flow_ranks_monotone() {
        // A migrated-in flow whose translated history sits ahead of the
        // destination clock must rank at or after that history.
        let fl = flows(&[1.0, 1.0]);
        for name in AnyPolicy::NAMES {
            let proto = AnyPolicy::by_name(name).expect(name);
            let mut p = proto.for_link(&fl, 1e6);
            // Local traffic on flow 1 moves the destination clock.
            for i in 0..5u32 {
                let r = p.rank(&pkt(1, f64::from(i) * 1e-4, 400));
                p.on_service(&pkt(1, f64::from(i) * 1e-4, 400), r);
            }
            let inherited = VirtualTime(p.rank_floor().value() + 1000.0);
            p.adopt_flow(FlowId(0), inherited);
            assert!(
                p.flow_finish(FlowId(0)) >= p.rank_floor(),
                "{name}: exported finish below floor"
            );
            if matches!(name, "wfq" | "stfq" | "leaky" | "hwfq") {
                let r = p.rank(&pkt(0, 5e-4, 400));
                assert!(
                    r >= inherited,
                    "{name}: post-adoption rank {r} precedes inherited {inherited}"
                );
            }
        }
    }

    #[test]
    fn adopt_flow_never_moves_history_backwards() {
        let fl = flows(&[1.0, 1.0]);
        let mut p = WfqRank::default().for_link(&fl, 1e6);
        let r = p.rank(&pkt(0, 0.0, 1500));
        // Adopting an older (smaller) finish than the flow already has
        // must keep the larger one.
        p.adopt_flow(FlowId(0), VirtualTime(r.value() - 500.0));
        assert_eq!(p.flow_finish(FlowId(0)), r);
    }

    #[test]
    fn any_policy_round_trips_names() {
        for name in AnyPolicy::NAMES {
            let proto = AnyPolicy::by_name(name).expect(name);
            assert_eq!(proto.name(), name);
        }
        assert!(AnyPolicy::by_name("nope").is_none());
        let fl = flows(&[1.0, 2.0]);
        let mut p = AnyPolicy::by_name("stfq").unwrap().for_link(&fl, 1e6);
        assert_eq!(p.rank(&pkt(0, 0.0, 500)), VirtualTime::ZERO);
        assert!(p.monotone());
        assert!(!AnyPolicy::by_name("srpt").unwrap().monotone());
    }
}
