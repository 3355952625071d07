//! Sharded multi-port egress frontend.
//!
//! The paper's circuit sorts tags for **one** egress link. A line card,
//! though, serves many output ports, and the natural way to scale the
//! design is the one §IV's scalability argument invites: replicate the
//! sort/retrieve circuit per port and keep each flow's tags inside one
//! sorter, so the per-flow FIFO order that WFQ tag arithmetic assumes is
//! never split across sorters.
//!
//! [`ShardedScheduler`] instantiates one independent [`HwScheduler`] per
//! output port and routes arriving packets by **flow affinity**:
//! [`shard_of`] is a pure hash of the flow id, so a flow's packets always
//! meet the same shard, in order. Under [`Placement::Dynamic`] the
//! frontend's ownership table starts from that hash and follows flows as
//! they migrate.
//! On the service side, [`ShardedScheduler::dequeue`] drives a
//! work-conserving round-robin across ports — it never reports an idle
//! frontend while any shard holds a packet.
//!
//! The frontend owns every decision: routing and the global↔local flow
//! ids, the migration protocol and rebalancing, the round-robin service
//! order, which ports to poll, and statistics. Every port's scheduler
//! runs on the caller's thread and each per-port step is a direct method
//! call, so the frontend allocates nothing per packet. The circuits'
//! concurrency is modeled in cycles, not run on OS threads.
//!
//! [`ShardedScheduler::new`] builds uniform links with the paper's
//! circuit and WFQ ranks, and
//! [`ShardedScheduler::with_policy_port_rates_placement`] everything
//! else — per-port link rates, another sort backend or rank policy, and
//! dynamic placement. [`ShardedScheduler::attach_telemetry`] and
//! [`ShardedScheduler::with_rebalancer`] add instruments and live
//! rebalancing.
//!
//! Each shard keeps the fixed four-cycle-per-packet slot of the single
//! circuit, so the frontend's *modeled* aggregate throughput scales
//! linearly with the port count ([`ShardStats::modeled_packets_per_second`]):
//! N ports sustain N × 35.8 Mpps at the paper's 143.2 MHz clock.
//! Each port's rate drives that shard's WFQ virtual clock and
//! [`ShardedLinkSim`]'s per-port service times.
//!
//! # Example
//!
//! ```
//! use scheduler::{SchedulerConfig, ShardedScheduler};
//! use traffic::{FlowId, FlowSpec, Packet, Time};
//!
//! # fn main() -> Result<(), scheduler::ShardError> {
//! let flows: Vec<FlowSpec> = (0..8)
//!     .map(|i| FlowSpec::new(FlowId(i), 1.0, 1e6))
//!     .collect();
//! let mut fe = ShardedScheduler::new(&flows, 10e9, 2, SchedulerConfig::default());
//! fe.enqueue(Packet { flow: FlowId(3), size_bytes: 140, arrival: Time(0.0), seq: 0 })?;
//! let (port, pkt) = fe.dequeue().expect("backlogged");
//! assert_eq!(pkt.flow, FlowId(3));
//! assert_eq!(port, fe.port_of(FlowId(3)).unwrap());
//! # Ok(())
//! # }
//! ```
//!
//! Two ports at different link rates:
//!
//! ```
//! use fairq::WfqRank;
//! use scheduler::{Placement, SchedulerConfig, ShardedScheduler};
//! use traffic::{FlowId, FlowSpec, Packet, Time};
//!
//! # fn main() -> Result<(), scheduler::ShardError> {
//! let flows: Vec<FlowSpec> = (0..8)
//!     .map(|i| FlowSpec::new(FlowId(i), 1.0, 1e6))
//!     .collect();
//! let mut fe: ShardedScheduler = ShardedScheduler::with_policy_port_rates_placement(
//!     &flows,
//!     &[10e9, 1e9],
//!     SchedulerConfig::default(),
//!     &WfqRank::default(),
//!     Placement::Hash,
//! );
//! for seq in 0..32 {
//!     let flow = FlowId((seq % 8) as u32);
//!     fe.enqueue(Packet { flow, size_bytes: 140, arrival: Time(seq as f64 * 1e-6), seq })?;
//! }
//! assert_eq!(fe.drain().len(), 32);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use fairq::{Admit, Departure, Egress, RankPolicy, WfqRank};
use statesync::{Placement, Rebalancer, RebalancerConfig, ShardLoad};
use tagsort::{CircuitStats, SortBackend, SortRetrieveCircuit};
use telemetry::{Event, EventKind, Snapshot, Telemetry};
use traffic::{FlowId, FlowSpec, Packet, Time};

use crate::egress::EgressSim;
use crate::hwsched::{HwScheduler, SchedulerConfig, SchedulerError, SchedulerStats, SojournStamp};

/// The output port a flow is pinned to, as a pure function of the flow
/// id and the port count.
///
/// A SplitMix64-style finalizer whitens the id before the modulo, so
/// consecutive flow ids spread across ports instead of striping. Because
/// the mapping depends on nothing else — no table, no arrival history —
/// recomputing it anywhere (router, tests, post-run analysis) always
/// yields the same answer.
///
/// # Panics
///
/// Panics if `ports` is zero.
pub fn shard_of(flow: FlowId, ports: usize) -> usize {
    assert!(ports > 0, "at least one port required");
    let mut z = u64::from(flow.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % ports as u64) as usize
}

/// Errors from the sharded frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The packet names a flow the frontend was not configured with.
    UnknownFlow {
        /// The offending flow id.
        flow: u32,
        /// Configured flow count.
        flows: usize,
    },
    /// A shard refused the packet; the port identifies which.
    Port {
        /// The output port whose shard failed.
        port: usize,
        /// The underlying scheduler error.
        source: SchedulerError,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::UnknownFlow { flow, flows } => {
                write!(f, "flow {flow} not configured ({flows} flows)")
            }
            ShardError::Port { port, source } => write!(f, "port {port}: {source}"),
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Port { source, .. } => Some(source),
            ShardError::UnknownFlow { .. } => None,
        }
    }
}

/// Per-port and aggregated instrumentation of a sharded frontend.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Each port's scheduler statistics, indexed by port.
    pub per_port: Vec<SchedulerStats>,
    /// Sums across ports (access worst cases take the maximum, matching
    /// [`hwsim::AccessStats::merge`]). Note that the aggregate's
    /// `circuit.cycles_per_op()` is still the per-circuit slot cost (4),
    /// because every shard spends its own cycles concurrently; use
    /// [`ShardStats::modeled_packets_per_second`] for frontend
    /// throughput. The aggregate's `buffer.peak` is the genuine
    /// frontend-wide high-water mark (tracked across all ports at once),
    /// which can be less than the sum of per-port peaks because ports
    /// peak at different times.
    pub aggregate: SchedulerStats,
}

impl ShardStats {
    /// The frontend's modeled packet throughput at a given circuit
    /// clock: the sum of every shard's independent
    /// [`CircuitStats::packets_per_second`]. Shards run concurrently in
    /// hardware, so N busy ports sustain N times the single circuit's
    /// 35.8 Mpps.
    pub fn modeled_packets_per_second(&self, clock_hz: f64) -> f64 {
        self.per_port
            .iter()
            .map(|s| s.circuit.packets_per_second(clock_hz))
            .sum()
    }

    /// Load-balance quality: the max/mean ratio of per-port admitted
    /// packets (`enqueued`). 1.0 is a perfectly even spread; N means
    /// everything landed on one of N ports. An idle frontend (no
    /// admissions anywhere) reports 1.0.
    pub fn shard_balance(&self) -> f64 {
        let max = self.per_port.iter().map(|s| s.enqueued).max().unwrap_or(0);
        let total: u64 = self.per_port.iter().map(|s| s.enqueued).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.per_port.len() as f64;
        max as f64 / mean
    }

    /// Routes the aggregate under `{prefix}_agg` and each port's
    /// headline occupancy figures under `{prefix}_port{i}_*` into a
    /// telemetry snapshot — the multi-port analogue of
    /// [`SchedulerStats::export`].
    pub fn export(&self, prefix: &str, snap: &mut Snapshot) {
        self.aggregate.export(&format!("{prefix}_agg"), snap);
        for (i, s) in self.per_port.iter().enumerate() {
            let p = format!("{prefix}_port{i}");
            snap.put(&format!("{p}_enqueued"), s.enqueued as f64);
            snap.put(&format!("{p}_dequeued"), s.dequeued as f64);
            snap.put(&format!("{p}_buf_occupied"), s.buffer.occupied as f64);
            snap.put(&format!("{p}_buf_peak"), s.buffer.peak as f64);
            snap.put(&format!("{p}_buf_rejected"), s.buffer.rejected as f64);
        }
    }
}

fn sum_circuit(agg: &mut CircuitStats, s: &CircuitStats) {
    agg.ops += s.ops;
    agg.store_cycles += s.store_cycles;
    agg.trie.merge(&s.trie);
    agg.translation.merge(&s.translation);
    agg.sram.reads += s.sram.reads;
    agg.sram.writes += s.sram.writes;
    agg.sram.busy_cycles += s.sram.busy_cycles;
    agg.recycled_sections += s.recycled_sections;
    agg.recycled_markers += s.recycled_markers;
}

/// Rolls per-port scheduler stats into one [`ShardStats`], with the
/// frontend-wide high-water mark `peak`.
fn aggregate_stats(per_port: Vec<SchedulerStats>, peak: usize) -> ShardStats {
    let mut aggregate = per_port[0].clone();
    for s in &per_port[1..] {
        sum_circuit(&mut aggregate.circuit, &s.circuit);
        aggregate.buffer.occupied += s.buffer.occupied;
        aggregate.buffer.stored += s.buffer.stored;
        aggregate.buffer.rejected += s.buffer.rejected;
        aggregate.enqueued += s.enqueued;
        aggregate.dequeued += s.dequeued;
        aggregate.clamped += s.clamped;
        aggregate.inversions += s.inversions;
        aggregate.pushed_out += s.pushed_out;
        aggregate.migrated_in += s.migrated_in;
        aggregate.migrated_out += s.migrated_out;
    }
    // The frontend-wide high-water mark, not the sum of per-port
    // peaks: ports peak at different times, so summing would
    // overstate true peak occupancy.
    aggregate.buffer.peak = peak;
    ShardStats {
        per_port,
        aggregate,
    }
}

/// A multi-port egress frontend: one [`HwScheduler`] per output port,
/// flow-affinity routing, live migration, and work-conserving service
/// across ports, every port running on the caller's thread.
///
/// Flow ids stay **global** at this interface: under hash placement the
/// frontend renumbers them into each shard's dense local space on the
/// way in (the [`HwScheduler`] contract) and restores the global id on
/// the way out.
#[derive(Debug, Clone)]
pub struct ShardedScheduler<B: SortBackend = SortRetrieveCircuit, P: RankPolicy = WfqRank> {
    /// Each port's scheduler, indexed by port.
    shards: Vec<HwScheduler<B, P>>,
    /// Each port's egress link rate, bits per second.
    rates: Vec<f64>,
    /// Global flow id → the flow's id on its port, under hash placement:
    /// each port numbers its flows in global id order. Dynamic placement
    /// keeps global ids on every port and leaves this empty. Each shard
    /// holds the inverse map.
    local: Vec<u32>,
    /// Global flow id → owning port: [`shard_of`] at construction, then
    /// rewritten by every completed migration.
    owner: Vec<u32>,
    /// How flows are placed on ports.
    placement: Placement,
    /// Per-flow admitted-packet counts (global ids) — the rebalancer's
    /// signal for *which* flow to move off a hot port.
    flow_arrivals: Vec<u64>,
    /// Per-port `enqueued` at the last rebalance round, for arrival
    /// deltas.
    last_enqueued: Vec<u64>,
    /// Migration advisor (None until
    /// [`ShardedScheduler::with_rebalancer`]).
    rebalancer: Option<Rebalancer>,
    /// Completed flow migrations.
    migrations: u64,
    /// Next port the work-conserving round-robin inspects.
    cursor: usize,
    /// Frontend-wide high-water mark of queued packets (all ports at
    /// the same instant — not the sum of per-port peaks).
    peak: usize,
}

impl ShardedScheduler {
    /// Creates a frontend of `ports` output ports, each an independent
    /// link of `port_rate_bps` sorting with the paper's trie circuit and
    /// ranking with WFQ finishing tags; flows are placed by
    /// [`shard_of`]. Per-port rates, other backends or policies, and
    /// dynamic placement are
    /// [`ShardedScheduler::with_policy_port_rates_placement`].
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero, plus as
    /// [`ShardedScheduler::with_policy_port_rates_placement`].
    pub fn new(
        flows: &[FlowSpec],
        port_rate_bps: f64,
        ports: usize,
        config: SchedulerConfig,
    ) -> Self {
        Self::with_policy_port_rates_placement(
            flows,
            &vec![port_rate_bps; ports],
            config,
            &WfqRank::default(),
            Placement::Hash,
        )
    }
}

impl<B: SortBackend, P: RankPolicy> ShardedScheduler<B, P> {
    /// Creates a frontend with one output port per entry of
    /// `port_rates_bps`, each an independent link of its own rate — the
    /// non-uniform line card (a few 40G uplinks next to many 1G access
    /// ports). Every port's scheduler sorts with backend `B` and ranks
    /// with `prototype`, specialized to that port's flows and rate via
    /// [`RankPolicy::for_link`], so finishing tags — and therefore
    /// per-flow delay and fairness — are computed against the link the
    /// flow actually gets. Each port gets an independent fault stream:
    /// the same campaign, its seed offset by the port index.
    ///
    /// Under [`Placement::Hash`] each port is built with only its
    /// [`shard_of`] flows, renumbered into a dense local space. Under
    /// [`Placement::Dynamic`] every port is built with the full flow
    /// table, so [`ShardedScheduler::migrate_flow`] can later move any
    /// flow's backlog to any port; initial ownership is still
    /// [`shard_of`], so before the first migration it serves exactly
    /// like hash placement.
    ///
    /// # Panics
    ///
    /// Panics if `port_rates_bps` is empty, any rate is not positive and
    /// finite, flow ids are not dense and unique (each port's rank
    /// policy refuses such a table), or hash placement leaves some
    /// port without any flow (use more flows or fewer ports — an unused
    /// port has no traffic to schedule). Dynamic placement also requires
    /// `config.cleanup == CleanupPolicy::Eager` (flow extraction walks
    /// live tree markers). The policy/cleanup checks of
    /// [`HwScheduler::with_backend_and_policy`] apply to every port.
    pub fn with_policy_port_rates_placement(
        flows: &[FlowSpec],
        port_rates_bps: &[f64],
        config: SchedulerConfig,
        prototype: &P,
        placement: Placement,
    ) -> Self {
        assert!(!port_rates_bps.is_empty(), "at least one port required");
        for (port, &r) in port_rates_bps.iter().enumerate() {
            assert!(
                r > 0.0 && r.is_finite(),
                "port {port}: rate must be positive and finite, got {r}"
            );
        }
        if placement == Placement::Dynamic {
            assert_eq!(
                config.cleanup,
                tagsort::CleanupPolicy::Eager,
                "dynamic placement requires CleanupPolicy::Eager \
                 (flow extraction walks live tree markers)"
            );
        }
        let ports = port_rates_bps.len();
        let owner: Vec<u32> = (0..flows.len())
            .map(|f| shard_of(FlowId(f as u32), ports) as u32)
            .collect();
        let build = |port: usize, fl: &[FlowSpec]| {
            let mut cfg = config;
            cfg.faults = cfg.faults.map(|f| f.with_seed_offset(port as u64));
            HwScheduler::with_backend_and_policy(fl, port_rates_bps[port], cfg, prototype)
        };
        let mut local = Vec::new();
        let shards = match placement {
            Placement::Dynamic => (0..ports).map(|port| build(port, flows)).collect(),
            Placement::Hash => {
                // Each port numbers its flows in global id order, so the
                // split does not depend on the table's order.
                let mut global: Vec<Vec<u32>> = vec![Vec::new(); ports];
                local = owner
                    .iter()
                    .enumerate()
                    .map(|(id, &port)| {
                        let ids = &mut global[port as usize];
                        ids.push(id as u32);
                        ids.len() as u32 - 1
                    })
                    .collect();
                let mut subsets: Vec<Vec<FlowSpec>> = global
                    .iter()
                    .map(|ids| Vec::with_capacity(ids.len()))
                    .collect();
                for f in flows {
                    // An id outside the table reaches port 0 as it is,
                    // where the policy refuses it as not dense.
                    let (port, id) = match owner.get(f.id.0 as usize) {
                        Some(&port) => (port as usize, local[f.id.0 as usize]),
                        None => (0, f.id.0),
                    };
                    subsets[port].push(FlowSpec {
                        id: FlowId(id),
                        ..*f
                    });
                }
                subsets
                    .into_iter()
                    .zip(global)
                    .enumerate()
                    .map(|(port, (fl, ids))| {
                        assert!(
                            !fl.is_empty(),
                            "flow-affinity hash left port {port} without flows \
                             ({} flows over {ports} ports); use more flows or fewer ports",
                            flows.len()
                        );
                        let mut shard = build(port, &fl);
                        shard.set_global_flow_ids(ids);
                        shard
                    })
                    .collect()
            }
        };
        Self {
            shards,
            rates: port_rates_bps.to_vec(),
            local,
            owner,
            placement,
            flow_arrivals: vec![0; flows.len()],
            last_enqueued: vec![0; ports],
            rebalancer: None,
            migrations: 0,
            cursor: 0,
            peak: 0,
        }
    }

    /// Arms dynamic rebalancing: [`ShardedScheduler::maybe_rebalance`]
    /// rounds feed a [`Rebalancer`] with per-port load and execute the
    /// migration it advises.
    ///
    /// # Panics
    ///
    /// Panics unless the frontend was built with [`Placement::Dynamic`].
    pub fn with_rebalancer(mut self, cfg: RebalancerConfig) -> Self {
        assert_eq!(
            self.placement,
            Placement::Dynamic,
            "rebalancing requires Placement::Dynamic"
        );
        self.rebalancer = Some(Rebalancer::new(self.ports(), cfg));
        self
    }

    /// Connects every port's scheduler to `tel`, each as its own shard
    /// (see [`HwScheduler::attach_telemetry`]). The telemetry's shard
    /// count must equal the port count.
    ///
    /// # Panics
    ///
    /// Panics if `tel` is enabled with a different shard count.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        if tel.is_enabled() {
            assert_eq!(
                tel.shards(),
                self.ports(),
                "telemetry shard count must match port count"
            );
        }
        for (port, shard) in self.shards.iter_mut().enumerate() {
            shard.attach_telemetry(tel, port);
        }
    }

    /// The frontend's telemetry: every port's
    /// [`HwScheduler::telemetry_snapshot`] joined into per-port columns
    /// (events merged in time order), plus `shard_handoffs`, the packets
    /// each port admitted. Empty (over zero shards) while no telemetry
    /// is attached.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::join(
            self.shards
                .iter()
                .map(HwScheduler::telemetry_snapshot)
                .collect(),
        );
        if snap.shards() > 0 {
            let handoffs = self.shards.iter().map(|s| s.stats().enqueued).collect();
            snap.add_counter("shard_handoffs".into(), handoffs);
        }
        snap
    }

    /// Removes and returns the events buffered on one port's ring,
    /// oldest first (see [`HwScheduler::drain_events`]).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn drain_events(&mut self, port: usize) -> Vec<Event> {
        self.shards[port].drain_events()
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.shards.len()
    }

    /// One port's egress link rate, bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn port_rate(&self, port: usize) -> f64 {
        self.rates[port]
    }

    /// Number of configured flows (across all ports).
    pub fn flows(&self) -> usize {
        self.owner.len()
    }

    /// Total queued packets across all ports.
    pub fn len(&self) -> usize {
        self.shards.iter().map(HwScheduler::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued packets on one port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn port_len(&self, port: usize) -> usize {
        self.shards[port].len()
    }

    /// Read access to one port's scheduler (for experiments).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn shard(&self, port: usize) -> &HwScheduler<B, P> {
        &self.shards[port]
    }

    /// The port a configured flow is routed to, or `None` for an
    /// unknown flow id. Under [`Placement::Dynamic`] this answer tracks
    /// migrations.
    pub fn port_of(&self, flow: FlowId) -> Option<usize> {
        self.owner.get(flow.0 as usize).map(|&p| p as usize)
    }

    /// The placement mode the frontend was built with.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Completed flow migrations (see
    /// [`ShardedScheduler::migrate_flow`]).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Routes one packet (global flow id) to its shard: the flow's
    /// current owner, which a completed migration has already moved.
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownFlow`] for an unconfigured flow, or
    /// [`ShardError::Port`] wrapping the shard's refusal.
    pub fn enqueue(&mut self, pkt: Packet) -> Result<(), ShardError> {
        let port = self.port_of(pkt.flow).ok_or(ShardError::UnknownFlow {
            flow: pkt.flow.0,
            flows: self.flows(),
        })?;
        let mut routed = pkt;
        if let Some(&local) = self.local.get(pkt.flow.0 as usize) {
            routed.flow = FlowId(local);
        }
        let shard = &mut self.shards[port];
        shard.emit_now(EventKind::ShardHandoff, u64::from(pkt.flow.0), pkt.seq);
        shard
            .enqueue(routed)
            .map_err(|source| ShardError::Port { port, source })?;
        self.flow_arrivals[pkt.flow.0 as usize] += 1;
        self.peak = self.peak.max(self.len());
        Ok(())
    }

    /// Serves the next packet under work-conserving round-robin: starting
    /// from the port after the last one served, the first backlogged
    /// port's smallest tag is dequeued. Returns the serving port and the
    /// packet (global flow id restored), or `None` only when **every**
    /// shard is empty.
    pub fn dequeue(&mut self) -> Option<(usize, Packet)> {
        let ports = self.ports();
        for step in 0..ports {
            let port = (self.cursor + step) % ports;
            if let Some((pkt, _)) = self.dequeue_port_stamped(port) {
                self.cursor = (port + 1) % ports;
                return Some((port, pkt));
            }
        }
        None
    }

    /// Serves one port's smallest tag, restoring the global flow id.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn dequeue_port(&mut self, port: usize) -> Option<Packet> {
        self.dequeue_port_stamped(port).map(|(pkt, _)| pkt)
    }

    /// Serves one port's smallest tag with the shard's circuit-cycle
    /// stamps (see [`HwScheduler::dequeue_stamped`]), restoring the
    /// global flow id.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn dequeue_port_stamped(&mut self, port: usize) -> Option<(Packet, SojournStamp)> {
        let shard = &mut self.shards[port];
        let (mut pkt, stamp) = shard.dequeue_stamped()?;
        pkt.flow = shard.global_flow(pkt.flow);
        Some((pkt, stamp))
    }

    /// Dequeues everything, in the order repeated
    /// [`ShardedScheduler::dequeue`] calls serve it.
    pub fn drain(&mut self) -> Vec<(usize, Packet)> {
        std::iter::from_fn(|| self.dequeue()).collect()
    }

    /// Per-port and aggregated statistics.
    pub fn stats(&self) -> ShardStats {
        aggregate_stats(
            self.shards.iter().map(HwScheduler::stats).collect(),
            self.peak,
        )
    }

    /// End-of-run fault accounting on every port (see
    /// [`HwScheduler::reconcile_faults`]): each shard sweeps outstanding
    /// detections, after which its snapshot counts never-detected faults
    /// as silent. Returns the `(injected, detected, repaired, silent)`
    /// ledger totals across ports, so `detected + silent == injected` is
    /// verifiable frontend-wide. Idempotent; all zeros without a fault
    /// campaign.
    pub fn reconcile_faults(&mut self) -> (u64, u64, u64, u64) {
        self.shards
            .iter_mut()
            .map(|shard| {
                shard.reconcile_faults();
                shard.fault_totals()
            })
            .fold((0, 0, 0, 0), |acc, (i, d, r, s)| {
                (acc.0 + i, acc.1 + d, acc.2 + r, acc.3 + s)
            })
    }

    /// Moves one flow's entire queued backlog — and its rank state —
    /// from its current port to `to`, preserving per-flow packet order
    /// and translating finishing tags into the destination's virtual
    /// clock (see [`HwScheduler::extract_flow`] /
    /// [`HwScheduler::install_flow`]). Ownership moves to `to` once the
    /// backlog is installed there, so later enqueues land behind it.
    /// Returns the number of packets moved (0 if the flow already lives
    /// on `to`).
    ///
    /// # Errors
    ///
    /// [`ShardError::UnknownFlow`] for an unconfigured flow;
    /// [`ShardError::Port`] if the destination refuses the backlog
    /// (buffer full) — the flow is reinstalled on its source port
    /// unchanged and ownership does not move.
    ///
    /// # Panics
    ///
    /// Panics unless the frontend was built with [`Placement::Dynamic`],
    /// or if `to` is out of range.
    pub fn migrate_flow(&mut self, flow: FlowId, to: usize) -> Result<usize, ShardError> {
        assert!(
            to < self.ports(),
            "port {to} out of range ({} ports)",
            self.ports()
        );
        let from = self.port_of(flow).ok_or(ShardError::UnknownFlow {
            flow: flow.0,
            flows: self.flows(),
        })?;
        if from == to {
            return Ok(0);
        }
        assert_eq!(
            self.placement,
            Placement::Dynamic,
            "flow migration requires Placement::Dynamic"
        );
        // Dynamic placement keeps global flow ids on every shard, so the
        // flow's id is the same on both ports.
        let backlog = self.shards[from].extract_flow(flow);
        if let Err(source) = self.shards[to].install_flow(flow, &backlog) {
            assert!(
                self.shards[from].install_flow(flow, &backlog).is_ok(),
                "reinstalling into the slots just vacated cannot fail"
            );
            return Err(ShardError::Port { port: to, source });
        }
        self.owner[flow.0 as usize] = to as u32;
        self.migrations += 1;
        self.peak = self.peak.max(self.len());
        Ok(backlog.len())
    }

    /// One rebalance round: feeds the [`Rebalancer`] each port's load
    /// (admitted packets since the last round, plus current backlog)
    /// and, if it advises a migration, moves the **hottest** flow of
    /// the overloaded port — most admitted packets overall, lowest id
    /// on ties — to the advised destination. Returns the migration
    /// performed, if any; a destination refusal (buffer full) skips
    /// the round.
    ///
    /// Call this at natural batch boundaries; the rebalancer's EWMA and
    /// cooldown assume roughly comparable rounds.
    ///
    /// # Panics
    ///
    /// Panics unless [`ShardedScheduler::with_rebalancer`] armed a
    /// rebalancer (which implies [`Placement::Dynamic`]).
    pub fn maybe_rebalance(&mut self) -> Option<(FlowId, usize, usize)> {
        let rebalancer = self
            .rebalancer
            .as_mut()
            .expect("no rebalancer armed; use with_rebalancer");
        let loads: Vec<ShardLoad> = self
            .shards
            .iter()
            .zip(&mut self.last_enqueued)
            .map(|(shard, last)| {
                let enqueued = shard.stats().enqueued;
                let arrivals = enqueued - *last;
                *last = enqueued;
                ShardLoad {
                    arrivals,
                    backlog: shard.len() as u64,
                }
            })
            .collect();
        let hint = rebalancer.observe(&loads)?;
        let flow = (0..self.flow_arrivals.len())
            .filter(|&f| self.owner[f] as usize == hint.from)
            .max_by_key(|&f| (self.flow_arrivals[f], std::cmp::Reverse(f)))?;
        let flow = FlowId(flow as u32);
        match self.migrate_flow(flow, hint.to) {
            Ok(_) => Some((flow, hint.from, hint.to)),
            Err(_) => None,
        }
    }
}

/// One departure from a multi-port frontend: which port served the
/// packet, and the usual timing record.
#[derive(Debug, Clone, PartialEq)]
pub struct PortDeparture {
    /// The output port that transmitted the packet.
    pub port: usize,
    /// The timing record (packet carries its global flow id).
    pub departure: Departure,
    /// The shard circuit's cycle stamps bracketing the packet's
    /// residence in the sorter — the cycle-domain twin of the
    /// wall-clock `departure` record.
    pub cycles: SojournStamp,
}

/// Every port is one egress link: a refusal other than an unknown flow
/// (buffer exhaustion, tag range) costs only the packet, and a rebalance
/// round reports the port a migration moved a backlog onto.
impl<B: SortBackend, P: RankPolicy> Egress for ShardedScheduler<B, P> {
    type Error = ShardError;
    type Stamp = SojournStamp;

    fn admit(&mut self, pkt: Packet) -> Admit<ShardError> {
        match self.enqueue(pkt) {
            Ok(()) => Admit::Queued(self.port_of(pkt.flow).expect("routed")),
            Err(
                e @ ShardError::Port {
                    port,
                    source: SchedulerError::BufferFull { .. } | SchedulerError::Sorter(_),
                },
            ) => Admit::Refused(port, e),
            Err(e) => Admit::Fatal(e),
        }
    }

    fn serve(&mut self, port: usize, _now: Time) -> Option<(Packet, SojournStamp)> {
        self.dequeue_port_stamped(port)
    }

    fn rebalance(&mut self) -> Option<usize> {
        self.maybe_rebalance().map(|(_, _, to)| to)
    }
}

/// Line-rate egress simulation of a sharded frontend: every output port
/// is an independent link transmitting at **its own configured rate**
/// ([`ShardedScheduler::port_rate`]), served back-to-back whenever its
/// shard is backlogged. With non-uniform rates, a slow port's packets
/// take proportionally longer on the wire, so per-flow delay and
/// fairness metrics computed from the departures are per-port-rate
/// aware.
///
/// All ports advance together through one simulated clock
/// ([`fairq::serve_links`]), so frontend-wide figures such as the
/// aggregate buffer peak see every port's backlog at the same instant,
/// and live rebalancing can move a flow between ports mid-run.
pub type ShardedLinkSim<B = SortRetrieveCircuit, P = WfqRank> = EgressSim<ShardedScheduler<B, P>>;

impl<B: SortBackend, P: RankPolicy> ShardedLinkSim<B, P> {
    /// Creates a simulator over `frontend` (any sorting backend and
    /// rank policy — the types are inferred); each port transmits at
    /// the rate the frontend was configured with.
    pub fn new(frontend: ShardedScheduler<B, P>) -> Self {
        let rates = frontend.rates.clone();
        Self::over(frontend, rates)
    }

    /// Enables live rebalancing: every `arrivals` arrivals the run
    /// executes one [`ShardedScheduler::maybe_rebalance`] round.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is zero, or (at run time) if the frontend
    /// has no rebalancer armed ([`ShardedScheduler::with_rebalancer`]).
    pub fn with_rebalance_every(mut self, arrivals: usize) -> Self {
        assert!(arrivals > 0, "rebalance cadence must be positive");
        self.rebalance_every = Some(arrivals);
        self
    }

    /// Runs the trace to completion, returning departures sorted by
    /// finish time (ties broken by port).
    ///
    /// # Errors
    ///
    /// Under [`crate::DropPolicy::Error`] (the default), propagates the
    /// first [`ShardError`]. Under [`crate::DropPolicy::CountAndContinue`],
    /// per-packet shard refusals (buffer exhaustion, tag range) are
    /// counted ([`EgressSim::drops`]) and that port keeps serving;
    /// [`ShardError::UnknownFlow`] still aborts.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Packet]) -> Result<Vec<PortDeparture>, ShardError> {
        assert!(
            self.rebalance_every.is_none() || self.egress.rebalancer.is_some(),
            "rebalance cadence set but no rebalancer armed; use with_rebalancer"
        );
        let mut out = Vec::with_capacity(trace.len());
        self.serve(trace, |port, departure, cycles| {
            out.push(PortDeparture {
                port,
                departure,
                cycles,
            });
        })?;
        out.sort_by(|a, b| {
            a.departure
                .finish
                .cmp(&b.departure.finish)
                .then(a.port.cmp(&b.port))
        });
        Ok(out)
    }

    /// The frontend, for post-run inspection.
    pub fn frontend(&self) -> &ShardedScheduler<B, P> {
        &self.egress
    }

    /// Mutable frontend access, for post-run bookkeeping such as
    /// [`ShardedScheduler::reconcile_faults`].
    pub fn frontend_mut(&mut self) -> &mut ShardedScheduler<B, P> {
        &mut self.egress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DropPolicy;
    use traffic::SizeDist;

    /// A WFQ-ranked frontend over explicit port rates and placement.
    fn build(
        fl: &[FlowSpec],
        rates: &[f64],
        config: SchedulerConfig,
        placement: Placement,
    ) -> ShardedScheduler {
        ShardedScheduler::with_policy_port_rates_placement(
            fl,
            rates,
            config,
            &WfqRank::default(),
            placement,
        )
    }

    fn flows(n: usize) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| {
                FlowSpec::new(FlowId(i as u32), 1.0 + (i % 3) as f64, 1e6)
                    .size(SizeDist::Fixed(500))
            })
            .collect()
    }

    fn pkt(seq: u64, flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq,
        }
    }

    #[test]
    fn hash_is_pure_and_in_range() {
        for ports in 1..=8 {
            for f in 0..256u32 {
                let a = shard_of(FlowId(f), ports);
                assert_eq!(a, shard_of(FlowId(f), ports));
                assert!(a < ports);
            }
        }
    }

    #[test]
    fn routing_matches_the_hash_and_restores_global_ids() {
        let fl = flows(16);
        let mut fe = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        assert_eq!(fe.ports(), 4);
        assert_eq!(fe.flows(), 16);
        for f in 0..16u32 {
            assert_eq!(fe.port_of(FlowId(f)), Some(shard_of(FlowId(f), 4)));
        }
        assert_eq!(fe.port_of(FlowId(99)), None);
        fe.enqueue(pkt(0, 7, 0.0, 140)).unwrap();
        assert_eq!(fe.len(), 1);
        let (port, out) = fe.dequeue().unwrap();
        assert_eq!(port, shard_of(FlowId(7), 4));
        assert_eq!(out.flow, FlowId(7), "global id restored");
        assert_eq!(out.seq, 0);
        assert!(fe.is_empty());
    }

    #[test]
    fn unknown_flow_and_port_errors() {
        let mut fe = ShardedScheduler::new(&flows(4), 1e9, 2, SchedulerConfig::default());
        let err = fe.enqueue(pkt(0, 40, 0.0, 140)).unwrap_err();
        assert_eq!(err, ShardError::UnknownFlow { flow: 40, flows: 4 });
        assert!(err.to_string().contains("flow 40"));
        // Exhaust one shard's buffer to provoke a Port error.
        let small = SchedulerConfig {
            capacity: 1,
            ..SchedulerConfig::default()
        };
        let mut fe = ShardedScheduler::new(&flows(4), 1e9, 1, small);
        fe.enqueue(pkt(0, 0, 0.0, 140)).unwrap();
        let err = fe.enqueue(pkt(1, 0, 0.0, 140)).unwrap_err();
        assert!(matches!(
            err,
            ShardError::Port {
                port: 0,
                source: SchedulerError::BufferFull { capacity: 1 }
            }
        ));
        assert!(err.to_string().starts_with("port 0:"));
        use std::error::Error as _;
        assert!(err.source().is_some());
    }

    #[test]
    fn enqueue_counts_and_orders_within_shards() {
        let fl = flows(8);
        let mut fe = ShardedScheduler::new(&fl, 1e9, 2, SchedulerConfig::default());
        for i in 0..32 {
            fe.enqueue(pkt(i, (i % 8) as u32, i as f64 * 1e-6, 500))
                .unwrap();
        }
        assert_eq!(fe.len(), 32);
        // Per-flow order survives: drain one port and check each flow's
        // seqs ascend.
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        while let Some(p) = fe.dequeue_port(0) {
            if let Some(prev) = last.insert(p.flow.0, p.seq) {
                assert!(prev < p.seq, "flow {} reordered", p.flow.0);
            }
        }
    }

    #[test]
    fn aggregate_peak_is_frontend_wide_not_sum_of_port_peaks() {
        let fl = flows(16);
        let mut fe = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        // Load and fully drain one port at a time: each port's own peak
        // is high, but the frontend never holds more than one port's
        // backlog at once.
        let mut expected_peak = 0;
        for port in 0..4 {
            let f = (0..16u32)
                .find(|&f| shard_of(FlowId(f), 4) == port)
                .unwrap();
            for i in 0..10 {
                fe.enqueue(pkt(u64::from(f) * 100 + i, f, 0.0, 500))
                    .unwrap();
            }
            expected_peak = expected_peak.max(fe.len());
            while fe.dequeue_port(port).is_some() {}
        }
        let stats = fe.stats();
        let sum_of_port_peaks: usize = stats.per_port.iter().map(|s| s.buffer.peak).sum();
        assert_eq!(stats.aggregate.buffer.peak, expected_peak);
        assert_eq!(stats.aggregate.buffer.peak, 10);
        assert_eq!(sum_of_port_peaks, 40, "ports each peaked separately");
        assert!(stats.aggregate.buffer.peak < sum_of_port_peaks);
    }

    #[test]
    fn stats_aggregate_sums_ports() {
        let fl = flows(16);
        let mut fe = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        for i in 0..40 {
            fe.enqueue(pkt(i, (i % 16) as u32, 0.0, 500)).unwrap();
        }
        let peak = fe.len();
        assert_eq!(fe.drain().len(), 40);
        let stats = fe.stats();
        assert_eq!(stats.aggregate.buffer.peak, peak);
        assert_eq!(stats.per_port.len(), 4);
        assert_eq!(stats.aggregate.enqueued, 40);
        assert_eq!(stats.aggregate.dequeued, 40);
        let summed: u64 = stats.per_port.iter().map(|s| s.enqueued).sum();
        assert_eq!(summed, 40);
        // Every shard keeps the four-cycle slot; the frontend's modeled
        // throughput is the sum of the shards'.
        let single = stats.per_port[0].circuit.packets_per_second(143.2e6);
        let modeled = stats.modeled_packets_per_second(143.2e6);
        assert!(modeled > 3.0 * single, "modeled {modeled} vs {single}");
    }

    #[test]
    fn per_port_rates_are_stored_and_validated() {
        let fl = flows(16);
        let fe = build(
            &fl,
            &[4e9, 1e9],
            SchedulerConfig::default(),
            Placement::Hash,
        );
        assert_eq!(fe.ports(), 2);
        assert_eq!(fe.port_rate(0), 4e9);
        assert_eq!(fe.port_rate(1), 1e9);
        // The uniform constructor is the special case.
        let uniform = ShardedScheduler::new(&fl, 1e9, 2, SchedulerConfig::default());
        assert_eq!(uniform.port_rate(0), uniform.port_rate(1));
        // Invalid rates are rejected up front.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let fl = fl.clone();
            let caught = std::panic::catch_unwind(move || {
                build(
                    &fl,
                    &[1e9, bad],
                    SchedulerConfig::default(),
                    Placement::Hash,
                );
            });
            assert!(caught.is_err(), "rate {bad} accepted");
        }
        let caught = std::panic::catch_unwind(|| {
            build(&flows(4), &[], SchedulerConfig::default(), Placement::Hash);
        });
        assert!(caught.is_err(), "empty rate vector accepted");
    }

    #[test]
    fn link_sim_honors_non_uniform_port_rates() {
        // Same per-port backlog, 10x rate difference: the slow port's
        // departures stretch 10x further in time.
        let fl = flows(16);
        let fast = 1e8;
        let slow = 1e7;
        let fe: ShardedScheduler = build(
            &fl,
            &[fast, slow],
            SchedulerConfig::default(),
            Placement::Hash,
        );
        let trace: Vec<Packet> = (0..64).map(|i| pkt(i, (i % 16) as u32, 0.0, 500)).collect();
        let mut sim = ShardedLinkSim::new(fe);
        let deps = sim.run(&trace).unwrap();
        let last_finish = |port: usize| {
            deps.iter()
                .filter(|d| d.port == port)
                .map(|d| d.departure.finish)
                .max()
                .expect("port served packets")
        };
        let per_pkt_fast = 500.0 * 8.0 / fast;
        let per_pkt_slow = 500.0 * 8.0 / slow;
        let served = |port: usize| deps.iter().filter(|d| d.port == port).count() as f64;
        assert!((last_finish(0).seconds() - served(0) * per_pkt_fast).abs() < 1e-9);
        assert!((last_finish(1).seconds() - served(1) * per_pkt_slow).abs() < 1e-9);
    }

    #[test]
    fn stamped_dequeue_matches_plain_and_restores_global_ids() {
        let fl = flows(16);
        let mut fe = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        fe.enqueue(pkt(0, 7, 0.0, 140)).unwrap();
        let port = fe.port_of(FlowId(7)).unwrap();
        let (out, stamp) = fe.dequeue_port_stamped(port).unwrap();
        assert_eq!(out.flow, FlowId(7), "global id restored on stamped path");
        assert!(stamp.dequeued > stamp.enqueued, "pop costs cycles");
        assert_eq!(stamp.cycles(), stamp.dequeued - stamp.enqueued);
    }

    #[test]
    fn link_sim_attributes_latency_with_global_flow_ids() {
        let fl = flows(16);
        let trace: Vec<Packet> = (0..160)
            .map(|i| pkt(i, (i % 16) as u32, i as f64 * 1e-5, 500))
            .collect();
        let fe = ShardedScheduler::new(&fl, 1e8, 4, SchedulerConfig::default());
        let mut sim = ShardedLinkSim::new(fe).with_latency();
        let deps = sim.run(&trace).unwrap();
        assert_eq!(deps.len(), 160);
        for d in &deps {
            assert!(
                d.cycles.dequeued > d.cycles.enqueued,
                "departures carry cycle stamps"
            );
        }
        let lat = sim.latency().unwrap();
        assert_eq!(lat.samples(), 160);
        assert_eq!(lat.flows(), 16, "attribution is per global flow id");
        let mut snap = Snapshot::empty(1);
        lat.export(&mut snap);
        assert!(snap.value("flow15_sojourn_p99").is_some());
    }

    #[test]
    fn link_sim_drop_policy_counts_and_continues() {
        let fl = flows(16);
        let burst: Vec<Packet> = (0..64).map(|i| pkt(i, (i % 16) as u32, 0.0, 500)).collect();
        let small = SchedulerConfig {
            capacity: 4,
            ..SchedulerConfig::default()
        };
        // Default policy: the overload aborts the run.
        let fe = ShardedScheduler::new(&fl, 1e8, 4, small);
        let mut sim = ShardedLinkSim::new(fe);
        assert!(matches!(
            sim.run(&burst),
            Err(ShardError::Port {
                source: SchedulerError::BufferFull { .. },
                ..
            })
        ));
        // CountAndContinue: the accepted packets are served, the rest
        // counted — here every port's 4 slots fill before any service.
        let fe = ShardedScheduler::new(&fl, 1e8, 4, small);
        let mut sim = ShardedLinkSim::new(fe).with_drop_policy(DropPolicy::CountAndContinue);
        let deps = sim.run(&burst).unwrap();
        assert_eq!(deps.len() as u64 + sim.drops(), 64);
        assert_eq!(deps.len(), 16, "4 ports x 4 slots survive the burst");
        assert_eq!(
            sim.frontend().stats().aggregate.buffer.rejected,
            sim.drops(),
            "BufferStats agrees with the link-level count"
        );
    }

    #[test]
    fn empty_port_is_rejected_at_construction() {
        // One flow over many ports necessarily leaves ports empty.
        let caught = std::panic::catch_unwind(|| {
            ShardedScheduler::new(&flows(1), 1e9, 8, SchedulerConfig::default())
        });
        assert!(caught.is_err());
    }

    #[test]
    fn ownership_starts_at_the_hash_and_only_dynamic_placement_migrates() {
        let fl = flows(8);
        let dynamic = build(
            &fl,
            &[1e9; 2],
            SchedulerConfig::default(),
            Placement::Dynamic,
        );
        for f in 0..8u32 {
            assert_eq!(dynamic.port_of(FlowId(f)), Some(shard_of(FlowId(f), 2)));
        }
        assert_eq!(dynamic.port_of(FlowId(99)), None);
        // Hash placement never moves a flow.
        let mut hash = ShardedScheduler::new(&fl, 1e9, 2, SchedulerConfig::default());
        let to = 1 - hash.port_of(FlowId(0)).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hash.migrate_flow(FlowId(0), to)
        }));
        let msg = caught.expect_err("hash placement accepted a migration");
        let msg = msg.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("flow migration requires Placement::Dynamic"),
            "{msg}"
        );
    }

    #[test]
    fn dynamic_placement_serves_like_hash_before_any_migration() {
        let fl = flows(8);
        let mut hash = ShardedScheduler::new(&fl, 1e9, 2, SchedulerConfig::default());
        let mut dynamic = build(
            &fl,
            &[1e9; 2],
            SchedulerConfig::default(),
            Placement::Dynamic,
        );
        for i in 0..48 {
            let p = pkt(i, (i % 8) as u32, i as f64 * 1e-6, 500);
            hash.enqueue(p).unwrap();
            dynamic.enqueue(p).unwrap();
        }
        loop {
            let a = hash.dequeue().map(|(port, p)| (port, p.flow, p.seq));
            let b = dynamic.dequeue().map(|(port, p)| (port, p.flow, p.seq));
            assert_eq!(a, b, "departure sequences diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_shuffled_dense_table_serves_like_the_sorted_one() {
        let fl = flows(16);
        // The same dense ids in another order.
        let mut shuffled = fl.clone();
        shuffled.reverse();
        shuffled.rotate_left(5);
        for placement in [Placement::Hash, Placement::Dynamic] {
            let serve = |table: &[FlowSpec]| {
                let rates = [1e9, 4e8, 2e9];
                let mut fe = build(table, &rates, SchedulerConfig::default(), placement);
                for i in 0..96u64 {
                    let flow = ((i * 7) % 16) as u32;
                    let bytes = 64 + (i as u32 * 37) % 1400;
                    fe.enqueue(pkt(i, flow, i as f64 * 1e-6, bytes)).unwrap();
                }
                if placement == Placement::Dynamic {
                    let to = (fe.port_of(FlowId(3)).unwrap() + 1) % rates.len();
                    fe.migrate_flow(FlowId(3), to).unwrap();
                }
                let served = fe.drain();
                served
                    .into_iter()
                    .map(|(port, p)| (port, p.flow, p.seq))
                    .collect::<Vec<_>>()
            };
            assert_eq!(serve(&shuffled), serve(&fl), "{placement:?}");
        }
    }

    #[test]
    #[should_panic(expected = "flow ids must be dense and unique")]
    fn hash_placement_leaves_an_id_past_the_table_to_the_policy() {
        let mut fl = flows(8);
        fl[3].id = FlowId(8);
        build(&fl, &[1e9; 2], SchedulerConfig::default(), Placement::Hash);
    }

    #[test]
    fn migrate_flow_moves_backlog_and_reroutes_later_enqueues() {
        let fl = flows(8);
        let mut fe = build(
            &fl,
            &[1e9; 2],
            SchedulerConfig::default(),
            Placement::Dynamic,
        );
        let flow = FlowId(0);
        let from = fe.port_of(flow).unwrap();
        let to = 1 - from;
        let neighbor = (1..8u32)
            .map(FlowId)
            .find(|&f| fe.port_of(f) == Some(from))
            .expect("another flow shares the source port");
        for i in 0..4 {
            fe.enqueue(pkt(i, flow.0, 0.0, 500)).unwrap();
        }
        fe.enqueue(pkt(100, neighbor.0, 0.0, 500)).unwrap();
        let moved = fe.migrate_flow(flow, to).unwrap();
        assert_eq!(moved, 4);
        assert_eq!(fe.port_of(flow), Some(to), "ownership moved");
        assert_eq!(fe.port_of(neighbor), Some(from), "the neighbor stayed");
        assert_eq!(fe.migrations(), 1);
        assert_eq!(fe.len(), 5, "no packet lost in transit");
        // Later arrivals follow the flow to its new port, behind the
        // migrated backlog.
        fe.enqueue(pkt(4, flow.0, 0.0, 500)).unwrap();
        let mut seqs = Vec::new();
        while let Some(p) = fe.dequeue_port(to) {
            assert_eq!(p.flow, flow, "only the migrated flow lives here");
            seqs.push(p.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4], "per-flow order survived");
        assert_eq!(fe.dequeue_port(from).unwrap().flow, neighbor);
        let stats = fe.stats();
        assert_eq!(stats.aggregate.migrated_out, 4);
        assert_eq!(stats.aggregate.migrated_in, 4);
        // Migrating a flow onto the port it already owns is a no-op.
        assert_eq!(fe.migrate_flow(flow, to).unwrap(), 0);
        assert_eq!(fe.migrations(), 1);
    }

    #[test]
    fn migration_refused_by_a_full_destination_rolls_back() {
        let small = SchedulerConfig {
            capacity: 4,
            ..SchedulerConfig::default()
        };
        let mut fe = build(&flows(8), &[1e9; 2], small, Placement::Dynamic);
        let flow = FlowId(0);
        let from = fe.port_of(flow).unwrap();
        let to = 1 - from;
        let resident = (1..8u32)
            .map(FlowId)
            .find(|&f| fe.port_of(f) == Some(to))
            .expect("a flow lives on the destination");
        for i in 0..4 {
            fe.enqueue(pkt(i, resident.0, 0.0, 500)).unwrap();
        }
        for i in 0..3 {
            fe.enqueue(pkt(10 + i, flow.0, 0.0, 500)).unwrap();
        }
        let err = fe.migrate_flow(flow, to).unwrap_err();
        assert!(
            matches!(
                err,
                ShardError::Port {
                    port,
                    source: SchedulerError::BufferFull { .. }
                } if port == to
            ),
            "unexpected error {err:?}"
        );
        assert_eq!(fe.port_of(flow), Some(from), "ownership did not move");
        assert_eq!(fe.migrations(), 0);
        assert_eq!(fe.port_len(from), 3, "backlog reinstalled at the source");
        let mut seqs = Vec::new();
        while let Some(p) = fe.dequeue_port(from) {
            seqs.push(p.seq);
        }
        assert_eq!(seqs, vec![10, 11, 12], "reinstalled backlog kept its order");
    }

    #[test]
    fn rebalancer_moves_the_hottest_flow_off_the_hot_port() {
        let fl = flows(8);
        let mut fe = build(
            &fl,
            &[1e9; 2],
            SchedulerConfig::default(),
            Placement::Dynamic,
        )
        .with_rebalancer(RebalancerConfig::default());
        let hot: Vec<u32> = (0..8u32).filter(|&f| shard_of(FlowId(f), 2) == 0).collect();
        assert!(!hot.is_empty(), "some flow hashes to port 0");
        let mut migrated = None;
        let mut seq = 0;
        for _round in 0..8 {
            for _ in 0..16 {
                for &f in &hot {
                    fe.enqueue(pkt(seq, f, 0.0, 500)).unwrap();
                    seq += 1;
                }
            }
            if let Some(m) = fe.maybe_rebalance() {
                migrated = Some(m);
                break;
            }
        }
        let (flow, from, to) = migrated.expect("skewed load trips the rebalancer");
        assert_eq!((from, to), (0, 1), "load moves off the hot port");
        assert_eq!(fe.port_of(flow), Some(1));
        assert_eq!(fe.migrations(), 1);
        // Nothing was lost along the way.
        let total = fe.len();
        let mut served = 0;
        while fe.dequeue().is_some() {
            served += 1;
        }
        assert_eq!(served, total);
        assert_eq!(served as u64, fe.stats().aggregate.dequeued);
    }

    #[test]
    fn shard_balance_is_max_over_mean() {
        let mut fe = ShardedScheduler::new(&flows(8), 1e9, 2, SchedulerConfig::default());
        assert_eq!(fe.stats().shard_balance(), 1.0, "idle frontend reads 1.0");
        let f = (0..8u32).find(|&f| shard_of(FlowId(f), 2) == 0).unwrap();
        for i in 0..10 {
            fe.enqueue(pkt(i, f, 0.0, 500)).unwrap();
        }
        // All 10 admissions on one of two ports: max/mean = 10/5.
        assert_eq!(fe.stats().shard_balance(), 2.0);
        while fe.dequeue().is_some() {}
    }

    #[test]
    fn link_sim_serves_every_packet_per_port() {
        let fl = flows(8);
        let trace: Vec<Packet> = (0..80)
            .map(|i| pkt(i, (i % 8) as u32, i as f64 * 1e-5, 500))
            .collect();
        let fe = ShardedScheduler::new(&fl, 1e8, 2, SchedulerConfig::default());
        let mut sim = ShardedLinkSim::new(fe);
        let deps = sim.run(&trace).unwrap();
        assert_eq!(deps.len(), 80);
        assert!(deps
            .windows(2)
            .all(|w| w[0].departure.finish <= w[1].departure.finish));
        for d in &deps {
            assert_eq!(
                d.port,
                sim.frontend().port_of(d.departure.packet.flow).unwrap()
            );
            assert!(d.departure.finish > d.departure.start);
        }
    }
}
