//! The integrated hardware scheduler (paper Fig. 1).

use std::error::Error;
use std::fmt;

use fairq::{RankPolicy, VirtualTime, WfqRank};
use faultsim::{
    Detection, DetectionKind, FaultAttachError, FaultComponent, FaultConfig, FaultLedger,
    FaultPlan, FaultPolicy, FaultRecord, FaultTarget, ScrubFinding, ScrubOrder,
};
use statesync::{Checkpoint, CheckpointBuilder, VClockXlat};
use tagsort::{
    BackendSpec, CircuitStats, CleanupPolicy, Geometry, MemoryKind, PacketRef, ResidentMemory,
    SortBackend, SortError, SortRetrieveCircuit, Tag,
};
use telemetry::{Event, EventKind, EventRing, GaugeMerge, Histogram, Snapshot, Telemetry};
use traffic::{FlowId, FlowSpec, Packet, Time};

use crate::buffer::{BufferStats, PacketBuffer, Sideband};
use crate::quantize::{SectionCounts, TagQuantizer, WrapPolicy};

/// What happens when a packet arrives to a full shared buffer.
///
/// Programmable admission is the second half of the PIFO abstraction:
/// the rank function decides *order*, the admission policy decides
/// *membership* when the buffer saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Reject the arriving packet — the classic drop-tail queue.
    #[default]
    TailDrop,
    /// Rank-aware push-out: if the arriving packet's quantized tag is
    /// strictly smaller than the largest queued tag
    /// ([`SortBackend::peek_max`]), the sorter's maximum entry is
    /// evicted (via [`SortBackend::pop_max`]) to make room; otherwise
    /// the arrival is tail-dropped. This keeps the buffer's contents the
    /// best-ranked packets seen so far, which matters for low-rank flows
    /// under overload. Intended for [`WrapPolicy::Saturate`], where tag
    /// order equals tick order; under [`WrapPolicy::Wrap`] the
    /// comparison is in the sorter's tag order, the order `pop_max`
    /// evicts in.
    PushOut,
    /// Weighted-random early push-out: RED's congestion-avoidance ramp
    /// reinterpreted for a PIFO. Below `min_pct`% occupancy every
    /// arrival admits untouched. Between `min_pct`% and `max_pct`% a
    /// deterministic coin fires with probability ramping linearly from
    /// zero to `max_p_pm`‰, and a hit evicts the sorter's *maximum*
    /// entry (via [`SortBackend::pop_max`], like [`Self::PushOut`])
    /// instead of dropping the arrival — congestion pressure sheds the
    /// worst-ranked backlog early, before the buffer hard-fills. At or
    /// above `max_pct`% the eviction is unconditional, and a full
    /// buffer falls back to plain push-out admission. The coin stream
    /// is a counter-keyed hash: identical arrival sequences make
    /// identical decisions, and a checkpoint carries the counter so
    /// restored runs continue the same stream.
    Wred {
        /// Occupancy percentage where the eviction ramp starts.
        min_pct: u8,
        /// Occupancy percentage where eviction becomes unconditional.
        max_pct: u8,
        /// Eviction probability in per-mille (‰) at the top of the ramp.
        max_p_pm: u16,
    },
}

impl AdmissionPolicy {
    /// [`AdmissionPolicy::Wred`] with the classic RED defaults: ramp
    /// from 50% to 90% occupancy, peaking at a 200‰ eviction chance.
    pub fn wred() -> Self {
        Self::Wred {
            min_pct: 50,
            max_pct: 90,
            max_p_pm: 200,
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TailDrop => f.write_str("tail-drop"),
            Self::PushOut => f.write_str("push-out"),
            Self::Wred { .. } if *self == Self::wred() => f.write_str("wred"),
            Self::Wred {
                min_pct,
                max_pct,
                max_p_pm,
            } => write!(f, "wred:{min_pct}:{max_pct}:{max_p_pm}"),
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "tail-drop" => Ok(Self::TailDrop),
            "push-out" => Ok(Self::PushOut),
            "wred" => Ok(Self::wred()),
            other => {
                if let Some(spec) = other.strip_prefix("wred:") {
                    let parts: Vec<&str> = spec.split(':').collect();
                    let parse = |what: &str, s: &str| -> Result<u64, String> {
                        s.parse::<u64>()
                            .map_err(|e| format!("wred {what} \"{s}\": {e}"))
                    };
                    let [min, max, p] = parts.as_slice() else {
                        return Err(format!(
                            "malformed wred spec \"{other}\" (expected wred:MIN:MAX:PERMILLE)"
                        ));
                    };
                    let (min_pct, max_pct) = (parse("min_pct", min)?, parse("max_pct", max)?);
                    let max_p_pm = parse("max_p_pm", p)?;
                    if min_pct > 100 || max_pct > 100 || min_pct >= max_pct || max_p_pm > 1000 {
                        return Err(format!(
                            "wred thresholds need min < max <= 100 and permille <= 1000, got {other}"
                        ));
                    }
                    return Ok(Self::Wred {
                        min_pct: min_pct as u8,
                        max_pct: max_pct as u8,
                        max_p_pm: max_p_pm as u16,
                    });
                }
                Err(format!(
                    "unknown admission policy \"{other}\" (expected tail-drop, push-out, wred, or wred:MIN:MAX:PERMILLE)"
                ))
            }
        }
    }
}

/// Configuration of the hardware scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Sort-tree geometry (defaults to the fabricated 12-bit/3-level).
    pub geometry: Geometry,
    /// Capacity in packets (both buffer slots and sorter links).
    pub capacity: usize,
    /// Virtual-time units per tag tick (the quantization granularity).
    pub tick_scale: f64,
    /// Wrap handling (see [`WrapPolicy`]).
    pub wrap_policy: WrapPolicy,
    /// Tree-marker cleanup policy. [`CleanupPolicy::Eager`] is required
    /// for PGPS workloads, which may legitimately emit tags below the
    /// sorter's current minimum.
    pub cleanup: CleanupPolicy,
    /// Tag-storage memory technology (single-port SRAM's 4-cycle slot,
    /// or the QDR variant's 2-cycle slot).
    pub memory: MemoryKind,
    /// Optional fault-injection campaign: a seeded plan of bit flips
    /// into the sorter's state memories, plus the response policy and
    /// scrub schedule (`None` runs fault-free).
    pub faults: Option<FaultConfig>,
    /// Full-buffer behavior (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::paper(),
            capacity: 1 << 16,
            tick_scale: 100.0,
            wrap_policy: WrapPolicy::Saturate,
            cleanup: CleanupPolicy::Eager,
            memory: MemoryKind::SinglePort,
            faults: None,
            admission: AdmissionPolicy::TailDrop,
        }
    }
}

/// Errors from [`HwScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// The packet names a flow the scheduler was not configured with.
    UnknownFlow {
        /// The offending flow id.
        flow: u32,
        /// Configured flow count.
        flows: usize,
    },
    /// The shared packet buffer is full.
    BufferFull {
        /// Buffer capacity in packets.
        capacity: usize,
    },
    /// The sort/retrieve circuit refused the tag.
    Sorter(SortError),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::UnknownFlow { flow, flows } => {
                write!(f, "flow {flow} not configured ({flows} flows)")
            }
            SchedulerError::BufferFull { capacity } => {
                write!(f, "shared packet buffer full ({capacity} packets)")
            }
            SchedulerError::Sorter(e) => write!(f, "sorter: {e}"),
        }
    }
}

impl Error for SchedulerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedulerError::Sorter(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SortError> for SchedulerError {
    fn from(e: SortError) -> Self {
        SchedulerError::Sorter(e)
    }
}

/// Aggregated scheduler instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerStats {
    /// Sort/retrieve circuit counters.
    pub circuit: CircuitStats,
    /// Shared buffer counters.
    pub buffer: BufferStats,
    /// Packets enqueued.
    pub enqueued: u64,
    /// Packets dequeued.
    pub dequeued: u64,
    /// Tags clamped by the saturate wrap policy.
    pub clamped: u64,
    /// Times the sorter served a tag that was not the smallest
    /// outstanding tick — possible only under [`WrapPolicy::Wrap`] at
    /// the lap boundary, where wrapped (logically newest) tags overtake
    /// the old lap's stragglers. Always zero under
    /// [`WrapPolicy::Saturate`], where tick and tag coincide.
    pub inversions: u64,
    /// Queued packets evicted by [`AdmissionPolicy::PushOut`] to admit a
    /// better-ranked arrival (always zero under tail-drop).
    pub pushed_out: u64,
    /// Packets installed by cross-shard flow migration
    /// ([`HwScheduler::install_flow`]). Not counted in `enqueued`:
    /// migration moves already-admitted packets, so frontend-wide
    /// `enqueued == dequeued + queued` conservation still holds.
    pub migrated_in: u64,
    /// Packets extracted by cross-shard flow migration
    /// ([`HwScheduler::extract_flow`]). Not counted as drops.
    pub migrated_out: u64,
}

impl SchedulerStats {
    /// Routes every figure into a telemetry snapshot under `prefix`,
    /// so the legacy `AccessStats`/`BufferStats` numbers travel in the
    /// same deterministic export as the telemetry view.
    pub fn export(&self, prefix: &str, snap: &mut Snapshot) {
        snap.put(&format!("{prefix}_enqueued"), self.enqueued as f64);
        snap.put(&format!("{prefix}_dequeued"), self.dequeued as f64);
        snap.put(&format!("{prefix}_clamped"), self.clamped as f64);
        snap.put(&format!("{prefix}_inversions"), self.inversions as f64);
        snap.put(&format!("{prefix}_pushed_out"), self.pushed_out as f64);
        snap.put(&format!("{prefix}_migrated_in"), self.migrated_in as f64);
        snap.put(&format!("{prefix}_migrated_out"), self.migrated_out as f64);
        let c = &self.circuit;
        snap.put(&format!("{prefix}_circuit_ops"), c.ops as f64);
        snap.put(
            &format!("{prefix}_circuit_store_cycles"),
            c.store_cycles as f64,
        );
        snap.put(
            &format!("{prefix}_circuit_cycles_per_op"),
            c.cycles_per_op(),
        );
        snap.put(&format!("{prefix}_trie_reads"), c.trie.reads() as f64);
        snap.put(&format!("{prefix}_trie_writes"), c.trie.writes() as f64);
        snap.put(
            &format!("{prefix}_trie_worst_op_accesses"),
            c.trie.worst_op_accesses() as f64,
        );
        snap.put(
            &format!("{prefix}_translation_reads"),
            c.translation.reads() as f64,
        );
        snap.put(
            &format!("{prefix}_translation_writes"),
            c.translation.writes() as f64,
        );
        snap.put(&format!("{prefix}_sram_reads"), c.sram.reads as f64);
        snap.put(&format!("{prefix}_sram_writes"), c.sram.writes as f64);
        snap.put(
            &format!("{prefix}_recycled_sections"),
            c.recycled_sections as f64,
        );
        snap.put(
            &format!("{prefix}_recycled_markers"),
            c.recycled_markers as f64,
        );
        self.buffer.export(&format!("{prefix}_buf"), snap);
    }
}

/// What attached telemetry records beyond the scheduler's own counts:
/// four histograms and, when the run traces, this shard's event ring.
/// A clone copies both; its ring writes the same sink.
#[derive(Debug, Clone)]
struct Instruments {
    sort_cycles: Histogram,
    occupancy: Histogram,
    fault_detect_latency: Histogram,
    fault_repair_cost: Histogram,
    ring: Option<EventRing>,
}

/// A scheduler's telemetry: `None` until attached, so every record
/// site is one branch.
type Instr = Option<Box<Instruments>>;

/// Records one event on the attached ring, if the run traces.
#[inline]
fn emit(instr: &mut Instr, cycle: u64, kind: EventKind, a: u64, b: u64) {
    if let Some(ring) = instr.as_mut().and_then(|i| i.ring.as_mut()) {
        ring.emit(cycle, kind, a, b);
    }
}

/// Cycle stamps bracketing one packet's residence in the sort/retrieve
/// circuit: the cycle-counter readings at enqueue (tag sorted in) and
/// dequeue (tag retrieved). Returned by [`HwScheduler::dequeue_stamped`]
/// so link models can attribute per-flow sojourn in the circuit's own
/// time base, alongside simulated wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SojournStamp {
    /// Circuit cycle count when the packet's tag finished sorting in.
    pub enqueued: u64,
    /// Circuit cycle count when the packet was retrieved.
    pub dequeued: u64,
}

impl SojournStamp {
    /// The packet's sojourn through the circuit, in cycles.
    pub fn cycles(&self) -> u64 {
        self.dequeued.saturating_sub(self.enqueued)
    }
}

/// Live state of one fault campaign: the undrained plan, the ledger of
/// injected faults, and the scrub rotation.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    policy: FaultPolicy,
    scrub_sections: u32,
    scrub_order: ScrubOrder,
    scrub_cursor: u32,
    /// Per-section dirty bitmap (sections are at most 2^6): set on every
    /// sorter write into a section, cleared when the scrubber audits it.
    /// Only consulted under [`ScrubOrder::WritePriority`].
    dirty: u64,
    ledger: FaultLedger,
    /// Planned injections the backend refused (no addressable state for
    /// the targeted component), as `(operation index, rejection)` pairs.
    rejected: Vec<(u64, FaultAttachError)>,
    /// Operation counter (enqueues + dequeues) the plan is keyed on.
    op: u64,
    /// Sections the scrubber has audited, and the words it checked.
    scrubbed_sections: u64,
    scrubbed_words: u64,
    reconciled: bool,
}

impl FaultState {
    /// Records one detection against the ledger: claims the first
    /// matching undetected fault (counting it and stamping its latency)
    /// or emits an unattributed `FaultDetect` event. Returns the claimed
    /// record index. Panics under [`FaultPolicy::FailFast`].
    fn note_detection(&mut self, instr: &mut Instr, d: Detection) -> Option<usize> {
        let claimed = self.ledger.claim(d);
        if let (Some(idx), Some(i)) = (claimed, instr.as_mut()) {
            let latency = d
                .cycle
                .saturating_sub(self.ledger.records()[idx].injected_cycle);
            i.fault_detect_latency.observe(latency);
        }
        // An unclaimed detection — a re-detection of an already-claimed
        // fault, or damage outside the modeled plan — is traced, not
        // counted.
        emit(
            instr,
            d.cycle,
            EventKind::FaultDetect,
            claimed.map_or(u64::MAX, |idx| idx as u64),
            d.word.map_or(u64::MAX, |w| w as u64),
        );
        if self.policy == FaultPolicy::FailFast {
            panic!(
                "{} fault detected in {} (fail-fast policy)",
                d.kind.name(),
                d.component.name()
            );
        }
        claimed
    }

    /// Claims buffer descriptor parity alarms on `slots`, seen at `cycle`.
    fn note_buffer_alarms(&mut self, instr: &mut Instr, slots: &[u32], cycle: u64) {
        for &slot in slots {
            let d = Detection {
                component: FaultComponent::Buffer,
                word: Some(slot as usize),
                cycle,
                kind: DetectionKind::Parity,
            };
            self.note_detection(instr, d);
        }
    }

    /// Claims one scrub finding of section `section` against the ledger.
    /// When the audit repaired (`repaired` is `Some((cost, restored))`),
    /// each claimed fault is marked repaired, and the repair is priced
    /// at `cost` cycles and traced with its `restored` count.
    fn claim_scrub(&mut self, instr: &mut Instr, f: ScrubFinding, section: u32) {
        let cycle = f.cycle;
        for word in f.words {
            let d = Detection {
                component: f.component,
                word,
                cycle,
                kind: DetectionKind::Scrub,
            };
            let claimed = self.note_detection(instr, d);
            if let (Some(idx), Some(_)) = (claimed, f.repaired) {
                self.ledger.mark_repaired(idx, cycle);
            }
        }
        if let Some((cost, restored)) = f.repaired {
            if let Some(i) = instr.as_mut() {
                i.fault_repair_cost.observe(cost);
            }
            emit(
                instr,
                cycle,
                EventKind::Repair,
                u64::from(section),
                restored,
            );
        }
    }
}

/// The full hardware scheduler: rank computation + quantization +
/// shared packet buffer + tag sort/retrieve circuit.
///
/// See the [crate example](crate) for basic use. Service discipline is
/// the caller's: experiments interleave [`HwScheduler::enqueue`] and
/// [`HwScheduler::dequeue`] however their link model dictates.
///
/// The scheduler is generic along two axes — the PIFO decomposition:
///
/// - **Sorting engine** `B`: any [`SortBackend`] slots in behind the
///   same tag-in/packet-out contract. The default is the paper's
///   [`SortRetrieveCircuit`]; the `fastpath` crate's FFS sorter and
///   [`tagsort::HeapSorter`] are drop-in alternatives (use
///   [`HwScheduler::with_backend`]).
/// - **Rank policy** `P`: any [`RankPolicy`] decides each packet's
///   priority. The default is [`WfqRank`], the paper's PGPS finishing
///   tag; the `fairq` crate ships STFQ, SRPT, FIFO+, strict priority,
///   leaky-bucket and hierarchical-WFQ alternatives (use
///   [`HwScheduler::with_backend_and_policy`]). See `POLICIES.md` at
///   the repository root for the cookbook.
#[derive(Debug, Clone)]
pub struct HwScheduler<B: SortBackend = SortRetrieveCircuit, P: RankPolicy = WfqRank> {
    policy: P,
    quantizer: TagQuantizer,
    buffer: PacketBuffer,
    sorter: B,
    flows: usize,
    admission: AdmissionPolicy,
    cleanup: CleanupPolicy,
    /// Arrivals the WRED coin has judged so far — the counter keying the
    /// deterministic coin stream (checkpointed in one word).
    wred_coins: u64,
    /// Per-section live counts under [`WrapPolicy::Wrap`]; under
    /// Saturate the sorter's own minimum and maximum are the window.
    wrap_counts: Option<SectionCounts>,
    enqueued: u64,
    dequeued: u64,
    inversions: u64,
    pushed_out: u64,
    migrated_in: u64,
    migrated_out: u64,
    /// Packets refused or evicted (tail drops, push-out victims, and
    /// packets dropped for corrupted metadata).
    dropped: u64,
    /// High-water mark of the queue depth, read after every admission.
    depth_peak: usize,
    /// Shard-local → global flow id map for trace events (identity when
    /// empty; set by the sharded frontend so joined event streams keep
    /// globally meaningful flow ids).
    global_flows: Vec<u32>,
    faults: Option<FaultState>,
    instr: Instr,
}

impl HwScheduler {
    /// Creates a scheduler for `flows` on a link of `link_rate_bps`,
    /// sorting with the paper's trie circuit (the default backend) and
    /// ranking with the paper's WFQ finishing tags (the default
    /// policy).
    ///
    /// # Panics
    ///
    /// Panics if flow ids are not dense, weights/rates are invalid, or
    /// the configuration is inconsistent.
    pub fn new(flows: &[FlowSpec], link_rate_bps: f64, config: SchedulerConfig) -> Self {
        Self::with_backend(flows, link_rate_bps, config)
    }
}

impl<B: SortBackend, P: RankPolicy> HwScheduler<B, P> {
    /// Creates a scheduler whose sorting engine is built from the
    /// backend type `B` (see [`SortBackend::build`]) and whose rank
    /// policy is `P`'s [`Default`], bound to this link via
    /// [`RankPolicy::for_link`]. Identical to [`HwScheduler::new`]
    /// except for the choice of engine and policy.
    ///
    /// # Panics
    ///
    /// Panics if flow ids are not dense, weights/rates are invalid, or
    /// the configuration is inconsistent.
    pub fn with_backend(flows: &[FlowSpec], link_rate_bps: f64, config: SchedulerConfig) -> Self
    where
        P: Default,
    {
        Self::with_backend_and_policy(flows, link_rate_bps, config, &P::default())
    }

    /// Creates a scheduler ranking with `prototype`, specialized to
    /// this link's flow set via [`RankPolicy::for_link`] (the prototype
    /// itself is untouched — pass a configured-but-unbound policy).
    /// That call is the build's one pass over `flows`, and the policy
    /// is what refuses a table whose ids are not dense and unique.
    ///
    /// # Panics
    ///
    /// Panics if flow ids are not dense, weights/rates are invalid, the
    /// configuration is inconsistent, or a non-monotone policy (one
    /// whose [`RankPolicy::monotone`] is `false`) is paired with
    /// [`CleanupPolicy::Lazy`] — stale markers would reject the
    /// below-minimum tags such policies legitimately emit.
    pub fn with_backend_and_policy(
        flows: &[FlowSpec],
        link_rate_bps: f64,
        config: SchedulerConfig,
        prototype: &P,
    ) -> Self {
        // The policy's pass is the build's one read of the flow table,
        // and it refuses ids that are not dense and unique.
        let policy = prototype.for_link(flows, link_rate_bps);
        assert!(
            policy.monotone() || config.cleanup == CleanupPolicy::Eager,
            "policy `{}` emits non-monotone ranks and requires CleanupPolicy::Eager",
            policy.name()
        );
        let mut sorter = B::build(&BackendSpec {
            geometry: config.geometry,
            capacity: config.capacity,
            cleanup: config.cleanup,
            memory: config.memory,
        });
        let faults = config.faults.map(|fc| {
            // Fail-fast keeps the circuit's hard assertions armed; the
            // counting and repairing policies degrade gracefully instead.
            sorter.set_tolerant(fc.policy != FaultPolicy::FailFast);
            FaultState {
                plan: FaultPlan::generate(&fc.spec, fc.horizon_ops),
                policy: fc.policy,
                scrub_sections: fc.scrub_sections,
                scrub_order: fc.scrub_order,
                scrub_cursor: 0,
                dirty: 0,
                ledger: FaultLedger::new(),
                rejected: Vec::new(),
                op: 0,
                scrubbed_sections: 0,
                scrubbed_words: 0,
                reconciled: false,
            }
        });
        Self {
            policy,
            quantizer: TagQuantizer::with_policy(
                config.geometry,
                config.tick_scale,
                config.wrap_policy,
            ),
            buffer: PacketBuffer::new(config.capacity),
            sorter,
            flows: flows.len(),
            admission: config.admission,
            cleanup: config.cleanup,
            wred_coins: 0,
            wrap_counts: (config.wrap_policy == WrapPolicy::Wrap)
                .then(|| SectionCounts::new(config.geometry)),
            enqueued: 0,
            dequeued: 0,
            inversions: 0,
            pushed_out: 0,
            migrated_in: 0,
            migrated_out: 0,
            dropped: 0,
            depth_peak: 0,
            global_flows: Vec::new(),
            faults,
            instr: None,
        }
    }

    /// Installs the shard-local → global flow id map (`ids[local]` =
    /// global id). The sharded frontend calls this so `Enqueue`/`Dequeue`/
    /// `Drop` events from different ports join on one global flow
    /// namespace, and restore global ids on dequeue through
    /// [`HwScheduler::global_flow`]; flows outside the map keep their
    /// local id.
    pub fn set_global_flow_ids(&mut self, ids: Vec<u32>) {
        self.global_flows = ids;
    }

    /// The global id of local flow `flow` under the map installed by
    /// [`HwScheduler::set_global_flow_ids`] (the identity without one).
    pub fn global_flow(&self, flow: FlowId) -> FlowId {
        FlowId(
            self.global_flows
                .get(flow.0 as usize)
                .copied()
                .unwrap_or(flow.0),
        )
    }

    /// The flow id trace events carry for local flow `flow`.
    fn event_flow(&self, flow: u32) -> u64 {
        u64::from(self.global_flow(FlowId(flow)).0)
    }

    /// Connects this scheduler to `tel`, recording as `shard` (pass 0
    /// for a standalone scheduler): from now on it keeps the
    /// telemetry-only histograms and, when `tel` traces, `shard`'s event
    /// ring, which writes `tel`'s sink. Attaching again starts them
    /// afresh; attaching [`Telemetry::disabled`] detaches. The counts in
    /// [`HwScheduler::telemetry_snapshot`] are the scheduler's own, kept
    /// whether or not telemetry is attached.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is outside `tel`'s shard count (enabled
    /// telemetry only).
    pub fn attach_telemetry(&mut self, tel: &Telemetry, shard: usize) {
        self.instr = tel.is_enabled().then(|| {
            assert!(
                shard < tel.shards(),
                "shard {shard} outside telemetry ({} shards)",
                tel.shards()
            );
            Box::new(Instruments {
                sort_cycles: Histogram::new(),
                occupancy: Histogram::new(),
                fault_detect_latency: Histogram::new(),
                fault_repair_cost: Histogram::new(),
                ring: tel.ring(shard),
            })
        });
    }

    /// This scheduler's telemetry as one shard: a view over its own
    /// counts — [`HwScheduler::stats`], the dropped packets, the fault
    /// ledger and scrub totals, the queue depth and its high-water mark
    /// — plus the attached histograms and event ring. Empty (over zero
    /// shards) while no telemetry is attached.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let Some(instr) = &self.instr else {
            return Snapshot::empty(0);
        };
        let stats = self.stats();
        let (injected, detected, repaired, silent) = self.fault_totals();
        let fs = self.faults.as_ref();
        // Never-detected faults count as silent once reconciled.
        let silent = fs.filter(|f| f.reconciled).map_or(0, |_| silent);
        let counters = [
            ("sched_enqueued", stats.enqueued),
            ("sched_dequeued", stats.dequeued),
            ("sched_dropped", self.dropped),
            ("sched_clamped", stats.clamped),
            ("sched_inversions", stats.inversions),
            ("sched_pushed_out", stats.pushed_out),
            ("sched_migrated_in", stats.migrated_in),
            ("sched_migrated_out", stats.migrated_out),
            ("trie_recycled_sections", stats.circuit.recycled_sections),
            ("trie_recycled_markers", stats.circuit.recycled_markers),
            ("faults_injected", injected),
            ("faults_rejected", self.fault_rejections().len() as u64),
            ("faults_detected", detected),
            ("faults_repaired", repaired),
            ("silent_corruptions", silent),
            (
                "scrub_sections_audited",
                fs.map_or(0, |f| f.scrubbed_sections),
            ),
            ("scrub_words_checked", fs.map_or(0, |f| f.scrubbed_words)),
        ];
        let mut snap = Snapshot::empty(1);
        for (name, value) in counters {
            snap.add_counter(name.into(), vec![value]);
        }
        let depth = self.len();
        snap.add_gauge("queue_depth".into(), GaugeMerge::Sum, vec![depth as u64]);
        let peak = self.depth_peak.max(depth) as u64;
        snap.add_gauge("queue_depth_peak".into(), GaugeMerge::Max, vec![peak]);
        for (name, h) in [
            ("tag_sort_latency_cycles", &instr.sort_cycles),
            ("buffer_occupancy_pkts", &instr.occupancy),
            ("fault_detect_latency_cycles", &instr.fault_detect_latency),
            ("fault_repair_cost_cycles", &instr.fault_repair_cost),
        ] {
            snap.add_histogram(h.snapshot(name));
        }
        if let Some(ring) = &instr.ring {
            ring.collect_into(&mut snap);
        }
        snap
    }

    /// Removes and returns the events buffered on this scheduler's ring,
    /// oldest first (empty unless attached telemetry traces).
    pub fn drain_events(&mut self) -> Vec<Event> {
        self.instr
            .as_mut()
            .and_then(|i| i.ring.as_mut())
            .map_or_else(Vec::new, EventRing::drain)
    }

    /// Records one event stamped with the current cycle count, if the
    /// attached telemetry traces.
    #[inline]
    pub(crate) fn emit_now(&mut self, kind: EventKind, a: u64, b: u64) {
        emit(&mut self.instr, self.sorter.cycles(), kind, a, b);
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.sorter.len()
    }

    /// Whether no packet is queued.
    pub fn is_empty(&self) -> bool {
        self.sorter.is_empty()
    }

    /// The rank policy (read access for experiments).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Total tag-storage cycles consumed so far — the time base every
    /// traced event is stamped with.
    pub fn cycles(&self) -> u64 {
        self.sorter.cycles()
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            circuit: self.sorter.stats(),
            buffer: self.buffer.stats(),
            enqueued: self.enqueued,
            dequeued: self.dequeued,
            clamped: self.quantizer.clamped_count(),
            inversions: self.inversions,
            pushed_out: self.pushed_out,
            migrated_in: self.migrated_in,
            migrated_out: self.migrated_out,
        }
    }

    /// The fault ledger's records, in injection order (empty when no
    /// fault campaign is configured).
    pub fn fault_records(&self) -> &[FaultRecord] {
        self.faults.as_ref().map_or(&[], |f| f.ledger.records())
    }

    /// Planned fault injections the backend refused because it has no
    /// addressable state for the targeted component, as
    /// `(operation index, rejection)` pairs in plan order. Empty for
    /// backends that expose every component (the trie circuit) and
    /// without a fault campaign.
    pub fn fault_rejections(&self) -> &[(u64, FaultAttachError)] {
        self.faults.as_ref().map_or(&[], |f| &f.rejected)
    }

    /// Whether the sorter's off-chip state is paged (see
    /// [`SortBackend::set_paged`]). A no-op kept for wfqbench's
    /// `drive.rs`, which calls it on paged workloads: the trie circuit
    /// builds its translation table and tag store paged, and the other
    /// backends model no state memory, so this only reports which case
    /// holds.
    pub fn set_paged_state(&mut self) -> bool {
        self.sorter.set_paged()
    }

    /// The sorter's resident/peak/total state-memory accounting, when
    /// the backend models it (see [`SortBackend::resident_memory`]).
    pub fn resident_memory(&self) -> Option<ResidentMemory> {
        self.sorter.resident_memory()
    }

    /// `(injected, detected, repaired, silent)` ledger totals.
    pub fn fault_totals(&self) -> (u64, u64, u64, u64) {
        self.faults.as_ref().map_or((0, 0, 0, 0), |f| {
            (
                f.ledger.injected(),
                f.ledger.detected(),
                f.ledger.repaired(),
                f.ledger.silent(),
            )
        })
    }

    /// End-of-run fault accounting: sweeps any outstanding detections,
    /// after which the telemetry snapshot counts every never-detected
    /// fault as a `silent_corruptions`. Idempotent; a no-op without a
    /// fault campaign.
    pub fn reconcile_faults(&mut self) {
        self.fault_sweep();
        if let Some(fs) = self.faults.as_mut() {
            fs.reconciled = true;
        }
    }

    /// Claims any detections raised since the last sweep — the sorter's,
    /// then the buffer's parity alarms raised outside the service loop
    /// (the push-out eviction also releases slots) — against the fault
    /// ledger.
    fn fault_sweep(&mut self) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        for d in self.sorter.take_detections() {
            fs.note_detection(&mut self.instr, d);
        }
        let alarms = self.buffer.take_fault_alarms();
        fs.note_buffer_alarms(&mut self.instr, &alarms, self.sorter.cycles());
    }

    /// Runs one fault round: materializes every plan entry due at the
    /// current operation index, then audits the next `scrub_sections`
    /// trie sections (repairing under [`FaultPolicy::ScrubAndRepair`]).
    /// Called at the top of every dequeue round, *before* the pop, so a
    /// repair can land before the damaged state is served.
    fn fault_round(&mut self) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        while let Some(pf) = fs.plan.next_due(fs.op) {
            let cycle = self.sorter.cycles();
            // Buffer faults land in the scheduler's own payload memory;
            // everything else is routed to the sorting backend.
            let target = if pf.component == FaultComponent::Buffer {
                Ok(&mut self.buffer as &mut dyn FaultTarget)
            } else {
                self.sorter.fault_target_mut(pf.component)
            };
            match target {
                Ok(target) => {
                    if let Some((word, mask)) = pf.resolve(target) {
                        target.inject_fault(word, mask);
                        let idx = fs.ledger.push(FaultRecord {
                            component: pf.component,
                            word,
                            mask,
                            injected_op: pf.op,
                            injected_cycle: cycle,
                            detected_cycle: None,
                            detected_by: None,
                            repaired_cycle: None,
                        });
                        emit(
                            &mut self.instr,
                            cycle,
                            EventKind::FaultInject,
                            idx as u64,
                            word as u64,
                        );
                    }
                }
                Err(e) => {
                    // The backend has no addressable state for this
                    // component (e.g. the heap oracle): the plan entry
                    // is recorded as rejected, not silently dropped.
                    fs.rejected.push((pf.op, e));
                    emit(
                        &mut self.instr,
                        cycle,
                        EventKind::FaultInject,
                        u64::MAX,
                        pf.component as u64,
                    );
                }
            }
        }
        let sections = self.sorter.geometry().sections();
        let repair = fs.policy == FaultPolicy::ScrubAndRepair;
        let budget = fs.scrub_sections.min(sections) as usize;
        let mut chosen: Vec<u32> = Vec::with_capacity(budget);
        // Recently-written sections first (ascending index; only
        // ScrubOrder::WritePriority marks any dirty), then the round-robin
        // cursor fills the leftover budget so cold sections still age
        // into an audit.
        while chosen.len() < budget && fs.dirty != 0 {
            let section = fs.dirty.trailing_zeros();
            fs.dirty &= !(1u64 << section);
            chosen.push(section);
        }
        let mut scanned = 0;
        while chosen.len() < budget && scanned < sections {
            let section = fs.scrub_cursor % sections;
            fs.scrub_cursor = (fs.scrub_cursor + 1) % sections;
            scanned += 1;
            if !chosen.contains(&section) {
                fs.dirty &= !(1u64 << section);
                chosen.push(section);
            }
        }
        for section in chosen {
            let (words_checked, findings) = self.sorter.scrub(section, repair);
            fs.scrubbed_sections += 1;
            fs.scrubbed_words += words_checked;
            for finding in findings {
                fs.claim_scrub(&mut self.instr, finding, section);
            }
        }
    }

    /// Handles a popped sorter entry whose buffer-side record is gone —
    /// a corrupted packet pointer. Without a fault campaign this is the
    /// invariant violation it always was; under one it is a detected
    /// structural corruption and the pop is skipped.
    fn note_pointer_corruption(&mut self) {
        let cycle = self.sorter.cycles();
        let fs = self
            .faults
            .as_mut()
            .expect("sorter and buffer agree on occupancy");
        let d = Detection {
            component: FaultComponent::TagStore,
            word: None,
            cycle,
            kind: DetectionKind::Structural,
        };
        fs.note_detection(&mut self.instr, d);
    }

    /// Accepts a packet: computes its rank (the WFQ finishing tag under
    /// the default policy), quantizes it, parks the packet in the
    /// shared buffer, and sorts the tag in.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownFlow`], [`SchedulerError::BufferFull`],
    /// or a wrapped [`SortError`].
    pub fn enqueue(&mut self, pkt: Packet) -> Result<(), SchedulerError> {
        let Some(fs) = self.faults.as_mut() else {
            let finish = self.rank_arrival(&pkt)?;
            return self.admit_ranked(pkt, finish, true).map(drop);
        };
        // Under a fault campaign every operation advances the plan, and
        // detections are claimed before and after it.
        fs.op += 1;
        self.fault_sweep();
        let finish = self.rank_arrival(&pkt)?;
        let tag = self.admit_ranked(pkt, finish, true)?;
        self.note_section_write(tag);
        self.fault_sweep();
        Ok(())
    }

    /// Ranks an arriving packet, refusing flows outside the table.
    fn rank_arrival(&mut self, pkt: &Packet) -> Result<VirtualTime, SchedulerError> {
        if pkt.flow.0 as usize >= self.flows {
            return Err(SchedulerError::UnknownFlow {
                flow: pkt.flow.0,
                flows: self.flows,
            });
        }
        Ok(self.policy.rank(pkt))
    }

    /// The shared admission tail: quantizes an already-computed rank,
    /// parks the packet, and sorts the tag in, returning the tag.
    /// `arrival` distinguishes a fresh arrival ([`HwScheduler::enqueue`]
    /// — admission policy applies, `enqueued` counts, an `Enqueue` event
    /// is traced) from a migrated install ([`HwScheduler::install_flow`]
    /// — the packet was already admitted on its source shard, so none of
    /// those fire).
    fn admit_ranked(
        &mut self,
        pkt: Packet,
        finish: VirtualTime,
        arrival: bool,
    ) -> Result<Tag, SchedulerError> {
        if self.sorter.is_empty()
            && self.quantizer.policy() == WrapPolicy::Saturate
            && self.policy.monotone()
        {
            // Fresh numbering while nothing is outstanding restores the
            // saturate policy's headroom: a monotone policy guarantees
            // every future rank is at least its floor. The paper-literal
            // Wrap policy instead keeps its circular numbering forever
            // and reclaims range through section recycling (Fig. 6);
            // bounded-domain policies (SRPT, strict priority) never
            // rebase — their ranks already live in a fixed window.
            self.quantizer.rebase(self.policy.rank_floor());
        }
        // The window needs no minimum from here: Saturate's is lap 0,
        // and Wrap's recycle guard below reads the section counts.
        let out = self.quantizer.quantize(finish, None);
        if out.clamped || !out.recycle.is_empty() {
            self.emit_now(
                EventKind::VclockWrap,
                out.clamped as u64,
                out.recycle.len() as u64,
            );
        }
        for section in &out.recycle {
            // Only Wrap recycles, so the counts are always there.
            if let Some(counts) = &self.wrap_counts {
                counts.assert_recyclable(*section);
            }
            let removed = self.sorter.recycle_section(*section);
            self.emit_now(EventKind::TrieBulkDelete, *section as u64, removed as u64);
        }
        if arrival {
            if let AdmissionPolicy::Wred {
                min_pct,
                max_pct,
                max_p_pm,
            } = self.admission
            {
                self.wred_early_push_out(out.tag, min_pct, max_pct, max_p_pm);
            }
        }
        let evicting = matches!(
            self.admission,
            AdmissionPolicy::PushOut | AdmissionPolicy::Wred { .. }
        );
        let stored = match self.buffer.store(pkt) {
            Some(full) => Some(full),
            None if arrival && evicting => self
                .try_push_out(out.tag)
                .and_then(|()| self.buffer.store(pkt)),
            None => None,
        };
        let Some(full) = stored else {
            if arrival {
                self.note_drop(pkt.flow.0);
            }
            return Err(SchedulerError::BufferFull {
                capacity: self.buffer.capacity(),
            });
        };
        // The sorter's tag store holds only the bare slot index; the
        // rank, stamp and section ride in the buffer slot itself.
        let slot = PacketRef(full.index());
        let cycles_before = self.sorter.cycles();
        if let Err(e) = self.sorter.insert(out.tag, slot) {
            self.buffer.release(full);
            if arrival {
                self.note_drop(pkt.flow.0);
            }
            return Err(e.into());
        }
        let enq_cycle = self.sorter.cycles();
        if let Some(counts) = self.wrap_counts.as_mut() {
            counts.admit(out.tick);
        }
        let section = self.sorter.geometry().section_of(out.tag) as u8;
        self.buffer
            .set_sideband(slot.index(), finish, enq_cycle, section);
        self.depth_peak = self.depth_peak.max(self.sorter.len());
        if let Some(i) = self.instr.as_mut() {
            i.sort_cycles.observe(enq_cycle - cycles_before);
            i.occupancy.observe(self.buffer.stats().occupied as u64);
        }
        if arrival {
            self.enqueued += 1;
            let flow = self.event_flow(pkt.flow.0);
            emit(
                &mut self.instr,
                enq_cycle,
                EventKind::Enqueue,
                flow,
                pkt.seq,
            );
        }
        Ok(out.tag)
    }

    /// The WRED ramp (see [`AdmissionPolicy::Wred`]): below `min_pct`%
    /// occupancy does nothing; between the thresholds flips the
    /// deterministic coin and evicts the sorter's maximum on a hit; at
    /// or above `max_pct`% evicts unconditionally. The eviction reuses
    /// [`HwScheduler::try_push_out`], so an arrival that itself ranks
    /// worst never evicts a better-ranked resident.
    fn wred_early_push_out(&mut self, tag: Tag, min_pct: u8, max_pct: u8, max_p_pm: u16) {
        let occupied = self.buffer.stats().occupied;
        let capacity = self.buffer.capacity();
        let min = capacity * min_pct as usize / 100;
        let max = capacity * max_pct as usize / 100;
        if occupied < min.max(1) {
            return;
        }
        let evict = if occupied >= max {
            true
        } else {
            let span = (max - min).max(1) as u64;
            let threshold_pm = u64::from(max_p_pm) * (occupied - min) as u64 / span;
            self.wred_coin() < threshold_pm
        };
        if evict {
            let _ = self.try_push_out(tag);
        }
    }

    /// One draw of the counter-keyed WRED coin, uniform in `0..1000`.
    /// SplitMix64 over a fixed seed XOR the draw counter: stateless up
    /// to one u64 of state, so the stream is reproducible from the
    /// checkpointed counter alone.
    fn wred_coin(&mut self) -> u64 {
        /// "WREDCOIN" in ASCII — an arbitrary fixed seed, never varied:
        /// determinism across runs matters more than stream choice.
        const WRED_COIN_SEED: u64 = 0x5752_4544_434f_494e;
        let mut z = WRED_COIN_SEED ^ self.wred_coins;
        self.wred_coins += 1;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 1000
    }

    /// Attempts to free one buffer slot for an arrival quantized to
    /// `tag` by evicting the sorter's maximum entry
    /// ([`AdmissionPolicy::PushOut`]). Succeeds only when the arrival
    /// strictly outranks the largest queued tag; the victim is dropped
    /// (counted and traced like any refused packet).
    fn try_push_out(&mut self, tag: Tag) -> Option<()> {
        if tag >= self.sorter.peek_max()? {
            return None;
        }
        let (_, slot) = self.sorter.pop_max()?;
        let Some((victim, sb)) = self.buffer.take(slot.index()) else {
            self.note_pointer_corruption();
            return None;
        };
        self.uncount(sb.section);
        self.pushed_out += 1;
        self.note_drop(victim.flow.0);
        Some(())
    }

    /// Marks `tag`'s top-level section as recently written, feeding the
    /// write-priority scrub schedule. A no-op under round-robin order.
    fn note_section_write(&mut self, tag: Tag) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        if fs.scrub_order == ScrubOrder::WritePriority {
            fs.dirty |= 1u64 << self.sorter.geometry().section_of(tag);
        }
    }

    /// Records a refused packet (count + trace event).
    fn note_drop(&mut self, flow: u32) {
        self.dropped += 1;
        self.emit_now(
            EventKind::Drop,
            self.event_flow(flow),
            self.buffer.capacity() as u64,
        );
    }

    /// Serves the packet with the smallest finishing tag.
    pub fn dequeue(&mut self) -> Option<Packet> {
        self.dequeue_stamped().map(|(pkt, _)| pkt)
    }

    /// Serves the packet with the smallest finishing tag, together with
    /// the cycle stamps bracketing its residence in the circuit (the
    /// enqueue-time and dequeue-time cycle-counter readings — the same
    /// values the traced `Enqueue`/`Dequeue` events carry, so direct
    /// stamping and event-joined attribution agree exactly).
    pub fn dequeue_stamped(&mut self) -> Option<(Packet, SojournStamp)> {
        let Some(fs) = self.faults.as_mut() else {
            let (_, slot) = self.pop_min_timed()?;
            let (pkt, sb) = self
                .buffer
                .take(slot.index())
                .expect("sorter and buffer agree on occupancy");
            return Some(self.complete_service(pkt, sb));
        };
        fs.op += 1;
        // Faults due this round land now, and the scrubber gets its
        // audit slice *before* the pop — so a repair can restore state
        // the pop is about to read.
        self.fault_round();
        self.fault_sweep();
        // A popped entry whose packet pointer or descriptor was corrupted
        // is claimed against the ledger and skipped instead of served.
        let served = loop {
            let Some((tag, slot)) = self.pop_min_timed() else {
                break None;
            };
            self.note_section_write(tag);
            let Some((pkt, sb)) = self.buffer.take(slot.index()) else {
                // Corrupted packet pointer: the sorter served a slot the
                // buffer never issued (or already retired).
                self.note_pointer_corruption();
                continue;
            };
            // The release ran the buffer's descriptor parity check; an
            // alarm here means this packet's flow id or length was hit
            // by an upset — it is claimed against the ledger and the
            // packet is dropped rather than served with corrupted
            // metadata.
            let alarms = self.buffer.take_fault_alarms();
            if !alarms.is_empty() {
                let cycle = self.sorter.cycles();
                let fs = self.faults.as_mut().expect("a fault campaign is active");
                fs.note_buffer_alarms(&mut self.instr, &alarms, cycle);
                if alarms.contains(&slot.index()) {
                    self.uncount(sb.section);
                    self.note_drop(pkt.flow.0);
                    continue;
                }
            }
            break Some(self.complete_service(pkt, sb));
        };
        self.fault_sweep();
        served
    }

    /// Pops the sorter's minimum, observing its sort latency.
    fn pop_min_timed(&mut self) -> Option<(Tag, PacketRef)> {
        let cycles_before = self.sorter.cycles();
        let popped = self.sorter.pop_min()?;
        if let Some(i) = self.instr.as_mut() {
            i.sort_cycles.observe(self.sorter.cycles() - cycles_before);
        }
        Some(popped)
    }

    /// Serves a popped packet: rank feedback, inversion accounting,
    /// counters, and the `Dequeue` event.
    fn complete_service(&mut self, pkt: Packet, sb: Sideband) -> (Packet, SojournStamp) {
        // Service feedback for state-coupled policies (STFQ's virtual
        // time follows the served rank); a no-op for the default WFQ
        // policy.
        self.policy.on_service(&pkt, sb.finish);
        // Only Wrap lets the linear sorter's head overtake older ticks,
        // at the lap boundary: that is an inversion.
        if let Some(counts) = self.wrap_counts.as_mut() {
            if counts.retire(sb.section) {
                self.inversions += 1;
            }
        }
        self.dequeued += 1;
        let deq_cycle = self.sorter.cycles();
        let flow = self.event_flow(pkt.flow.0);
        emit(
            &mut self.instr,
            deq_cycle,
            EventKind::Dequeue,
            flow,
            pkt.seq,
        );
        (
            pkt,
            SojournStamp {
                enqueued: sb.enq_cycle,
                dequeued: deq_cycle,
            },
        )
    }

    /// Drops an entry from the Wrap section counts without judging it:
    /// push-out victims, migrated entries, and faulted pops.
    fn uncount(&mut self, section: u8) {
        if let Some(counts) = self.wrap_counts.as_mut() {
            counts.retire(section);
        }
    }

    /// Advances the policy's notion of time to `now` without an arrival
    /// (a no-op for clockless policies).
    pub fn advance_clock(&mut self, now: Time) {
        self.policy.advance(now);
    }

    /// Convenience harness: enqueues the whole trace (arrival order) and
    /// then drains, returning packets in service order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SchedulerError`].
    pub fn sort_trace(&mut self, trace: &[Packet]) -> Result<Vec<Packet>, SchedulerError> {
        for pkt in trace {
            self.enqueue(*pkt)?;
        }
        Ok(std::iter::from_fn(|| self.dequeue()).collect())
    }

    /// Serializes the scheduler's complete live state into a versioned
    /// [`Checkpoint`]: counters, quantizer window, rank-policy state,
    /// and every queued packet with its exact (pre-quantization) rank.
    /// A scheduler restored from the checkpoint with
    /// [`HwScheduler::restore`] produces the **identical departure
    /// sequence** the original would have — same packets, same order —
    /// across every backend and rank policy. Identical logical state
    /// checkpoints to byte-identical words (the CI determinism gate).
    ///
    /// Reading the queue means draining and reinstalling it, so the
    /// circuit's cycle counters advance; the pinned invariant is the
    /// departure sequence, not cycle stamps.
    ///
    /// # Panics
    ///
    /// Panics if a fault campaign is active (checkpointing mid-campaign
    /// would fork the fault plan) or under [`CleanupPolicy::Lazy`],
    /// whose stale markers would reject the reinstall.
    pub fn checkpoint(&mut self) -> Checkpoint {
        assert!(
            self.faults.is_none(),
            "checkpoint requires a fault-free scheduler (campaign state is not serializable)"
        );
        assert_eq!(
            self.cleanup,
            CleanupPolicy::Eager,
            "checkpoint requires CleanupPolicy::Eager (lazy markers would reject the reinstall)"
        );
        let entries = self.snapshot_entries();
        let mut b = CheckpointBuilder::new();
        b.word(self.flows as u64);
        b.word(self.buffer.capacity() as u64);
        b.word(admission_word(self.admission));
        // Reserved word, always 0, so the version-3 layout is unchanged.
        b.word(0);
        b.word(policy_name_word(self.policy.name()));
        b.word(self.enqueued);
        b.word(self.dequeued);
        b.word(self.inversions);
        b.word(self.pushed_out);
        b.word(self.wred_coins);
        b.word(self.migrated_in);
        b.word(self.migrated_out);
        // The Wrap section counts re-derive from the entries' tags; only
        // the oldest-section cursor needs a word of its own.
        b.word(self.wrap_counts.as_ref().map_or(0, SectionCounts::oldest));
        b.slice(&self.quantizer.state_words());
        b.slice(&self.policy.state_words());
        b.word(entries.len() as u64);
        for e in &entries {
            b.word(u64::from(e.tag.value()));
            b.float(e.finish.value());
            b.word(e.enq_cycle);
            b.word(u64::from(e.pkt.flow.0));
            b.word(e.pkt.seq);
            b.word(u64::from(e.pkt.size_bytes));
            b.float(e.pkt.arrival.seconds());
        }
        let ckpt = b.finish();
        // The read was destructive (pop_min is the only ordered view a
        // hardware sorter offers); put the queue back exactly as found.
        self.install_entries(&entries);
        ckpt
    }

    /// Rebuilds a scheduler from a [`Checkpoint`] taken by
    /// [`HwScheduler::checkpoint`]. The caller supplies the same flow
    /// table, link rate, configuration, and policy prototype the
    /// original was built with; the checkpoint carries echoes of the
    /// load-bearing ones and refuses a mismatch. The restored scheduler
    /// continues the original's departure sequence exactly.
    ///
    /// # Errors
    ///
    /// Any [`statesync::CheckpointError`]: corrupted words (including
    /// faultsim bit flips into the checkpoint itself), truncation, a
    /// foreign/duplicate format, or a well-sealed image whose queue does
    /// not fit this scheduler (more entries than the buffer holds, a
    /// tag outside the geometry, an unconfigured flow, a size wider
    /// than 32 bits, quantizer state of the wrong length, or rank-policy
    /// state that does not fit the policy — see
    /// [`RankPolicy::load_state_words`]).
    ///
    /// # Panics
    ///
    /// Panics if `config` disagrees with the checkpoint (flow count,
    /// capacity, admission policy, rank-policy name), if `config` has a
    /// fault campaign or lazy cleanup (see [`HwScheduler::checkpoint`]),
    /// or on invalid flow specs (as the constructors).
    pub fn restore(
        flows: &[FlowSpec],
        link_rate_bps: f64,
        config: SchedulerConfig,
        prototype: &P,
        ckpt: &Checkpoint,
    ) -> Result<Self, statesync::CheckpointError> {
        assert!(
            config.faults.is_none(),
            "restore requires a fault-free configuration"
        );
        let mut r = ckpt.reader()?;
        let mut s = Self::with_backend_and_policy(flows, link_rate_bps, config, prototype);
        let ckpt_flows = r.word()?;
        assert_eq!(
            ckpt_flows as usize,
            flows.len(),
            "checkpoint was taken with {ckpt_flows} flows, restore offers {}",
            flows.len()
        );
        let ckpt_cap = r.word()?;
        assert_eq!(
            ckpt_cap as usize, config.capacity,
            "checkpoint was taken at capacity {ckpt_cap}, restore offers {}",
            config.capacity
        );
        let ckpt_adm = r.word()?;
        assert_eq!(
            ckpt_adm,
            admission_word(config.admission),
            "checkpoint admission policy differs from the restore configuration"
        );
        r.word()?; // reserved word, ignored
        let ckpt_policy = r.word()?;
        assert_eq!(
            ckpt_policy,
            policy_name_word(s.policy.name()),
            "checkpoint rank policy differs from the restore prototype ({})",
            s.policy.name()
        );
        s.enqueued = r.word()?;
        s.dequeued = r.word()?;
        s.inversions = r.word()?;
        s.pushed_out = r.word()?;
        s.wred_coins = r.word()?;
        s.migrated_in = r.word()?;
        s.migrated_out = r.word()?;
        let oldest_section = r.word()?;
        let quantizer = r.slice()?;
        if quantizer.len() != 4 {
            return Err(out_of_range(
                "quantizer state length",
                quantizer.len() as u64,
            ));
        }
        s.quantizer.load_state_words(&quantizer);
        s.policy
            .load_state_words(&r.slice()?)
            .map_err(|e| out_of_range(e.field, e.value))?;
        // Seven words per entry: a count the payload cannot hold is
        // refused before anything is allocated for it.
        let n = usize::try_from(r.word()?)
            .ok()
            .filter(|&n| n <= r.remaining() / 7)
            .ok_or(statesync::CheckpointError::Exhausted)?;
        if n > config.capacity {
            return Err(out_of_range("queue length", n as u64));
        }
        let tag_space = s.sorter.geometry().tag_space();
        let below = |field, limit: u64, word: u64| {
            u32::try_from(word)
                .ok()
                .filter(|_| word < limit)
                .ok_or(out_of_range(field, word))
        };
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            // Fields evaluate in the order written: the checkpoint's.
            entries.push(CkptEntry {
                tag: Tag(below("tag", tag_space, r.word()?)?),
                finish: VirtualTime(r.float()?),
                enq_cycle: r.word()?,
                pkt: Packet {
                    flow: FlowId(below("flow id", s.flows as u64, r.word()?)?),
                    seq: r.word()?,
                    size_bytes: below("packet size", u64::MAX, r.word()?)?,
                    arrival: Time(r.float()?),
                },
            });
        }
        s.install_entries(&entries);
        if let Some(counts) = s.wrap_counts.as_mut() {
            let geometry = s.sorter.geometry();
            counts.reload(
                entries.iter().map(|e| geometry.section_of(e.tag)),
                oldest_section,
            );
        }
        Ok(s)
    }

    /// Drains every queued entry (ascending tag, FIFO among ties) with
    /// its full sideband, releasing buffer slots. The queue is empty
    /// afterwards, but the Wrap section counts still describe it: pair
    /// with [`HwScheduler::install_entries`] to put it back.
    fn snapshot_entries(&mut self) -> Vec<CkptEntry> {
        let mut out = Vec::with_capacity(self.sorter.len());
        while let Some((tag, slot)) = self.sorter.pop_min() {
            let (pkt, sb) = self
                .buffer
                .take(slot.index())
                .expect("sorter entry has a live buffer slot");
            out.push(CkptEntry {
                tag,
                finish: sb.finish,
                enq_cycle: sb.enq_cycle,
                pkt,
            });
        }
        out
    }

    /// Reinstalls snapshot entries in order: buffer slot, sorter tag,
    /// sideband. Slot indices may differ from the original run (the
    /// buffer free list is private); every observable — tag order, FIFO
    /// ties, ranks, stamps — is preserved.
    fn install_entries(&mut self, entries: &[CkptEntry]) {
        for e in entries {
            let full = self
                .buffer
                .store(e.pkt)
                .expect("restored queue fits the checkpointed capacity");
            self.sorter
                .insert(e.tag, PacketRef(full.index()))
                .expect("checkpointed tag reinserts under eager cleanup");
            let section = self.sorter.geometry().section_of(e.tag) as u8;
            self.buffer
                .set_sideband(full.index(), e.finish, e.enq_cycle, section);
        }
    }

    /// Extracts every queued packet of `flow` — in service order, with
    /// exact (pre-quantization) ranks — together with the flow's rank
    /// bookkeeping, for installation on another shard via
    /// [`HwScheduler::install_flow`]. The remaining flows' service
    /// order is untouched; the extracted packets count as
    /// `migrated_out`, not drops.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not configured, or under
    /// [`CleanupPolicy::Lazy`] (the survivor reinsert requires eager
    /// marker cleanup — see [`SortBackend::extract_flow`]).
    pub fn extract_flow(&mut self, flow: FlowId) -> MigratedFlow {
        assert!(
            (flow.0 as usize) < self.flows,
            "flow {} not configured ({} flows)",
            flow.0,
            self.flows
        );
        assert_eq!(
            self.cleanup,
            CleanupPolicy::Eager,
            "extract_flow requires CleanupPolicy::Eager"
        );
        let buffer = &self.buffer;
        let taken = self.sorter.extract_flow(&mut |slot: PacketRef| {
            buffer
                .peek_slot(slot.index())
                .is_some_and(|p| p.flow == flow)
        });
        let mut entries = Vec::with_capacity(taken.len());
        for (_, slot) in taken {
            let (packet, sb) = self
                .buffer
                .take(slot.index())
                .expect("extracted entry has a live buffer slot");
            self.uncount(sb.section);
            entries.push(MigratedEntry {
                packet,
                finish: sb.finish,
            });
        }
        self.migrated_out += entries.len() as u64;
        self.emit_now(
            EventKind::MigrateOut,
            self.event_flow(flow.0),
            entries.len() as u64,
        );
        MigratedFlow {
            entries,
            last_finish: self.policy.flow_finish(flow),
            floor: self.policy.rank_floor(),
        }
    }

    /// Installs a flow extracted from another shard as local flow
    /// `flow`: the source ranks are re-anchored onto this shard's
    /// virtual-time axis through a [`VClockXlat`] (order-preserving,
    /// floor-respecting), the rank policy adopts the flow's translated
    /// finish history, and every packet is admitted with its translated
    /// rank. Service on this shard is never paused — the install is an
    /// ordinary sequence of sorter inserts, work-conserving throughout.
    /// Installed packets count as `migrated_in`, not `enqueued`.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::BufferFull`] if the backlog does not fit;
    /// checked up front, so a refused install leaves this shard's state
    /// untouched (the caller still owns the [`MigratedFlow`]).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not configured.
    pub fn install_flow(&mut self, flow: FlowId, mf: &MigratedFlow) -> Result<(), SchedulerError> {
        assert!(
            (flow.0 as usize) < self.flows,
            "flow {} not configured ({} flows)",
            flow.0,
            self.flows
        );
        let free = self.buffer.capacity() - self.buffer.stats().occupied;
        if mf.entries.len() > free {
            return Err(SchedulerError::BufferFull {
                capacity: self.buffer.capacity(),
            });
        }
        let xlat = VClockXlat::new(mf.floor, self.policy.rank_floor());
        self.policy.adopt_flow(flow, xlat.translate(mf.last_finish));
        for e in &mf.entries {
            let mut pkt = e.packet;
            pkt.flow = flow;
            let tag = self.admit_ranked(pkt, xlat.translate(e.finish), false)?;
            self.note_section_write(tag);
        }
        self.migrated_in += mf.entries.len() as u64;
        self.emit_now(
            EventKind::MigrateIn,
            self.event_flow(flow.0),
            mf.entries.len() as u64,
        );
        Ok(())
    }
}

/// One packet in transit between shards: the packet plus its exact
/// (source-axis, pre-quantization) finishing rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigratedEntry {
    /// The packet, flow id still in the source shard's local space
    /// ([`HwScheduler::install_flow`] rewrites it).
    pub packet: Packet,
    /// The rank the source shard's policy assigned, on the source
    /// shard's virtual-time axis.
    pub finish: VirtualTime,
}

/// A flow's complete portable state: its queued backlog (service
/// order, exact ranks) and the rank bookkeeping needed to continue the
/// flow's relative schedule on another shard. Produced by
/// [`HwScheduler::extract_flow`], consumed by
/// [`HwScheduler::install_flow`]; plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct MigratedFlow {
    /// Queued packets in service order.
    pub entries: Vec<MigratedEntry>,
    /// The flow's last finishing rank on the source shard (its
    /// [`RankPolicy::flow_finish`]), which the destination adopts so
    /// the flow cannot dodge its backlog debt by migrating.
    pub last_finish: VirtualTime,
    /// The source shard's rank floor at extraction — the anchor
    /// [`VClockXlat`] re-bases the ranks from.
    pub floor: VirtualTime,
}

impl MigratedFlow {
    /// Queued packets being moved.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the flow had no queued backlog (migration then moves
    /// only its rank bookkeeping).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One checkpointed queue entry: the sorter tag, the exact rank, the
/// enqueue cycle stamp, and the packet.
struct CkptEntry {
    tag: Tag,
    finish: VirtualTime,
    enq_cycle: u64,
    pkt: Packet,
}

/// A restore refusal for a well-sealed word this scheduler cannot hold.
fn out_of_range(field: &'static str, value: u64) -> statesync::CheckpointError {
    statesync::CheckpointError::OutOfRange { field, value }
}

/// Packs an admission policy into one checkpoint word (tag byte plus
/// WRED parameters), so restore can refuse a mismatched configuration.
fn admission_word(a: AdmissionPolicy) -> u64 {
    match a {
        AdmissionPolicy::TailDrop => 0,
        AdmissionPolicy::PushOut => 1,
        AdmissionPolicy::Wred {
            min_pct,
            max_pct,
            max_p_pm,
        } => 2 | (min_pct as u64) << 8 | (max_pct as u64) << 16 | (max_p_pm as u64) << 24,
    }
}

/// First eight bytes of a rank policy's name packed little-endian —
/// enough to tell the seven shipped policies apart at restore.
fn policy_name_word(name: &str) -> u64 {
    let mut w = 0u64;
    for (i, b) in name.bytes().take(8).enumerate() {
        w |= (b as u64) << (8 * i);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::FlowId;

    fn pkt(seq: u64, flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq,
        }
    }

    fn flows(weights: &[f64]) -> Vec<FlowSpec> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &w)| FlowSpec::new(FlowId(i as u32), w, 1e6))
            .collect()
    }

    fn sched(weights: &[f64]) -> HwScheduler {
        HwScheduler::new(&flows(weights), 1e9, SchedulerConfig::default())
    }

    #[test]
    fn serves_in_wfq_tag_order() {
        let mut s = sched(&[1.0, 1.0]);
        // Flow 0 sends a big packet, flow 1 three small ones: the small
        // finishing tags win.
        s.enqueue(pkt(0, 0, 0.0, 1500)).unwrap();
        for i in 1..=3 {
            s.enqueue(pkt(i, 1, 0.0, 100)).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue()).map(|p| p.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(s.is_empty());
    }

    #[test]
    fn weights_bias_the_order() {
        let mut s = sched(&[1.0, 8.0]);
        s.enqueue(pkt(0, 0, 0.0, 1000)).unwrap(); // F = 8000
        s.enqueue(pkt(1, 1, 0.0, 1000)).unwrap(); // F = 1000
        assert_eq!(s.dequeue().unwrap().seq, 1);
    }

    #[test]
    fn hardware_cost_is_four_cycles_per_packet() {
        let mut s = sched(&[1.0, 1.0, 1.0, 1.0]);
        for i in 0..400 {
            s.enqueue(pkt(i, (i % 4) as u32, i as f64 * 1e-5, 300))
                .unwrap();
        }
        for _ in 0..200 {
            s.dequeue().unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.circuit.cycles_per_op(), 4.0);
        assert_eq!(stats.enqueued, 400);
        assert_eq!(stats.dequeued, 200);
        assert_eq!(stats.inversions, 0);
    }

    #[test]
    fn interleaved_service_matches_software_wfq_order() {
        // The hardware path (quantized tags) must agree with the software
        // WFQ scheduler up to quantization ties. A 20-bit geometry with
        // one virtual unit per tick keeps quantization fine enough that
        // ties are the only possible divergence.
        use fairq::{Scheduler, Wfq};
        let fl = flows(&[1.0, 3.0]);
        let mut hw = HwScheduler::new(
            &fl,
            1e6,
            SchedulerConfig {
                geometry: Geometry::new(5, 4),
                tick_scale: 1.0,
                ..SchedulerConfig::default()
            },
        );
        let mut sw = Wfq::new(&fl, 1e6);
        // A third clock recomputes each packet's exact finishing tag for
        // order validation (identical inputs => identical tags).
        let mut oracle = fairq::GpsVirtualClock::new(&[1.0, 3.0], 1e6);
        let mut trace = Vec::new();
        for i in 0..50u64 {
            let f = (i % 2) as u32;
            let bytes = 200 + ((i * 97) % 1100) as u32;
            trace.push(pkt(i, f, i as f64 * 1e-4, bytes));
        }
        let mut finish_of = std::collections::HashMap::new();
        for p in &trace {
            hw.enqueue(*p).unwrap();
            sw.on_arrival(*p);
            let (_, f) = oracle.on_arrival(p.flow, p.size_bits(), p.arrival);
            finish_of.insert(p.seq, f.value());
        }
        let hw_order: Vec<u64> = std::iter::from_fn(|| hw.dequeue()).map(|p| p.seq).collect();
        let sw_order: Vec<u64> = std::iter::from_fn(|| sw.select(Time(1.0)))
            .map(|p| p.seq)
            .collect();
        // Same packets served.
        let mut a = hw_order.clone();
        let mut b = sw_order.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // The hardware order is a valid quantized-WFQ order: quantized
        // finishing tags never decrease along the service sequence.
        for w in hw_order.windows(2) {
            let (f0, f1) = (finish_of[&w[0]].floor(), finish_of[&w[1]].floor());
            assert!(f0 <= f1, "hw served {f0} after {f1}");
        }
        // And it agrees with software WFQ everywhere except (at most)
        // quantization ties.
        let disagreements = hw_order
            .iter()
            .zip(&sw_order)
            .filter(|(x, y)| x != y)
            .count();
        assert!(
            disagreements * 10 <= hw_order.len(),
            "hw and sw orders diverge too much: {disagreements}/{}",
            hw_order.len()
        );
        assert_eq!(hw.stats().clamped, 0);
    }

    #[test]
    fn buffer_full_is_reported_and_recoverable() {
        let mut s = HwScheduler::new(
            &flows(&[1.0]),
            1e9,
            SchedulerConfig {
                capacity: 2,
                ..SchedulerConfig::default()
            },
        );
        s.enqueue(pkt(0, 0, 0.0, 100)).unwrap();
        s.enqueue(pkt(1, 0, 0.0, 100)).unwrap();
        assert!(matches!(
            s.enqueue(pkt(2, 0, 0.0, 100)),
            Err(SchedulerError::BufferFull { capacity: 2 })
        ));
        s.dequeue().unwrap();
        s.enqueue(pkt(3, 0, 0.0, 100)).unwrap();
    }

    #[test]
    fn unknown_flow_rejected() {
        let mut s = sched(&[1.0]);
        assert!(matches!(
            s.enqueue(pkt(0, 5, 0.0, 100)),
            Err(SchedulerError::UnknownFlow { flow: 5, flows: 1 })
        ));
    }

    #[test]
    fn long_run_wraps_cleanly_under_wrap_policy() {
        // Drive virtual time through several laps of the 12-bit space;
        // the quantizer must recycle sections and the sorter must stay
        // coherent, with at most transient boundary inversions.
        let mut s = HwScheduler::new(
            &flows(&[1.0]),
            1e6,
            SchedulerConfig {
                tick_scale: 10.0,
                wrap_policy: WrapPolicy::Wrap,
                ..SchedulerConfig::default()
            },
        );
        // Each 125-byte packet advances the busy flow's tag by 1000
        // virtual units = 100 ticks, so 3000 packets sweep ~70 laps of
        // the 4096-tick space. Wrap-mode inversions make boundary
        // stragglers (old-lap tags) linger behind freshly wrapped small
        // tags, so the run drains fully every 25 packets — the service
        // lulls that keep the live window inside the lap, mirroring how
        // the fabricated circuit relies on the window staying bounded.
        let mut seq = 0u64;
        let mut t = 0.0;
        for _ in 0..120 {
            for _ in 0..25 {
                t += 1e-3;
                s.enqueue(pkt(seq, 0, t, 125)).unwrap();
                seq += 1;
                s.dequeue().unwrap();
            }
            while s.dequeue().is_some() {}
        }
        let stats = s.stats();
        assert_eq!(stats.dequeued, 3000);
        // Inversions are possible only at lap boundaries; they must be a
        // tiny fraction of the traffic.
        assert!(
            stats.inversions <= 60,
            "too many inversions: {}",
            stats.inversions
        );
    }

    #[test]
    fn saturate_policy_never_inverts() {
        let mut s = HwScheduler::new(
            &flows(&[1.0, 1.0]),
            1e6,
            SchedulerConfig {
                tick_scale: 10.0,
                wrap_policy: WrapPolicy::Saturate,
                ..SchedulerConfig::default()
            },
        );
        let mut seq = 0u64;
        let mut t = 0.0;
        for i in 0..3000 {
            t += 1e-3;
            s.enqueue(pkt(seq, (i % 2) as u32, t, 125)).unwrap();
            seq += 1;
            if seq.is_multiple_of(2) {
                s.dequeue().unwrap();
            }
        }
        while s.dequeue().is_some() {}
        assert_eq!(s.stats().inversions, 0);
    }

    #[test]
    fn saturate_serves_in_clamped_tick_order_when_a_busy_period_opens_past_the_range() {
        // One big weight-1 packet opens the busy period at a tick past
        // 2^12; thirty-nine weight-10 packets follow with lower ticks.
        // Every served packet's min(tick, 2^12 - 1) must be
        // nondecreasing, so the early clamp cannot re-anchor the window.
        // 1625-byte packets put a tick (3900) between the opener's old
        // re-anchored tag (12000 mod 4096 = 3808) and the range top.
        for bytes in [1625, 1500] {
            let fl = flows(&[1.0, 10.0]);
            let config = SchedulerConfig {
                tick_scale: 1.0,
                ..SchedulerConfig::default()
            };
            let mut s = HwScheduler::new(&fl, 1e9, config);
            let mut oracle = fairq::GpsVirtualClock::new(&[1.0, 10.0], 1e9);
            let mut tick_of = std::collections::HashMap::new();
            let top = Geometry::paper().tag_space() - 1;
            for (seq, (flow, bytes)) in std::iter::once((0u32, 1500u32))
                .chain(std::iter::repeat_n((1, bytes), 39))
                .enumerate()
            {
                let p = pkt(seq as u64, flow, 0.0, bytes);
                s.enqueue(p).unwrap();
                let (_, f) = oracle.on_arrival(p.flow, p.size_bits(), p.arrival);
                tick_of.insert(p.seq, (f.value().floor() as u64).min(top));
            }
            assert_eq!(tick_of[&0], top, "the opening tick is past the range");
            let served: Vec<u64> = std::iter::from_fn(|| s.dequeue())
                .map(|p| tick_of[&p.seq])
                .collect();
            assert_eq!(served.len(), 40);
            assert!(
                served.windows(2).all(|w| w[0] <= w[1]),
                "{bytes} B: clamped ticks served out of order: {served:?}"
            );
            assert_eq!(s.stats().inversions, 0, "{bytes} B");
        }
    }

    #[test]
    fn saturate_never_recycles_even_at_a_vanishing_tick_scale() {
        // Ticks of ~10^10 clamp to the range top instead of walking the
        // sections in between.
        let mut s = HwScheduler::new(
            &flows(&[1.0]),
            1e9,
            SchedulerConfig {
                tick_scale: 1e-9,
                ..SchedulerConfig::default()
            },
        );
        for seq in 0..4 {
            s.enqueue(pkt(seq, 0, 0.0, 1500)).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue()).map(|p| p.seq).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        let stats = s.stats();
        assert_eq!(stats.circuit.recycled_sections, 0);
        assert_eq!(stats.clamped, 4);
    }

    #[test]
    fn sort_trace_convenience() {
        let mut s = sched(&[1.0, 2.0]);
        let trace = vec![pkt(0, 0, 0.0, 1000), pkt(1, 1, 0.0, 1000)];
        let served = s.sort_trace(&trace).unwrap();
        assert_eq!(served.len(), 2);
        assert_eq!(served[0].seq, 1, "heavier weight finishes first");
    }

    #[test]
    fn push_out_admits_better_ranked_arrivals() {
        let mut s = HwScheduler::new(
            &flows(&[1.0, 1.0]),
            1e6,
            SchedulerConfig {
                capacity: 2,
                admission: AdmissionPolicy::PushOut,
                ..SchedulerConfig::default()
            },
        );
        // Two big flow-0 packets fill the buffer with large tags...
        s.enqueue(pkt(0, 0, 0.0, 1500)).unwrap();
        s.enqueue(pkt(1, 0, 0.0, 1500)).unwrap();
        // ...a small flow-1 packet outranks the worst (seq 1) and takes
        // its slot...
        s.enqueue(pkt(2, 1, 0.0, 100)).unwrap();
        // ...while a further flow-0 packet ranks worst itself and is
        // tail-dropped as usual.
        assert!(matches!(
            s.enqueue(pkt(3, 0, 0.0, 1500)),
            Err(SchedulerError::BufferFull { capacity: 2 })
        ));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue()).map(|p| p.seq).collect();
        assert_eq!(order, vec![2, 0]);
        assert_eq!(s.stats().pushed_out, 1);
    }

    #[test]
    fn tail_drop_never_pushes_out() {
        let mut s = HwScheduler::new(
            &flows(&[1.0, 1.0]),
            1e6,
            SchedulerConfig {
                capacity: 2,
                ..SchedulerConfig::default()
            },
        );
        s.enqueue(pkt(0, 0, 0.0, 1500)).unwrap();
        s.enqueue(pkt(1, 0, 0.0, 1500)).unwrap();
        assert!(s.enqueue(pkt(2, 1, 0.0, 100)).is_err());
        assert_eq!(s.stats().pushed_out, 0);
    }

    #[test]
    fn srpt_policy_serves_shortest_first() {
        use fairq::SrptRank;
        let fl = flows(&[1.0, 1.0]);
        let mut s = HwScheduler::<SortRetrieveCircuit, SrptRank>::with_backend_and_policy(
            &fl,
            1e9,
            SchedulerConfig {
                tick_scale: 8.0,
                ..SchedulerConfig::default()
            },
            &SrptRank,
        );
        s.enqueue(pkt(0, 0, 0.0, 1500)).unwrap();
        s.enqueue(pkt(1, 1, 0.0, 40)).unwrap();
        s.enqueue(pkt(2, 0, 0.0, 400)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue()).map(|p| p.seq).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(s.policy().name(), "srpt");
    }

    #[test]
    #[should_panic(expected = "requires CleanupPolicy::Eager")]
    fn non_monotone_policy_rejects_lazy_cleanup() {
        use fairq::SrptRank;
        let _ = HwScheduler::<SortRetrieveCircuit, SrptRank>::with_backend_and_policy(
            &flows(&[1.0]),
            1e9,
            SchedulerConfig {
                cleanup: CleanupPolicy::Lazy,
                ..SchedulerConfig::default()
            },
            &SrptRank,
        );
    }

    /// The rank policy's pass is the build's only check of the flow
    /// table: every in-tree policy refuses a repeated id and a gap.
    #[test]
    fn every_policy_refuses_ids_that_are_not_dense_and_unique() {
        use fairq::AnyPolicy;
        let config = SchedulerConfig {
            cleanup: CleanupPolicy::Eager,
            ..SchedulerConfig::default()
        };
        let table = |ids: &[u32]| -> Vec<FlowSpec> {
            ids.iter()
                .map(|&id| FlowSpec::new(FlowId(id), 1.0, 1e6))
                .collect()
        };
        for name in AnyPolicy::NAMES {
            let policy = AnyPolicy::by_name(name).expect("a listed name");
            let build = |flows: &[FlowSpec]| {
                HwScheduler::<SortRetrieveCircuit, AnyPolicy>::with_backend_and_policy(
                    flows, 1e9, config, &policy,
                )
            };
            assert_eq!(build(&table(&[2, 0, 1])).policy().name(), name);
            for ids in [&[0, 1, 1][..], &[0, 1, 3], &[1, 2, 1]] {
                let Err(err) = std::panic::catch_unwind(|| drop(build(&table(ids)))) else {
                    panic!("{name} accepted ids {ids:?}");
                };
                let msg = err
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or_default();
                assert!(
                    msg.contains("flow ids must be dense and unique"),
                    "{name} with ids {ids:?}: {msg}"
                );
            }
        }
    }

    #[test]
    fn error_display() {
        let e = SchedulerError::BufferFull { capacity: 7 };
        assert_eq!(e.to_string(), "shared packet buffer full (7 packets)");
        let e = SchedulerError::UnknownFlow { flow: 3, flows: 2 };
        assert_eq!(e.to_string(), "flow 3 not configured (2 flows)");
    }

    #[test]
    fn admission_policy_parses_and_displays_wred() {
        assert_eq!(
            "wred".parse::<AdmissionPolicy>().unwrap(),
            AdmissionPolicy::wred()
        );
        assert_eq!(AdmissionPolicy::wred().to_string(), "wred");
        let custom: AdmissionPolicy = "wred:10:60:500".parse().unwrap();
        assert_eq!(
            custom,
            AdmissionPolicy::Wred {
                min_pct: 10,
                max_pct: 60,
                max_p_pm: 500
            }
        );
        assert_eq!(custom.to_string(), "wred:10:60:500");
        assert_eq!(
            custom.to_string().parse::<AdmissionPolicy>().unwrap(),
            custom
        );
        assert!("wred:90:50:100".parse::<AdmissionPolicy>().is_err());
        assert!("wred:0:101:100".parse::<AdmissionPolicy>().is_err());
        assert!("wred:0:50:2000".parse::<AdmissionPolicy>().is_err());
        assert!("wred:1:2".parse::<AdmissionPolicy>().is_err());
    }

    #[test]
    fn checkpoint_restore_continues_the_departure_sequence() {
        let fl = flows(&[1.0, 3.0, 2.0]);
        let cfg = SchedulerConfig::default();
        let mut original = HwScheduler::new(&fl, 1e9, cfg);
        for i in 0..60u64 {
            original
                .enqueue(pkt(
                    i,
                    (i % 3) as u32,
                    i as f64 * 1e-6,
                    200 + (i * 37 % 900) as u32,
                ))
                .unwrap();
        }
        for _ in 0..15 {
            original.dequeue().unwrap();
        }
        let ckpt = original.checkpoint();
        let mut restored =
            HwScheduler::<SortRetrieveCircuit>::restore(&fl, 1e9, cfg, &WfqRank::default(), &ckpt)
                .unwrap();
        // Both continue: more arrivals, then drain. Sequences must agree
        // packet for packet.
        let mut tails = Vec::new();
        for s in [&mut original, &mut restored] {
            for i in 60..80u64 {
                s.enqueue(pkt(i, (i % 3) as u32, 1e-3 + i as f64 * 1e-6, 400))
                    .unwrap();
            }
            tails.push(
                std::iter::from_fn(|| s.dequeue())
                    .map(|p| p.seq)
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(tails[0], tails[1], "restored departure sequence diverged");
        let (a, b) = (original.stats(), restored.stats());
        assert_eq!(a.enqueued, b.enqueued);
        assert_eq!(a.dequeued, b.dequeued);
    }

    #[test]
    fn checkpoint_is_byte_deterministic_and_nondestructive() {
        let fl = flows(&[1.0, 2.0]);
        let mut s = sched(&[1.0, 2.0]);
        for i in 0..30u64 {
            s.enqueue(pkt(i, (i % 2) as u32, i as f64 * 1e-6, 500))
                .unwrap();
        }
        let first = s.checkpoint();
        first.verify().unwrap();
        // The read reinstalled the queue: a second checkpoint of the
        // same logical state is byte-identical (the CI determinism gate).
        let second = s.checkpoint();
        assert_eq!(first.to_bytes(), second.to_bytes());
        // And an identically-driven scheduler checkpoints identically.
        let mut twin = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
        for i in 0..30u64 {
            twin.enqueue(pkt(i, (i % 2) as u32, i as f64 * 1e-6, 500))
                .unwrap();
        }
        assert_eq!(twin.checkpoint().to_bytes(), first.to_bytes());
        // The queue still drains completely after all three reads.
        assert_eq!(std::iter::from_fn(|| s.dequeue()).count(), 30);
    }

    #[test]
    fn corrupted_checkpoints_are_refused_at_restore() {
        use faultsim::FaultTarget;
        let fl = flows(&[1.0]);
        let mut s = sched(&[1.0]);
        s.enqueue(pkt(0, 0, 0.0, 100)).unwrap();
        let mut ckpt = s.checkpoint();
        ckpt.inject_fault(5, 1 << 13);
        assert!(
            HwScheduler::<SortRetrieveCircuit>::restore(
                &fl,
                1e9,
                SchedulerConfig::default(),
                &WfqRank::default(),
                &ckpt
            )
            .is_err(),
            "bit-flipped checkpoint must not restore"
        );
    }

    #[test]
    fn an_entry_count_past_the_payload_is_refused_before_allocating() {
        let fl = flows(&[1.0]);
        let words = sched(&[1.0]).checkpoint().words().to_vec();
        // An empty queue's image ends its payload with the entry count;
        // reseal a huge count so that only restore's own bound objects.
        let (payload, count) = (&words[3..words.len() - 2], words[words.len() - 2]);
        assert_eq!(count, 0);
        for bogus in [1u64 << 40, u64::MAX, 1] {
            let mut b = CheckpointBuilder::new();
            payload.iter().for_each(|&w| b.word(w));
            b.word(bogus);
            let restored = HwScheduler::<SortRetrieveCircuit>::restore(
                &fl,
                1e9,
                SchedulerConfig::default(),
                &WfqRank::default(),
                &b.finish(),
            );
            assert_eq!(
                restored.err(),
                Some(statesync::CheckpointError::Exhausted),
                "count {bogus}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn restore_refuses_a_mismatched_capacity() {
        let fl = flows(&[1.0]);
        let mut s = sched(&[1.0]);
        s.enqueue(pkt(0, 0, 0.0, 100)).unwrap();
        let ckpt = s.checkpoint();
        let small = SchedulerConfig {
            capacity: 8,
            ..SchedulerConfig::default()
        };
        let _ = HwScheduler::<SortRetrieveCircuit>::restore(
            &fl,
            1e9,
            small,
            &WfqRank::default(),
            &ckpt,
        );
    }

    #[test]
    fn wred_sheds_worst_ranked_backlog_before_the_buffer_fills() {
        let mut s = HwScheduler::new(
            &flows(&[1.0, 1.0]),
            1e6,
            SchedulerConfig {
                capacity: 16,
                admission: AdmissionPolicy::Wred {
                    min_pct: 25,
                    max_pct: 50,
                    max_p_pm: 1000,
                },
                ..SchedulerConfig::default()
            },
        );
        // Flow 0's big packets pile up worst-ranked backlog; flow 1's
        // small packets keep arriving with better ranks. Above 50%
        // occupancy every flow-1 arrival evicts flow 0's maximum.
        for i in 0..12u64 {
            s.enqueue(pkt(i, 0, 0.0, 1500)).unwrap();
        }
        for i in 12..20u64 {
            s.enqueue(pkt(i, 1, 0.0, 100)).unwrap();
        }
        let stats = s.stats();
        assert!(
            stats.pushed_out > 0,
            "the unconditional region above max_pct must evict"
        );
        assert!(
            s.len() < 20,
            "eviction keeps occupancy below the raw arrival count"
        );
        // Every flow-1 packet survived (they outrank the backlog).
        let served: Vec<u64> = std::iter::from_fn(|| s.dequeue()).map(|p| p.seq).collect();
        for seq in 12..20 {
            assert!(served.contains(&seq), "best-ranked packet {seq} evicted");
        }
    }

    #[test]
    fn wred_decisions_are_deterministic_across_runs() {
        let run = || {
            let mut s = HwScheduler::new(
                &flows(&[1.0, 2.0]),
                1e6,
                SchedulerConfig {
                    capacity: 32,
                    admission: AdmissionPolicy::wred(),
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..200u64 {
                let _ = s.enqueue(pkt(
                    i,
                    (i % 2) as u32,
                    i as f64 * 1e-6,
                    300 + (i * 53 % 1100) as u32,
                ));
            }
            let order: Vec<u64> = std::iter::from_fn(|| s.dequeue()).map(|p| p.seq).collect();
            (order, s.stats().pushed_out)
        };
        assert_eq!(run(), run(), "counter-keyed coin must reproduce exactly");
    }

    #[test]
    fn extract_and_install_migrate_a_flow_between_schedulers() {
        let fl = flows(&[1.0, 2.0]);
        let cfg = SchedulerConfig::default();
        let mut src = HwScheduler::new(&fl, 1e9, cfg);
        let mut dst = HwScheduler::new(&fl, 1e9, cfg);
        // Advance the source clock well past the destination's so the
        // translation actually has work to do.
        for i in 0..40u64 {
            src.enqueue(pkt(i, (i % 2) as u32, i as f64 * 1e-6, 1000))
                .unwrap();
        }
        for _ in 0..20 {
            src.dequeue().unwrap();
        }
        let queued_before = src.len();
        let mf = src.extract_flow(FlowId(1));
        assert!(!mf.is_empty(), "flow 1 had backlog to move");
        assert_eq!(
            src.len() + mf.len(),
            queued_before,
            "extraction is lossless"
        );
        assert_eq!(src.stats().migrated_out, mf.len() as u64);
        // Source no longer serves flow 1.
        let rest: Vec<Packet> = std::iter::from_fn(|| src.dequeue()).collect();
        assert!(rest.iter().all(|p| p.flow == FlowId(0)));
        // Destination installs and serves the backlog in order,
        // interleaved fairly with its own traffic.
        dst.enqueue(pkt(100, 0, 0.0, 500)).unwrap();
        dst.install_flow(FlowId(1), &mf).unwrap();
        assert_eq!(dst.stats().migrated_in, mf.len() as u64);
        assert_eq!(dst.stats().enqueued, 1, "installs are not arrivals");
        let served: Vec<Packet> = std::iter::from_fn(|| dst.dequeue()).collect();
        let flow1: Vec<u64> = served
            .iter()
            .filter(|p| p.flow == FlowId(1))
            .map(|p| p.seq)
            .collect();
        let expected: Vec<u64> = mf.entries.iter().map(|e| e.packet.seq).collect();
        assert_eq!(flow1, expected, "per-flow order survives migration");
        assert_eq!(
            served.len(),
            mf.len() + 1,
            "nothing lost, nothing duplicated"
        );
    }

    #[test]
    fn install_refuses_a_backlog_that_does_not_fit() {
        let fl = flows(&[1.0, 1.0]);
        let mut src = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
        for i in 0..8u64 {
            src.enqueue(pkt(i, 1, 0.0, 500)).unwrap();
        }
        let mf = src.extract_flow(FlowId(1));
        let mut dst = HwScheduler::new(
            &fl,
            1e9,
            SchedulerConfig {
                capacity: 4,
                ..SchedulerConfig::default()
            },
        );
        assert!(matches!(
            dst.install_flow(FlowId(1), &mf),
            Err(SchedulerError::BufferFull { capacity: 4 })
        ));
        assert!(
            dst.is_empty(),
            "a refused install leaves the shard untouched"
        );
        assert_eq!(dst.stats().migrated_in, 0);
    }

    #[test]
    fn migration_preserves_the_flows_rank_debt() {
        // A flow that built up finishing-tag debt on the source cannot
        // reset to the destination floor by migrating: its adopted
        // history keeps its next arrival ranked behind a fresh flow.
        let fl = flows(&[1.0, 1.0]);
        let mut src = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
        for i in 0..10u64 {
            src.enqueue(pkt(i, 1, 0.0, 1500)).unwrap();
        }
        let mf = src.extract_flow(FlowId(1));
        let mut dst = HwScheduler::new(&fl, 1e9, SchedulerConfig::default());
        dst.install_flow(FlowId(1), &mf).unwrap();
        // Same-size packets arrive simultaneously on both flows: the
        // fresh flow 0 must finish first — flow 1 still owes its debt.
        dst.enqueue(pkt(100, 0, 0.0, 1000)).unwrap();
        dst.enqueue(pkt(200, 1, 0.0, 1000)).unwrap();
        let served: Vec<u64> = std::iter::from_fn(|| dst.dequeue())
            .map(|p| p.seq)
            .collect();
        let pos = |seq: u64| served.iter().position(|&s| s == seq).unwrap();
        assert!(
            pos(100) < pos(200),
            "migrated flow dodged its backlog debt: {served:?}"
        );
    }
}
