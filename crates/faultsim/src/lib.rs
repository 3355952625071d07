//! Deterministic fault models for the sorter's on-chip state.
//!
//! The paper's circuit keeps every scheduling decision in SRAM: trie
//! node occupancy words (§III-A), translation-table entries (§III-D),
//! and the linked-list tag store (§III-C). Real 130-nm silicon loses
//! bits in exactly that state to single-event upsets (SEUs), so this
//! crate models them — reproducibly:
//!
//! * [`FaultSpec`] / [`FaultPlan`] — a seeded plan of single/multi-bit
//!   flips, scheduled at operation indices over a run. Built on
//!   [`traffic::rng`], so two runs with the same spec corrupt the same
//!   words on the same operations; there is no wall-clock anywhere.
//! * [`FaultTarget`] — the narrow injection surface a corruptible
//!   structure implements (the trie, the translation table, and the
//!   SRAM behind the tag store all do). A target is just an indexable
//!   array of words with a known usable width; the plan picks a word
//!   and a mask, the target XORs them in.
//! * [`FaultPolicy`] — what the scheduler does about damage:
//!   fail-fast, detect-and-count (serve on, degraded but observable),
//!   or scrub-and-repair (rebuild trie sections from the translation
//!   table's ground truth).
//! * [`FaultLedger`] — the per-run record of every injected fault and
//!   its fate (detected by parity / scrub / structural check, repaired,
//!   or silent), from which the reliability counters and the
//!   byte-deterministic `--fault-report` file derive.
//!
//! The crate is deliberately free of scheduler knowledge: it produces
//! plans and keeps books. Detection and repair live with the structures
//! themselves (`tagsort`, `hwsim`), which report in this crate's terms
//! — a [`Detection`] per symptom, a [`ScrubFinding`] per audit — so the
//! scheduler that drives them only claims records against the ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use traffic::rng::Rng;

/// Maximum bit flips a single fault may carry (multi-bit upsets from one
/// particle strike are spatially local; 8 covers every published MBU
/// pattern for the node sizes modeled here).
pub const MAX_FAULT_BITS: u32 = 8;

/// A corruptible state component of the scheduler datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultComponent {
    /// Multi-bit trie node occupancy words (all levels, root included).
    Trie,
    /// Translation-table entries (presence bit + link address).
    Translation,
    /// Tag-store link words in external SRAM.
    TagStore,
    /// Packet-buffer descriptor words (flow id + length) in the
    /// scheduler's payload memory — damage here corrupts the packet a
    /// sorted tag points at, not the sort order itself.
    Buffer,
}

impl FaultComponent {
    /// Every concrete component, in the order `any` cycles through.
    pub const ALL: [FaultComponent; 4] = [
        FaultComponent::Trie,
        FaultComponent::Translation,
        FaultComponent::TagStore,
        FaultComponent::Buffer,
    ];

    /// Stable lowercase name (spec syntax and report lines).
    pub fn name(self) -> &'static str {
        match self {
            FaultComponent::Trie => "trie",
            FaultComponent::Translation => "translation",
            FaultComponent::TagStore => "tagstore",
            FaultComponent::Buffer => "buffer",
        }
    }
}

impl fmt::Display for FaultComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the scheduler does when state damage is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPolicy {
    /// Panic on the first detected fault — the bring-up posture, where
    /// any corruption means the model (or the silicon) is wrong.
    FailFast,
    /// Count and report every detection but keep serving; scheduling
    /// quality may degrade (inversions, lost packets) but the scheduler
    /// never panics.
    #[default]
    DetectAndCount,
    /// [`DetectAndCount`](FaultPolicy::DetectAndCount) plus repair:
    /// scrubbed trie sections that fail their audit are rebuilt from the
    /// translation table by bulk re-insertion.
    ScrubAndRepair,
}

impl FaultPolicy {
    /// Stable kebab-case name (CLI syntax and report lines).
    pub fn name(self) -> &'static str {
        match self {
            FaultPolicy::FailFast => "fail-fast",
            FaultPolicy::DetectAndCount => "detect-and-count",
            FaultPolicy::ScrubAndRepair => "scrub-and-repair",
        }
    }
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fail-fast" => Ok(FaultPolicy::FailFast),
            "detect-and-count" => Ok(FaultPolicy::DetectAndCount),
            "scrub-and-repair" => Ok(FaultPolicy::ScrubAndRepair),
            other => Err(format!(
                "unknown fault policy {other:?} (expected fail-fast, detect-and-count, or scrub-and-repair)"
            )),
        }
    }
}

/// A structure faults can be injected into.
///
/// The contract is minimal on purpose: a target is an array of
/// `fault_words` words, each with `fault_word_bits` usable bits, and an
/// injection XORs a mask into one word — modeling an SEU flipping the
/// stored cells directly, *without* updating any derived state (parity,
/// registers, counters). Whatever bookkeeping a structure must adjust to
/// stay panic-free (the trie's marker count, for instance) is the
/// implementation's business; anything it must *not* adjust (SRAM parity
/// bits) is the point of the exercise.
pub trait FaultTarget {
    /// Number of addressable words faults can land in.
    fn fault_words(&self) -> usize;

    /// Usable bit width of word `word` (flips land below this bit).
    fn fault_word_bits(&self, word: usize) -> u32;

    /// XORs `mask` into word `word`, returning the pre-fault contents.
    fn inject_fault(&mut self, word: usize, mask: u64) -> u64;
}

/// A fault could not attach because the backend has no addressable
/// state for the requested component.
///
/// Software sort backends (the reference heap, for instance) keep their
/// ordering in host data structures with no modeled SRAM words, so a
/// planned fault aimed at them is *rejected* — structurally, not
/// silently dropped — and the scheduler records the rejection so fault
/// campaigns against such backends reconcile explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultAttachError {
    /// Stable name of the backend that rejected the fault.
    pub backend: &'static str,
    /// The component the fault was aimed at.
    pub component: FaultComponent,
}

impl fmt::Display for FaultAttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend `{}` has no addressable {} state to fault",
            self.backend, self.component
        )
    }
}

impl Error for FaultAttachError {}

/// Parsed `--inject-faults` specification: `COUNT@SEED[:COMPONENT[:BITS]]`.
///
/// `COMPONENT` is `trie`, `translation`, `tagstore`, `buffer`, or `any`
/// (the default — each fault picks a component); `BITS` is flips per
/// fault (default 1, at most [`MAX_FAULT_BITS`]).
///
/// # Example
///
/// ```
/// use faultsim::{FaultComponent, FaultSpec};
///
/// let spec: FaultSpec = "4@7:trie:2".parse().unwrap();
/// assert_eq!(spec.count, 4);
/// assert_eq!(spec.seed, 7);
/// assert_eq!(spec.component, Some(FaultComponent::Trie));
/// assert_eq!(spec.bits, 2);
/// assert_eq!(spec.to_string(), "4@7:trie:2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Number of faults to schedule.
    pub count: u32,
    /// PRNG seed the plan derives from.
    pub seed: u64,
    /// Component restriction; `None` means any.
    pub component: Option<FaultComponent>,
    /// Bit flips per fault.
    pub bits: u32,
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (s, None),
        };
        let (count_s, seed_s) = head.split_once('@').ok_or_else(|| {
            format!("bad fault spec {s:?} (expected COUNT@SEED[:COMPONENT[:BITS]])")
        })?;
        let count: u32 = count_s
            .parse()
            .map_err(|_| format!("bad fault count {count_s:?} in spec {s:?}"))?;
        if count == 0 {
            return Err(format!("fault count must be positive in spec {s:?}"));
        }
        let seed: u64 = seed_s
            .parse()
            .map_err(|_| format!("bad fault seed {seed_s:?} in spec {s:?}"))?;
        let mut component = None;
        let mut bits = 1;
        if let Some(rest) = rest {
            let (comp_s, bits_s) = match rest.split_once(':') {
                Some((c, b)) => (c, Some(b)),
                None => (rest, None),
            };
            component = match comp_s {
                "any" => None,
                "trie" => Some(FaultComponent::Trie),
                "translation" => Some(FaultComponent::Translation),
                "tagstore" => Some(FaultComponent::TagStore),
                "buffer" => Some(FaultComponent::Buffer),
                other => {
                    return Err(format!(
                        "unknown fault component {other:?} in spec {s:?} (expected trie, translation, tagstore, buffer, or any)"
                    ))
                }
            };
            if let Some(bits_s) = bits_s {
                bits = bits_s
                    .parse()
                    .map_err(|_| format!("bad bit count {bits_s:?} in spec {s:?}"))?;
                if bits == 0 || bits > MAX_FAULT_BITS {
                    return Err(format!(
                        "bit count must be 1..={MAX_FAULT_BITS} in spec {s:?}"
                    ));
                }
            }
        }
        Ok(Self {
            count,
            seed,
            component,
            bits,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.count, self.seed)?;
        write!(f, ":{}", self.component.map_or("any", FaultComponent::name))?;
        write!(f, ":{}", self.bits)
    }
}

/// How the scrubber picks which trie sections to audit each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScrubOrder {
    /// Cycle through sections in index order, one budget's worth per
    /// round — uniform detection latency regardless of traffic shape.
    #[default]
    RoundRobin,
    /// Audit recently-written sections first (tracked by a per-section
    /// dirty bitmap), falling back to the round-robin cursor for any
    /// leftover budget. Under skewed traffic most upsets land in the hot
    /// sections, so this finds them sooner; cold sections still age into
    /// the fallback cursor, and the wrapping virtual clock rotates which
    /// sections are hot, bounding starvation.
    WritePriority,
}

impl ScrubOrder {
    /// Stable kebab-case name (CLI syntax and report lines).
    pub fn name(self) -> &'static str {
        match self {
            ScrubOrder::RoundRobin => "round-robin",
            ScrubOrder::WritePriority => "write-priority",
        }
    }
}

impl fmt::Display for ScrubOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ScrubOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "round-robin" => Ok(ScrubOrder::RoundRobin),
            "write-priority" => Ok(ScrubOrder::WritePriority),
            other => Err(format!(
                "unknown scrub order {other:?} (expected round-robin or write-priority)"
            )),
        }
    }
}

/// Everything a scheduler shard needs to run faulted, as plain values —
/// `Copy`, so it rides inside a scheduler config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// The fault plan specification.
    pub spec: FaultSpec,
    /// Response policy.
    pub policy: FaultPolicy,
    /// Operation horizon fault operations are scheduled over (enqueues +
    /// dequeues; faults past the run's actual length never materialize).
    pub horizon_ops: u64,
    /// Trie sections audited per dequeue round (0 disables scrubbing;
    /// at least the geometry's section count means a full audit every
    /// round).
    pub scrub_sections: u32,
    /// Which sections the per-round scrub budget is spent on.
    pub scrub_order: ScrubOrder,
}

impl FaultConfig {
    /// A config for `spec` under `policy` with a one-section-per-round
    /// round-robin scrub schedule.
    pub fn new(spec: FaultSpec, policy: FaultPolicy, horizon_ops: u64) -> Self {
        Self {
            spec,
            policy,
            horizon_ops,
            scrub_sections: 1,
            scrub_order: ScrubOrder::default(),
        }
    }

    /// The same config with the plan seed offset by `off` — how sharded
    /// frontends give every port an independent fault stream.
    pub fn with_seed_offset(mut self, off: u64) -> Self {
        self.spec.seed = self.spec.seed.wrapping_add(off);
        self
    }
}

/// One scheduled fault, before it meets its target.
///
/// Word and bit choices are raw draws, resolved against the target's
/// actual size at injection time ([`PlannedFault::resolve`]) so a plan
/// is valid for any target geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// Operation index (enqueues + dequeues) the fault is due at.
    pub op: u64,
    /// The component it lands in.
    pub component: FaultComponent,
    word_pick: u64,
    bit_picks: Vec<u64>,
}

impl PlannedFault {
    /// Resolves the raw draws against a concrete target: the word index
    /// and the XOR mask. Returns `None` for an empty target.
    pub fn resolve(&self, target: &dyn FaultTarget) -> Option<(usize, u64)> {
        let words = target.fault_words();
        if words == 0 {
            return None;
        }
        let word = (self.word_pick % words as u64) as usize;
        let width = target.fault_word_bits(word);
        if width == 0 {
            return None;
        }
        let mut mask = 0u64;
        for pick in &self.bit_picks {
            mask |= 1u64 << (pick % u64::from(width));
        }
        Some((word, mask))
    }
}

/// A seeded schedule of faults over one run, in operation order.
///
/// # Example
///
/// ```
/// use faultsim::{FaultPlan, FaultSpec};
///
/// let spec: FaultSpec = "3@42:any:1".parse().unwrap();
/// let a = FaultPlan::generate(&spec, 1000);
/// let b = FaultPlan::generate(&spec, 1000);
/// assert_eq!(a.remaining(), 3);
/// // Same spec, same plan — determinism is the whole point.
/// let mut a = a;
/// let mut b = b;
/// while let Some(fa) = a.next_due(u64::MAX) {
///     assert_eq!(Some(fa), b.next_due(u64::MAX));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
    cursor: usize,
}

impl FaultPlan {
    /// Generates the plan for `spec` over `horizon_ops` operations.
    pub fn generate(spec: &FaultSpec, horizon_ops: u64) -> Self {
        let mut rng = Rng::seed_from_u64(spec.seed);
        let horizon = horizon_ops.max(1);
        let mut faults: Vec<PlannedFault> = (0..spec.count)
            .map(|_| {
                let op = rng.next_u64() % horizon;
                let component = spec.component.unwrap_or_else(|| {
                    FaultComponent::ALL[rng.below_u32(FaultComponent::ALL.len() as u32) as usize]
                });
                let word_pick = rng.next_u64();
                let bit_picks = (0..spec.bits).map(|_| rng.next_u64()).collect();
                PlannedFault {
                    op,
                    component,
                    word_pick,
                    bit_picks,
                }
            })
            .collect();
        faults.sort_by_key(|f| f.op);
        Self { faults, cursor: 0 }
    }

    /// Faults not yet handed out.
    pub fn remaining(&self) -> usize {
        self.faults.len() - self.cursor
    }

    /// Hands out the next fault whose due operation is at or before
    /// `op`, advancing the cursor. Call in a loop to drain a round.
    pub fn next_due(&mut self, op: u64) -> Option<PlannedFault> {
        let f = self.faults.get(self.cursor)?;
        if f.op <= op {
            self.cursor += 1;
            Some(f.clone())
        } else {
            None
        }
    }
}

/// How a fault was first noticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionKind {
    /// Per-word SRAM parity mismatch on read.
    Parity,
    /// The incremental scrubber's marker-vs-translation audit.
    Scrub,
    /// A structural invariant check on the service path (dangling link,
    /// missing translation entry, dead-end trie descent).
    Structural,
}

impl DetectionKind {
    /// Stable lowercase name (report lines).
    pub fn name(self) -> &'static str {
        match self {
            DetectionKind::Parity => "parity",
            DetectionKind::Scrub => "scrub",
            DetectionKind::Structural => "structural",
        }
    }
}

/// One detection, in the ledger's terms: which component was found
/// damaged, at which word when the check knows it, when, and how. Sort
/// backends report every detection as one of these, and
/// [`FaultLedger::claim`] matches it against the injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Component the damage was found in.
    pub component: FaultComponent,
    /// Damaged word within the component's [`FaultTarget`] space;
    /// `None` when the check knows what broke but not where.
    pub word: Option<usize>,
    /// Cycle of the detection.
    pub cycle: u64,
    /// The mechanism that detected it.
    pub kind: DetectionKind,
}

/// What a scrub audit of one section found in one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// The audited component.
    pub component: FaultComponent,
    /// Damaged words, each one scrub detection; `None` claims by
    /// component alone (the audit saw damage but not where).
    pub words: Vec<Option<usize>>,
    /// `(cost in cycles, entries restored)` when a repair pass ran.
    pub repaired: Option<(u64, u64)>,
    /// Cycle the audit of this component finished at.
    pub cycle: u64,
}

/// The full life of one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Component the fault landed in.
    pub component: FaultComponent,
    /// Word index within the component's [`FaultTarget`] space.
    pub word: usize,
    /// XOR mask applied.
    pub mask: u64,
    /// Operation index it was injected at.
    pub injected_op: u64,
    /// Circuit cycle it was injected at.
    pub injected_cycle: u64,
    /// Cycle it was first detected, if ever.
    pub detected_cycle: Option<u64>,
    /// The mechanism that first detected it.
    pub detected_by: Option<DetectionKind>,
    /// Cycle a repair restored the damaged state, if ever.
    pub repaired_cycle: Option<u64>,
}

impl FaultRecord {
    /// One deterministic report line (no timestamps, no addresses beyond
    /// the model's own indices).
    pub fn to_line(&self) -> String {
        let detected = match (self.detected_by, self.detected_cycle) {
            (Some(kind), Some(cycle)) => format!("{}@{}", kind.name(), cycle),
            _ => "-".to_string(),
        };
        let repaired = match self.repaired_cycle {
            Some(cycle) => format!("@{cycle}"),
            None => "-".to_string(),
        };
        format!(
            "fault component={} word={} mask={:#x} injected_op={} injected_cycle={} detected={} repaired={}",
            self.component.name(),
            self.word,
            self.mask,
            self.injected_op,
            self.injected_cycle,
            detected,
            repaired,
        )
    }
}

/// The per-run book of injected faults and their outcomes.
///
/// The reconciliation identity the whole subsystem is gated on falls out
/// of this ledger by construction: every record is detected at most once
/// ([`claim`](FaultLedger::claim) marks it), so
/// `detected() + silent() == injected()` always.
#[derive(Debug, Clone, Default)]
pub struct FaultLedger {
    records: Vec<FaultRecord>,
}

impl FaultLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a freshly injected fault; returns its record index.
    pub fn push(&mut self, record: FaultRecord) -> usize {
        self.records.push(record);
        self.records.len() - 1
    }

    /// All records, in injection order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of injected faults.
    pub fn injected(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of records detected so far.
    pub fn detected(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.detected_cycle.is_some())
            .count() as u64
    }

    /// Number of records repaired so far.
    pub fn repaired(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.repaired_cycle.is_some())
            .count() as u64
    }

    /// Number of records never detected — the silent corruptions.
    pub fn silent(&self) -> u64 {
        self.injected() - self.detected()
    }

    /// Marks the first matching undetected record as detected; `word =
    /// None` matches any word of the component (structural detections
    /// often know what broke but not where). Returns the claimed record's
    /// index, or `None` if the detection matches no outstanding fault
    /// (a re-detection, or damage outside the modeled plan).
    pub fn claim(&mut self, d: Detection) -> Option<usize> {
        let idx = self.records.iter().position(|r| {
            r.component == d.component
                && r.detected_cycle.is_none()
                && d.word.is_none_or(|w| r.word == w)
        })?;
        self.records[idx].detected_cycle = Some(d.cycle);
        self.records[idx].detected_by = Some(d.kind);
        Some(idx)
    }

    /// Marks record `idx` as repaired at `cycle` (first repair wins).
    pub fn mark_repaired(&mut self, idx: usize, cycle: u64) {
        if let Some(r) = self.records.get_mut(idx) {
            if r.repaired_cycle.is_none() {
                r.repaired_cycle = Some(cycle);
            }
        }
    }
}

/// Fault-injection parse/config errors carried to CLI surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for FaultSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeTarget {
        words: Vec<u64>,
        width: u32,
    }

    impl FaultTarget for FakeTarget {
        fn fault_words(&self) -> usize {
            self.words.len()
        }
        fn fault_word_bits(&self, _word: usize) -> u32 {
            self.width
        }
        fn inject_fault(&mut self, word: usize, mask: u64) -> u64 {
            let old = self.words[word];
            self.words[word] ^= mask;
            old
        }
    }

    #[test]
    fn spec_parses_all_forms() {
        let s: FaultSpec = "5@9".parse().unwrap();
        assert_eq!((s.count, s.seed, s.component, s.bits), (5, 9, None, 1));
        let s: FaultSpec = "2@0:translation".parse().unwrap();
        assert_eq!(s.component, Some(FaultComponent::Translation));
        let s: FaultSpec = "1@3:tagstore:8".parse().unwrap();
        assert_eq!((s.component, s.bits), (Some(FaultComponent::TagStore), 8));
        let s: FaultSpec = "7@1:any:2".parse().unwrap();
        assert_eq!(s.component, None);
        let s: FaultSpec = "3@4:buffer:2".parse().unwrap();
        assert_eq!((s.component, s.bits), (Some(FaultComponent::Buffer), 2));
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "",
            "5",
            "@7",
            "x@7",
            "5@x",
            "0@7",
            "5@7:bogus",
            "5@7:trie:0",
            "5@7:trie:9",
            "5@7:trie:x",
        ] {
            assert!(bad.parse::<FaultSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn spec_display_round_trips() {
        for text in [
            "4@7:trie:1",
            "1@0:any:8",
            "9@123:tagstore:2",
            "2@5:buffer:1",
        ] {
            let spec: FaultSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
            assert_eq!(spec.to_string().parse::<FaultSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn policy_parses_and_names() {
        for p in [
            FaultPolicy::FailFast,
            FaultPolicy::DetectAndCount,
            FaultPolicy::ScrubAndRepair,
        ] {
            assert_eq!(p.name().parse::<FaultPolicy>().unwrap(), p);
        }
        assert!("eventually-consistent".parse::<FaultPolicy>().is_err());
    }

    #[test]
    fn scrub_order_parses_and_names() {
        for o in [ScrubOrder::RoundRobin, ScrubOrder::WritePriority] {
            assert_eq!(o.name().parse::<ScrubOrder>().unwrap(), o);
        }
        assert_eq!(ScrubOrder::default(), ScrubOrder::RoundRobin);
        assert!("hottest-first".parse::<ScrubOrder>().is_err());
    }

    #[test]
    fn plan_is_deterministic_and_ordered() {
        let spec: FaultSpec = "16@99:any:3".parse().unwrap();
        let mut a = FaultPlan::generate(&spec, 500);
        let mut b = FaultPlan::generate(&spec, 500);
        let mut last_op = 0;
        while let Some(fa) = a.next_due(u64::MAX) {
            assert_eq!(Some(fa.clone()), b.next_due(u64::MAX));
            assert!(fa.op >= last_op, "plan not sorted by op");
            assert!(fa.op < 500);
            last_op = fa.op;
        }
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn next_due_respects_the_op_clock() {
        let spec: FaultSpec = "8@5".parse().unwrap();
        let mut plan = FaultPlan::generate(&spec, 100);
        let mut drained = 0;
        for op in 0..100 {
            while let Some(f) = plan.next_due(op) {
                assert!(f.op <= op);
                drained += 1;
            }
        }
        assert_eq!(drained, 8);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn resolve_masks_stay_in_width() {
        let spec: FaultSpec = "32@11:trie:8".parse().unwrap();
        let mut plan = FaultPlan::generate(&spec, 64);
        let target = FakeTarget {
            words: vec![0; 17],
            width: 16,
        };
        while let Some(f) = plan.next_due(u64::MAX) {
            let (word, mask) = f.resolve(&target).unwrap();
            assert!(word < 17);
            assert!(mask != 0 && mask < (1 << 16), "mask {mask:#x}");
        }
    }

    #[test]
    fn resolve_on_empty_target_is_none() {
        let spec: FaultSpec = "1@2".parse().unwrap();
        let mut plan = FaultPlan::generate(&spec, 10);
        let target = FakeTarget {
            words: vec![],
            width: 16,
        };
        assert_eq!(plan.next_due(u64::MAX).unwrap().resolve(&target), None);
    }

    #[test]
    fn injection_xors_and_returns_old() {
        let mut t = FakeTarget {
            words: vec![0b1010, 0],
            width: 8,
        };
        assert_eq!(t.inject_fault(0, 0b0110), 0b1010);
        assert_eq!(t.words[0], 0b1100);
    }

    fn record(component: FaultComponent, word: usize) -> FaultRecord {
        FaultRecord {
            component,
            word,
            mask: 1,
            injected_op: 3,
            injected_cycle: 12,
            detected_cycle: None,
            detected_by: None,
            repaired_cycle: None,
        }
    }

    #[test]
    fn ledger_reconciles_by_construction() {
        let mut l = FaultLedger::new();
        l.push(record(FaultComponent::Trie, 5));
        l.push(record(FaultComponent::Trie, 5));
        l.push(record(FaultComponent::TagStore, 9));
        let at = |component, word, cycle, kind| Detection {
            component,
            word,
            cycle,
            kind,
        };
        // Exact-word claim takes the first undetected match only.
        let a = l.claim(at(FaultComponent::Trie, Some(5), 40, DetectionKind::Scrub));
        assert_eq!(a, Some(0));
        let b = l.claim(at(FaultComponent::Trie, Some(5), 44, DetectionKind::Scrub));
        assert_eq!(b, Some(1));
        // Third claim on the same word finds nothing outstanding.
        assert_eq!(
            l.claim(at(FaultComponent::Trie, Some(5), 48, DetectionKind::Scrub)),
            None
        );
        // Any-word claim picks up the tag-store record.
        assert_eq!(
            l.claim(at(
                FaultComponent::TagStore,
                None,
                50,
                DetectionKind::Parity
            )),
            Some(2)
        );
        assert_eq!(l.injected(), 3);
        assert_eq!(l.detected(), 3);
        assert_eq!(l.silent(), 0);
        assert_eq!(l.detected() + l.silent(), l.injected());
        l.mark_repaired(0, 60);
        l.mark_repaired(0, 99); // first repair wins
        assert_eq!(l.records()[0].repaired_cycle, Some(60));
        assert_eq!(l.repaired(), 1);
    }

    #[test]
    fn record_lines_are_deterministic() {
        let mut r = record(FaultComponent::Translation, 77);
        assert_eq!(
            r.to_line(),
            "fault component=translation word=77 mask=0x1 injected_op=3 injected_cycle=12 detected=- repaired=-"
        );
        r.detected_by = Some(DetectionKind::Parity);
        r.detected_cycle = Some(90);
        r.repaired_cycle = Some(91);
        assert_eq!(
            r.to_line(),
            "fault component=translation word=77 mask=0x1 injected_op=3 injected_cycle=12 detected=parity@90 repaired=@91"
        );
    }

    #[test]
    fn seed_offset_shifts_the_stream() {
        let spec: FaultSpec = "4@10:trie:1".parse().unwrap();
        let cfg = FaultConfig::new(spec, FaultPolicy::DetectAndCount, 100);
        let shifted = cfg.with_seed_offset(3);
        assert_eq!(shifted.spec.seed, 13);
        let mut a = FaultPlan::generate(&cfg.spec, 100);
        let mut b = FaultPlan::generate(&shifted.spec, 100);
        let fa = a.next_due(u64::MAX).unwrap();
        let fb = b.next_due(u64::MAX).unwrap();
        assert!(fa != fb, "offset seed must give a different plan");
    }
}
