//! The grid executor: one seeded [`ScaleWorkload`] per cell, a fluid
//! egress-link model, and the deterministic report.
//!
//! Each cell couples the scheduler to one link serving at
//! `rate_bps / load` bits per second, driven by [`fairq::serve_links`]:
//! arriving packets are enqueued in trace order, and whenever the link
//! comes free the scheduler's head-of-line packet among those present
//! is served. Per-cell
//! outputs are exact counters (served/dropped/pushed-out), a per-flow
//! fairness-error distribution, a log₂-bucketed sojourn histogram, a
//! running FNV-1a hash of the departure sequence, and the sorter's
//! resident-memory accounting.
//!
//! A fault-free cell also runs over [`HeapSorter`], the reference
//! sorter, with the same flows, policy, admission and frontend; the
//! cell *agrees* when both runs depart the identical sequence. One
//! reference run serves every backend of its group.
//!
//! Everything downstream of the seed is integer or
//! order-deterministic float arithmetic, so the rendered report is
//! byte-identical across runs and platforms — CI diffs it verbatim.

use std::collections::BTreeMap;

use fairq::{serve_links, Admit, AnyPolicy, Departure, DropPolicy, Egress, RankPolicy};
use fastpath::FfsSorter;
use faultsim::FaultConfig;
use scheduler::{
    HwScheduler, Placement, RebalancerConfig, SchedulerConfig, ShardedScheduler, WrapPolicy,
};
use tagsort::{
    CleanupPolicy, HeapSorter, MemoryKind, ResidentMemory, SortBackend, SortRetrieveCircuit,
};
use traffic::{FlowId, FlowSpec, Packet, ScaleConfig, ScaleWorkload, Time};

use crate::spec::{CampaignSpec, Cell, Frontend};

/// What one cell's run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// Packets served by the link.
    pub served: u64,
    /// Packets refused at admission (tail drops).
    pub dropped: u64,
    /// Packets evicted by push-out admission.
    pub pushed_out: u64,
    /// p99 over flows of `|goodput share − aggregate share|`.
    pub fairness_p99: f64,
    /// p99 packet sojourn (arrival to service completion), in ms.
    pub sojourn_p99_ms: f64,
    /// FNV-1a hash over the `(flow, seq, size)` departure sequence.
    pub departure_hash: u64,
    /// Sorter state-memory accounting, for backends that model it.
    pub resident: Option<ResidentMemory>,
    /// `(injected, detected, repaired, silent)` fault-ledger totals.
    pub faults: (u64, u64, u64, u64),
    /// Max/mean ratio of per-port admissions; `None` on the single
    /// frontend (one port is trivially balanced).
    pub shard_balance: Option<f64>,
    /// Cross-shard flow migrations executed by the rebalancer.
    pub migrations: u64,
}

impl CellRun {
    /// Whether `self` and `other` served the same departure sequence
    /// with the same served and dropped counts.
    fn departs_as(&self, other: &CellRun) -> bool {
        (self.departure_hash, self.served, self.dropped)
            == (other.departure_hash, other.served, other.dropped)
    }
}

/// One grid cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The grid point.
    pub cell: Cell,
    /// The cell's run.
    pub run: CellRun,
    /// For a fault-free cell, whether it departs as the same cell over
    /// [`HeapSorter`] does; `None` for a faulted cell, whose injected
    /// damage may change the sequence by design.
    pub agree: Option<bool>,
}

/// The campaign's deterministic output.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Human-readable, byte-stable text (one line per cell, plus one
    /// `agree` line per fault-free cell).
    pub text: String,
    /// Flat metrics for the bench JSON emitter / `check_regression`.
    /// `ceil_`-prefixed keys are lower-is-better tail ceilings.
    pub metrics: Vec<(String, f64)>,
    /// Per-cell results, in grid order.
    pub results: Vec<CellResult>,
}

/// Sweeps the whole grid. Cells run sequentially in
/// [`CampaignSpec::cells`] order; the report is byte-deterministic.
pub fn run(spec: &CampaignSpec) -> CampaignReport {
    // Fault-free HeapSorter runs, keyed by the reference cell's key.
    let mut references: BTreeMap<String, CellRun> = BTreeMap::new();
    let mut results = Vec::new();
    for cell in spec.cells() {
        let (run, agree) = if cell.fault == "none" {
            let reference_cell = Cell {
                backend: "heap".into(),
                ..cell.clone()
            };
            let reference = references
                .entry(reference_cell.key())
                .or_insert_with(|| run_cell(spec, &reference_cell));
            let run = if cell.backend == "heap" {
                reference.clone()
            } else {
                run_cell(spec, &cell)
            };
            let agree = run.departs_as(reference);
            (run, Some(agree))
        } else {
            (run_cell(spec, &cell), None)
        };
        results.push(CellResult { cell, run, agree });
    }
    render(spec, results)
}

fn run_cell(spec: &CampaignSpec, cell: &Cell) -> CellRun {
    match cell.backend.as_str() {
        "trie" => run_backend::<SortRetrieveCircuit>(spec, cell),
        "fastpath" => run_backend::<FfsSorter>(spec, cell),
        "heap" => run_backend::<HeapSorter>(spec, cell),
        other => unreachable!("backend {other} passed validation"),
    }
}

/// Every departure-side accumulator of a cell's egress link.
struct Served {
    bytes: Vec<u64>,
    pkts: u64,
    sojourn_hist: [u64; 65],
    hash: u64,
}

impl Served {
    fn new(flows: u32) -> Self {
        Self {
            bytes: vec![0; flows as usize],
            pkts: 0,
            sojourn_hist: [0; 65],
            hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }

    fn record(&mut self, d: &Departure) {
        let p = &d.packet;
        let sojourn_ns = ((d.finish.0 - p.arrival.0) * 1e9) as u64;
        self.sojourn_hist[bucket(sojourn_ns)] += 1;
        self.bytes[p.flow.0 as usize] += u64::from(p.size_bytes);
        self.pkts += 1;
        for word in [u64::from(p.flow.0), p.seq, u64::from(p.size_bytes)] {
            for byte in word.to_le_bytes() {
                self.hash ^= u64::from(byte);
                self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// Log₂ bucket index: values in `[2^(i-1), 2^i)` land in bucket `i`,
/// zero in bucket 0. The p99 reads back the bucket's upper bound, so
/// tail latencies carry factor-of-two resolution — coarse, but exactly
/// reproducible, which is what a regression ceiling needs.
fn bucket(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

/// What a frontend reports once its run drains: the admission/fault
/// counters plus the sharding figures the single path doesn't have.
struct FrontendTail {
    pushed_out: u64,
    resident: Option<ResidentMemory>,
    faults: (u64, u64, u64, u64),
    shard_balance: Option<f64>,
    migrations: u64,
}

/// One cell's scheduler as a single egress link at the cell's service
/// rate, so every frontend is served by the same link loop. A sharded
/// frontend feeds that link in work-conserving round-robin across its
/// shards.
enum AnyFrontend<B: SortBackend> {
    Single(Box<HwScheduler<B, AnyPolicy>>),
    Sharded(Box<ShardedScheduler<B, AnyPolicy>>),
}

impl<B: SortBackend> Egress for AnyFrontend<B> {
    type Error = ();
    type Stamp = ();

    /// Every refusal is counted as a drop.
    fn admit(&mut self, pkt: Packet) -> Admit<()> {
        let queued = match self {
            AnyFrontend::Single(s) => s.enqueue(pkt).is_ok(),
            AnyFrontend::Sharded(s) => s.enqueue(pkt).is_ok(),
        };
        if queued {
            Admit::Queued(0)
        } else {
            Admit::Refused(0, ())
        }
    }

    fn serve(&mut self, _port: usize, _now: Time) -> Option<(Packet, ())> {
        match self {
            AnyFrontend::Single(s) => s.dequeue(),
            AnyFrontend::Sharded(s) => s.dequeue().map(|(_, p)| p),
        }
        .map(|p| (p, ()))
    }

    /// A migration moves packets between shards, never onto an empty
    /// link.
    fn rebalance(&mut self) -> Option<usize> {
        if let AnyFrontend::Sharded(s) = self {
            s.maybe_rebalance();
        }
        None
    }
}

impl<B: SortBackend> AnyFrontend<B> {
    fn finish(self) -> FrontendTail {
        match self {
            AnyFrontend::Single(mut s) => {
                s.reconcile_faults();
                FrontendTail {
                    pushed_out: s.stats().pushed_out,
                    resident: s.resident_memory(),
                    faults: s.fault_totals(),
                    shard_balance: None,
                    migrations: 0,
                }
            }
            AnyFrontend::Sharded(mut s) => {
                let faults = s.reconcile_faults();
                let stats = s.stats();
                FrontendTail {
                    pushed_out: stats.aggregate.pushed_out,
                    resident: None,
                    faults,
                    shard_balance: Some(stats.shard_balance()),
                    migrations: s.migrations(),
                }
            }
        }
    }
}

/// Runs a cell on backend `B`.
fn run_backend<B: SortBackend>(spec: &CampaignSpec, cell: &Cell) -> CellRun {
    let workload = ScaleWorkload::new(ScaleConfig {
        flows: cell.flows,
        packets: spec.packets,
        zipf_exponent: spec.zipf_exponent,
        rate_bps: spec.rate_bps,
        min_bytes: spec.min_bytes,
        max_bytes: spec.max_bytes,
        // A crowd band wider than the population means no churn for
        // this (small) cell rather than a malformed workload.
        churn: spec.churn.filter(|c| c.crowd_flows <= cell.flows),
        seed: spec.seed,
    });
    let per_flow_rate = spec.rate_bps / f64::from(cell.flows);
    let flows: Vec<FlowSpec> = (0..cell.flows)
        .map(|i| FlowSpec::new(FlowId(i), 1.0, per_flow_rate))
        .collect();
    let proto = AnyPolicy::by_name(&cell.policy).expect("policy passed validation");
    let service_rate = spec.rate_bps / spec.load;
    let faults = (cell.fault != "none").then(|| {
        let fspec = cell.fault.parse().expect("fault spec passed validation");
        let mut fc = FaultConfig::new(fspec, spec.fault_policy, spec.packets * 2);
        fc.scrub_order = spec.scrub_order;
        fc
    });
    let config = SchedulerConfig {
        geometry: spec.geometry,
        capacity: spec.capacity,
        tick_scale: proto.tick_scale(service_rate),
        wrap_policy: WrapPolicy::Saturate,
        cleanup: CleanupPolicy::Eager,
        memory: MemoryKind::SinglePort,
        faults,
        admission: cell.admission,
    };
    let mut sched = match cell.frontend {
        Frontend::Single => AnyFrontend::Single(Box::new(
            HwScheduler::<B, AnyPolicy>::with_backend_and_policy(
                &flows,
                service_rate,
                config,
                &proto,
            ),
        )),
        Frontend::Sharded => {
            let rates = vec![service_rate / spec.ports as f64; spec.ports];
            let mut s = ShardedScheduler::<B, AnyPolicy>::with_policy_port_rates_placement(
                &flows,
                &rates,
                config,
                &proto,
                spec.placement,
            );
            if spec.placement == Placement::Dynamic {
                s = s.with_rebalancer(RebalancerConfig::default());
            }
            AnyFrontend::Sharded(Box::new(s))
        }
    };

    // Dynamic placement: one rebalance round every 1024 arrivals —
    // frequent enough to chase Zipf skew, sparse enough that the EWMA
    // sees fresh load between rounds.
    let rebalance_every =
        (cell.frontend != Frontend::Single && spec.placement == Placement::Dynamic).then_some(1024);
    let mut offered_bytes = vec![0u64; cell.flows as usize];
    let mut served = Served::new(cell.flows);
    let arrivals =
        workload.inspect(|pkt| offered_bytes[pkt.flow.0 as usize] += u64::from(pkt.size_bytes));
    let Ok(dropped) = serve_links(
        &mut sched,
        &[service_rate],
        arrivals,
        DropPolicy::CountAndContinue,
        rebalance_every,
        |_, d, ()| served.record(&d),
    ) else {
        unreachable!("every refusal is a counted drop")
    };
    let tail = sched.finish();

    CellRun {
        served: served.pkts,
        dropped,
        pushed_out: tail.pushed_out,
        fairness_p99: fairness_p99(&offered_bytes, &served.bytes),
        sojourn_p99_ms: hist_p99_ms(&served.sojourn_hist),
        departure_hash: served.hash,
        resident: tail.resident,
        faults: tail.faults,
        shard_balance: tail.shard_balance,
        migrations: tail.migrations,
    }
}

/// p99 over flows of `|g_f − g|`, where `g_f` is flow `f`'s delivered
/// fraction (served/offered bytes) and `g` the aggregate's. Zero when
/// nothing is dropped; flows that offered nothing are excluded.
fn fairness_p99(offered: &[u64], served: &[u64]) -> f64 {
    let offered_total: u64 = offered.iter().sum();
    let served_total: u64 = served.iter().sum();
    if offered_total == 0 {
        return 0.0;
    }
    let g = served_total as f64 / offered_total as f64;
    let mut errs: Vec<f64> = offered
        .iter()
        .zip(served)
        .filter(|(o, _)| **o > 0)
        .map(|(&o, &s)| (s as f64 / o as f64 - g).abs())
        .collect();
    if errs.is_empty() {
        return 0.0;
    }
    let idx = (errs.len() - 1) * 99 / 100;
    let (_, p99, _) = errs.select_nth_unstable_by(idx, f64::total_cmp);
    *p99
}

/// p99 of the sojourn histogram, as the covering bucket's upper bound
/// in milliseconds.
fn hist_p99_ms(hist: &[u64; 65]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (total * 99).div_ceil(100);
    let mut cum = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        cum += count;
        if cum >= target {
            return 2f64.powi(i as i32) / 1e6;
        }
    }
    unreachable!("cumulative count reaches the total")
}

fn render(spec: &CampaignSpec, results: Vec<CellResult>) -> CampaignReport {
    use std::fmt::Write as _;

    let mut text = String::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let _ = writeln!(
        text,
        "campaign {}: cells={} packets={} seed={}",
        spec.name,
        results.len(),
        spec.packets,
        spec.seed
    );
    metrics.push(("campaign_cells".into(), results.len() as f64));
    let mut all_agree = true;
    for result in &results {
        let key = result.cell.key();
        let run = &result.run;
        let _ = write!(
            text,
            "cell {key} served={} dropped={} pushed_out={} \
             fairness_p99={:.6} sojourn_p99_ms={:.4} hash={:016x}",
            run.served,
            run.dropped,
            run.pushed_out,
            run.fairness_p99,
            run.sojourn_p99_ms,
            run.departure_hash
        );
        if let Some(mem) = run.resident {
            let _ = write!(
                text,
                " resident_peak_words={} total_words={} ratio={:.6}",
                mem.peak_resident_words,
                mem.total_words,
                mem.peak_resident_words as f64 / mem.total_words as f64
            );
        }
        if let Some(balance) = run.shard_balance {
            let _ = write!(
                text,
                " shard_balance={balance:.4} migrations={}",
                run.migrations
            );
        }
        if result.cell.fault != "none" {
            let (inj, det, rep, silent) = run.faults;
            let _ = write!(
                text,
                " faults_injected={inj} faults_detected={det} \
                 faults_repaired={rep} faults_silent={silent}"
            );
        }
        text.push('\n');
        if let Some(agree) = result.agree {
            let _ = writeln!(
                text,
                "cell {key} agree={}",
                if agree { "yes" } else { "NO" }
            );
            all_agree &= agree;
        }

        metrics.push((format!("campaign_{key}_served"), run.served as f64));
        metrics.push((
            format!("ceil_campaign_{key}_dropped"),
            (run.dropped + run.pushed_out) as f64,
        ));
        metrics.push((
            format!("ceil_campaign_{key}_fairness_p99"),
            run.fairness_p99,
        ));
        metrics.push((
            format!("ceil_campaign_{key}_sojourn_p99_ms"),
            run.sojourn_p99_ms,
        ));
        if let Some(agree) = result.agree {
            metrics.push((format!("campaign_{key}_agree"), f64::from(u8::from(agree))));
        }
        if let Some(mem) = run.resident {
            metrics.push((
                format!("ceil_campaign_{key}_resident_ratio"),
                mem.peak_resident_words as f64 / mem.total_words as f64,
            ));
        }
        if let Some(balance) = run.shard_balance {
            metrics.push((format!("ceil_campaign_{key}_shard_balance"), balance));
            metrics.push((format!("campaign_{key}_migrations"), run.migrations as f64));
        }
        if result.cell.fault != "none" {
            let (inj, det, _, silent) = run.faults;
            metrics.push((format!("campaign_{key}_faults_injected"), inj as f64));
            metrics.push((format!("campaign_{key}_faults_detected"), det as f64));
            metrics.push((format!("ceil_campaign_{key}_faults_silent"), silent as f64));
        }
    }
    let _ = writeln!(
        text,
        "campaign {}: agree={}",
        spec.name,
        if all_agree { "yes" } else { "NO" }
    );
    metrics.push(("campaign_agree_all".into(), f64::from(u8::from(all_agree))));
    CampaignReport {
        text,
        metrics,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    /// A spec small enough for debug-mode unit tests.
    fn tiny() -> CampaignSpec {
        let mut spec = CampaignSpec::builtin("smoke").unwrap();
        spec.name = "tiny".into();
        spec.flows = vec![256];
        spec.policies = vec!["wfq".into()];
        spec.backends = vec!["trie".into()];
        spec.packets = 3_000;
        spec.capacity = 1 << 10;
        spec
    }

    #[test]
    fn fault_free_trie_cell_agrees_with_the_heap_reference() {
        let report = run(&tiny());
        assert_eq!(report.results.len(), 1);
        let cell = &report.results[0];
        assert_eq!(cell.agree, Some(true), "trie and heap departures differ");
        // The paged state memories must actually save memory.
        let mem = cell.run.resident.unwrap();
        assert!(mem.peak_resident_words < mem.total_words);
        // And deliver the traffic: the workload is stable (load < 1).
        assert!(cell.run.served > 2_900);
        assert_eq!(report.text.matches("agree=yes").count(), 2);
    }

    #[test]
    fn agreement_compares_hash_served_and_dropped() {
        let base = run(&tiny()).results[0].run.clone();
        assert!(base.departs_as(&base));
        for other in [
            CellRun {
                departure_hash: base.departure_hash ^ 1,
                ..base.clone()
            },
            CellRun {
                served: base.served - 1,
                ..base.clone()
            },
            CellRun {
                dropped: base.dropped + 1,
                ..base.clone()
            },
        ] {
            assert!(!base.departs_as(&other));
        }
    }

    #[test]
    fn reports_are_byte_deterministic() {
        let a = run(&tiny());
        let b = run(&tiny());
        assert_eq!(a.text, b.text);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.text.contains("agree=yes"));
    }

    #[test]
    fn metric_keys_are_slugs_and_include_ceilings() {
        let report = run(&tiny());
        assert!(report
            .metrics
            .iter()
            .all(
                |(k, v)| k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && v.is_finite()
            ));
        assert!(report
            .metrics
            .iter()
            .any(|(k, _)| k.starts_with("ceil_campaign_") && k.ends_with("_sojourn_p99_ms")));
        assert!(report
            .metrics
            .iter()
            .any(|(k, _)| k.ends_with("_resident_ratio")));
    }

    #[test]
    fn every_backend_serves_the_same_departure_stream() {
        let mut spec = tiny();
        spec.backends = vec!["trie".into(), "fastpath".into(), "heap".into()];
        let report = run(&spec);
        assert_eq!(report.results.len(), 3);
        let hash0 = report.results[0].run.departure_hash;
        for cell in &report.results {
            assert_eq!(cell.run.departure_hash, hash0, "{}", cell.cell.key());
        }
    }

    #[test]
    fn faulted_cells_reconcile_their_ledger() {
        let mut spec = tiny();
        spec.faults = vec!["8@3:any:1".into()];
        let report = run(&spec);
        let (inj, det, _rep, silent) = report.results[0].run.faults;
        assert!(inj > 0, "plan should inject within the horizon");
        assert_eq!(det + silent, inj, "ledger must reconcile");
        assert!(report.text.contains("faults_injected=8"));
        // Injected damage may change the sequence, so a faulted cell
        // is not compared with the reference and emits no agree key.
        assert_eq!(report.results[0].agree, None);
        assert!(!report.text.contains("agree=NO"));
        assert!(!report.metrics.iter().any(|(k, _)| k.ends_with("_agree")));
    }

    #[test]
    fn frontend_axis_adds_suffixed_cells() {
        let mut spec = tiny();
        spec.frontends = vec![Frontend::Single, Frontend::Sharded];
        let report = run(&spec);
        assert_eq!(report.results.len(), 2);
        let single = &report.results[0];
        let sharded = &report.results[1];
        assert!(!single.cell.key().contains("__"));
        assert!(sharded.cell.key().ends_with("__sharded"));
        // The single-frontend key (and thus its baseline entry) is
        // untouched by the new axis.
        assert_eq!(single.cell.key(), {
            let mut base = tiny();
            base.frontends = vec![Frontend::Single];
            base.cells()[0].key()
        });
        // Sharded run drains the same workload and reports balance.
        assert_eq!(
            single.run.served + single.run.dropped,
            sharded.run.served + sharded.run.dropped,
        );
        let balance = sharded.run.shard_balance.unwrap();
        assert!((1.0..=spec.ports as f64).contains(&balance), "{balance}");
        assert!(report
            .metrics
            .iter()
            .any(|(k, _)| k.ends_with("__sharded_shard_balance") && k.starts_with("ceil_")));
        assert!(single.run.shard_balance.is_none());
    }

    #[test]
    fn dynamic_frontend_rebalances_and_stays_deterministic() {
        let mut spec = tiny();
        spec.frontends = vec![Frontend::Sharded];
        spec.placement = scheduler::Placement::Dynamic;
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a.text, b.text, "dynamic rebalancing must be deterministic");
        for cell in &a.results {
            assert_eq!(cell.agree, Some(true), "{}", cell.cell.key());
        }
        assert!(a.text.contains("migrations="));
    }

    #[test]
    fn push_out_overload_pushes_packets_out() {
        // A critically loaded two-port frontend with a 16-packet buffer:
        // push-out evicts a queued packet for nearly every admission.
        let text = "frontends = sharded\n\
                    admissions = push-out\n\
                    capacity = 16\n\
                    load = 1.0\n\
                    ports = 2\n\
                    flows = 64\n";
        let report = run(&CampaignSpec::parse("push_out_overload", text).unwrap());
        assert!(!report.results.is_empty());
        for r in &report.results {
            assert!(r.run.pushed_out > 0, "the overload must push packets out");
        }
    }

    #[test]
    fn faulted_sharded_cells_report_deterministically() {
        // A fault plan's op clock also ticks on empty dequeues, so the
        // round robin's polls of idle shards are part of the ledger.
        let text = "frontends = sharded\nfaults = 32@7:trie:1, 32@9:any:1\n\
                    backends = trie\npolicies = wfq\nports = 4\nflows = 64\n\
                    packets = 2000\ngeometry = 4x3\ncapacity = 256\n";
        let spec = CampaignSpec::parse("faulted_sharded", text).unwrap();
        let report = run(&spec);
        let cells: Vec<_> = report
            .text
            .lines()
            .filter(|line| line.starts_with("cell "))
            .collect();
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert!(cell.contains("faults_injected="), "{cell}");
        }
        assert_eq!(run(&spec).text, report.text, "faulted runs must repeat");
    }

    #[test]
    fn push_out_admission_reports_evictions() {
        let mut spec = tiny();
        // Critically loaded link + tiny buffer: the queue random-walks
        // past capacity and forces admission decisions.
        spec.load = 1.0;
        spec.capacity = 16;
        spec.admissions = vec![
            scheduler::AdmissionPolicy::TailDrop,
            scheduler::AdmissionPolicy::PushOut,
        ];
        let report = run(&spec);
        let tail = &report.results[0].run;
        let push = &report.results[1].run;
        assert!(tail.dropped > 0, "overload must drop under tail-drop");
        assert!(push.pushed_out > 0, "push-out must evict under overload");
    }
}
