//! `wfqsim` — run a packet trace through any scheduler in the workspace
//! and report per-flow delays, throughput, and the GPS lag.
//!
//! ```sh
//! # Synthetic workload through software WFQ:
//! cargo run --bin wfqsim -- --scheduler wfq --flows 4 --rate 2e6
//!
//! # The same packets through the full hardware pipeline:
//! cargo run --bin wfqsim -- --scheduler hw --flows 4 --rate 2e6
//!
//! # Replay a saved trace under DRR with explicit weights:
//! cargo run --bin wfqsim -- --trace t.txt --scheduler drr --weights 4,2,1
//!
//! # A 4-port line card: one hardware sorter per port, flow-affinity routed:
//! cargo run --bin wfqsim -- --scheduler hw --ports 4 --flows 16
//!
//! # The same card with one fast uplink and three slower access links:
//! cargo run --bin wfqsim -- --scheduler hw --ports 4 --flows 16 \
//!     --port-rates 1e7,2e6,2e6,2e6
//!
//! # Write a deterministic telemetry snapshot, with the last 32
//! # cycle-stamped events per shard:
//! cargo run --bin wfqsim -- --ports 4 --flows 16 --metrics out.json \
//!     --trace-events 32
//!
//! # Per-flow sojourn histograms plus a complete streamed event log
//! # (one JSON object per line, byte-identical across seeded runs):
//! cargo run --bin wfqsim -- --ports 4 --flows 16 \
//!     --latency-report latency.json --event-log events.ndjson
//!
//! # Inject 8 seeded single-bit trie faults, scrub-and-repair them, and
//! # write the byte-deterministic fault ledger:
//! cargo run --bin wfqsim -- --scheduler hw --inject-faults 8@7:trie:1 \
//!     --fault-policy scrub-and-repair --fault-report faults.txt
//! ```

use std::process::ExitCode;

use wfq_sorter::campaign::{run as run_campaign, CampaignSpec};
use wfq_sorter::fairq::{
    metrics, AnyPolicy, Departure, Drr, Fbfq, Fifo, LinkSim, Mdrr, RankPolicy, Scfq, Scheduler,
    Sfq, StratifiedRr, Wf2q, Wf2qPlus, Wfq, Wrr,
};
use wfq_sorter::fastpath::FfsSorter;
use wfq_sorter::faultsim::{FaultConfig, FaultPolicy, FaultSpec};
use wfq_sorter::scheduler::{
    shard_of, AdmissionPolicy, HwLinkSim, HwScheduler, Placement, RebalancerConfig,
    SchedulerConfig, SchedulerStats, ShardedLinkSim, ShardedScheduler,
};
use wfq_sorter::tagsort::Geometry;
use wfq_sorter::tagsort::{
    HeapSorter, PipelinedSortBackend, SortBackend, SortRetrieveCircuit, PAPER_CLOCK_HZ,
};
use wfq_sorter::telemetry::{EventLogFormat, FileSink, LatencyTracker, Snapshot, Telemetry};
use wfq_sorter::traffic::{
    generate, trace as tracefile, ArrivalProcess, FlowId, FlowSpec, Packet, SizeDist,
};

const USAGE: &str = "\
wfqsim — packet scheduling simulator (WFQ sorting circuit reproduction)

USAGE:
  wfqsim [OPTIONS]

OPTIONS:
  --scheduler NAME   fifo | wrr | drr | mdrr | srr | fbfq | scfq | sfq |
                     wfq | wf2q | wf2q+ | hw        (default: wfq,
                     or hw when --ports > 1; 'hw' is the full
                     hardware pipeline)
  --backend NAME     sorting engine behind the hw pipeline:
                     trie (the paper's sort/retrieve circuit) |
                     fastpath (FFS software sorter) | heap
                     (binary-heap oracle) | pipelined (deep-pipelined
                     trie, ~1 op/cycle); needs --scheduler hw
                     or --ports > 1                 (default: trie)
  --policy NAME      rank policy programmed into the hw pipeline
                     (PIFO-style: the policy computes each packet's
                     rank, the sorter serves the smallest):
                     wfq | stfq | srpt | fifo+ | prio | leaky |
                     hwfq; needs --scheduler hw or --ports > 1;
                     see POLICIES.md                (default: wfq)
  --admission P      what a full packet buffer does to an arrival:
                     tail-drop | push-out (evict the worst-ranked
                     resident packet when the arrival ranks
                     strictly better) | wred[:MIN:MAX:PERMILLE]
                     (WRED-style probabilistic push-out with a
                     seeded deterministic coin); needs
                     --scheduler hw or --ports > 1
                                               (default: tail-drop)
  --rate BPS         link rate in bits/s             (default: 2e6)
  --ports N          multi-port frontend: N egress links, one hardware
                     sorter each, flows routed by affinity hash
                     (implies --scheduler hw; default: 1)
  --port-rates LIST  per-port link rates in bits/s, comma-separated;
                     must list exactly --ports rates (default: --rate
                     on every port)
  --rebalance MODE   shard placement policy: hash (static
                     flow-affinity, today's behavior) | dynamic
                     (live flow migration: a rebalancer watches
                     per-port load and moves the hottest flow off
                     an overloaded shard every 1024 arrivals);
                     needs --ports > 1             (default: hash)
  --metrics FILE     write a deterministic telemetry snapshot (flat
                     JSON) after the run; hardware pipeline only
  --trace-events N   with --metrics: keep the last N cycle-stamped
                     events per shard in the snapshot's event log
  --latency-report F write per-flow sojourn histograms (cycles and
                     wall-clock, flat JSON) after the run; hardware
                     pipeline only
  --event-log FILE   stream every traced event to FILE as it happens
                     (one JSON object per line); hardware pipeline
                     only, enables tracing even without --metrics
  --event-log-format FORMAT
                     json | compact (space-separated fields with
                     per-shard cycle deltas); needs --event-log
                     (default: json)
  --inject-faults SPEC
                     deterministic SEU campaign against the sorter
                     state: COUNT@SEED[:COMPONENT[:BITS]], COMPONENT
                     one of trie | translation | tagstore | any
                     (default any), BITS flips per fault (default 1);
                     hardware pipeline only
  --fault-policy P   fail-fast | detect-and-count | scrub-and-repair
                     (default: detect-and-count; needs
                     --inject-faults; fail-fast aborts the run on the
                     first detected fault)
  --fault-report FILE
                     write the byte-deterministic per-port fault
                     ledger after the run (needs --inject-faults)
  --campaign NAME|FILE
                     run a grid-sweep campaign instead of a single
                     simulation: builtin 'smoke' or 'soak', or a spec
                     file (see DESIGN.md §16); prints the
                     byte-deterministic campaign report and exits,
                     ignoring the single-run options below
  --trace FILE       replay a saved trace (see traffic::trace format)
  --flows N          synthetic: number of flows      (default: 4)
  --horizon S        synthetic: seconds of traffic   (default: 1.0)
  --seed N           synthetic: RNG seed             (default: 42)
  --weights a,b,...  per-flow weights                (default: 1,2,3,...)
  --save FILE        write the (synthetic) trace before running
  --help             this text
";

/// The sorting engine behind the hardware pipeline (`--backend`). Every
/// choice produces the identical departure sequence — the conformance
/// matrix in `crates/scheduler/tests/backend_matrix.rs` pins that — so
/// this only selects the execution model being exercised.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum BackendChoice {
    #[default]
    Trie,
    Fastpath,
    Heap,
    Pipelined,
}

impl BackendChoice {
    fn name(self) -> &'static str {
        match self {
            Self::Trie => "trie",
            Self::Fastpath => "fastpath",
            Self::Heap => "heap",
            Self::Pipelined => "pipelined",
        }
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "trie" => Ok(Self::Trie),
            "fastpath" => Ok(Self::Fastpath),
            "heap" => Ok(Self::Heap),
            "pipelined" => Ok(Self::Pipelined),
            other => Err(format!(
                "unknown backend \"{other}\" (expected trie, fastpath, heap, or pipelined)"
            )),
        }
    }
}

struct Args {
    /// `None` until resolved: `hw` when `--ports > 1`, `wfq` otherwise.
    scheduler: Option<String>,
    /// `None` until resolved: the trie circuit unless `--backend` says
    /// otherwise.
    backend: Option<BackendChoice>,
    /// `None` until resolved: WFQ unless `--policy` says otherwise.
    policy: Option<AnyPolicy>,
    /// `None` until resolved: tail-drop unless `--admission` says
    /// otherwise.
    admission: Option<AdmissionPolicy>,
    rate: f64,
    ports: usize,
    port_rates: Option<Vec<f64>>,
    /// `None` until resolved: static hash placement unless
    /// `--rebalance` says otherwise.
    rebalance: Option<Placement>,
    trace: Option<String>,
    flows: usize,
    horizon: f64,
    seed: u64,
    weights: Option<Vec<f64>>,
    save: Option<String>,
    metrics: Option<String>,
    trace_events: usize,
    latency_report: Option<String>,
    event_log: Option<String>,
    event_log_format: Option<EventLogFormat>,
    inject_faults: Option<FaultSpec>,
    fault_policy: Option<FaultPolicy>,
    fault_report: Option<String>,
    campaign: Option<String>,
}

impl Args {
    /// The scheduler actually in force (see [`Args::scheduler`]).
    fn scheduler_name(&self) -> &str {
        match &self.scheduler {
            Some(name) => name,
            None if self.ports > 1 => "hw",
            None => "wfq",
        }
    }

    /// The sorting backend actually in force (see [`Args::backend`]).
    fn backend_choice(&self) -> BackendChoice {
        self.backend.unwrap_or_default()
    }

    /// The rank policy actually in force (see [`Args::policy`]).
    fn policy_choice(&self) -> AnyPolicy {
        self.policy.clone().unwrap_or_default()
    }

    /// `", policy NAME"` when `--policy` was given, for the report
    /// header; empty (keeping the header byte-identical to older runs)
    /// when the default WFQ policy is in force.
    fn policy_suffix(&self) -> String {
        match &self.policy {
            Some(p) => format!(", policy {}", p.name()),
            None => String::new(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scheduler: None,
        backend: None,
        policy: None,
        admission: None,
        rate: 2e6,
        ports: 1,
        port_rates: None,
        rebalance: None,
        trace: None,
        flows: 4,
        horizon: 1.0,
        seed: 42,
        weights: None,
        save: None,
        metrics: None,
        trace_events: 0,
        latency_report: None,
        event_log: None,
        event_log_format: None,
        inject_faults: None,
        fault_policy: None,
        fault_report: None,
        campaign: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--scheduler" => args.scheduler = Some(value("--scheduler")?),
            "--backend" => {
                args.backend = Some(
                    value("--backend")?
                        .parse()
                        .map_err(|e| format!("--backend: {e}"))?,
                );
            }
            "--policy" => {
                let name = value("--policy")?;
                args.policy = Some(AnyPolicy::by_name(&name).ok_or_else(|| {
                    format!(
                        "--policy: unknown policy \"{name}\" (expected one of {})",
                        AnyPolicy::NAMES.join(", ")
                    )
                })?);
            }
            "--admission" => {
                args.admission = Some(
                    value("--admission")?
                        .parse()
                        .map_err(|e| format!("--admission: {e}"))?,
                );
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
                check_rate("--rate", args.rate)?;
            }
            "--ports" => {
                args.ports = value("--ports")?
                    .parse()
                    .map_err(|e| format!("--ports: {e}"))?;
                if args.ports == 0 {
                    return Err("--ports: at least one port required".into());
                }
            }
            "--port-rates" => {
                let list = value("--port-rates")?;
                let parsed: Result<Vec<f64>, _> = list.split(',').map(str::parse::<f64>).collect();
                let rates = parsed.map_err(|e| format!("--port-rates: {e}"))?;
                for (port, &r) in rates.iter().enumerate() {
                    check_rate(&format!("--port-rates: port {port}"), r)?;
                }
                args.port_rates = Some(rates);
            }
            "--rebalance" => {
                args.rebalance = Some(
                    value("--rebalance")?
                        .parse()
                        .map_err(|e| format!("--rebalance: {e}"))?,
                );
            }
            "--trace" => args.trace = Some(value("--trace")?),
            "--flows" => {
                args.flows = value("--flows")?
                    .parse()
                    .map_err(|e| format!("--flows: {e}"))?;
            }
            "--horizon" => {
                args.horizon = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--weights" => {
                let list = value("--weights")?;
                let parsed: Result<Vec<f64>, _> = list.split(',').map(str::parse::<f64>).collect();
                args.weights = Some(parsed.map_err(|e| format!("--weights: {e}"))?);
            }
            "--save" => args.save = Some(value("--save")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--latency-report" => args.latency_report = Some(value("--latency-report")?),
            "--event-log" => args.event_log = Some(value("--event-log")?),
            "--event-log-format" => {
                args.event_log_format = Some(
                    value("--event-log-format")?
                        .parse()
                        .map_err(|e| format!("--event-log-format: {e}"))?,
                );
            }
            "--inject-faults" => {
                args.inject_faults = Some(
                    value("--inject-faults")?
                        .parse()
                        .map_err(|e| format!("--inject-faults: {e}"))?,
                );
            }
            "--fault-policy" => {
                args.fault_policy = Some(
                    value("--fault-policy")?
                        .parse()
                        .map_err(|e| format!("--fault-policy: {e}"))?,
                );
            }
            "--fault-report" => args.fault_report = Some(value("--fault-report")?),
            "--campaign" => args.campaign = Some(value("--campaign")?),
            "--trace-events" => {
                args.trace_events = value("--trace-events")?
                    .parse()
                    .map_err(|e| format!("--trace-events: {e}"))?;
                if args.trace_events == 0 {
                    return Err("--trace-events: capacity must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(rates) = &args.port_rates {
        if rates.len() != args.ports {
            return Err(format!(
                "--port-rates: {} rates given but --ports is {}; list exactly one rate per port",
                rates.len(),
                args.ports
            ));
        }
    }
    if args.rebalance.is_some() && args.ports <= 1 {
        return Err(
            "--rebalance: shard placement needs a multi-port frontend (use --ports > 1)".into(),
        );
    }
    if args.trace_events > 0 && args.metrics.is_none() {
        return Err(
            "--trace-events: requires --metrics (events are exported in the snapshot)".into(),
        );
    }
    if args.event_log_format.is_some() && args.event_log.is_none() {
        return Err("--event-log-format: requires --event-log (no log to format)".into());
    }
    if args.fault_policy.is_some() && args.inject_faults.is_none() {
        return Err(
            "--fault-policy: requires --inject-faults (no fault campaign to respond to)".into(),
        );
    }
    if args.fault_report.is_some() && args.inject_faults.is_none() {
        return Err(
            "--fault-report: requires --inject-faults (no fault campaign to report on)".into(),
        );
    }
    // Multi-port mode drives one hardware sorter per egress link, so an
    // explicit software scheduler is a contradiction. Reject it here —
    // in either flag order, before any trace is generated or saved —
    // rather than resolving it silently or failing mid-run.
    if args.ports > 1 {
        if let Some(name) = &args.scheduler {
            if name != "hw" {
                return Err(format!(
                    "--scheduler {name}: --ports {} drives one hardware sorter per port; \
                     only 'hw' supports multi-port (drop --scheduler or pass --scheduler hw)",
                    args.ports
                ));
            }
        }
    }
    // `--backend` picks the sorting engine *inside* the hardware
    // pipeline, so combining it with a software scheduler is the same
    // kind of contradiction as `--ports` above: reject it at parse time,
    // in either flag order, with both offending flags named.
    if let Some(backend) = args.backend {
        if args.scheduler_name() != "hw" {
            return Err(format!(
                "--backend {}: selects the hardware pipeline's sorting engine; \
                 --scheduler {} is software (use --scheduler hw or --ports > 1)",
                backend.name(),
                args.scheduler_name()
            ));
        }
    }
    // `--policy` programs the rank function *inside* the hardware
    // pipeline (and `--admission` its buffer), so both are the same
    // parse-time contradiction with a software scheduler as `--backend`.
    if let Some(policy) = &args.policy {
        if args.scheduler_name() != "hw" {
            return Err(format!(
                "--policy {}: programs the hardware pipeline's rank function; \
                 --scheduler {} is software (use --scheduler hw or --ports > 1)",
                policy.name(),
                args.scheduler_name()
            ));
        }
    }
    if let Some(admission) = args.admission {
        if args.scheduler_name() != "hw" {
            return Err(format!(
                "--admission {admission}: selects the hardware pipeline's buffer \
                 admission; --scheduler {} is software (use --scheduler hw or --ports > 1)",
                args.scheduler_name()
            ));
        }
    }
    for (flag, set) in [
        ("--metrics", args.metrics.is_some()),
        ("--latency-report", args.latency_report.is_some()),
        ("--event-log", args.event_log.is_some()),
        ("--inject-faults", args.inject_faults.is_some()),
    ] {
        if set && args.scheduler_name() != "hw" {
            return Err(format!(
                "{flag}: instruments the hardware pipeline; --scheduler {} is software \
                 (use --scheduler hw or --ports > 1)",
                args.scheduler_name()
            ));
        }
    }
    Ok(args)
}

/// Rebalance cadence for `--rebalance dynamic`: one
/// [`ShardedScheduler::maybe_rebalance`] round per this many arrivals.
const REBALANCE_EVERY: usize = 1024;

/// Ring capacity per shard when `--event-log` enables tracing on its
/// own. The streamed sink sees every event regardless, so the ring only
/// bounds what a later `--metrics` snapshot would also carry.
const EVENT_LOG_RING: usize = 256;

/// Builds the run's telemetry: enabled over `shards` shards
/// when `--metrics` or `--event-log` was given (with the
/// `--trace-events` ring, or a default ring for the event log), fully
/// disabled otherwise.
fn build_telemetry(args: &Args, shards: usize) -> Telemetry {
    if args.metrics.is_none() && args.event_log.is_none() {
        return Telemetry::disabled();
    }
    let ring = if args.trace_events > 0 {
        args.trace_events
    } else if args.event_log.is_some() {
        EVENT_LOG_RING
    } else {
        0
    };
    Telemetry::with_tracing(shards, ring)
}

/// Attaches a line-delimited JSON [`FileSink`] to the run when
/// `--event-log` asked for one, so every event streams to disk at emit
/// time instead of competing for ring capacity.
fn attach_event_sink(args: &Args, tel: &Telemetry) -> Result<(), String> {
    let Some(path) = &args.event_log else {
        return Ok(());
    };
    let format = args.event_log_format.unwrap_or_default();
    let sink = FileSink::create_with_format(path, format)
        .map_err(|e| format!("--event-log: cannot create {path}: {e}"))?;
    if tel.set_sink(Box::new(sink)).is_some() {
        return Err("--event-log: event tracing is disabled for this run".into());
    }
    Ok(())
}

/// Detaches and flushes the `--event-log` sink, surfacing any write
/// error deferred during the run.
fn finish_event_sink(args: &Args, tel: &Telemetry) -> Result<(), String> {
    let Some(path) = &args.event_log else {
        return Ok(());
    };
    let mut sink = tel
        .take_sink()
        .ok_or_else(|| format!("--event-log: the sink writing {path} disappeared mid-run"))?;
    sink.flush()
        .map_err(|e| format!("--event-log: cannot write {path}: {e}"))?;
    println!("event log written to {path}");
    Ok(())
}

/// The fault campaign in force, if `--inject-faults` asked for one.
/// The op horizon covers one enqueue plus one dequeue per packet, so
/// every scheduled fault materializes within a drained run.
fn fault_config(args: &Args, trace_len: usize) -> Option<FaultConfig> {
    args.inject_faults.map(|spec| {
        let policy = args.fault_policy.unwrap_or(FaultPolicy::DetectAndCount);
        FaultConfig::new(spec, policy, 2 * trace_len as u64)
    })
}

/// Writes the `--fault-report` file: a byte-deterministic record of the
/// campaign — header, per-port totals, then one line per injected fault
/// in ledger order. Two runs with identical flags produce identical
/// bytes.
fn emit_fault_report<B: SortBackend, P: RankPolicy>(
    path: &str,
    spec: FaultSpec,
    policy: FaultPolicy,
    ports: &[&HwScheduler<B, P>],
) -> Result<(), String> {
    let mut out = String::from("# wfqsim fault report\n");
    out.push_str(&format!(
        "policy={policy} spec={spec} ports={}\n",
        ports.len()
    ));
    for (port, shard) in ports.iter().enumerate() {
        let (injected, detected, repaired, silent) = shard.fault_totals();
        out.push_str(&format!(
            "port={port} injected={injected} detected={detected} \
             repaired={repaired} silent={silent}\n"
        ));
        // Backends without addressable state refuse attachment with a
        // structured error; the campaign records each refusal instead of
        // silently dropping the scheduled fault.
        for (op, err) in shard.fault_rejections() {
            out.push_str(&format!("port={port} op={op} rejected: {err}\n"));
        }
        for record in shard.fault_records() {
            out.push_str(&format!("port={port} {}\n", record.to_line()));
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("fault report written to {path}");
    Ok(())
}

/// Writes the `--latency-report` file: per-flow sojourn histograms in
/// the same flat deterministic JSON as the metrics snapshot.
fn emit_latency_report(path: &str, lat: &LatencyTracker) -> Result<(), String> {
    let mut snap = Snapshot::empty(1);
    lat.export(&mut snap);
    std::fs::write(path, snap.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "latency report written to {path} ({} samples over {} flows)",
        lat.samples(),
        lat.flows()
    );
    Ok(())
}

/// Writes the snapshot where `--metrics` asked, prints the
/// human-readable table, and reports failures as structured errors.
fn emit_snapshot(path: &str, snap: &Snapshot) -> Result<(), String> {
    std::fs::write(path, snap.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    print!("\n{}", snap.to_table());
    println!("telemetry snapshot written to {path}");
    Ok(())
}

/// Rates reach the scheduler's virtual clock and the link simulator as
/// divisors, so a zero, negative, or non-finite rate must be refused
/// here with a structured error rather than panicking downstream.
fn check_rate(what: &str, rate: f64) -> Result<(), String> {
    if rate > 0.0 && rate.is_finite() {
        Ok(())
    } else {
        Err(format!(
            "{what}: rate must be positive and finite, got {rate}"
        ))
    }
}

fn build_flows(count: usize, weights: &Option<Vec<f64>>, rate: f64) -> Vec<FlowSpec> {
    (0..count)
        .map(|i| {
            let w = weights
                .as_ref()
                .and_then(|ws| ws.get(i).copied())
                .unwrap_or((i + 1) as f64);
            // A representative mix: small steady packets on flow 0,
            // IMIX/Poisson elsewhere, one bursty flow.
            let spec = FlowSpec::new(FlowId(i as u32), w, rate / count as f64);
            match i % 3 {
                0 => spec
                    .size(SizeDist::Fixed(140))
                    .arrivals(ArrivalProcess::Cbr),
                1 => spec.size(SizeDist::Imix).arrivals(ArrivalProcess::Poisson),
                _ => spec
                    .size(SizeDist::Bimodal {
                        small: 40,
                        large: 1500,
                        p_small: 0.3,
                    })
                    .arrivals(ArrivalProcess::OnOff {
                        on_mean_s: 0.03,
                        off_mean_s: 0.03,
                    }),
            }
        })
        .collect()
}

fn run_software(
    name: &str,
    flows: &[FlowSpec],
    rate: f64,
    trace: &[Packet],
) -> Result<Vec<Departure>, String> {
    let sched: Box<dyn Scheduler> = match name {
        "fifo" => Box::new(Fifo::new()),
        "wrr" => Box::new(Wrr::new(flows)),
        "drr" => Box::new(Drr::new(flows, 1500.0)),
        "mdrr" => Box::new(Mdrr::new(flows, 1500.0, FlowId(0))),
        "srr" => Box::new(StratifiedRr::new(flows)),
        "fbfq" => Box::new(Fbfq::new(flows, rate, 1500.0)),
        "scfq" => Box::new(Scfq::new(flows)),
        "sfq" => Box::new(Sfq::new(flows)),
        "wfq" => Box::new(Wfq::new(flows, rate)),
        "wf2q" => Box::new(Wf2q::new(flows, rate)),
        "wf2q+" => Box::new(Wf2qPlus::new(flows)),
        other => return Err(format!("unknown scheduler {other}")),
    };
    Ok(LinkSim::new(rate, sched).run(trace))
}

/// The `--ports N` mode: the sharded frontend serves the trace with one
/// hardware sorter per egress link, and the report rolls per-flow
/// metrics up per port.
fn run_multiport<B: SortBackend>(args: &Args, flows: &[FlowSpec], trace: &[Packet]) -> ExitCode {
    for port in 0..args.ports {
        if !flows.iter().any(|f| shard_of(f.id, args.ports) == port) {
            eprintln!(
                "error: --ports {}: the flow-affinity hash leaves port {port} without \
                 flows ({} flows); use more --flows or fewer ports",
                args.ports,
                flows.len()
            );
            return ExitCode::FAILURE;
        }
    }
    let rates: Vec<f64> = args
        .port_rates
        .clone()
        .unwrap_or_else(|| vec![args.rate; args.ports]);
    // The quantizer's tick must resolve the *fastest* port's tag steps.
    let max_rate = rates.iter().copied().fold(0.0f64, f64::max);
    let policy = args.policy_choice();
    let placement = args.rebalance.unwrap_or_default();
    let mut fe = ShardedScheduler::<B, AnyPolicy>::with_policy_port_rates_placement(
        flows,
        &rates,
        SchedulerConfig {
            geometry: Geometry::new(4, 5),
            tick_scale: policy.tick_scale(max_rate),
            capacity: (trace.len() + 1).next_power_of_two(),
            faults: fault_config(args, trace.len()),
            admission: args.admission.unwrap_or_default(),
            ..SchedulerConfig::default()
        },
        &policy,
        placement,
    );
    if placement == Placement::Dynamic {
        fe = fe.with_rebalancer(RebalancerConfig::default());
    }
    let tel = build_telemetry(args, args.ports);
    fe.attach_telemetry(&tel);
    if let Err(msg) = attach_event_sink(args, &tel) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    let mut sim = ShardedLinkSim::new(fe);
    if placement == Placement::Dynamic {
        sim = sim.with_rebalance_every(REBALANCE_EVERY);
    }
    if args.latency_report.is_some() {
        sim = sim.with_latency();
    }
    let port_deps = match sim.run(trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: sharded frontend: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(msg) = finish_event_sink(args, &tel) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    if let Some(spec) = args.inject_faults {
        // Settle the ledger before any snapshot or report reads it.
        sim.frontend_mut().reconcile_faults();
        if let Some(path) = &args.fault_report {
            let fe = sim.frontend();
            let shards: Vec<&HwScheduler<B, AnyPolicy>> =
                (0..fe.ports()).map(|p| fe.shard(p)).collect();
            let policy = args.fault_policy.unwrap_or(FaultPolicy::DetectAndCount);
            if let Err(msg) = emit_fault_report(path, spec, policy, &shards) {
                eprintln!("error: --fault-report: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.latency_report {
        let lat = sim.latency().expect("with_latency was requested");
        if let Err(msg) = emit_latency_report(path, lat) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    let uniform = rates.windows(2).all(|w| w[0] == w[1]);
    if uniform {
        println!(
            "{} packets, {} flows, {} ports x {:.3} Mb/s, scheduler hw (sharded, {}{})",
            trace.len(),
            flows.len(),
            args.ports,
            rates[0] / 1e6,
            args.backend_choice().name(),
            args.policy_suffix(),
        );
    } else {
        println!(
            "{} packets, {} flows, {} ports (non-uniform rates), scheduler hw (sharded, {}{})",
            trace.len(),
            flows.len(),
            args.ports,
            args.backend_choice().name(),
            args.policy_suffix(),
        );
    }

    let stats = sim.frontend().stats();
    println!(
        "\n{:>5} {:>11} {:>6} {:>9} {:>11} {:>11} {:>12} {:>6} {:>6}",
        "port", "rate", "flows", "packets", "mean delay", "worst p99", "throughput", "jain", "peak"
    );
    let mut rollups = Vec::with_capacity(rates.len());
    for (port, &port_rate) in rates.iter().enumerate() {
        let sub_trace: Vec<Packet> = trace
            .iter()
            .filter(|p| sim.frontend().port_of(p.flow) == Some(port))
            .copied()
            .collect();
        let deps: Vec<Departure> = port_deps
            .iter()
            .filter(|d| d.port == port)
            .map(|d| d.departure)
            .collect();
        let rollup = metrics::aggregate(&metrics::analyze(flows, &sub_trace, &deps));
        let port_flows = flows
            .iter()
            .filter(|f| sim.frontend().port_of(f.id) == Some(port))
            .count();
        println!(
            "{:>5} {:>8.3}Mb/s {:>6} {:>9} {:>9.2}ms {:>9.2}ms {:>9.1}kb/s {:>6.3} {:>6}",
            port,
            port_rate / 1e6,
            port_flows,
            rollup.packets,
            rollup.mean_delay_s * 1e3,
            rollup.worst_p99_delay_s * 1e3,
            rollup.throughput_bps / 1e3,
            rollup.jain_throughput,
            stats.per_port[port].buffer.peak,
        );
        rollups.push(rollup);
    }

    println!(
        "\naggregate: {} enqueued, {} dequeued, 0 lost; modeled frontend \
         throughput {:.1} Mpps at {:.1} MHz/shard",
        stats.aggregate.enqueued,
        stats.aggregate.dequeued,
        stats.modeled_packets_per_second(PAPER_CLOCK_HZ) / 1e6,
        PAPER_CLOCK_HZ / 1e6,
    );
    if let Some(placement) = args.rebalance {
        println!(
            "placement {placement}: {} migration(s), shard balance {:.3} (max/mean admissions)",
            sim.frontend().migrations(),
            stats.shard_balance(),
        );
    }
    if let Some(path) = &args.metrics {
        let mut snap = sim.frontend().telemetry_snapshot();
        stats.export("hw", &mut snap);
        for (port, rollup) in rollups.iter().enumerate() {
            snap.put(&format!("fairq_port{port}_packets"), rollup.packets as f64);
            snap.put(
                &format!("fairq_port{port}_mean_delay_s"),
                rollup.mean_delay_s,
            );
            snap.put(
                &format!("fairq_port{port}_throughput_bps"),
                rollup.throughput_bps,
            );
            snap.put(&format!("fairq_port{port}_jain"), rollup.jain_throughput);
        }
        if let Err(msg) = emit_snapshot(path, &snap) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The single-port hardware pipeline, generic over the sorting backend:
/// builds the scheduler, wires telemetry and fault instrumentation, runs
/// the trace, and emits every requested artifact. Returns the departures
/// plus the telemetry snapshot and stats a later `--metrics` export needs.
fn run_hw<B: SortBackend>(
    args: &Args,
    flows: &[FlowSpec],
    trace: &[Packet],
) -> Result<(Vec<Departure>, Snapshot, SchedulerStats), String> {
    let policy = args.policy_choice();
    let mut hw = HwScheduler::<B, AnyPolicy>::with_backend_and_policy(
        flows,
        args.rate,
        SchedulerConfig {
            geometry: Geometry::new(4, 5),
            tick_scale: policy.tick_scale(args.rate),
            capacity: (trace.len() + 1).next_power_of_two(),
            faults: fault_config(args, trace.len()),
            admission: args.admission.unwrap_or_default(),
            ..SchedulerConfig::default()
        },
        &policy,
    );
    let tel = build_telemetry(args, 1);
    hw.attach_telemetry(&tel, 0);
    attach_event_sink(args, &tel)?;
    let mut sim = HwLinkSim::new(args.rate, hw);
    if args.latency_report.is_some() {
        sim = sim.with_latency();
    }
    let deps = sim
        .run(trace)
        .map_err(|e| format!("hardware pipeline: {e}"))?;
    finish_event_sink(args, &tel)?;
    if let Some(spec) = args.inject_faults {
        // Settle the ledger before any snapshot or report reads it.
        sim.scheduler_mut().reconcile_faults();
        if let Some(path) = &args.fault_report {
            let policy = args.fault_policy.unwrap_or(FaultPolicy::DetectAndCount);
            emit_fault_report(path, spec, policy, &[sim.scheduler()])
                .map_err(|e| format!("--fault-report: {e}"))?;
        }
    }
    if let Some(path) = &args.latency_report {
        let lat = sim.latency().expect("with_latency was requested");
        emit_latency_report(path, lat)?;
    }
    let stats = sim.scheduler().stats();
    Ok((deps, sim.scheduler().telemetry_snapshot(), stats))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    // Campaign mode replaces the single simulation entirely: resolve
    // the spec (builtin name first, then file), sweep the grid, print
    // the byte-deterministic report.
    if let Some(arg) = &args.campaign {
        let spec = match CampaignSpec::resolve(arg) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: --campaign: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", run_campaign(&spec).text);
        return ExitCode::SUCCESS;
    }

    // Workload.
    let trace = match &args.trace {
        Some(path) => match tracefile::load(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let flows = build_flows(args.flows, &args.weights, args.rate * 0.9);
            generate(&flows, args.horizon, args.seed)
        }
    };
    if trace.is_empty() {
        eprintln!("error: empty trace");
        return ExitCode::FAILURE;
    }
    let flow_count = trace
        .iter()
        .map(|p| p.flow.0 as usize + 1)
        .max()
        .unwrap_or(1);
    let flows = build_flows(flow_count.max(args.flows), &args.weights, args.rate * 0.9);
    if let Some(path) = &args.save {
        if let Err(e) = tracefile::save(path, &trace) {
            eprintln!("error: cannot save {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace saved to {path}");
    }

    // Run. (parse_args already rejected `--ports > 1` with an explicit
    // software scheduler, so multi-port here is always the hw pipeline;
    // likewise `--backend` only survives parsing alongside `hw`.)
    if args.ports > 1 {
        return match args.backend_choice() {
            BackendChoice::Trie => run_multiport::<SortRetrieveCircuit>(&args, &flows, &trace),
            BackendChoice::Fastpath => run_multiport::<FfsSorter>(&args, &flows, &trace),
            BackendChoice::Heap => run_multiport::<HeapSorter>(&args, &flows, &trace),
            BackendChoice::Pipelined => {
                run_multiport::<PipelinedSortBackend>(&args, &flows, &trace)
            }
        };
    }
    let mut hw_export: Option<(Snapshot, SchedulerStats)> = None;
    let departures = if args.scheduler_name() == "hw" {
        let run = match args.backend_choice() {
            BackendChoice::Trie => run_hw::<SortRetrieveCircuit>(&args, &flows, &trace),
            BackendChoice::Fastpath => run_hw::<FfsSorter>(&args, &flows, &trace),
            BackendChoice::Heap => run_hw::<HeapSorter>(&args, &flows, &trace),
            BackendChoice::Pipelined => run_hw::<PipelinedSortBackend>(&args, &flows, &trace),
        };
        match run {
            Ok((deps, snap, stats)) => {
                hw_export = Some((snap, stats));
                deps
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match run_software(args.scheduler_name(), &flows, args.rate, &trace) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}\n");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Report.
    let engine = if args.scheduler_name() == "hw" {
        format!(
            "hw ({}{})",
            args.backend_choice().name(),
            args.policy_suffix()
        )
    } else {
        args.scheduler_name().to_string()
    };
    println!(
        "{} packets, {} flows, link {:.3} Mb/s, scheduler {engine}",
        trace.len(),
        flow_count,
        args.rate / 1e6,
    );
    let report = metrics::analyze(&flows, &trace, &departures);
    println!(
        "\n{:>5} {:>7} {:>9} {:>11} {:>11} {:>11} {:>12}",
        "flow", "weight", "packets", "mean delay", "p99 delay", "max delay", "throughput"
    );
    for m in report.iter().filter(|m| m.packets > 0) {
        println!(
            "{:>5} {:>7} {:>9} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9.1}kb/s",
            m.flow,
            flows[m.flow as usize].weight,
            m.packets,
            m.mean_delay_s * 1e3,
            m.p99_delay_s * 1e3,
            m.max_delay_s * 1e3,
            m.throughput_bps / 1e3,
        );
    }
    let lag = metrics::gps_lag(&flows, &trace, &departures, args.rate);
    let lmax = trace.iter().map(|p| p.size_bits()).fold(0.0, f64::max);
    println!(
        "\nGPS lag: {:.3} ms ({:.2}x of one max packet time {:.3} ms)",
        lag * 1e3,
        lag / (lmax / args.rate),
        lmax / args.rate * 1e3
    );
    if let Some(path) = &args.metrics {
        let (mut snap, stats) = hw_export.expect("parse_args allows --metrics only with hw");
        stats.export("hw", &mut snap);
        let rollup = metrics::aggregate(&report);
        snap.put("fairq_packets", rollup.packets as f64);
        snap.put("fairq_mean_delay_s", rollup.mean_delay_s);
        snap.put("fairq_throughput_bps", rollup.throughput_bps);
        snap.put("fairq_jain", rollup.jain_throughput);
        if let Err(msg) = emit_snapshot(path, &snap) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
