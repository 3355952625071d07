//! **Experiment E15 — fault tolerance:** the SEU injection, scrubbing,
//! and self-repair machinery as a deterministic regression gate.
//!
//! Every metric is a pure function of the seeded workload and the seeded
//! fault plan — nothing here reads a wall clock — so the gate is
//! bit-stable on any host:
//!
//! * **Scrub-and-repair exactness** — a trie-only fault campaign under
//!   `ScrubAndRepair` with the audit width set to the full section count
//!   repairs every fault in the round it lands, before the pop that
//!   round serves; `fault_scrub_agreement` is 1.0 only when the faulted
//!   run's dequeue sequence is *identical* to the fault-free run's.
//! * **Detection economics** — an any-component campaign under
//!   `DetectAndCount` exports the detect-latency percentiles (cycles
//!   from injection to parity/scrub/structural detection) and gates the
//!   silent-corruption count as a lower-is-better ceiling, plus a
//!   `fault_reconciliation` bit for the ledger identity
//!   `detected + silent == injected`.
//! * **Incremental scrubbing** — the same trie campaign audited one
//!   section per round (the CLI default) gates how much damage an
//!   economical scrub width leaves unrepaired, and the mean repair cost
//!   in cycles.
//!
//! Flags: `--quick` shortens the workload; `--json [PATH]` writes the
//! flat JSON object (default `BENCH_faults.json`) for `check_regression`.

use bench::{json_object, print_table};
use faultsim::{FaultConfig, FaultPolicy, FaultSpec};
use scheduler::{HwScheduler, SchedulerConfig};
use tagsort::Geometry;
use telemetry::Telemetry;
use traffic::{generate, ArrivalProcess, FlowId, FlowSpec, Packet, SizeDist};

const FLOWS: usize = 16;
const RATE: f64 = 2e6;
const SEED: u64 = 42;
/// Trie-only campaign for the scrub runs.
const TRIE_SPEC: &str = "24@11:trie:1";
/// Any-component campaign for the detection run.
const ANY_SPEC: &str = "32@7:any:1";

/// The wfqsim default synthetic mix: CBR/IMIX-Poisson/bursty on-off in
/// rotation, weights 1..=N.
fn flows() -> Vec<FlowSpec> {
    (0..FLOWS)
        .map(|i| {
            let spec = FlowSpec::new(FlowId(i as u32), (i + 1) as f64, RATE * 0.9 / FLOWS as f64);
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

fn config(trace_len: usize, faults: Option<FaultConfig>) -> SchedulerConfig {
    SchedulerConfig {
        geometry: Geometry::paper(),
        tick_scale: RATE / 50_000.0,
        capacity: (trace_len + 1).next_power_of_two(),
        faults,
        ..SchedulerConfig::default()
    }
}

/// Enqueues the whole trace, drains everything, and returns the served
/// sequence alongside the scheduler for ledger inspection.
fn run(
    fl: &[FlowSpec],
    trace: &[Packet],
    faults: Option<FaultConfig>,
    tel: &Telemetry,
) -> (Vec<Packet>, HwScheduler) {
    let mut hw = HwScheduler::new(fl, RATE, config(trace.len(), faults));
    hw.attach_telemetry(tel, 0);
    for p in trace {
        hw.enqueue(*p).expect("seeded trace fits the buffers");
    }
    let mut served = Vec::new();
    while let Some(p) = hw.dequeue() {
        served.push(p);
    }
    hw.reconcile_faults();
    (served, hw)
}

fn fault_cfg(
    spec: &str,
    policy: FaultPolicy,
    trace_len: usize,
    scrub_sections: u32,
) -> FaultConfig {
    let spec: FaultSpec = spec.parse().expect("bench fault spec");
    let mut cfg = FaultConfig::new(spec, policy, 2 * trace_len as u64);
    cfg.scrub_sections = scrub_sections;
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_faults.json".into())
    });

    let fl = flows();
    let horizon = if quick { 0.25 } else { 1.0 };
    let trace = generate(&fl, horizon, SEED);
    let sections = Geometry::paper().sections();

    // Fault-free reference.
    let (reference, _) = run(&fl, &trace, None, &Telemetry::disabled());

    // Scrub-and-repair with a full audit every round: exact agreement.
    let full_cfg = fault_cfg(
        TRIE_SPEC,
        FaultPolicy::ScrubAndRepair,
        trace.len(),
        sections,
    );
    let (served_full, hw_full) = run(&fl, &trace, Some(full_cfg), &Telemetry::new(1));
    let agreement = f64::from(served_full == reference);
    let (inj_full, det_full, rep_full, silent_full) = hw_full.fault_totals();
    let snap_full = hw_full.telemetry_snapshot();
    let repair_cost_mean = snap_full
        .value("fault_repair_cost_cycles_mean")
        .unwrap_or(0.0);

    // The same campaign audited one section per round (the CLI default).
    let incr_cfg = fault_cfg(TRIE_SPEC, FaultPolicy::ScrubAndRepair, trace.len(), 1);
    let (_, hw_incr) = run(&fl, &trace, Some(incr_cfg), &Telemetry::new(1));
    let (inj_incr, _, rep_incr, silent_incr) = hw_incr.fault_totals();

    // Detect-and-count over every component: detection latency and the
    // ledger identity.
    let det_cfg = fault_cfg(ANY_SPEC, FaultPolicy::DetectAndCount, trace.len(), 1);
    let (_, hw_det) = run(&fl, &trace, Some(det_cfg), &Telemetry::new(1));
    let (inj_det, det_det, _, silent_det) = hw_det.fault_totals();
    let reconciled = f64::from(det_det + silent_det == inj_det);
    let snap_det = hw_det.telemetry_snapshot();
    let p50 = snap_det
        .value("fault_detect_latency_cycles_p50")
        .unwrap_or(0.0);
    let p99 = snap_det
        .value("fault_detect_latency_cycles_p99")
        .unwrap_or(0.0);

    let metrics: Vec<(String, f64)> = vec![
        ("fault_scrub_agreement".into(), agreement),
        ("fault_reconciliation".into(), reconciled),
        ("faults_injected_scrub".into(), inj_full as f64),
        ("faults_repaired_full_scrub".into(), rep_full as f64),
        ("ceil_silent_scrub_repair".into(), silent_full as f64),
        ("faults_repaired_incremental".into(), rep_incr as f64),
        ("ceil_silent_incremental".into(), silent_incr as f64),
        (
            "ceil_fault_repair_cost_mean_cycles".into(),
            repair_cost_mean,
        ),
        ("faults_injected_detect".into(), inj_det as f64),
        ("faults_detected".into(), det_det as f64),
        ("ceil_silent_detect_and_count".into(), silent_det as f64),
        ("ceil_fault_detect_latency_p50_cycles".into(), p50),
        ("ceil_fault_detect_latency_p99_cycles".into(), p99),
    ];

    print_table(
        &format!(
            "Fault tolerance — seeded trace ({} pkts), paper geometry ({sections} sections)",
            trace.len()
        ),
        &[
            "campaign", "policy", "injected", "detected", "repaired", "silent",
        ],
        &[
            vec![
                TRIE_SPEC.into(),
                "scrub-and-repair (full audit)".into(),
                inj_full.to_string(),
                det_full.to_string(),
                rep_full.to_string(),
                silent_full.to_string(),
            ],
            vec![
                TRIE_SPEC.into(),
                "scrub-and-repair (1 section/round)".into(),
                inj_incr.to_string(),
                "-".into(),
                rep_incr.to_string(),
                silent_incr.to_string(),
            ],
            vec![
                ANY_SPEC.into(),
                "detect-and-count".into(),
                inj_det.to_string(),
                det_det.to_string(),
                "-".into(),
                silent_det.to_string(),
            ],
        ],
    );
    println!(
        "\nAll figures are pure functions of the seeded workload and the\n\
         seeded fault plan. The agreement and reconciliation bits must\n\
         stay exactly 1.0; the ceil_* silent-corruption counts are gated\n\
         as ceilings (lower is better)."
    );
    for (key, value) in &metrics {
        println!("  {key} = {value:.4}");
    }

    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&metrics)).expect("write json");
        println!("\nwrote {path}");
    }
}
