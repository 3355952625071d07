//! `wfqbench`: the end-to-end and per-layer benchmark of the WFQ
//! scheduler stack. See `README.md` beside this package for the
//! workloads, the metrics and how to read a comparison.
//!
//! ```text
//! wfqbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json OUT] [--spans FILE]
//! wfqbench [--seed N] [--seconds S] [--trace 0|1] [--json OUT]   # all four, one process each
//! wfqbench --compare A.json B.json
//! ```

mod alloc;
mod drive;
mod ladder;
mod model;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use fairq::{StfqRank, WfqRank};
use fastpath::FfsSorter;
use scheduler::{HwScheduler, ShardedScheduler};
use tagsort::{HeapSorter, SortRetrieveCircuit};

use drive::{Frontend, Stream};
use report::Metric;
use workload::{Kind, Size, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        json: None,
        spans: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(Kind::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload {name:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {v:?}: expected a number in (0, 3600]"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            "--json" => a.json = Some(value()?.into()),
            "--spans" => a.spans = Some(value()?.into()),
            "--compare" => {
                let first = value()?;
                let second = value()?;
                a.compare = Some((first.into(), second.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| match (&a.compare, a.workload) {
        (Some((x, y)), _) => {
            let read = |p: &PathBuf| {
                std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
            };
            report::compare(&read(x)?, &read(y)?)
        }
        (None, Some(kind)) => run_workload(&a, kind),
        (None, None) => run_all(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in a process of its own, and merges their
/// records into `--json`.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut records = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        let part = a
            .json
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.{}.part", p.display(), kind.name())));
        if let Some(p) = &part {
            cmd.arg("--json").arg(p);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
        if let Some(p) = part {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            std::fs::remove_file(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            records.push(text);
        }
    }
    if let Some(out) = &a.json {
        let doc = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": [\n{}\n]}}\n",
            a.seed,
            a.seconds,
            a.trace,
            records.join(",\n")
        );
        std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    Ok(ok)
}

fn run_workload(a: &Args, kind: Kind) -> Result<bool, String> {
    let wl = Workload::new(kind, a.seed, Size::Full);
    match kind {
        Kind::Pairs | Kind::DeepZipf => {
            bench::<HwScheduler<FfsSorter, WfqRank>, HwScheduler<HeapSorter, WfqRank>>(a, &wl)
        }
        Kind::SoakTrie => bench::<
            HwScheduler<SortRetrieveCircuit, WfqRank>,
            HwScheduler<HeapSorter, WfqRank>,
        >(a, &wl),
        Kind::ShardedOverload => bench::<
            ShardedScheduler<FfsSorter, StfqRank>,
            ShardedScheduler<HeapSorter, StfqRank>,
        >(a, &wl),
    }
}

/// What one run measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    hash: u64,
    note: String,
}

/// Runs workload `wl` on frontend `F`, against the oracle frontend `O`
/// (the same frontend and policy over `HeapSorter`).
fn bench<F: Frontend, O: Frontend<Policy = F::Policy>>(
    a: &Args,
    wl: &Workload,
) -> Result<bool, String> {
    let s = drive::oracle::<O>(wl);
    println!(
        "wfqbench {} seed {}: {} arrivals, {} calls in {} batches of up to {}, {}",
        wl.kind.name(),
        a.seed,
        s.packets.len(),
        s.calls(),
        s.batches.len(),
        drive::BATCH_CALLS,
        if a.trace { "traced" } else { "untraced" }
    );
    let mut out = if a.trace {
        traced::<F>(a, wl, &s)?
    } else {
        untraced::<F>(a, wl, &s)
    };
    let nonfinite = out.metrics.iter().filter(|m| !m.value.is_finite()).count();
    out.failed += nonfinite as u64;
    let correct = out.failed == 0 && out.hash == s.hash;
    println!("{}", out.note);
    println!(
        "departure hash {:016x}, oracle {:016x}; {} of {} checked calls failed{}",
        out.hash,
        s.hash,
        out.failed,
        out.attempted,
        if nonfinite > 0 {
            format!(" ({nonfinite} metrics not finite)")
        } else {
            String::new()
        }
    );
    if let Some(path) = &a.json {
        let text = report::record(
            wl.kind.name(),
            a.seed,
            a.trace,
            (correct, out.attempted, out.failed),
            (out.hash, s.hash),
            &out.metrics,
        );
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    Ok(correct)
}

/// The untraced run: timed repetitions of the whole call stream, each
/// on a freshly built frontend, for at least `--seconds`.
fn untraced<F: Frontend>(a: &Args, wl: &Workload, s: &Stream) -> Outcome {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < drive::MIN_REPS || started.elapsed().as_secs_f64() < a.seconds {
        reps.push(drive::timed_rep::<F>(wl, s, wl.telemetry, |_, _, _| {}));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut failed = 0;
    let mut attempted = 0;
    for r in &reps {
        attempted += r.check.attempted;
        failed += r.mismatches(s);
        // The benchmarked backend must leave the frontend in the state
        // the oracle's left it in.
        failed += u64::from(r.facts.buffer_peak != s.facts.buffer_peak)
            + u64::from(r.facts.migrations != s.facts.migrations);
    }
    let rows: Vec<&[f64]> = reps.iter().map(|r| r.batch_ns.as_slice()).collect();
    let batch_ns = drive::batch_times(&rows);
    let per_pkt: Vec<f64> = (1..s.batches.len())
        .map(|b| batch_ns[b] / s.batches[b].packets())
        .collect();
    let metrics = vec![
        Metric::new(
            "mpps",
            1e3 / stats::median(&per_pkt),
            reps.iter().map(|r| 1e3 / r.median_ns(s)).collect(),
        ),
        Metric::median_of("setup_s", reps.iter().map(|r| r.setup_s).collect()),
        Metric::median_of(
            "mem_mib",
            reps.iter()
                .map(|r| r.mem_bytes as f64 / f64::from(1 << 20))
                .collect(),
        ),
        Metric::exact("sim_delay_p99_us", s.outcome.delay_p99_us),
        Metric::exact("delivered", s.outcome.delivered),
        Metric::exact("fairness_index", s.outcome.fairness),
    ];
    let mut note = format!(
        "{} reps in {elapsed:.1} s, {} timed batches each",
        reps.len(),
        s.batches.len() - 1
    );
    for m in &metrics {
        let q = m.summary();
        note += &format!(
            "\n  {:<18} {:>14.6} {:<8} q1 {:.6}  q3 {:.6}  n {}",
            m.def.name, m.value, m.def.unit, q.q1, q.q3, q.n
        );
    }
    Outcome {
        metrics,
        attempted,
        failed,
        hash: reps.last().map_or(0, |r| r.check.hash),
        note,
    }
}

/// The traced run: the layer model records every layer's calls, and
/// the replay ladder times each layer alone.
fn traced<F: Frontend>(a: &Args, wl: &Workload, s: &Stream) -> Result<Outcome, String> {
    let logs = match model::record::<F::Policy>(wl, s) {
        Ok(logs) => logs,
        Err(e) => {
            return Ok(Outcome {
                metrics: Vec::new(),
                attempted: 1,
                failed: 1,
                hash: 0,
                note: format!("layer model diverged from the library: {e}"),
            })
        }
    };
    let mut tracer = ladder::Tracer::new();
    let mut tally = ladder::Tally::default();
    let metrics = ladder::run::<F>(wl, s, &logs, a.seconds, &mut tracer, &mut tally);
    let spans = match &a.spans {
        Some(p) => p.clone(),
        None => default_spans_path(wl.kind, a.seed)?,
    };
    tracer
        .write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.def.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let fe = value("frontend.ns_per_pkt");
    let mut note = format!(
        "{} spans written to {}\nshare of frontend time ({fe:.1} ns per packet):",
        tracer.spans.len(),
        spans.display()
    );
    for (label, name) in [
        ("rank", "rank.share"),
        ("quantize", "quantize.share"),
        ("buffer", "buffer.share"),
        ("sort", "sort.share"),
        ("hwsched.self", "hwsched.share"),
        ("shard.self", "shard.share"),
    ] {
        note += &format!(
            "\n  {label:<13} {:>6.1} %  {:>7.1} ns",
            100.0 * value(name),
            value(name) * fe
        );
    }
    note += "\nper-layer metrics:";
    for m in &metrics {
        note += &format!("\n  {:<30} {:>12.4} {}", m.def.name, m.value, m.def.unit);
    }
    let sort_ns = value("sort.ns_per_pkt");
    let cycles = value("sort.cycles_per_pkt");
    note += &format!(
        "\nsort: {sort_ns:.1} ns per packet measured vs {:.1} ns modeled \
         ({cycles:.2} cycles at 143.2 MHz; 35.8 Mpps sequential, 143 Mpps pipelined)",
        cycles / tagsort::PAPER_CLOCK_HZ * 1e9
    );
    Ok(Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        hash: s.hash,
        note,
    })
}

/// Spans go beside the executable, inside the build directory.
fn default_spans_path(kind: Kind, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir
        .join("wfqbench-spans")
        .join(format!("{}-seed{seed}.jsonl", kind.name())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn flags_parse_and_bad_values_are_errors() {
        let a = args("--workload pairs --seed 11 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Kind::Pairs));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }

    /// The whole pipeline on a small workload of every kind: the oracle,
    /// the timed replay on the real backend, the layer model and every
    /// ladder rung must agree call for call.
    fn pipeline<F: Frontend, O: Frontend<Policy = F::Policy>>(kind: Kind) {
        let wl = Workload::new(kind, 5, Size::Small);
        let s = drive::oracle::<O>(&wl);
        assert!(s.batches.len() > 2, "{}", kind.name());
        let rep = drive::timed_rep::<F>(&wl, &s, wl.telemetry, |_, _, _| {});
        assert_eq!(rep.mismatches(&s), 0, "{}: {:?}", kind.name(), rep.check);
        assert_eq!(rep.check.attempted, s.calls());
        let logs = model::record::<F::Policy>(&wl, &s).unwrap();
        let mut tracer = ladder::Tracer::new();
        let mut tally = ladder::Tally::default();
        let metrics = ladder::run::<F>(&wl, &s, &logs, 0.0, &mut tracer, &mut tally);
        assert_eq!(tally.failed, 0, "{}", kind.name());
        assert!(tally.attempted > 0);
        let names: Vec<&str> = metrics.iter().map(|m| m.def.name).collect();
        let expected: Vec<&str> = report::PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert!(
            metrics.iter().all(|m| m.value.is_finite()),
            "{}",
            kind.name()
        );
        // Six traced rungs, one span per batch, in each repetition.
        assert_eq!(tracer.spans.len(), drive::MIN_REPS * 6 * s.batches.len());
    }

    #[test]
    fn every_workload_replays_exactly_through_every_rung() {
        pipeline::<HwScheduler<FfsSorter, WfqRank>, HwScheduler<HeapSorter, WfqRank>>(Kind::Pairs);
        pipeline::<HwScheduler<FfsSorter, WfqRank>, HwScheduler<HeapSorter, WfqRank>>(
            Kind::DeepZipf,
        );
        pipeline::<HwScheduler<SortRetrieveCircuit, WfqRank>, HwScheduler<HeapSorter, WfqRank>>(
            Kind::SoakTrie,
        );
        pipeline::<ShardedScheduler<FfsSorter, StfqRank>, ShardedScheduler<HeapSorter, StfqRank>>(
            Kind::ShardedOverload,
        );
    }
}
