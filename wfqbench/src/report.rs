//! The metric table, the JSON the benchmark writes, and `--compare`.

use std::fmt::Write as _;

use crate::stats::{self, Summary};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A reported metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run. `BENCHMARK.json`
/// lists the same names, units, directions and bounds.
///
/// Each bound sits at three times or more the metric's spread (quartile
/// distance ÷ median) over ten seeds on a shared two-core host. Wall-
/// clock throughput there drifts with other tenants' load; `mpps` on
/// `deep_zipf`, which is memory-bound, spread 6.2 %.
pub const END_TO_END: [Def; 6] = [
    def("mpps", "Mpkt/s", Higher, 0.25),
    def("setup_s", "s", Lower, 0.25),
    def("mem_mib", "MiB", Lower, 0.05),
    def("sim_delay_p99_us", "us", Lower, 0.20),
    def("delivered", "fraction", Higher, 0.02),
    def("fairness_index", "ratio", Higher, 0.02),
];

/// Per-layer metrics, printed by every traced run (no bounds).
pub const PER_LAYER: [Def; 30] = [
    def("frontend.ns_per_pkt", "ns", Lower, 0.0),
    def("frontend.fill_ns_per_arrival", "ns", Lower, 0.0),
    def("frontend.drain_ns_per_pkt", "ns", Lower, 0.0),
    def("frontend.batch_ns_tail", "ns", Lower, 0.0),
    def("frontend.batches", "count", Higher, 0.0),
    def("shard.self_ns_per_pkt", "ns", Lower, 0.0),
    def("shard.share", "ratio", Lower, 0.0),
    def("shard.migrations", "count", Lower, 0.0),
    def("shard.balance_max_over_mean", "ratio", Lower, 0.0),
    def("hwsched.ns_per_pkt", "ns", Lower, 0.0),
    def("hwsched.self_ns_per_pkt", "ns", Lower, 0.0),
    def("hwsched.share", "ratio", Lower, 0.0),
    def("rank.ns_per_call", "ns", Lower, 0.0),
    def("rank.share", "ratio", Lower, 0.0),
    def("quantize.ns_per_call", "ns", Lower, 0.0),
    def("quantize.share", "ratio", Lower, 0.0),
    def("quantize.recycles_per_kpkt", "1/kpkt", Lower, 0.0),
    def("quantize.clamps_per_kpkt", "1/kpkt", Lower, 0.0),
    def("buffer.ns_per_pkt", "ns", Lower, 0.0),
    def("buffer.share", "ratio", Lower, 0.0),
    def("buffer.peak_occupancy", "pkts", Lower, 0.0),
    def("sort.ns_per_pkt", "ns", Lower, 0.0),
    def("sort.share", "ratio", Lower, 0.0),
    def("sort.pop_max_per_kpkt", "1/kpkt", Lower, 0.0),
    def("sort.cycles_per_pkt", "cycles", Lower, 0.0),
    def("sort.measured_over_modeled", "ratio", Lower, 0.0),
    def("telemetry.ns_per_pkt", "ns", Lower, 0.0),
    def("telemetry.share", "ratio", Lower, 0.0),
    def("paged.resident_peak_ratio", "ratio", Lower, 0.0),
    def("trace.overhead_ratio", "ratio", Higher, 0.0),
];

/// Looks a metric up in either table.
pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One measured metric: its value and the per-repetition samples the
/// value is the median of (a single sample for deterministic metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// `value`, reported beside the per-repetition `samples`.
    pub fn new(name: &str, value: f64, samples: Vec<f64>) -> Metric {
        Metric {
            def: lookup(name).expect("metric is defined"),
            value,
            samples,
        }
    }

    /// The median of `samples`.
    pub fn median_of(name: &str, samples: Vec<f64>) -> Metric {
        Metric::new(name, stats::median(&samples), samples)
    }

    /// A single exact value.
    pub fn exact(name: &str, value: f64) -> Metric {
        Metric::median_of(name, vec![value])
    }

    pub fn summary(&self) -> Summary {
        stats::summarize(&self.samples)
    }
}

/// The line the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.def.name,
            number(m.value),
            m.def.unit
        );
    }
    s.push_str("}}");
    s
}

/// A workload's full record for `--json`: every metric with its
/// quartiles and samples, plus the output-check results.
pub fn record(
    workload: &str,
    seed: u64,
    trace: bool,
    check: (bool, u64, u64),
    hashes: (u64, u64),
    metrics: &[Metric],
) -> String {
    let (correct, attempted, failed) = check;
    let mut s = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"departure_hash\": \"{:016x}\", \"oracle_hash\": \"{:016x}\", \"metrics\": {{",
        hashes.0, hashes.1
    );
    for (i, m) in metrics.iter().enumerate() {
        let sum = m.summary();
        let samples: Vec<String> = m.samples.iter().map(|&x| number(x)).collect();
        let sep = if i == 0 { "\n  " } else { ",\n  " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \
             \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
            m.def.name,
            number(m.value),
            m.def.unit,
            m.def.better.name(),
            number(sum.q1),
            number(sum.q3),
            sum.n,
            samples.join(", ")
        );
    }
    s.push_str("\n}}");
    s
}

/// A finite number as JSON (non-finite values become `null`, which the
/// caller has already counted as a failed check).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A parsed JSON value — just enough for reading records back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return self.err("expected a string key");
                    };
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let start = self.i;
                while let Some(&c) = self.s.get(self.i) {
                    match c {
                        b'"' => {
                            let text = std::str::from_utf8(&self.s[start..self.i])
                                .map_err(|e| e.to_string())?;
                            self.i += 1;
                            return Ok(Json::Str(text.to_string()));
                        }
                        b'\\' => return self.err("escapes are not supported"),
                        _ => self.i += 1,
                    }
                }
                self.err("unterminated string")
            }
            Some(_) => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .map_or_else(|| self.err("expected a value"), Ok)
            }
            None => self.err("unexpected end"),
        }
    }
}

/// How a metric compares between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both values are the same number.
    Exact,
    /// B is not worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Exact => "exact",
            Verdict::Within => "within bound",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let d = (b - a) / a.abs();
    match better {
        Better::Higher => -d,
        Better::Lower => d,
    }
}

/// Judges value `b` against `a` under `def`'s bound. Two runs cannot say
/// whether a difference exceeds the run-to-run spread; the gain
/// protocol in the README can.
pub fn verdict(def: &Def, a: f64, b: f64) -> Verdict {
    if a == b {
        Verdict::Exact
    } else if worsening(def.better, a, b) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// `--compare A.json B.json`: prints every end-to-end metric of every
/// workload the two files share — each side's value, and the median
/// and quartiles of the samples beside it — with the verdict. Returns
/// whether nothing regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let records = |doc: &Json| -> Vec<Json> {
        match doc.get("workloads").and_then(Json::arr) {
            Some(list) => list.to_vec(),
            None => vec![doc.clone()],
        }
    };
    let (ra, rb) = (records(&a), records(&b));
    let mut ok = true;
    println!(
        "{:<17} {:<17} {:>40} {:>40} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A value (samples: median [q1, q3])",
        "B value (samples: median [q1, q3])",
        "change",
        "bound"
    );
    for wa in &ra {
        let name = wa.get("workload").and_then(Json::str).unwrap_or("?");
        let Some(wb) = rb
            .iter()
            .find(|w| w.get("workload").and_then(Json::str) == Some(name))
        else {
            println!("{name}: missing from B");
            ok = false;
            continue;
        };
        for def in &END_TO_END {
            let read = |w: &Json| -> Option<(f64, Vec<f64>)> {
                let m = w.get("metrics")?.get(def.name)?;
                let samples: Option<Vec<f64>> =
                    m.get("samples")?.arr()?.iter().map(Json::num).collect();
                Some((m.get("value")?.num()?, samples?))
            };
            let (Some((va, xa)), Some((vb, xb))) = (read(wa), read(wb)) else {
                println!("{name:<17} {:<17} missing", def.name);
                ok = false;
                continue;
            };
            let v = verdict(def, va, vb);
            ok &= v != Verdict::Regressed;
            let cell = |value: f64, samples: &[f64]| {
                let q = stats::summarize(samples);
                format!("{value:.5} ({:.5} [{:.5}, {:.5}])", q.median, q.q1, q.q3)
            };
            println!(
                "{name:<17} {:<17} {:>40} {:>40} {:>+7.2}% {:>5.0}%  {}",
                def.name,
                cell(va, &xa),
                cell(vb, &xb),
                100.0 * worsening(def.better, va, vb),
                100.0 * def.bound,
                v.name()
            );
        }
        let hash = |w: &Json| {
            w.get("departure_hash")
                .and_then(Json::str)
                .map(String::from)
        };
        if hash(wa) != hash(wb) {
            println!(
                "{name}: departure hashes differ ({:?} vs {:?})",
                hash(wa),
                hash(wb)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(name: &str) -> &'static Def {
        lookup(name).unwrap()
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
    }

    #[test]
    fn verdicts_apply_the_bound_in_the_right_direction() {
        let mpps = get("mpps"); // higher is better
        let setup = get("setup_s"); // lower is better
        let delivered = get("delivered"); // higher is better, 2 %
        let v = |d, k: f64| verdict(d, 10.0, 10.0 * k);
        assert_eq!(v(mpps, 1.0), Verdict::Exact);
        assert_eq!(v(mpps, 1.0 - mpps.bound - 0.05), Verdict::Regressed);
        assert_eq!(v(mpps, 1.0 - mpps.bound / 2.0), Verdict::Within);
        assert_eq!(v(mpps, 1.0 + mpps.bound + 0.05), Verdict::Within);
        // For a lower-is-better metric a rise is the regression.
        assert_eq!(v(setup, 1.0 + setup.bound + 0.05), Verdict::Regressed);
        assert_eq!(v(setup, 1.0 - setup.bound - 0.05), Verdict::Within);
        assert_eq!(v(delivered, 0.97), Verdict::Regressed);
        assert_eq!(v(delivered, 0.99), Verdict::Within);
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let m = vec![
            Metric::median_of("mpps", vec![6.0, 6.5, 7.0]),
            Metric::exact("delivered", 1.0),
        ];
        let text = record("pairs", 7, false, (true, 10, 0), (1, 1), &m);
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::str), Some("pairs"));
        let mpps = doc.get("metrics").unwrap().get("mpps").unwrap();
        assert_eq!(mpps.get("value").and_then(Json::num), Some(6.5));
        assert_eq!(
            mpps.get("samples").and_then(Json::arr).map(<[Json]>::len),
            Some(3)
        );
        let line = result_line(true, 10, 0, &m);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let check = |key: &str, table: &[Def], bounded: bool| {
            let list = doc.get(key).and_then(Json::arr).unwrap();
            assert_eq!(list.len(), table.len(), "{key}");
            for (entry, d) in list.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::str),
                    Some(d.better.name())
                );
                if bounded {
                    assert_eq!(entry.get("bound").and_then(Json::num), Some(d.bound));
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads = doc.get("workloads").and_then(Json::arr).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        let expected: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, expected);
    }
}
