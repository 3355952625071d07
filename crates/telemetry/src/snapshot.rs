//! Deterministic snapshots and their exporters.
//!
//! A [`Snapshot`] is a frozen view of what a scheduler counted: its
//! counters and gauges (one column per shard), its histograms, its
//! traced events, and any externally supplied figures (see
//! [`Snapshot::put`]). The scheduler that owns the facts builds it;
//! [`Snapshot::join`] lines up one snapshot per port into a frontend's
//! view. Two exporters:
//!
//! * [`Snapshot::to_json`] — a **flat** JSON object of numeric metrics
//!   with keys in sorted order. Identical runs produce byte-identical
//!   files, so CI can `diff` two snapshots for determinism and feed one
//!   to the `check_regression` gate (the same flat shape the bench
//!   harness emits).
//! * [`Snapshot::to_table`] — a human-readable report: counters, gauges,
//!   histogram quantiles, and the traced event log.

use crate::histogram::{bucket_upper_bound, BUCKETS};
use crate::trace::Event;

/// How a gauge's per-shard values merge into one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeMerge {
    /// Shards add (e.g. total queue depth across ports).
    Sum,
    /// Shards take the maximum (e.g. the worst per-port peak).
    Max,
}

/// A merged histogram: bucket counts plus exact sum and max.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Per-bucket observation counts, indexed by [`crate::bucket_of`]
    /// (exact buckets `0..=16`, then one per power of two).
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (mean = sum / count).
    pub sum: u64,
    /// Largest observed value (exact, not a bucket bound).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw bucket counts.
    pub fn from_buckets(name: String, buckets: Vec<u64>, sum: u64, max: u64) -> Self {
        assert_eq!(buckets.len(), BUCKETS, "bucket vector has fixed geometry");
        let count = buckets.iter().sum();
        Self {
            name,
            buckets,
            count,
            sum,
            max,
        }
    }

    /// The value at or below which a fraction `q` (0..=1) of
    /// observations fall, reported as the containing bucket's inclusive
    /// upper bound (exact for values ≤ 16). Returns 0 for an empty
    /// histogram; `q = 1` reports the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's bound is u64::MAX; the exact max is
                // the tighter (and still deterministic) answer.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s observations: buckets, counts and sums add, the
    /// max is the larger.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen view of one scheduler's or one frontend's telemetry; see
/// the module docs.
#[derive(Debug, Clone)]
pub struct Snapshot {
    shards: usize,
    counters: Vec<(String, Vec<u64>)>,
    gauges: Vec<(String, GaugeMerge, Vec<u64>)>,
    histograms: Vec<HistogramSnapshot>,
    events: Vec<Event>,
    events_evicted: u64,
    has_events: bool,
    extra: Vec<(String, f64)>,
}

impl Snapshot {
    /// An empty snapshot over `shards` shards.
    pub fn empty(shards: usize) -> Self {
        Self {
            shards,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            events: Vec::new(),
            events_evicted: 0,
            has_events: false,
            extra: Vec::new(),
        }
    }

    /// Number of shards the snapshot was taken over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Adds a counter's per-shard values.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a `[A-Za-z0-9_]` slug (snapshot keys must
    /// be JSON-safe and shell-safe).
    pub fn add_counter(&mut self, name: String, per_shard: Vec<u64>) {
        check_key(&name);
        self.counters.push((name, per_shard));
    }

    /// Adds a gauge's per-shard values and merge rule.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a `[A-Za-z0-9_]` slug.
    pub fn add_gauge(&mut self, name: String, merge: GaugeMerge, per_shard: Vec<u64>) {
        check_key(&name);
        self.gauges.push((name, merge, per_shard));
    }

    /// Adds a histogram.
    ///
    /// # Panics
    ///
    /// Panics if its name is not a `[A-Za-z0-9_]` slug.
    pub fn add_histogram(&mut self, hist: HistogramSnapshot) {
        check_key(&hist.name);
        self.histograms.push(hist);
    }

    /// Installs the traced event log, merged in time order (see
    /// [`Snapshot::events`]), and how many events the rings evicted.
    pub fn set_events(&mut self, mut events: Vec<Event>, evicted: u64) {
        events.sort_by_key(|e| (e.cycle, e.shard));
        self.events = events;
        self.events_evicted = evicted;
        self.has_events = true;
    }

    /// Joins one single-shard snapshot per shard into a snapshot over
    /// them all: part *i*'s counter and gauge values become column *i*,
    /// histograms merge bucket by bucket, the event logs merge in time
    /// order with their evictions summed, and [`Snapshot::put`] figures
    /// carry over. Joining no parts, or parts over zero shards (what a
    /// scheduler without telemetry reports), gives an empty snapshot.
    ///
    /// # Panics
    ///
    /// Panics unless every part names the same metrics in the same
    /// order — what the same code writing each shard produces.
    pub fn join(parts: Vec<Snapshot>) -> Snapshot {
        let names = |s: &Snapshot| -> Vec<String> {
            let counters = s.counters.iter().map(|c| &c.0);
            let gauges = s.gauges.iter().map(|g| &g.0);
            let hists = s.histograms.iter().map(|h| &h.name);
            counters.chain(gauges).chain(hists).cloned().collect()
        };
        let mut parts = parts.into_iter();
        let Some(mut out) = parts.next() else {
            return Snapshot::empty(0);
        };
        for part in parts {
            let same = names(&out) == names(&part);
            assert!(same, "joined shards name other metrics");
            out.shards += part.shards;
            for (c, (_, column)) in out.counters.iter_mut().zip(part.counters) {
                c.1.extend(column);
            }
            for (g, (_, _, column)) in out.gauges.iter_mut().zip(part.gauges) {
                g.2.extend(column);
            }
            for (h, other) in out.histograms.iter_mut().zip(&part.histograms) {
                h.merge(other);
            }
            out.events.extend(part.events);
            out.events_evicted += part.events_evicted;
            out.has_events |= part.has_events;
            out.extra.extend(part.extra);
        }
        out.events.sort_by_key(|e| (e.cycle, e.shard));
        out
    }

    /// The traced events, merged in time order — sorted by
    /// `(cycle, shard)`, ties preserving per-shard emit order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Adds one externally computed numeric figure — the bridge that
    /// routes `AccessStats`/`BufferStats`-style numbers through the same
    /// snapshot as the scheduler's telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a `[A-Za-z0-9_]` slug or `value` is not
    /// finite (the JSON exporter's contract).
    pub fn put(&mut self, key: &str, value: f64) {
        check_key(key);
        assert!(value.is_finite(), "snapshot value for {key} is not finite");
        self.extra.push((key.to_string(), value));
    }

    /// Looks up one value in the flattened numeric view (test/debug).
    pub fn value(&self, key: &str) -> Option<f64> {
        self.flatten()
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The flattened numeric view: every counter (`_total` plus
    /// `_port{i}` when sharded), gauge (merged plus per-shard),
    /// histogram summary (`_count`, `_mean`, `_p50`, `_p90`, `_p99`,
    /// `_max`), event totals, and [`Snapshot::put`] figures — sorted by
    /// key.
    pub fn flatten(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (name, per_shard) in &self.counters {
            let total: u64 = per_shard.iter().sum();
            out.push((format!("{name}_total"), total as f64));
            if self.shards > 1 {
                for (i, v) in per_shard.iter().enumerate() {
                    out.push((format!("{name}_port{i}"), *v as f64));
                }
            }
        }
        for (name, merge, per_shard) in &self.gauges {
            let merged: u64 = match merge {
                GaugeMerge::Sum => per_shard.iter().sum(),
                GaugeMerge::Max => per_shard.iter().copied().max().unwrap_or(0),
            };
            out.push((name.clone(), merged as f64));
            if self.shards > 1 {
                for (i, v) in per_shard.iter().enumerate() {
                    out.push((format!("{name}_port{i}"), *v as f64));
                }
            }
        }
        for h in &self.histograms {
            out.push((format!("{}_count", h.name), h.count as f64));
            out.push((format!("{}_mean", h.name), h.mean()));
            out.push((format!("{}_p50", h.name), h.quantile(0.50) as f64));
            out.push((format!("{}_p90", h.name), h.quantile(0.90) as f64));
            out.push((format!("{}_p99", h.name), h.quantile(0.99) as f64));
            out.push((format!("{}_max", h.name), h.max as f64));
        }
        if self.has_events {
            out.push(("events_captured".into(), self.events.len() as f64));
            out.push(("events_evicted".into(), self.events_evicted as f64));
        }
        out.extend(self.extra.iter().cloned());
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Exports the flattened view as a flat JSON object, keys sorted —
    /// byte-stable across identical runs.
    pub fn to_json(&self) -> String {
        let pairs = self.flatten();
        let mut s = String::from("{\n");
        for (i, (k, v)) in pairs.iter().enumerate() {
            s.push_str(&format!("  \"{k}\": {v}"));
            s.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
        }
        s.push_str("}\n");
        s
    }

    /// Renders the human-readable report: counters, gauges, histogram
    /// quantiles, and (when tracing was enabled) the event log.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("== telemetry ({} shard(s)) ==\n", self.shards));
        if !self.counters.is_empty() {
            s.push_str("\ncounters:\n");
            for (name, per_shard) in &self.counters {
                let total: u64 = per_shard.iter().sum();
                if self.shards > 1 {
                    s.push_str(&format!("  {name:<24} {total:>12}  {per_shard:?}\n"));
                } else {
                    s.push_str(&format!("  {name:<24} {total:>12}\n"));
                }
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("\ngauges:\n");
            for (name, merge, per_shard) in &self.gauges {
                let merged: u64 = match merge {
                    GaugeMerge::Sum => per_shard.iter().sum(),
                    GaugeMerge::Max => per_shard.iter().copied().max().unwrap_or(0),
                };
                let rule = match merge {
                    GaugeMerge::Sum => "sum",
                    GaugeMerge::Max => "max",
                };
                if self.shards > 1 {
                    s.push_str(&format!(
                        "  {name:<24} {merged:>12} ({rule})  {per_shard:?}\n"
                    ));
                } else {
                    s.push_str(&format!("  {name:<24} {merged:>12}\n"));
                }
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("\nhistograms:\n");
            s.push_str(&format!(
                "  {:<24} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
                "name", "count", "mean", "p50", "p90", "p99", "max"
            ));
            for h in &self.histograms {
                s.push_str(&format!(
                    "  {:<24} {:>10} {:>10.2} {:>8} {:>8} {:>8} {:>8}\n",
                    h.name,
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max,
                ));
            }
        }
        if !self.extra.is_empty() {
            let mut extra = self.extra.clone();
            extra.sort_by(|a, b| a.0.cmp(&b.0));
            s.push_str("\nmerged stats:\n");
            for (k, v) in &extra {
                s.push_str(&format!("  {k:<32} {v}\n"));
            }
        }
        if self.has_events {
            s.push_str(&format!(
                "\nevents ({} captured, {} evicted):\n",
                self.events.len(),
                self.events_evicted
            ));
            s.push_str(&format!(
                "  {:>5} {:>12} {:<18} {:>12} {:>12}\n",
                "shard", "cycle", "kind", "a", "b"
            ));
            for e in &self.events {
                s.push_str(&format!(
                    "  {:>5} {:>12} {:<18} {:>12} {:>12}\n",
                    e.shard,
                    e.cycle,
                    e.kind.name(),
                    e.a,
                    e.b,
                ));
            }
        }
        s
    }
}

fn check_key(key: &str) {
    assert!(
        !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "snapshot key {key:?} must be a [A-Za-z0-9_] slug"
    );
}

/// Parses the flat `{"key": number, ...}` objects [`Snapshot::to_json`]
/// emits (whitespace-insensitive; no nesting, no string values).
/// Returns `None` if the text is not such an object.
pub fn parse_flat_json(text: &str) -> Option<Vec<(String, f64)>> {
    let body = text.trim().strip_prefix('{')?.strip_suffix('}')?.trim();
    let mut out = Vec::new();
    if body.is_empty() {
        return Some(out);
    }
    for entry in body.split(',') {
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value: f64 = value.trim().parse().ok()?;
        out.push((key.to_string(), value));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::trace::EventKind;

    /// One shard's snapshot with one counter, one gauge of each merge
    /// rule, and one histogram.
    fn shard(served: u64, depth: u64, peak: u64, lat: &[u64]) -> Snapshot {
        let mut snap = Snapshot::empty(1);
        snap.add_counter("served".into(), vec![served]);
        snap.add_gauge("depth".into(), GaugeMerge::Sum, vec![depth]);
        snap.add_gauge("peak".into(), GaugeMerge::Max, vec![peak]);
        let mut h = Histogram::new();
        lat.iter().for_each(|&v| h.observe(v));
        snap.add_histogram(h.snapshot("lat"));
        snap
    }

    #[test]
    fn join_lines_up_per_shard_columns() {
        let snap = Snapshot::join(vec![
            shard(1, 3, 10, &[4]),
            shard(2, 4, 9, &[]),
            shard(3, 0, 7, &[12]),
        ]);
        assert_eq!(snap.shards(), 3);
        assert_eq!(snap.value("served_total"), Some(6.0));
        assert_eq!(snap.value("served_port1"), Some(2.0));
        assert_eq!(snap.value("depth"), Some(7.0), "Sum gauges add");
        assert_eq!(snap.value("peak"), Some(10.0), "Max gauges take the max");
        assert_eq!(snap.value("peak_port2"), Some(7.0));
        assert_eq!(snap.value("lat_count"), Some(2.0));
        assert_eq!(snap.value("lat_max"), Some(12.0));
        let alone = Snapshot::join(vec![shard(5, 1, 1, &[])]);
        assert_eq!(alone.value("served_total"), Some(5.0));
        assert_eq!(
            alone.value("served_port0"),
            None,
            "one shard has no columns"
        );
        assert_eq!(Snapshot::join(vec![Snapshot::empty(0)]).shards(), 0);
    }

    #[test]
    #[should_panic(expected = "name other metrics")]
    fn join_refuses_shards_that_disagree_on_metrics() {
        let mut odd = Snapshot::empty(1);
        odd.add_counter("other".into(), vec![1]);
        Snapshot::join(vec![shard(1, 0, 0, &[]), odd]);
    }

    #[test]
    fn json_is_sorted_flat_and_round_trips() {
        let mut snap = Snapshot::join(vec![shard(1, 0, 0, &[]), shard(0, 2, 0, &[])]);
        snap.add_counter("alpha".into(), vec![0, 2]);
        snap.put("hw_trie_reads", 123.0);
        let json = snap.to_json();
        let parsed = parse_flat_json(&json).expect("parseable");
        let keys: Vec<&str> = parsed.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "keys must come out sorted");
        assert!(keys.contains(&"alpha_total"));
        assert!(keys.contains(&"served_port0"));
        assert!(keys.contains(&"hw_trie_reads"));
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let run = || {
            let mut snap = Snapshot::join(vec![shard(7, 0, 0, &[]), shard(0, 0, 0, &[4])]);
            let event = Event {
                shard: 0,
                cycle: 40,
                kind: EventKind::Enqueue,
                a: 1,
                b: 2,
            };
            snap.set_events(vec![event], 0);
            snap.to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn table_renders_all_sections() {
        let mut snap = Snapshot::join(vec![shard(1, 0, 0, &[4]), shard(0, 3, 0, &[])]);
        let event = Event {
            shard: 1,
            cycle: 8,
            kind: EventKind::Drop,
            a: 5,
            b: 64,
        };
        snap.set_events(vec![event], 0);
        snap.put("agg_buf_peak", 9.0);
        let table = snap.to_table();
        for needle in [
            "counters:",
            "served",
            "gauges:",
            "depth",
            "histograms:",
            "lat",
            "merged stats:",
            "agg_buf_peak",
            "events",
            "drop",
        ] {
            assert!(table.contains(needle), "missing {needle}:\n{table}");
        }
    }

    #[test]
    #[should_panic(expected = "slug")]
    fn non_slug_metric_names_are_rejected() {
        Snapshot::empty(1).add_counter("Bad Name".into(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "slug")]
    fn put_rejects_bad_keys() {
        Snapshot::empty(1).put("bad key", 1.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn put_rejects_non_finite() {
        Snapshot::empty(1).put("k", f64::NAN);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = HistogramSnapshot::from_buckets("h".into(), vec![0; BUCKETS], 0, 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
