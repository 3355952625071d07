//! Experiment harness: shared plumbing for the binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §5 and
//! EXPERIMENTS.md for the index).
//!
//! Each experiment is a binary under `src/bin/` printing the same rows or
//! series the paper reports; wall-clock costs are measured end to end
//! by the `wfqbench` harness. This library holds what the binaries
//! share: table rendering, deterministic workloads, and common
//! constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tagsort::{PacketRef, Tag};

/// Random-but-reproducible tag workload: `n` (tag, payload) pairs over a
/// `2^tag_bits` space, xorshift-generated from `seed`.
pub fn tag_workload(n: usize, tag_bits: u32, seed: u64) -> Vec<(Tag, PacketRef)> {
    let mut state = seed | 1;
    let mask = (1u64 << tag_bits) - 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (Tag((state & mask) as u32), PacketRef(i as u32))
        })
        .collect()
}

/// A monotone-window workload mimicking WFQ tag arrivals: tags drift
/// upward with bounded spread, like the Fig. 6 distribution.
pub fn drifting_workload(n: usize, tag_bits: u32, spread: u32, seed: u64) -> Vec<(Tag, PacketRef)> {
    let mut state = seed | 1;
    let space = 1u64 << tag_bits;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let base = (i as u64 * (space - u64::from(spread))) / n as u64;
            let tag = base + (state % u64::from(spread));
            (Tag((tag % space) as u32), PacketRef(i as u32))
        })
        .collect()
}

/// Renders an aligned ASCII table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with engineering-style precision.
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x.abs() >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x.abs() >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders a horizontal ASCII bar chart (for figure-shaped outputs).
pub fn print_bars(title: &str, series: &[(String, f64)], unit: &str) {
    println!("\n== {title} ==");
    let max = series.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in series {
        let bar_len = if max > 0.0 {
            ((value / max) * 50.0).round() as usize
        } else {
            0
        };
        println!(
            "{:<label_w$}  {:>10}  {}",
            label,
            format!("{} {unit}", eng(*value)),
            "#".repeat(bar_len.max(1)),
        );
    }
}

/// Renders a flat JSON object of numeric metrics, keys in the given
/// order. The machine-readable face of a bench run: CI commits one of
/// these as a baseline and [`parse_json_numbers`] reads both sides back
/// for the regression gate.
pub fn json_object(pairs: &[(String, f64)]) -> String {
    let mut s = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        assert!(
            k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric key {k:?} must be a [A-Za-z0-9_] slug"
        );
        assert!(v.is_finite(), "metric {k} is not finite");
        s.push_str(&format!("  \"{k}\": {v}"));
        s.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    s.push_str("}\n");
    s
}

/// Parses the flat `{"key": number, ...}` objects [`json_object`] emits
/// (whitespace-insensitive; no nesting, no string values).
///
/// Returns `None` if the text is not such an object.
pub fn parse_json_numbers(text: &str) -> Option<Vec<(String, f64)>> {
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

    #[test]
    fn json_round_trips() {
        let pairs = vec![
            ("mpps_1_port".to_string(), 35.8),
            ("speedup_ports_4".to_string(), 4.0),
        ];
        let text = json_object(&pairs);
        assert_eq!(parse_json_numbers(&text), Some(pairs));
        assert_eq!(parse_json_numbers("{}"), Some(vec![]));
        assert_eq!(parse_json_numbers("not json"), None);
        assert_eq!(parse_json_numbers("{\"a\": \"str\"}"), None);
    }

    #[test]
    #[should_panic(expected = "slug")]
    fn json_rejects_non_slug_keys() {
        let _ = json_object(&[("bad key".to_string(), 1.0)]);
    }

    #[test]
    fn workloads_are_deterministic_and_in_range() {
        let a = tag_workload(100, 12, 42);
        let b = tag_workload(100, 12, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|(t, _)| t.value() < 4096));
        let c = drifting_workload(100, 12, 256, 42);
        assert!(c.iter().all(|(t, _)| t.value() < 4096));
    }

    #[test]
    fn drifting_workload_drifts() {
        let w = drifting_workload(1000, 12, 128, 7);
        let first_quarter_max = w[..250].iter().map(|(t, _)| t.value()).max().unwrap();
        let last_quarter_min = w[750..].iter().map(|(t, _)| t.value()).min().unwrap();
        assert!(
            last_quarter_min > first_quarter_max,
            "{last_quarter_min} vs {first_quarter_max}"
        );
    }

    #[test]
    fn eng_formats() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1234.0), "1.23k");
        assert_eq!(eng(35_800_000.0), "35.80M");
        assert_eq!(eng(40.1e9), "40.10G");
        assert_eq!(eng(0.25), "0.2500");
    }
}
