//! Campaign specification: the grid axes, the shared workload knobs,
//! and the line-oriented spec language the `--campaign` front-ends
//! parse.
//!
//! A spec file is `key = value` lines; `#` starts a comment. Axis keys
//! (`flows`, `policies`, `backends`, `admissions`, `faults`,
//! `frontends`) take comma-separated lists and multiply into the grid;
//! every other key is a scalar shared by all cells (sharded cells
//! read the `ports` and `placement` scalars). The scalar keys are
//! `ports`, `placement`, `packets`, `seed`, `zipf`, `rate_bps`, `load`,
//! `min_bytes`, `max_bytes`, `capacity`, `geometry` (`BITSxLEVELS`, at
//! most 30 tag bits), `churn` (`START_S:DURATION_S:CROWD_FLOWS:BOOST`
//! or `none`), `scrub_order` and `fault_policy`; an unset key keeps the
//! `smoke` value. Two specs are built in — `smoke` (a small
//! cross-product fast enough for per-commit CI) and `soak` (one
//! 2²⁰-flow, 10 M-packet churn cell) — and resolve by name before any
//! file path.

use std::fmt;
use std::str::FromStr;

use fairq::AnyPolicy;
use faultsim::{FaultPolicy, FaultSpec, ScrubOrder};
use scheduler::{AdmissionPolicy, Placement};
use tagsort::Geometry;
use traffic::ChurnSpec;

/// Which scheduler frontend a cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// One [`scheduler::HwScheduler`] serving one egress link.
    #[default]
    Single,
    /// [`scheduler::ShardedScheduler`] — one scheduler per port.
    Sharded,
}

impl Frontend {
    /// Stable lowercase name (spec syntax and metric-key suffix).
    pub fn name(self) -> &'static str {
        match self {
            Self::Single => "single",
            Self::Sharded => "sharded",
        }
    }
}

impl fmt::Display for Frontend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Frontend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "single" => Ok(Self::Single),
            "sharded" => Ok(Self::Sharded),
            other => Err(format!(
                "unknown frontend \"{other}\" (expected single or sharded)"
            )),
        }
    }
}

/// One point of the campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Flow population size.
    pub flows: u32,
    /// Rank policy name (see [`fairq::AnyPolicy::NAMES`]).
    pub policy: String,
    /// Sorting backend name (`trie`, `fastpath`, or `heap`).
    pub backend: String,
    /// Full-buffer behavior.
    pub admission: AdmissionPolicy,
    /// Fault campaign spec string, or `"none"` for a fault-free cell.
    pub fault: String,
    /// Which scheduler frontend drives the cell.
    pub frontend: Frontend,
}

impl Cell {
    /// The cell's metric-key slug: `f{flows}_{policy}_{backend}_
    /// {admission}_{fault}` with every non-alphanumeric character
    /// folded to `_` (and `+` spelled `plus`), so the key satisfies the
    /// bench JSON emitter's `[A-Za-z0-9_]` constraint. Multi-port
    /// frontends append `__{frontend}`; the default single frontend
    /// appends nothing, so pre-existing baselines keep their keys.
    pub fn key(&self) -> String {
        let mut key = format!("f{}", self.flows);
        for part in [
            self.policy.as_str(),
            self.backend.as_str(),
            &self.admission.to_string(),
            self.fault.as_str(),
        ] {
            key.push('_');
            for c in part.chars() {
                if c.is_ascii_alphanumeric() {
                    key.push(c);
                } else if c == '+' {
                    key.push_str("plus");
                } else {
                    key.push('_');
                }
            }
        }
        if self.frontend != Frontend::Single {
            key.push('_');
            key.push('_');
            key.push_str(self.frontend.name());
        }
        key
    }
}

/// A full campaign: the grid axes plus the workload and scheduler knobs
/// shared by every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (builtin name or `file:`-prefixed path stem).
    pub name: String,
    /// Flow-population axis.
    pub flows: Vec<u32>,
    /// Rank-policy axis ([`fairq::AnyPolicy`] names).
    pub policies: Vec<String>,
    /// Backend axis (`trie`, `fastpath`, `heap`).
    pub backends: Vec<String>,
    /// Admission axis.
    pub admissions: Vec<AdmissionPolicy>,
    /// Fault axis: `"none"` or `COUNT@SEED[:COMPONENT[:BITS]]` specs.
    pub faults: Vec<String>,
    /// Frontend axis (single, sharded).
    pub frontends: Vec<Frontend>,
    /// Output-port count for the multi-port frontend (ignored by
    /// `single`).
    pub ports: usize,
    /// Flow placement for the multi-port frontend: `hash` is the
    /// static affinity map, `dynamic` arms the rebalancer (ignored by
    /// `single`).
    pub placement: Placement,
    /// Packets per cell.
    pub packets: u64,
    /// Workload seed (cells share it, so axes — not noise — explain
    /// differences between cells).
    pub seed: u64,
    /// Zipf popularity exponent.
    pub zipf_exponent: f64,
    /// Offered aggregate rate in bits per second.
    pub rate_bps: f64,
    /// Offered load as a fraction of the service rate; the link serves
    /// at `rate_bps / load`, so `load < 1` keeps the queue stable.
    pub load: f64,
    /// Smallest packet in bytes.
    pub min_bytes: u32,
    /// Largest packet in bytes.
    pub max_bytes: u32,
    /// Buffer/sorter capacity in packets.
    pub capacity: usize,
    /// Sort-tree geometry.
    pub geometry: Geometry,
    /// Optional flash-crowd churn window.
    pub churn: Option<ChurnSpec>,
    /// Scrub schedule for faulted cells.
    pub scrub_order: ScrubOrder,
    /// Response policy for faulted cells.
    pub fault_policy: FaultPolicy,
}

impl CampaignSpec {
    /// The built-in campaign named `name`, if any.
    ///
    /// * `smoke` — a 2×2×2 grid (flows × policy × backend) of 20 k-packet
    ///   cells: the per-commit determinism and backend-agreement gate.
    /// * `soak` — one 2²⁰-flow, 10 M-packet cell with a flash crowd:
    ///   the memory-scaling gate.
    pub fn builtin(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self {
                name: "smoke".into(),
                flows: vec![512, 4096],
                policies: vec!["wfq".into(), "stfq".into()],
                backends: vec!["trie".into(), "fastpath".into()],
                admissions: vec![AdmissionPolicy::TailDrop],
                faults: vec!["none".into()],
                frontends: vec![Frontend::Single],
                ports: 4,
                placement: Placement::Hash,
                packets: 20_000,
                seed: 7,
                zipf_exponent: 1.1,
                rate_bps: 1e9,
                load: 0.8,
                min_bytes: 64,
                max_bytes: 1500,
                capacity: 1 << 12,
                geometry: Geometry::new(4, 5),
                churn: None,
                scrub_order: ScrubOrder::RoundRobin,
                fault_policy: FaultPolicy::DetectAndCount,
            }),
            "soak" => Some(Self {
                name: "soak".into(),
                flows: vec![1 << 20],
                policies: vec!["wfq".into()],
                backends: vec!["trie".into()],
                admissions: vec![AdmissionPolicy::TailDrop],
                faults: vec!["none".into()],
                frontends: vec![Frontend::Single],
                ports: 4,
                placement: Placement::Hash,
                packets: 10_000_000,
                seed: 7,
                zipf_exponent: 1.05,
                rate_bps: 10e9,
                load: 0.8,
                min_bytes: 64,
                max_bytes: 1500,
                capacity: 1 << 14,
                geometry: Geometry::new(6, 4),
                churn: Some(ChurnSpec {
                    start_s: 2.0,
                    duration_s: 1.0,
                    crowd_flows: 100_000,
                    boost: 0.5,
                }),
                scrub_order: ScrubOrder::RoundRobin,
                fault_policy: FaultPolicy::DetectAndCount,
            }),
            _ => None,
        }
    }

    /// Parses a spec file (see the module docs for the grammar).
    /// Unset keys default to the `smoke` builtin's values.
    pub fn parse(name: &str, text: &str) -> Result<Self, String> {
        let mut spec = Self::builtin("smoke").expect("smoke is built in");
        spec.name = name.to_string();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let err = |e: String| format!("line {}: {key}: {e}", lineno + 1);
            match key {
                "flows" => spec.flows = parse_list(value).map_err(err)?,
                "policies" => {
                    spec.policies = value.split(',').map(|s| s.trim().to_string()).collect()
                }
                "backends" => {
                    spec.backends = value.split(',').map(|s| s.trim().to_string()).collect()
                }
                "admissions" => spec.admissions = parse_list(value).map_err(err)?,
                "faults" => spec.faults = value.split(',').map(|s| s.trim().to_string()).collect(),
                "frontends" => spec.frontends = parse_list(value).map_err(err)?,
                "ports" => spec.ports = parse_one(value).map_err(err)?,
                "placement" => spec.placement = parse_one(value).map_err(err)?,
                "packets" => spec.packets = parse_one(value).map_err(err)?,
                "seed" => spec.seed = parse_one(value).map_err(err)?,
                "zipf" => spec.zipf_exponent = parse_one(value).map_err(err)?,
                "rate_bps" => spec.rate_bps = parse_one(value).map_err(err)?,
                "load" => spec.load = parse_one(value).map_err(err)?,
                "min_bytes" => spec.min_bytes = parse_one(value).map_err(err)?,
                "max_bytes" => spec.max_bytes = parse_one(value).map_err(err)?,
                "capacity" => spec.capacity = parse_one(value).map_err(err)?,
                "geometry" => spec.geometry = parse_geometry(value).map_err(err)?,
                "churn" => spec.churn = parse_churn(value).map_err(err)?,
                "scrub_order" => spec.scrub_order = parse_one(value).map_err(err)?,
                "fault_policy" => spec.fault_policy = parse_one(value).map_err(err)?,
                other => return Err(format!("line {}: unknown key \"{other}\"", lineno + 1)),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Resolves `arg` to a campaign: a builtin name first, then a spec
    /// file path.
    pub fn resolve(arg: &str) -> Result<Self, String> {
        if let Some(spec) = Self::builtin(arg) {
            return Ok(spec);
        }
        let text = std::fs::read_to_string(arg)
            .map_err(|e| format!("{arg}: not a builtin campaign and not readable: {e}"))?;
        let spec = Self::parse(arg, &text).map_err(|e| format!("{arg}: {e}"))?;
        Ok(spec)
    }

    /// Checks axis values and scalar ranges; every builtin validates.
    pub fn validate(&self) -> Result<(), String> {
        for axis in [
            ("flows", self.flows.is_empty()),
            ("policies", self.policies.is_empty()),
            ("backends", self.backends.is_empty()),
            ("admissions", self.admissions.is_empty()),
            ("faults", self.faults.is_empty()),
            ("frontends", self.frontends.is_empty()),
        ] {
            if axis.1 {
                return Err(format!("axis {} must not be empty", axis.0));
            }
        }
        for p in &self.policies {
            if AnyPolicy::by_name(p).is_none() {
                return Err(format!(
                    "unknown policy \"{p}\" (expected one of {:?})",
                    AnyPolicy::NAMES
                ));
            }
        }
        for b in &self.backends {
            if !matches!(b.as_str(), "trie" | "fastpath" | "heap") {
                return Err(format!(
                    "unknown backend \"{b}\" (expected trie, fastpath, or heap)"
                ));
            }
        }
        for f in &self.faults {
            if f != "none" {
                FaultSpec::from_str(f).map_err(|e| format!("fault axis: {e}"))?;
            }
        }
        if self.packets == 0 {
            return Err("packets must be positive".into());
        }
        if !(self.load.is_finite() && self.load > 0.0 && self.load <= 1.0) {
            return Err("load must be in (0, 1]".into());
        }
        if !(self.rate_bps.is_finite() && self.rate_bps > 0.0) {
            return Err("rate_bps must be positive and finite".into());
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0) {
            return Err("zipf must be finite and >= 0".into());
        }
        if !(self.min_bytes > 0 && self.min_bytes <= self.max_bytes) {
            return Err("packet sizes must satisfy 0 < min_bytes <= max_bytes".into());
        }
        if let Some(c) = &self.churn {
            let sound = c.crowd_flows > 0
                && (0.0..=1.0).contains(&c.boost)
                && c.start_s.is_finite()
                && c.start_s >= 0.0
                && c.duration_s.is_finite()
                && c.duration_s > 0.0;
            if !sound {
                return Err("churn needs start >= 0, duration > 0, a non-empty crowd \
                            and a boost in [0, 1]"
                    .into());
            }
        }
        if self.capacity == 0 {
            return Err("capacity must be positive".into());
        }
        if self.ports == 0 {
            return Err("ports must be positive".into());
        }
        for &flows in &self.flows {
            if flows == 0 {
                return Err("flow populations must be positive".into());
            }
        }
        Ok(())
    }

    /// The grid, in deterministic sweep order (flows outermost,
    /// frontends innermost).
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &flows in &self.flows {
            for policy in &self.policies {
                for backend in &self.backends {
                    for &admission in &self.admissions {
                        for fault in &self.faults {
                            for &frontend in &self.frontends {
                                cells.push(Cell {
                                    flows,
                                    policy: policy.clone(),
                                    backend: backend.clone(),
                                    admission,
                                    fault: fault.clone(),
                                    frontend,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

fn parse_one<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

fn parse_list<T: FromStr>(value: &str) -> Result<Vec<T>, String>
where
    T::Err: fmt::Display,
{
    value.split(',').map(|s| parse_one(s.trim())).collect()
}

/// `LITERAL_BITSxLEVELS`, e.g. `4x5`.
fn parse_geometry(value: &str) -> Result<Geometry, String> {
    let (bits, levels) = value
        .split_once('x')
        .ok_or_else(|| "expected LITERAL_BITSxLEVELS (e.g. 4x5)".to_string())?;
    let bits: u32 = parse_one(bits.trim())?;
    let levels: u32 = parse_one(levels.trim())?;
    if !(1..=6).contains(&bits) || levels == 0 {
        return Err("literal bits must be 1..=6 and levels >= 1".into());
    }
    match bits.checked_mul(levels) {
        Some(tag_bits) if tag_bits <= 30 => Ok(Geometry::new(bits, levels)),
        _ => Err(format!("{bits}x{levels} exceeds the 30-bit tag width")),
    }
}

/// `none`, or `START_S:DURATION_S:CROWD_FLOWS:BOOST`.
fn parse_churn(value: &str) -> Result<Option<ChurnSpec>, String> {
    if value == "none" {
        return Ok(None);
    }
    let parts: Vec<&str> = value.split(':').collect();
    let [start, duration, crowd, boost] = parts.as_slice() else {
        return Err("expected START_S:DURATION_S:CROWD_FLOWS:BOOST or none".into());
    };
    Ok(Some(ChurnSpec {
        start_s: parse_one(start)?,
        duration_s: parse_one(duration)?,
        crowd_flows: parse_one(crowd)?,
        boost: parse_one(boost)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_validate_and_enumerate() {
        let smoke = CampaignSpec::builtin("smoke").unwrap();
        assert!(smoke.validate().is_ok());
        assert_eq!(smoke.cells().len(), 8);
        let soak = CampaignSpec::builtin("soak").unwrap();
        assert!(soak.validate().is_ok());
        assert_eq!(soak.cells().len(), 1);
        assert!(CampaignSpec::builtin("nope").is_none());
    }

    #[test]
    fn cell_keys_are_json_slugs() {
        let mut spec = CampaignSpec::builtin("smoke").unwrap();
        spec.policies = vec!["fifo+".into()];
        spec.admissions = vec![AdmissionPolicy::PushOut];
        spec.faults = vec!["8@7:any:1".into()];
        for cell in spec.cells() {
            let key = cell.key();
            assert!(
                key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad key {key:?}"
            );
            assert!(key.contains("fifoplus") && key.contains("push_out"));
        }
    }

    #[test]
    fn parse_round_trips_every_key() {
        let text = "
            # a comment
            flows = 64, 128
            policies = wfq, srpt
            backends = trie, heap
            admissions = tail-drop, push-out
            faults = none, 4@9:buffer:1
            packets = 500
            seed = 11
            zipf = 0.9       # inline comment
            rate_bps = 5e8
            load = 0.7
            min_bytes = 100
            max_bytes = 200
            capacity = 256
            geometry = 3x4
            churn = 0.1:0.2:32:0.5
            scrub_order = write-priority
            fault_policy = detect-and-count
            frontends = single, sharded
            ports = 8
            placement = dynamic
        ";
        let spec = CampaignSpec::parse("t", text).unwrap();
        assert_eq!(spec.flows, vec![64, 128]);
        assert_eq!(spec.policies, vec!["wfq", "srpt"]);
        assert_eq!(spec.frontends, vec![Frontend::Single, Frontend::Sharded]);
        assert_eq!(spec.ports, 8);
        assert_eq!(spec.placement, Placement::Dynamic);
        assert_eq!(spec.cells().len(), 2 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(spec.geometry, Geometry::new(3, 4));
        assert_eq!(spec.scrub_order, ScrubOrder::WritePriority);
        assert_eq!(
            spec.churn,
            Some(ChurnSpec {
                start_s: 0.1,
                duration_s: 0.2,
                crowd_flows: 32,
                boost: 0.5
            })
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(CampaignSpec::parse("t", "nonsense").is_err());
        assert!(CampaignSpec::parse("t", "wat = 1").is_err());
        assert!(CampaignSpec::parse("t", "policies = frob").is_err());
        assert!(CampaignSpec::parse("t", "backends = cuckoo").is_err());
        assert!(CampaignSpec::parse("t", "faults = 3@").is_err());
        assert!(CampaignSpec::parse("t", "load = 1.5").is_err());
        assert!(CampaignSpec::parse("t", "geometry = 9x1").is_err());
        assert!(CampaignSpec::parse("t", "mode = paged").is_err());
        assert!(CampaignSpec::parse("t", "frontends = mesh").is_err());
        assert!(CampaignSpec::parse("t", "frontends = parallel").is_err());
        let err = "parallel".parse::<Frontend>().unwrap_err();
        assert!(err.contains("expected single or sharded"), "{err}");
        assert!(CampaignSpec::parse("t", "placement = roulette").is_err());
        assert!(CampaignSpec::parse("t", "ports = 0").is_err());
    }

    #[test]
    fn parse_rejects_values_that_would_fail_at_run_time() {
        for text in [
            "geometry = 6x6",
            "geometry = 1x4294967295",
            "geometry = 6x715827883", // 6 × levels wraps u32 to 2
            "rate_bps = -1",
            "rate_bps = inf",
            "zipf = NaN",
            "zipf = -0.5",
            "min_bytes = 2000\nmax_bytes = 64",
            "min_bytes = 0",
            "churn = 0.1:0.2:0:0.5",
            "churn = 0.1:0.2:32:1.5",
            "churn = NaN:0.2:32:0.5",
            "churn = 0.1:0:32:0.5",
        ] {
            let err = CampaignSpec::parse("t", text);
            assert!(err.is_err(), "{text:?} accepted");
        }
        assert!(CampaignSpec::parse("t", "geometry = 6x5").is_ok());
    }

    /// Seeded fuzzing of [`CampaignSpec::parse`]: a valid spec with one
    /// or two lines given a hostile or mutated value (or a new key), and
    /// truncations of the result, must each come back `Ok` or `Err` —
    /// never a panic.
    #[test]
    fn parse_never_panics_on_mutated_specs() {
        const KEYS: [&str; 22] = [
            "flows",
            "policies",
            "backends",
            "admissions",
            "faults",
            "frontends",
            "ports",
            "placement",
            "packets",
            "seed",
            "zipf",
            "rate_bps",
            "load",
            "min_bytes",
            "max_bytes",
            "capacity",
            "geometry",
            "churn",
            "scrub_order",
            "fault_policy",
            "mode",
            "",
        ];
        const VALUES: [&str; 30] = [
            "",
            "0",
            "1",
            "-1",
            "7",
            "4294967295",
            "18446744073709551616",
            "1e400",
            "NaN",
            "inf",
            "-0.0",
            "0.5",
            "6x6",
            "1x4294967295",
            "4x5",
            "x",
            "0x0",
            "3x",
            ":",
            "1:2:3:4",
            "0:0:0:0",
            "none",
            "wfq, heap",
            "trie,,",
            "8@7:any:1",
            "3@",
            "99@1:trie:64",
            "tail-drop",
            "dynamic",
            "sharded, parallel",
        ];
        const VALID: [(&str, &str); 11] = [
            ("flows", "64, 128"),
            ("policies", "wfq"),
            ("backends", "trie, heap"),
            ("faults", "none, 4@9:buffer:1"),
            ("zipf", "0.9"),
            ("rate_bps", "5e8"),
            ("min_bytes", "100"),
            ("max_bytes", "200"),
            ("geometry", "3x4"),
            ("churn", "0.1:0.2:32:0.5"),
            ("ports", "8"),
        ];
        let mut state = 0x5eed_u64;
        let mut next = |n: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        for _ in 0..5_000 {
            let mut lines: Vec<(String, String)> = VALID
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            for _ in 0..1 + next(2) {
                let mut value = VALUES[next(VALUES.len())].to_string();
                if next(4) == 0 && !value.is_empty() {
                    // Overwrite one char with a printable ASCII one.
                    let at = next(value.len());
                    let c = (b' ' + next(95) as u8) as char;
                    value = value
                        .char_indices()
                        .map(|(i, ch)| if i == at { c } else { ch })
                        .collect();
                }
                let at = next(lines.len() + 1);
                if at == lines.len() {
                    lines.push((KEYS[next(KEYS.len())].to_string(), value));
                } else {
                    lines[at].1 = value;
                }
            }
            let text: String = lines
                .iter()
                .map(|(k, v)| {
                    let sep = if next(8) == 0 {
                        ["==", "", "=#"][next(3)]
                    } else {
                        " = "
                    };
                    format!("{k}{sep}{v}\n")
                })
                .collect();
            let _ = CampaignSpec::parse("fuzz", &text);
            let cut = next(text.len() + 1);
            let _ = CampaignSpec::parse("fuzz", &text[..cut]);
        }
    }

    #[test]
    fn frontend_suffix_leaves_single_keys_unchanged() {
        let mut spec = CampaignSpec::builtin("smoke").unwrap();
        let before: Vec<String> = spec.cells().iter().map(Cell::key).collect();
        spec.frontends = vec![Frontend::Single, Frontend::Sharded];
        let after: Vec<String> = spec.cells().iter().map(Cell::key).collect();
        assert_eq!(after.len(), before.len() * 2);
        // Every pre-axis key survives verbatim; the new cells append a
        // frontend suffix.
        for key in &before {
            assert!(after.contains(key), "missing {key}");
        }
        assert_eq!(
            after.iter().filter(|k| k.ends_with("__sharded")).count(),
            before.len()
        );
    }
}
