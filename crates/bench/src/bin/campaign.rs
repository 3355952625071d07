//! **Experiment E18 — campaign grid sweep:** run a [`campaign`] spec and
//! emit its deterministic report plus a flat JSON object for
//! `check_regression`.
//!
//! ```sh
//! cargo run --release --bin campaign             # the builtin smoke grid
//! cargo run --release --bin campaign -- soak     # the 2^20-flow soak cell
//! cargo run --release --bin campaign -- my.spec --json BENCH_campaign.json
//! ```
//!
//! The text report is byte-identical across runs and hosts (CI diffs two
//! invocations verbatim); the JSON carries per-cell served/dropped
//! counts, `ceil_`-prefixed fairness/sojourn/resident-memory tail
//! ceilings, and per fault-free cell the `agree` bit against the same
//! cell over the heap sorter.

use bench::json_object;
use campaign::{run, CampaignSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_campaign.json".into())
    });
    let name = args
        .iter()
        .position(|a| !a.starts_with("--"))
        .filter(|&i| i == 0 || args[i - 1] != "--json")
        .map_or("smoke", |i| args[i].as_str());

    let spec = match CampaignSpec::resolve(name) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let report = run(&spec);
    print!("{}", report.text);

    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&report.metrics)).expect("write json");
        println!("wrote {path}");
    }
}
