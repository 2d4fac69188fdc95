//! Gate for `results/obs/scaling_audit.json` — part of the `ci.sh`
//! checks.
//!
//! The audit artifact is wall-clock based, so its *numbers* are not
//! regression-diffed — but its *shape* is load-bearing for anyone
//! scripting against it, and its arithmetic contract
//! (`serial + imbalance + contention + residual = loss` at every worker
//! count) is what makes the decomposition trustworthy. Both are checked
//! by [`hierbus_bench::check_scaling_audit`], the validator the
//! `scaling_audit` bin also runs on its own output.
//!
//! The committed audit and the `campaign_explore` section of
//! `BENCH_throughput.json` must come from one `scaling_audit` run: the
//! same scenario count and worker counts, and per worker count the same
//! `scenarios_per_s` and `busy_frac`. Exits non-zero naming the first
//! violation.
//!
//! Run with `cargo run --release -p hierbus-bench --bin
//! check_scaling_audit` after the `scaling_audit` binary has written
//! the artifacts.

use hierbus_campaign::Json;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

/// `(workers, scenarios_per_s, busy_frac)` of every entry of a
/// `workers` array.
fn rows(section: &Json, what: &str) -> Result<Vec<(u64, f64, f64)>, String> {
    let entries = section
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or(format!("{what}: missing workers array"))?;
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let num = |name| {
                e.get(name)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{what}: workers[{i}] missing {name}"))
            };
            Ok((
                num("workers")? as u64,
                num("scenarios_per_s")?,
                num("busy_frac")?,
            ))
        })
        .collect()
}

/// The audit and the BENCH `campaign_explore` rows describe one run.
fn check_same_run(audit: &Json, bench: &Json) -> Result<(), String> {
    let campaign = bench
        .get("campaign_explore")
        .ok_or("BENCH_throughput.json: missing section campaign_explore")?;
    let scenarios = |doc: &Json, what: &str| {
        doc.get("scenarios")
            .and_then(Json::as_u64)
            .ok_or(format!("{what}: missing scenarios count"))
    };
    let (a, b) = (
        scenarios(audit, "audit")?,
        scenarios(campaign, "campaign_explore")?,
    );
    if a != b {
        return Err(format!(
            "audit has {a} scenarios, campaign_explore {b}: not one run"
        ));
    }
    let (a, b) = (rows(audit, "audit")?, rows(campaign, "campaign_explore")?);
    let counts = |r: &[(u64, f64, f64)]| r.iter().map(|p| p.0).collect::<Vec<_>>();
    if counts(&a) != counts(&b) {
        return Err(format!(
            "audit worker counts {:?} differ from campaign_explore's {:?}: not one run",
            counts(&a),
            counts(&b)
        ));
    }
    for (x, y) in a.iter().zip(&b) {
        if x.1 != y.1 || x.2 != y.2 {
            return Err(format!(
                "{} workers: audit scenarios_per_s {} / busy_frac {} vs campaign_explore {} / {}: \
                 not one run",
                x.0, x.1, x.2, y.1, y.2
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let audit_path = Path::new("results/obs/scaling_audit.json");
    let result = load(audit_path).and_then(|audit| {
        hierbus_bench::check_scaling_audit(&audit)
            .map_err(|e| format!("{}: {e}", audit_path.display()))?;
        let bench = load(&hierbus_bench::throughput_json_path())?;
        check_same_run(&audit, &bench)
    });
    match result {
        Ok(()) => {
            println!(
                "check_scaling_audit: {} schema OK, one run with BENCH campaign_explore",
                audit_path.display()
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check_scaling_audit: {msg}");
            eprintln!("regenerate with: cargo run --release -p hierbus-bench --bin scaling_audit");
            ExitCode::FAILURE
        }
    }
}
