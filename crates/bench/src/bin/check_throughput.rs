//! Schema gate for `BENCH_throughput.json` — part of the `ci.sh`
//! staleness checks.
//!
//! The throughput trajectory is only useful for regression tracking if
//! every revision writes the same shape, so this binary verifies the
//! committed file parses and carries the fields the scaling analysis
//! depends on. The `campaign_explore` section (written by
//! `campaign_scaling`) must list per-worker entries with `workers`,
//! `scenarios_per_s`, `scaling` (throughput vs the 1-worker point), the
//! `busy_frac` and `utilization` fractions from the engine's
//! `CampaignStats` (numeric and in `[0, 1]`) and `idle_workers` (a
//! whole worker count); [`hierbus_bench::check_campaign`] checks it,
//! the same validator `campaign_scaling --smoke` runs in-process. The
//! `layers` section must carry the Table 3 kT/s numbers and is gated on
//! `tlm1_hotpath_speedup` — the production layer-1 path must be at
//! least as fast as the bit-loop reference it replaced, measured in the
//! same run. The `serve` section (written by `serve_bench`) must list
//! per-worker cold/warm request latencies with the warm one strictly
//! below the cold one — the daemon's result cache earning its keep.
//! Exits non-zero with a description of the first violation.
//!
//! Run with `cargo run --release -p hierbus-bench --bin check_throughput`.

use hierbus_campaign::Json;
use std::process::ExitCode;

const LAYER_FIELDS: &[&str] = &[
    "tlm1_with_kts",
    "tlm1_with_reference_kts",
    "tlm1_hotpath_speedup",
    "tlm1_without_kts",
    "tlm1_observed_kts",
    "tlm2_with_kts",
    "tlm2_without_kts",
    "tlm3_kts",
];

/// The production layer-1 path (`tlm1_with_kts`) must be at least as
/// fast as the bit-loop reference (`tlm1_with_reference_kts`) in the
/// same `table3_simperf` run.
const MIN_HOTPATH_SPEEDUP: f64 = 1.0;

/// Per-worker fields of the daemon's steady-state serving section.
const SERVE_FIELDS: &[&str] = &[
    "workers",
    "cold_ms",
    "warm_ms",
    "warm_telemetry_ms",
    "warm_speedup",
    "requests_per_s",
];

/// Relative headroom the telemetry-armed warm latency gets over the
/// plain one: the plane must stay within 2% of the request path.
const TELEMETRY_OVERHEAD_FRAC: f64 = 0.02;

/// Absolute timer-noise allowance (ms) on top of the relative bound —
/// best-of-N warm latencies are single-digit milliseconds, where 2%
/// is within scheduler jitter.
const TELEMETRY_SLACK_MS: f64 = 0.25;

fn check(root: &Json) -> Result<(), String> {
    let layers = root
        .get("layers")
        .ok_or("missing section: layers".to_owned())?;
    for field in LAYER_FIELDS {
        layers
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("layers: missing or non-numeric field {field}"))?;
    }
    let speedup = layers
        .get("tlm1_hotpath_speedup")
        .unwrap()
        .as_f64()
        .unwrap();
    if speedup < MIN_HOTPATH_SPEEDUP {
        return Err(format!(
            "layers: tlm1_hotpath_speedup {speedup:.2} below the {MIN_HOTPATH_SPEEDUP:.1}x floor \
             (tlm1_with_kts vs tlm1_with_reference_kts, same run)"
        ));
    }
    hierbus_bench::check_campaign(root)?;
    check_serve(root)
}

/// The daemon's steady-state serving section: per-worker cold/warm
/// request latency and sustained request throughput, written by
/// `serve_bench`. Warm requests replay from the content-addressed
/// cache, so a warm latency at or above the cold one means the cache
/// stopped doing its job — gate on it.
fn check_serve(root: &Json) -> Result<(), String> {
    let serve = root
        .get("serve")
        .ok_or("missing section: serve".to_owned())?;
    serve
        .get("scenarios_per_request")
        .and_then(Json::as_u64)
        .ok_or("serve: missing scenarios_per_request")?;
    let workers = serve
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or("serve: missing workers array".to_owned())?;
    if workers.is_empty() {
        return Err("serve: empty workers array".to_owned());
    }
    for (i, entry) in workers.iter().enumerate() {
        for field in SERVE_FIELDS {
            entry.get(field).and_then(Json::as_f64).ok_or(format!(
                "serve: workers[{i}] missing or non-numeric field {field}"
            ))?;
        }
        let cold = entry.get("cold_ms").unwrap().as_f64().unwrap();
        let warm = entry.get("warm_ms").unwrap().as_f64().unwrap();
        if warm >= cold {
            return Err(format!(
                "serve: workers[{i}] warm latency {warm} ms is not below cold {cold} ms \
                 — the result cache is not paying off"
            ));
        }
        let warm_telemetry = entry.get("warm_telemetry_ms").unwrap().as_f64().unwrap();
        let bound = warm * (1.0 + TELEMETRY_OVERHEAD_FRAC) + TELEMETRY_SLACK_MS;
        if warm_telemetry > bound {
            return Err(format!(
                "serve: workers[{i}] telemetry-armed warm latency {warm_telemetry} ms exceeds \
                 {bound:.3} ms (plain warm {warm} ms + {:.0}% + {TELEMETRY_SLACK_MS} ms slack) \
                 — the telemetry plane is no longer near-free on the request path",
                TELEMETRY_OVERHEAD_FRAC * 100.0
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = hierbus_bench::throughput_json_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_throughput: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let root = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!(
                "check_throughput: {} is not valid JSON: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    match check(&root) {
        Ok(()) => {
            println!("check_throughput: {} schema OK", path.display());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("check_throughput: {}: {msg}", path.display());
            eprintln!("regenerate with the bench bins (see README \"Benchmarking\")");
            ExitCode::FAILURE
        }
    }
}
