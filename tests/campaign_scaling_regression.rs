//! Regression test for the campaign engine's parallel scaling — the
//! test that would have caught the committed 0.84× 4-worker result.
//!
//! A synthetic campaign of cheap, CPU-bound scenarios must not *lose*
//! throughput when a second worker joins on a machine that actually has
//! two CPUs. The tolerance is deliberately loose (thread startup,
//! scheduler noise, shared caches); the old per-scenario claiming with
//! per-scenario rebuild regressed far below it.

use hierbus_campaign::{CampaignOptions, Matrix};

const SCENARIOS: usize = 64;
/// 2-worker throughput must be at least this fraction of 1-worker
/// throughput. Genuine parallel speedup shows up well above 1.0; this
/// gate only rejects *negative* scaling.
const TOLERANCE: f64 = 0.80;

/// A deterministic CPU-bound unit of work (an LCG churn), heavy enough
/// that claiming overhead is a small fraction of it.
fn churn(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..400_000u32 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

#[test]
fn two_workers_do_not_regress_scenarios_per_sec() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        println!(
            "skipping campaign scaling regression: only {cpus} CPU available \
             (parallel throughput is unmeasurable on this runner)"
        );
        return;
    }
    let matrix = Matrix::new().axis("seed", (0..SCENARIOS).map(|i| i.to_string()));
    let run_at = |workers: usize| {
        let Ok(report) = hierbus_campaign::run_with(
            &matrix,
            &CampaignOptions::with_workers("scaling_regression", workers),
            || (),
            |(), point| churn(point.index as u64),
        );
        report.stats.scenarios_per_sec()
    };
    // Warm-up pass so thread-pool and page-cache effects hit neither arm.
    let _ = run_at(1);
    let sps_1 = run_at(1);
    let sps_2 = run_at(2);
    let ratio = sps_2 / sps_1;
    println!(
        "campaign scaling: 1 worker {sps_1:.1} scen/s, 2 workers {sps_2:.1} scen/s \
         ({ratio:.2}x, tolerance {TOLERANCE:.2}x)"
    );
    assert!(
        ratio >= TOLERANCE,
        "2-worker throughput regressed: {sps_2:.1} scen/s vs {sps_1:.1} scen/s \
         ({ratio:.2}x < {TOLERANCE:.2}x tolerance)"
    );
}
