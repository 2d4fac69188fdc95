//! The two contracts the campaign pool profiler must keep:
//!
//! 1. **Overhead** — with profiling *off* (the default), the
//!    instrumented engine stays within a loose budget of a bare
//!    best-of-N loop over the same CPU-bound work. A disabled
//!    [`Profiler`](hierbus_obs::Profiler) reduces every probe to one
//!    branch with no clock read, so the engine's fixed costs (thread
//!    spawn, claiming, stats) dominate whatever remains.
//! 2. **Determinism** — profiling is diagnostics only: turning it on
//!    must never change the merged results, at any worker count, and
//!    the profile must be present iff it was requested.

use hierbus_campaign::{CampaignOptions, CampaignReport, Matrix};
use std::time::{Duration, Instant};

const SCENARIOS: usize = 64;
const REPS: usize = 5;
/// Engine wall vs bare loop: generous multiplier + absolute slack, so
/// scheduler noise on a loaded CI runner cannot fail the gate, while a
/// profiler that reads clocks when disabled (≈2 syscalls × 6 phases ×
/// 64 scenarios) still would.
const BUDGET_FACTOR: f64 = 1.5;
const BUDGET_SLACK: Duration = Duration::from_millis(25);

/// A deterministic CPU-bound unit of work (an LCG churn), heavy enough
/// that per-scenario engine overhead is a small fraction of it.
fn churn(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..400_000u32 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

fn matrix() -> Matrix {
    Matrix::new().axis("seed", (0..SCENARIOS).map(|i| i.to_string()))
}

fn run(workers: usize, profile: bool) -> CampaignReport<u64> {
    let opts = CampaignOptions {
        profile,
        ..CampaignOptions::with_workers("profiling_overhead", workers)
    };
    let Ok(report) = hierbus_campaign::run_with(
        &matrix(),
        &opts,
        || (),
        |(), point| churn(point.index as u64),
    );
    report
}

/// The merged results in comparison form: scenario index + payload, in
/// matrix order.
fn rendered(report: &CampaignReport<u64>) -> String {
    report
        .completed()
        .map(|(p, r)| format!("{} {:?}\n", p.index, r))
        .collect()
}

fn best_of(mut f: impl FnMut() -> Duration) -> Duration {
    (0..REPS).map(|_| f()).min().expect("REPS >= 1")
}

#[test]
fn disabled_profiler_stays_within_the_overhead_budget() {
    // Bare baseline: the same churn over the same indices, no engine.
    let bare = best_of(|| {
        let t = Instant::now();
        for i in 0..SCENARIOS {
            std::hint::black_box(churn(i as u64));
        }
        t.elapsed()
    });
    // Instrumented engine, profiler disabled (the default path every
    // campaign takes).
    let engine = best_of(|| run(1, false).stats.wall);
    let budget = bare.mul_f64(BUDGET_FACTOR) + BUDGET_SLACK;
    println!(
        "profiler-off overhead: bare loop {bare:.2?}, engine {engine:.2?} \
         (budget {budget:.2?})"
    );
    assert!(
        engine <= budget,
        "disabled-profiler engine run took {engine:.2?}, budget {budget:.2?} \
         (bare loop {bare:.2?})"
    );
}

#[test]
fn profiling_never_changes_the_merged_results() {
    let mut renders = Vec::new();
    for workers in [1, 2, 4] {
        let plain = run(workers, false);
        let profiled = run(workers, true);
        assert!(
            plain.profile.is_none(),
            "{workers} workers: profile attached without being requested"
        );
        let profile = profiled
            .profile
            .as_ref()
            .unwrap_or_else(|| panic!("{workers} workers: requested profile missing"));
        assert_eq!(
            rendered(&plain),
            rendered(&profiled),
            "{workers} workers: profiling changed the merged results"
        );
        assert_eq!(profile.workers.len(), workers);
        // The simulate records across the pool cover exactly the
        // executed scenarios — no scenario is missed or double-timed.
        let simulated: usize = profile
            .workers
            .iter()
            .map(|w| {
                w.records
                    .iter()
                    .filter(|r| r.phase == hierbus_obs::PoolPhase::Simulate)
                    .count()
            })
            .sum();
        assert_eq!(simulated, SCENARIOS);
        renders.push(rendered(&profiled));
    }
    // Byte-identical merged results across 1/2/4 workers, profiled.
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[0], renders[2]);
}

#[test]
fn profiled_run_exports_distinguishable_worker_tracks() {
    let report = run(2, true);
    let profile = report.profile.expect("requested profile missing");
    let trace = profile.to_perfetto();
    for track in ["\"worker 0\"", "\"worker 1\"", "\"engine\""] {
        assert!(trace.contains(track), "trace missing {track} track");
    }
    for phase in ["\"claim\"", "\"simulate\"", "\"serialize\"", "\"merge\""] {
        assert!(trace.contains(phase), "trace missing {phase} events");
    }
}
