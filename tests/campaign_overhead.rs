//! The campaign engine's overhead contract: the engine (thread spawn,
//! chunked claiming, per-worker stats, the index-order merge) stays
//! within a loose budget of a bare best-of-N loop over the same
//! CPU-bound work. Worker-count determinism of the merged results is
//! pinned by `campaign_determinism` and the engine's own unit tests.

use hierbus_campaign::{CampaignOptions, Matrix};
use std::time::{Duration, Instant};

const SCENARIOS: usize = 64;
const REPS: usize = 5;
/// Engine wall vs bare loop: generous multiplier + absolute slack, so
/// scheduler noise on a loaded CI runner cannot fail the gate, while
/// per-scenario engine work that rivals the scenario itself still
/// would.
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

fn best_of(mut f: impl FnMut() -> Duration) -> Duration {
    (0..REPS).map(|_| f()).min().expect("REPS >= 1")
}

#[test]
fn engine_stays_within_the_overhead_budget() {
    // Bare baseline: the same churn over the same indices, no engine.
    let bare = best_of(|| {
        let t = Instant::now();
        for i in 0..SCENARIOS {
            std::hint::black_box(churn(i as u64));
        }
        t.elapsed()
    });
    // The engine on one worker over the same work.
    let engine = best_of(|| {
        let Ok(report) = hierbus_campaign::run_with(
            &matrix(),
            &CampaignOptions::sequential("campaign_overhead"),
            || (),
            |(), point| churn(point.index as u64),
        );
        report.stats.wall
    });
    let budget = bare.mul_f64(BUDGET_FACTOR) + BUDGET_SLACK;
    println!(
        "engine overhead: bare loop {bare:.2?}, engine {engine:.2?} \
         (budget {budget:.2?})"
    );
    assert!(
        engine <= budget,
        "engine run took {engine:.2?}, budget {budget:.2?} \
         (bare loop {bare:.2?})"
    );
}
