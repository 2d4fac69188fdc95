//! A parallel, deterministic simulation-campaign engine.
//!
//! The paper's point is that fast bus models enable design-space
//! exploration (§4.3's Java Card HW/SW sweep) — and exploration-scale
//! work is a *batch* of independent simulations. This crate is the
//! execution layer under every experiment binary:
//!
//! * [`Matrix`] — the scenario matrix: a cartesian product of named
//!   axes (workload × interface × model ...), enumerated in a fixed
//!   row-major order that assigns every scenario a stable index.
//! * [`run`] — the executor: a sharded `std::thread` worker pool where
//!   each worker builds its own simulator per scenario and pulls work
//!   from an atomic cursor; results merge in scenario-index order, so
//!   the merged output is byte-identical for any worker count.
//! * [`measure_scaling`] — the throughput trajectory (scenarios/s per
//!   worker count, busy fractions from [`CampaignStats`]), written by
//!   the `campaign_scaling` bin into the campaign rows of
//!   `BENCH_throughput.json`.
//!
//! The [`json`] module is the workspace's hand-rolled JSON (it is
//! offline — no serde); the crate has no dependencies.
//!
//! Determinism contract: the engine adds no nondeterminism of its own
//! to merged results (no wall clock, no iteration-order dependence). A
//! campaign is a function of its matrix and exactly as deterministic as
//! its runner; wall-clock diagnostics live only in [`CampaignStats`].

pub mod engine;
pub mod fingerprint;
pub mod json;
pub mod matrix;

pub use engine::{
    measure_scaling, run, run_with, run_with_sink, CampaignOptions, CampaignPayload,
    CampaignReport, CampaignStats, ScalingPoint, SinkScope, WorkerStats, SCALING_REPS,
};
pub use fingerprint::Fingerprint;
pub use json::Json;
pub use matrix::{Matrix, ScenarioPoint};

/// Resolves the worker count for experiment binaries: an explicit
/// request wins, else the `CAMPAIGN_WORKERS` environment variable,
/// else 1 (sequential — the golden-output-preserving default).
///
/// # Panics
///
/// Panics if `CAMPAIGN_WORKERS` is set but not a non-negative integer,
/// so a typo cannot silently run a campaign sequentially.
pub fn worker_count(explicit: Option<usize>) -> usize {
    let env = std::env::var("CAMPAIGN_WORKERS").ok();
    resolve_workers(explicit, env.as_deref())
}

/// [`worker_count`] with the environment value passed in: `explicit`
/// wins, else `env` parsed, else 1; 0 clamps to 1.
fn resolve_workers(explicit: Option<usize>, env: Option<&str>) -> usize {
    explicit
        .or_else(|| {
            env.map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("CAMPAIGN_WORKERS={v:?} is not a worker count"))
            })
        })
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_prefers_explicit() {
        assert_eq!(worker_count(Some(4)), 4);
        assert_eq!(worker_count(Some(0)), 1);
    }

    #[test]
    fn campaign_workers_parses_or_falls_back_to_one() {
        assert_eq!(resolve_workers(None, None), 1);
        assert_eq!(resolve_workers(None, Some("2")), 2);
        assert_eq!(resolve_workers(None, Some("0")), 1);
        assert_eq!(resolve_workers(Some(3), Some("2")), 3);
    }

    #[test]
    #[should_panic(expected = "CAMPAIGN_WORKERS=\"two\" is not a worker count")]
    fn unparsable_campaign_workers_is_rejected() {
        resolve_workers(None, Some("two"));
    }
}
