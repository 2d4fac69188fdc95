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
//! * [`Manifest`] — the resumable checkpoint: completed scenarios and
//!   their serialized results, written atomically, so an interrupted
//!   campaign reruns only what is missing.
//! * [`measure_scaling`] — the throughput trajectory (scenarios/s per
//!   worker count), profiled by the `scaling_audit` bin into both the
//!   campaign rows of `BENCH_throughput.json` and the scaling audit.
//!
//! The [`json`] module carries the manifest and trajectory formats
//! (the workspace is offline — no serde); the only dependency is the
//! workspace's own `hierbus-obs`, whose
//! [`profiling`](hierbus_obs::profiling) module backs the engine's
//! opt-in self-profiler ([`CampaignOptions::profile`]).
//!
//! Determinism contract: the engine adds no nondeterminism of its own
//! to merged artifacts (no wall clock in merged results or the
//! manifest's scenario entries, no iteration-order dependence). A
//! campaign is exactly as deterministic as its runner; wall-clock
//! diagnostics live only in [`CampaignStats`] and the opt-in
//! [`CampaignReport::profile`], so manifests compare byte for byte.

pub mod engine;
pub mod fingerprint;
pub mod json;
pub mod manifest;
pub mod matrix;

pub use engine::{
    measure_scaling, run, run_with, run_with_sink, CampaignOptions, CampaignPayload,
    CampaignReport, CampaignStats, ScalingPoint, SinkScope, WorkerStats, SCALING_REPS,
};
pub use fingerprint::Fingerprint;
pub use json::Json;
pub use manifest::{Manifest, ManifestEntry, MANIFEST_VERSION};
pub use matrix::{Axis, Matrix, ScenarioPoint};

/// Resolves the worker count for experiment binaries: an explicit
/// request wins, else the `CAMPAIGN_WORKERS` environment variable,
/// else 1 (sequential — the golden-output-preserving default).
pub fn worker_count(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("CAMPAIGN_WORKERS")
                .ok()
                .and_then(|v| v.parse().ok())
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
}
