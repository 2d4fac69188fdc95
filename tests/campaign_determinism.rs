//! Campaign-engine determinism across the real exploration stack: the
//! merged results and the manifest must be byte-identical for any
//! worker count, and a resumed campaign must skip completed scenarios
//! without changing the final output.

use hierbus_campaign::{CampaignOptions, CampaignPayload, Matrix, ScenarioPoint};
use hierbus_jcvm::workloads::standard_workloads;
use hierbus_jcvm::{
    explore_campaign, explore_matrix, run_config, ExplorationRow, ExploreSession, IfaceConfig,
};
use hierbus_obs::profiling::PoolPhase;
use hierbus_power::CharacterizationDb;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BASE: u64 = 0x8000;

fn test_configs() -> Vec<IfaceConfig> {
    vec![
        IfaceConfig::baseline(BASE),
        IfaceConfig {
            slow_window: true,
            ..IfaceConfig::baseline(BASE)
        },
        IfaceConfig::with_bursts(BASE),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hierbus_campaign_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A byte-exact rendering of the merged rows (Debug includes every
/// field, including the f64 energy, at full precision).
fn render(rows: &[ExplorationRow]) -> String {
    rows.iter().map(|r| format!("{r:?}\n")).collect()
}

/// The raw manifest bytes: they must stay byte-identical across worker
/// counts and resume paths.
fn manifest_bytes(path: &PathBuf) -> String {
    std::fs::read_to_string(path).expect("manifest written")
}

#[test]
fn merged_results_and_manifest_identical_for_1_2_4_8_workers() {
    let db = Arc::new(CharacterizationDb::uniform());
    let configs = test_configs();
    let workloads = &standard_workloads()[..2];
    let dir = temp_dir("workers");

    let mut outputs: Vec<(String, String)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let manifest = dir.join(format!("w{workers}.manifest.json"));
        let opts = CampaignOptions {
            manifest_path: Some(manifest.clone()),
            ..CampaignOptions::with_workers("determinism", workers)
        };
        let (rows, stats) = explore_campaign(&configs, workloads, &db, &opts).unwrap();
        assert_eq!(stats.executed, configs.len() * workloads.len());
        assert_eq!(stats.workers, workers.min(stats.total));
        outputs.push((render(&rows), manifest_bytes(&manifest)));
    }
    let (base_rows, base_manifest) = &outputs[0];
    for (rows, manifest) in &outputs[1..] {
        assert_eq!(rows, base_rows, "merged rows differ across worker counts");
        assert_eq!(
            manifest, base_manifest,
            "manifests differ across worker counts"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_campaign_resumes_without_recomputing() {
    let db = Arc::new(CharacterizationDb::uniform());
    let configs = test_configs();
    let all_workloads = standard_workloads();
    let workloads = &all_workloads[..2];
    let matrix = explore_matrix(&configs, workloads);
    let total = matrix.len();
    let dir = temp_dir("resume");
    let manifest = dir.join("explore.manifest.json");

    let executions = AtomicUsize::new(0);
    let runner = |point: &ScenarioPoint| {
        executions.fetch_add(1, Ordering::Relaxed);
        run_config(configs[point.coords[0]], &workloads[point.coords[1]], &db).unwrap()
    };

    // "Interrupted" run: stop after 3 of the scenarios.
    let interrupted = hierbus_campaign::run(
        &matrix,
        &CampaignOptions {
            manifest_path: Some(manifest.clone()),
            limit: Some(3),
            ..CampaignOptions::with_workers("resume", 2)
        },
        runner,
    )
    .unwrap();
    assert_eq!(interrupted.stats.executed, 3);
    assert!(!interrupted.is_complete());
    assert_eq!(executions.load(Ordering::Relaxed), 3);

    // Resume: only the remaining scenarios execute.
    let resumed = hierbus_campaign::run(
        &matrix,
        &CampaignOptions {
            manifest_path: Some(manifest.clone()),
            ..CampaignOptions::with_workers("resume", 2)
        },
        runner,
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats.resumed, 3);
    assert_eq!(resumed.stats.executed, total - 3);
    assert_eq!(
        executions.load(Ordering::Relaxed),
        total,
        "no recomputation"
    );

    // The resumed output equals a fresh uninterrupted run, manifest
    // included.
    let fresh_manifest = dir.join("fresh.manifest.json");
    let (fresh_rows, _) = explore_campaign(
        &configs,
        workloads,
        &db,
        &CampaignOptions {
            manifest_path: Some(fresh_manifest.clone()),
            ..CampaignOptions::sequential("resume")
        },
    )
    .unwrap();
    let resumed_rows: Vec<ExplorationRow> =
        resumed.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(render(&resumed_rows), render(&fresh_rows));
    assert_eq!(manifest_bytes(&manifest), manifest_bytes(&fresh_manifest));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunked_claims_produce_identical_output_at_every_worker_count() {
    // Chunked claiming with reset-reused sessions must be byte-identical
    // at every worker count. 24 scenarios claim chunks of 6, 3, 1 and 1
    // at 1, 2, 4 and 8 workers, so the merge is pinned both with
    // multi-scenario chunks and with one scenario per claim.
    let db = Arc::new(CharacterizationDb::uniform());
    let mut configs = IfaceConfig::all_variants(BASE);
    configs.truncate(12);
    let workloads = &standard_workloads()[..2];
    let matrix = explore_matrix(&configs, workloads);
    assert_eq!(matrix.len(), 24);

    // Rendered rows plus the largest chunk any worker claimed (from the
    // pool profile, which never changes the merged results).
    let run_at = |workers: usize| {
        let opts = CampaignOptions {
            profile: true,
            ..CampaignOptions::with_workers("claims", workers)
        };
        let report = hierbus_campaign::run_with(
            &matrix,
            &opts,
            || ExploreSession::new(&db),
            |session, point: &ScenarioPoint| {
                session
                    .run(configs[point.coords[0]], &workloads[point.coords[1]])
                    .unwrap()
            },
        )
        .unwrap();
        let largest_claim = report
            .profile
            .as_ref()
            .expect("profiling was requested")
            .workers
            .iter()
            .flat_map(|w| &w.records)
            .filter(|r| r.phase == PoolPhase::Claim)
            .map(|r| r.arg)
            .max();
        let rows: Vec<ExplorationRow> = report.results.into_iter().flatten().collect();
        (render(&rows), largest_claim)
    };

    let (baseline, _) = run_at(1);
    for (workers, chunk) in [(1usize, 6u64), (2, 3), (4, 1), (8, 1)] {
        let (rendered, largest_claim) = run_at(workers);
        assert_eq!(
            largest_claim,
            Some(chunk),
            "chunk size at {workers} workers"
        );
        assert_eq!(
            rendered, baseline,
            "output differs at {workers} workers (chunks of {chunk})"
        );
    }
}

#[test]
fn interrupted_chunked_campaign_resumes_byte_identically() {
    // Interrupt under chunked claiming, resume under chunked claiming
    // with a different worker count: no recomputation of completed
    // scenarios, and the final manifest equals a fresh sequential run's.
    let db = Arc::new(CharacterizationDb::uniform());
    let configs = test_configs();
    let all_workloads = standard_workloads();
    let workloads = &all_workloads[..2];
    let matrix = explore_matrix(&configs, workloads);
    let total = matrix.len();
    let dir = temp_dir("chunked_resume");
    let manifest = dir.join("chunked.manifest.json");

    let executions = AtomicUsize::new(0);
    let run_chunked = |workers: usize, limit: Option<usize>| {
        hierbus_campaign::run_with(
            &matrix,
            &CampaignOptions {
                manifest_path: Some(manifest.clone()),
                limit,
                ..CampaignOptions::with_workers("chunked_resume", workers)
            },
            || ExploreSession::new(&db),
            |session, point: &ScenarioPoint| {
                executions.fetch_add(1, Ordering::Relaxed);
                session
                    .run(configs[point.coords[0]], &workloads[point.coords[1]])
                    .unwrap()
            },
        )
        .unwrap()
    };

    let interrupted = run_chunked(4, Some(3));
    assert_eq!(interrupted.stats.executed, 3);
    assert!(!interrupted.is_complete());

    let resumed = run_chunked(2, None);
    assert!(resumed.is_complete());
    assert_eq!(resumed.stats.resumed, 3);
    assert_eq!(resumed.stats.executed, total - 3);
    assert_eq!(executions.load(Ordering::Relaxed), total, "no recompute");

    let fresh_manifest = dir.join("fresh.manifest.json");
    let (fresh_rows, _) = explore_campaign(
        &configs,
        workloads,
        &db,
        &CampaignOptions {
            manifest_path: Some(fresh_manifest.clone()),
            ..CampaignOptions::sequential("chunked_resume")
        },
    )
    .unwrap();
    let resumed_rows: Vec<ExplorationRow> =
        resumed.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(render(&resumed_rows), render(&fresh_rows));
    assert_eq!(manifest_bytes(&manifest), manifest_bytes(&fresh_manifest));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exploration_rows_roundtrip_the_manifest_payload() {
    let db = CharacterizationDb::uniform();
    let row = run_config(IfaceConfig::baseline(BASE), &standard_workloads()[0], &db).unwrap();
    let back = ExplorationRow::from_json(&row.to_json()).expect("payload parses");
    assert_eq!(back, row);
}

#[test]
fn campaign_metrics_snapshots_merge_deterministically() {
    // Per-scenario MetricsRegistry snapshots reduced in scenario-index
    // order: the concatenated CSV must not depend on the worker count.
    use hierbus_obs::MetricsRegistry;

    struct Snap(String);
    impl CampaignPayload for Snap {
        fn to_json(&self) -> hierbus_campaign::Json {
            hierbus_campaign::Json::Str(self.0.clone())
        }
        fn from_json(json: &hierbus_campaign::Json) -> Option<Self> {
            json.as_str().map(|s| Snap(s.to_owned()))
        }
    }

    let matrix = Matrix::new().axis("scenario", (0..6).map(|i| i.to_string()));
    let run_at = |workers| {
        let report = hierbus_campaign::run(
            &matrix,
            &CampaignOptions::with_workers("metrics", workers),
            |point| {
                let mut reg = MetricsRegistry::new();
                let c = reg.counter("scenario.txns");
                reg.add(c, point.index as u64 * 7 + 1);
                Snap(reg.to_csv())
            },
        )
        .unwrap();
        report
            .completed()
            .map(|(p, s)| format!("## {}\n{}", p.key, s.0))
            .collect::<String>()
    };
    let sequential = run_at(1);
    assert_eq!(run_at(4), sequential);
}
