//! Campaign-engine determinism across the real exploration stack: the
//! merged results must be byte-identical for any worker count.

use hierbus_campaign::{CampaignOptions, CampaignPayload, Matrix, ScenarioPoint};
use hierbus_jcvm::workloads::standard_workloads;
use hierbus_jcvm::{explore_campaign, explore_matrix, ExplorationRow, ExploreSession, IfaceConfig};
use hierbus_obs::profiling::PoolPhase;
use hierbus_power::CharacterizationDb;
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

/// A byte-exact rendering of the merged rows (Debug includes every
/// field, including the f64 energy, at full precision).
fn render(rows: &[ExplorationRow]) -> String {
    rows.iter().map(|r| format!("{r:?}\n")).collect()
}

#[test]
fn merged_results_identical_for_1_2_4_8_workers() {
    let db = Arc::new(CharacterizationDb::uniform());
    let configs = test_configs();
    let workloads = &standard_workloads()[..2];

    let mut outputs = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let opts = CampaignOptions::with_workers("determinism", workers);
        let Ok((rows, stats)) = explore_campaign(&configs, workloads, &db, &opts);
        assert_eq!(rows.len(), configs.len() * workloads.len());
        assert_eq!(stats.workers, workers.min(stats.total));
        outputs.push(render(&rows));
    }
    for rows in &outputs[1..] {
        assert_eq!(rows, &outputs[0], "merged rows differ across worker counts");
    }
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
        let Ok(report) = hierbus_campaign::run_with(
            &matrix,
            &opts,
            || ExploreSession::new(&db),
            |session, point: &ScenarioPoint| {
                session
                    .run(configs[point.coords[0]], &workloads[point.coords[1]])
                    .unwrap()
            },
        );
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
fn exploration_rows_roundtrip_the_manifest_payload() {
    let db = CharacterizationDb::uniform();
    let row = ExploreSession::new(&db)
        .run(IfaceConfig::baseline(BASE), &standard_workloads()[0])
        .unwrap();
    let back = ExplorationRow::from_json(&row.to_json()).expect("payload parses");
    assert_eq!(back, row);
}

#[test]
fn campaign_metrics_snapshots_merge_deterministically() {
    // Per-scenario MetricsRegistry snapshots reduced in scenario-index
    // order: the concatenated CSV must not depend on the worker count.
    use hierbus_obs::MetricsRegistry;

    let matrix = Matrix::new().axis("scenario", (0..6).map(|i| i.to_string()));
    let run_at = |workers| {
        let Ok(report) = hierbus_campaign::run(
            &matrix,
            &CampaignOptions::with_workers("metrics", workers),
            |point| {
                let mut reg = MetricsRegistry::new();
                let c = reg.counter("scenario.txns");
                reg.add(c, point.index as u64 * 7 + 1);
                reg.to_csv()
            },
        );
        report
            .completed()
            .map(|(p, csv)| format!("## {}\n{csv}", p.index))
            .collect::<String>()
    };
    let sequential = run_at(1);
    assert_eq!(run_at(4), sequential);
}
