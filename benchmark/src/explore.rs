//! `explore_jcvm`: the §4.3 interface exploration — every interface
//! variant × every JCVM applet — as repeated two-worker campaigns. The
//! load falls on `campaign` (claiming, merging, per-worker sessions),
//! the `jcvm` interpreter and adapter, and layer-1 estimation with
//! spans and attribution on; `serve` and any batched engine are
//! bypassed.

use crate::report::Outcome;
use crate::run::{
    alternating, end_to_end, ms_since, repeated_setup, shuffle, timed_loop, RunConfig, TracedLoop,
};
use crate::trace::Tracer;
use hierbus::campaign::{self, CampaignOptions, CampaignPayload, CampaignStats};
use hierbus::harness;
use hierbus::jcvm::workloads::standard_workloads;
use hierbus::jcvm::{explore_campaign, explore_matrix, ExploreSession, IfaceConfig, Workload};
use hierbus::power::CharacterizationDb;
use hierbus::sim::SplitMix64;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Campaign worker threads (the host has two CPUs).
pub const WORKERS: usize = 2;
/// Base address of the hardware stack's register window.
const STACK_BASE: u64 = 0x8000;
/// Campaigns per throughput segment.
const SEGMENT: u64 = 4;

/// The exploration matrix in a seeded order, and the serialized rows of
/// its first campaign, which every later campaign must reproduce.
pub struct State {
    pub db: Arc<CharacterizationDb>,
    pub configs: Vec<IfaceConfig>,
    pub workloads: Vec<Workload>,
    expected: String,
}

/// The matrix with both axes permuted by `seed`; `smoke` keeps a
/// quarter of the interface variants.
fn matrix(seed: u64, smoke: bool) -> (Vec<IfaceConfig>, Vec<Workload>) {
    let mut rng = SplitMix64::new(seed ^ 0x0E8F_104E);
    let mut configs = IfaceConfig::all_variants(STACK_BASE);
    let mut workloads = standard_workloads();
    shuffle(&mut configs, &mut rng);
    shuffle(&mut workloads, &mut rng);
    if smoke {
        configs.truncate(configs.len() / 4);
    }
    (configs, workloads)
}

/// The rows of a campaign as one string: each row's payload JSON.
fn serialized(rows: &[hierbus::jcvm::ExplorationRow]) -> String {
    rows.iter()
        .map(|r| r.to_json().to_string_compact())
        .collect::<Vec<_>>()
        .join("\n")
}

fn opts() -> CampaignOptions {
    CampaignOptions::with_workers("explore_jcvm", WORKERS)
}

pub fn setup(cfg: &RunConfig) -> State {
    let db = harness::shared_db();
    let (configs, workloads) = matrix(cfg.seed, cfg.smoke);
    let (rows, _) = explore_campaign(&configs, &workloads, &db, &opts())
        .expect("manifest-less campaign does no I/O");
    State {
        expected: serialized(&rows),
        db,
        configs,
        workloads,
    }
}

/// Checks a campaign's rows against the first campaign's.
fn check(st: &State, rows: &[hierbus::jcvm::ExplorationRow]) -> Result<(), String> {
    let want = st.configs.len() * st.workloads.len();
    if rows.len() != want {
        return Err(format!("campaign returned {} of {want} rows", rows.len()));
    }
    if serialized(rows) != st.expected {
        return Err("campaign rows differ from the first campaign's".to_owned());
    }
    Ok(())
}

/// One campaign through `explore_campaign`, the product entry point.
fn campaign_op(st: &State) -> Result<f64, String> {
    let start = Instant::now();
    let (rows, _) =
        explore_campaign(&st.configs, &st.workloads, &st.db, &opts()).map_err(|e| e.to_string())?;
    let ms = ms_since(start);
    check(st, &rows)?;
    Ok(ms)
}

/// The same campaign assembled from `campaign::run_with` and
/// `ExploreSession` — what `explore_campaign` does — with a span around
/// each session build and each design point, on one track per worker.
pub fn traced_campaign(
    st: &State,
    tracer: &Tracer,
    req: u64,
) -> (Vec<hierbus::jcvm::ExplorationRow>, CampaignStats) {
    let root = tracer.open("campaign", 0, None, req);
    let next_track = AtomicU32::new(2);
    let report = campaign::run_with(
        &explore_matrix(&st.configs, &st.workloads),
        &opts(),
        || {
            let track = next_track.fetch_add(1, Ordering::Relaxed);
            let session = tracer.time("campaign.session_new", track, Some(root), req, || {
                ExploreSession::new(&st.db)
            });
            (session, track)
        },
        |(session, track), point| {
            let (config, workload) = (st.configs[point.coords[0]], &st.workloads[point.coords[1]]);
            tracer.time("jcvm.explore_run", *track, Some(root), req, || {
                session
                    .run(config, workload)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, config.label()))
            })
        },
    )
    .expect("manifest-less campaign does no I/O");
    tracer.finish(root);
    let stats = report.stats.clone();
    (report.results.into_iter().flatten().collect(), stats)
}

/// Pool efficiency of a set of campaigns: median busy fraction
/// (Σ worker busy / (wall × workers)), median imbalance (max / mean
/// worker busy) and median claim retries per campaign.
pub fn pool_metrics(stats: &[CampaignStats], out: &mut Outcome) {
    use crate::stats::median;
    let busy = |s: &CampaignStats| -> Vec<f64> {
        s.per_worker.iter().map(|w| w.busy.as_secs_f64()).collect()
    };
    let frac: Vec<f64> = stats
        .iter()
        .map(|s| busy(s).iter().sum::<f64>() / (s.wall.as_secs_f64() * s.workers as f64))
        .collect();
    let imbalance: Vec<f64> = stats
        .iter()
        .map(|s| {
            let b = busy(s);
            let mean = b.iter().sum::<f64>() / b.len() as f64;
            b.iter().copied().fold(0.0, f64::max) / mean
        })
        .collect();
    let retries: Vec<f64> = stats
        .iter()
        .map(|s| s.per_worker.iter().map(|w| w.claim_retries).sum::<u64>() as f64)
        .collect();
    out.set("campaign.busy_frac", median(&frac));
    out.set("campaign.imbalance", median(&imbalance));
    out.set("campaign.claim_retries", median(&retries));
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) {
    let (st, setup_s) = repeated_setup(|| setup(cfg));
    let timed = timed_loop(cfg.seconds, SEGMENT, |_| campaign_op(&st));
    end_to_end(&timed, &setup_s, out);
    out.correct = timed.failed == 0;
}

/// The traced run's own loop, and every traced campaign's pool
/// statistics.
pub fn traced(cfg: &RunConfig) -> (State, TracedLoop, Vec<CampaignStats>) {
    let st = setup(cfg);
    let tracer = Tracer::new();
    let mut stats = Vec::new();
    let (plain, traced) = alternating(cfg.seconds, SEGMENT, |i, on| {
        if !on {
            return campaign_op(&st);
        }
        let start = Instant::now();
        let (rows, s) = traced_campaign(&st, &tracer, i);
        let ms = ms_since(start);
        check(&st, &rows)?;
        stats.push(s);
        Ok(ms)
    });
    let own = TracedLoop {
        plain,
        traced,
        spans: tracer.into_spans(),
    };
    (st, own, stats)
}
