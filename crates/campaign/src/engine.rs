//! The campaign executor: a sharded worker pool with a deterministic
//! index-order merge.
//!
//! Workers claim *chunks* of contiguous scenario indices from a shared
//! atomic cursor (chunk size derived from the matrix length and the
//! worker count), so the claim cost amortises over many scenarios while
//! load still balances across uneven scenario costs. Each worker owns a
//! private result buffer (no shared lock on the hot path) and — through
//! [`run_with`] — a private mutable *worker state* it reuses across
//! scenarios, so simulators and scratch buffers are built once per
//! worker instead of once per scenario. Only the runner's captured
//! read-only inputs — typically an `Arc<CharacterizationDb>` — are
//! shared. Results are merged strictly in scenario-index order, so the
//! merged output is byte-identical for any worker count, chunk size or
//! completion interleaving.

use crate::matrix::{Matrix, ScenarioPoint};
use crate::Json;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A result type with a JSON form. The engine never serializes results;
/// the trait stays, with both methods, because the frozen benchmark
/// package implements it and calls `LeanResult::from_json` and
/// `ExplorationRow::to_json` through it.
pub trait CampaignPayload: Sized {
    /// Serializes the result.
    fn to_json(&self) -> Json;
    /// Reconstructs a result; `None` if the document does not describe
    /// one.
    fn from_json(json: &Json) -> Option<Self>;
}

/// The chunk of contiguous scenarios a worker claims per atomic op for
/// `total` scenarios on `workers` threads (always ≥ 1): one claim per
/// chunk keeps claim overhead off the per-scenario path, while the ×4
/// oversubscription still balances uneven scenario costs.
fn chunk_size(total: usize, workers: usize) -> usize {
    (total / (workers * 4)).max(1)
}

/// How a campaign executes.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Campaign name. Worker threads are spawned as `{name}-{worker}`,
    /// so a runner panic names the campaign it came from.
    pub name: String,
    /// Worker threads (clamped to at least 1). One worker reproduces
    /// the classic sequential loop exactly.
    pub workers: usize,
    /// Time origin for [`SinkScope::started_us`] /
    /// [`SinkScope::finished_us`]. A caller stitching worker spans into
    /// a larger trace (the serve daemon's per-request Perfetto track)
    /// passes its own epoch so every span shares one µs axis; `None`
    /// uses the campaign's own start instant.
    pub epoch: Option<Instant>,
}

impl CampaignOptions {
    /// Sequential execution — the drop-in replacement for a plain `for`
    /// loop over the matrix.
    pub fn sequential(name: &str) -> Self {
        CampaignOptions {
            name: name.to_owned(),
            workers: 1,
            epoch: None,
        }
    }

    /// Like [`sequential`](Self::sequential) with `workers` threads.
    pub fn with_workers(name: &str, workers: usize) -> Self {
        CampaignOptions {
            workers,
            ..CampaignOptions::sequential(name)
        }
    }
}

/// Per-worker execution diagnostics. Claim counts and busy time depend
/// on scheduling, so these describe *this run* — they are surfaced in
/// run reports, and never enter the merged results, which stay
/// byte-identical at any worker count.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Scenarios this worker claimed from the shared cursor.
    pub claimed: u64,
    /// Scenarios it finished (equals `claimed` after a clean run).
    pub completed: u64,
    /// Time spent on scenarios: from each chunk's first runner call to
    /// the clock reading after its last result reached the sink and
    /// the worker's buffer. Session build and claiming are not busy
    /// time.
    pub busy: Duration,
    /// Failed compare-exchange attempts while claiming from the shared
    /// cursor — the raw claim-contention signal.
    pub claim_retries: u64,
}

impl WorkerStats {
    /// Fraction of the campaign's wall clock this worker spent running
    /// scenarios — near 1.0 across the pool on a balanced campaign,
    /// sagging when chunks are uneven or workers starve.
    pub fn utilization(&self, wall: Duration) -> f64 {
        let w = wall.as_secs_f64();
        if w > 0.0 {
            self.busy.as_secs_f64() / w
        } else {
            0.0
        }
    }
}

/// What a campaign run did (wall-clock lives here, never in the merged
/// results). Its `Display` form is the stderr summary the campaign bins
/// print: one line of totals, then one line per worker.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Scenarios in the matrix, every one of them executed.
    pub total: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock time of the execution phase.
    pub wall: Duration,
    /// Per-worker claim/completion/utilization diagnostics, in worker
    /// spawn order (one entry per worker thread).
    pub per_worker: Vec<WorkerStats>,
}

impl CampaignStats {
    /// Executed scenarios per second (0 when nothing ran).
    pub fn scenarios_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios on {} worker(s) in {:.2?} ({:.1} scenarios/s)",
            self.total,
            self.workers,
            self.wall,
            self.scenarios_per_sec()
        )?;
        for (i, w) in self.per_worker.iter().enumerate() {
            write!(
                f,
                "\n  worker {i}: {} claimed, {} completed, {:.0}% busy",
                w.claimed,
                w.completed,
                100.0 * w.utilization(self.wall)
            )?;
        }
        Ok(())
    }
}

/// The merged outcome of a campaign run.
#[derive(Debug)]
pub struct CampaignReport<R> {
    /// Scenario points in matrix order.
    pub points: Vec<ScenarioPoint>,
    /// Per-scenario results, parallel to `points`. Every entry is
    /// `Some`; the `Option` stays because the frozen benchmark package
    /// calls `.flatten()` on this vector.
    pub results: Vec<Option<R>>,
    /// Execution statistics.
    pub stats: CampaignStats,
}

impl<R> CampaignReport<R> {
    /// `(point, result)` pairs in scenario-index order.
    pub fn completed(&self) -> impl Iterator<Item = (&ScenarioPoint, &R)> {
        self.points.iter().zip(self.results.iter().flatten())
    }
}

/// Runs `runner` over every scenario of `matrix` according to `opts`.
///
/// The runner maps a scenario point to its result; it must be pure in
/// the point (campaign determinism is *its* determinism fanned out).
/// Results merge in scenario-index order.
///
/// # Errors
///
/// None: the error type is [`Infallible`]. The `Result` stays so the
/// frozen benchmark package's `.expect(..)` and `.map_err(..)?` calls on
/// the entry points keep compiling; in-repo callers bind the report
/// with `let Ok(report) = …;`.
///
/// # Panics
///
/// A runner panic on any worker propagates (after the other workers
/// finish their current scenario).
pub fn run<R, F>(
    matrix: &Matrix,
    opts: &CampaignOptions,
    runner: F,
) -> Result<CampaignReport<R>, Infallible>
where
    R: Send,
    F: Fn(&ScenarioPoint) -> R + Sync,
{
    run_with(matrix, opts, || (), |(), point| runner(point))
}

/// Execution context handed to a [`run_with_sink`] sink with each
/// result: which point finished, on which worker, and when (µs since
/// [`CampaignOptions::epoch`] or the campaign start). Everything here
/// is diagnostic — none of it enters the merged results.
#[derive(Debug, Clone, Copy)]
pub struct SinkScope<'a> {
    /// The scenario point that just completed.
    pub point: &'a ScenarioPoint,
    /// Index of the worker thread that ran it (`0..workers`).
    pub worker: usize,
    /// When the runner started on this point, µs since the epoch.
    pub started_us: u64,
    /// When the runner finished, µs since the epoch.
    pub finished_us: u64,
}

/// Like [`run`], with per-worker mutable state: `make_state` builds one
/// `S` per worker thread, and the runner receives it exclusively for
/// every scenario that worker claims — the hook for reusing simulators
/// and scratch buffers across scenarios (via a `reset()` path) instead
/// of rebuilding them per scenario.
///
/// Determinism contract: the runner must produce the same result for a
/// point whether its state is fresh or reused — reset-reuse must be
/// observationally identical to rebuilding. Under that contract the
/// merged output stays byte-identical for any worker count and chunk
/// size, exactly as for [`run`].
///
/// # Errors
///
/// None, as for [`run`].
///
/// # Panics
///
/// A runner (or `make_state`) panic on any worker propagates after the
/// other workers finish their current chunk.
pub fn run_with<S, R, F, I>(
    matrix: &Matrix,
    opts: &CampaignOptions,
    make_state: I,
    runner: F,
) -> Result<CampaignReport<R>, Infallible>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &ScenarioPoint) -> R + Sync,
{
    run_with_sink(matrix, opts, make_state, runner, |_, _| {})
}

/// Like [`run_with`], streaming each result to `sink` the moment its
/// scenario completes — before the index-order merge, on the worker
/// thread that produced it. This is the serve daemon's hook for
/// pushing results to a client incrementally instead of waiting for
/// the whole campaign.
///
/// The sink observes results in *completion* order, which depends on
/// scheduling; anything that must be deterministic should come from
/// the merged [`CampaignReport`], not the sink. The sink runs inside
/// the worker's busy window, so a slow sink shows up as worker busy
/// time.
///
/// # Errors
///
/// None, as for [`run`].
///
/// # Panics
///
/// A runner, `make_state`, or sink panic on any worker propagates
/// after the other workers finish their current chunk.
pub fn run_with_sink<S, R, F, I, K>(
    matrix: &Matrix,
    opts: &CampaignOptions,
    make_state: I,
    runner: F,
    sink: K,
) -> Result<CampaignReport<R>, Infallible>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &ScenarioPoint) -> R + Sync,
    K: Fn(&SinkScope, &R) + Sync,
{
    let points = matrix.points();
    let total = points.len();
    let workers = opts.workers.max(1).min(total.max(1));
    let chunk = chunk_size(total, workers);

    let started = Instant::now();
    let epoch = opts.epoch.unwrap_or(started);
    let us = |t: Instant| t.saturating_duration_since(epoch).as_micros() as u64;
    let cursor = AtomicUsize::new(0);
    // Per-worker result buffers: no shared lock between claim points.
    // Each worker builds its state once and reuses it chunk after chunk.
    let mut executed: Vec<(usize, R)> = Vec::with_capacity(total);
    let mut per_worker: Vec<WorkerStats> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (cursor, points) = (&cursor, &points[..]);
                let (make_state, runner, sink, us) = (&make_state, &runner, &sink, &us);
                let body = move || {
                    // Two clock readings per scenario, around the
                    // runner, feed the sink's span and the worker's
                    // busy time; one more per chunk closes it.
                    let mut state = make_state();
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    let mut wstats = WorkerStats::default();
                    loop {
                        let (lo, retries) = claim_chunk(cursor, chunk, total);
                        wstats.claim_retries += retries;
                        if lo >= total {
                            break;
                        }
                        let hi = (lo + chunk).min(total);
                        wstats.claimed += (hi - lo) as u64;
                        mine.reserve(hi - lo);
                        let mut busy_from = None;
                        for point in &points[lo..hi] {
                            let started = Instant::now();
                            busy_from.get_or_insert(started);
                            let result = runner(&mut state, point);
                            let finished = Instant::now();
                            sink(
                                &SinkScope {
                                    point,
                                    worker,
                                    started_us: us(started),
                                    finished_us: us(finished),
                                },
                                &result,
                            );
                            mine.push((point.index, result));
                            wstats.completed += 1;
                        }
                        let done = Instant::now();
                        wstats.busy += done - busy_from.unwrap_or(done);
                    }
                    (mine, wstats)
                };
                std::thread::Builder::new()
                    .name(format!("{}-{worker}", opts.name))
                    .spawn_scoped(scope, body)
                    .expect("spawn campaign worker thread")
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((mine, wstats)) => {
                    executed.extend(mine);
                    per_worker.push(wstats);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let wall = started.elapsed();

    // Deterministic merge: completion interleaving is erased by
    // slotting each result back at its scenario index.
    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    for (index, result) in executed {
        results[index] = Some(result);
    }

    Ok(CampaignReport {
        points,
        results,
        stats: CampaignStats {
            total,
            workers,
            wall,
            per_worker,
        },
    })
}

/// Claims `[lo, lo+chunk)` (clamped to `len`) from the shared cursor
/// with a bounded compare-exchange loop, returning the claimed `lo`
/// (`len` when the work list is exhausted) and the number of failed
/// exchange attempts — the per-claim contention sample summed into
/// [`WorkerStats::claim_retries`]. Unlike a blind `fetch_add`, the cursor never runs past
/// `len`.
fn claim_chunk(cursor: &AtomicUsize, chunk: usize, len: usize) -> (usize, u64) {
    let mut retries = 0u64;
    let mut lo = cursor.load(Ordering::Relaxed);
    loop {
        if lo >= len {
            return (len, retries);
        }
        let hi = (lo + chunk).min(len);
        match cursor.compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return (lo, retries),
            Err(current) => {
                retries += 1;
                lo = current;
            }
        }
    }
}

/// One worker-count measurement of [`measure_scaling`].
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub workers: usize,
    pub wall: Duration,
    pub scenarios_per_sec: f64,
    /// Fraction of the pool's worker-seconds (`workers × wall`) spent
    /// busy ([`WorkerStats::busy`]) — 1.0 means no worker ever waited.
    /// Computed in integer nanoseconds from [`CampaignStats`].
    pub busy_frac: f64,
    /// Busy/wall fraction of the pool restricted to *active* workers:
    /// Σ busy over workers that completed at least one scenario,
    /// divided by `wall × active` (1.0 = no active worker ever
    /// waited). Workers that claimed nothing — routine when the matrix
    /// is smaller than `workers × chunk` — are counted in
    /// [`idle_workers`](Self::idle_workers) instead of diluting this.
    /// Deliberately a mean, not a min: one worker that draws a single
    /// short chunk near the end of the run is scheduling noise, and a
    /// min-over-workers rule let it collapse the whole pool's number
    /// (utilization 0.128 against a busy_frac of 0.62 at 4 workers)
    /// into a fake scaling cliff.
    pub utilization: f64,
    /// Workers that completed no scenario at all during the best run.
    pub idle_workers: usize,
}

impl ScalingPoint {
    fn from_report<R>(workers: usize, report: CampaignReport<R>) -> Self {
        let stats = &report.stats;
        let wall_s = stats.wall.as_secs_f64();
        let busy_ns: u64 = stats
            .per_worker
            .iter()
            .map(|w| w.busy.as_nanos() as u64)
            .sum();
        let cap_ns = (stats.wall.as_nanos() as u64).saturating_mul(stats.per_worker.len() as u64);
        let active = || stats.per_worker.iter().filter(|w| w.completed >= 1);
        ScalingPoint {
            workers,
            wall: stats.wall,
            scenarios_per_sec: stats.scenarios_per_sec(),
            busy_frac: if cap_ns > 0 {
                busy_ns as f64 / cap_ns as f64
            } else {
                0.0
            },
            utilization: {
                let n = active().count();
                if n == 0 || wall_s <= 0.0 {
                    0.0
                } else {
                    let busy_active: f64 = active().map(|w| w.busy.as_secs_f64()).sum();
                    (busy_active / (wall_s * n as f64)).clamp(0.0, 1.0)
                }
            },
            idle_workers: stats.per_worker.len() - active().count(),
        }
    }
}

/// How many fresh runs each worker-count measurement takes; the
/// fastest wall clock wins, like every best-of-N timer in the bench
/// crate, so transient scheduler noise cannot fake a scaling cliff.
pub const SCALING_REPS: usize = 5;

/// Runs the full campaign fresh [`SCALING_REPS`] times per worker count
/// over the stateful [`run_with`] path and reports the best-of-N
/// throughput trajectory — the campaign-engine analog of Table 3's kT/s
/// column.
///
/// `opts` supplies everything but the worker count, which each
/// measurement overrides from `worker_counts`. Every field of a
/// [`ScalingPoint`] comes from the best rep's [`CampaignStats`], so
/// throughput and busy fractions describe one run, not an average of
/// noisy reps.
///
/// # Panics
///
/// Propagates runner panics, like [`run`].
pub fn measure_scaling<S, R, F, I>(
    matrix: &Matrix,
    opts: &CampaignOptions,
    worker_counts: &[usize],
    make_state: I,
    runner: F,
) -> Vec<ScalingPoint>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &ScenarioPoint) -> R + Sync,
{
    worker_counts
        .iter()
        .map(|&workers| {
            let opts = CampaignOptions {
                workers,
                ..opts.clone()
            };
            let mut best: Option<ScalingPoint> = None;
            for _ in 0..SCALING_REPS.max(1) {
                let Ok(report) = run_with::<S, R, _, _>(matrix, &opts, &make_state, &runner);
                let point = ScalingPoint::from_report(workers, report);
                if best.as_ref().is_none_or(|b| point.wall < b.wall) {
                    best = Some(point);
                }
            }
            best.expect("SCALING_REPS >= 1")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy payload with no JSON form: the engine asks only `Send` of
    /// its results.
    #[derive(Debug, Clone, PartialEq)]
    struct Cell {
        coords: Vec<usize>,
        value: u64,
    }

    fn matrix() -> Matrix {
        Matrix::new()
            .axis("a", ["0", "1", "2", "3"])
            .axis("b", ["x", "y", "z"])
    }

    /// A deterministic function of the scenario point.
    fn toy_runner(p: &ScenarioPoint) -> Cell {
        let mix = p.coords.iter().fold(1, |acc, &c| acc * 31 + c as u64);
        Cell {
            coords: p.coords.clone(),
            value: mix * (p.index as u64 + 1),
        }
    }

    fn render<R: std::fmt::Debug>(report: &CampaignReport<R>) -> String {
        report
            .completed()
            .map(|(p, r)| format!("{} {:?}\n", p.index, r))
            .collect()
    }

    #[test]
    fn worker_count_does_not_change_merged_output() {
        let m = matrix();
        let Ok(base) = run(&m, &CampaignOptions::sequential("toy"), toy_runner);
        assert!(base.results.iter().all(Option::is_some));
        assert_eq!(base.stats.total, 12);
        for workers in [2, 4, 7] {
            let par = run(
                &m,
                &CampaignOptions::with_workers("toy", workers),
                toy_runner,
            )
            .unwrap();
            assert_eq!(render(&par), render(&base), "{workers} workers");
        }
    }

    #[test]
    fn scaling_runs_every_worker_count() {
        let points = measure_scaling::<(), Cell, _, _>(
            &matrix(),
            &CampaignOptions::sequential("toy"),
            &[1, 2],
            || (),
            |(), p| toy_runner(p),
        );
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workers, 1);
        assert_eq!(points[1].workers, 2);
    }

    #[test]
    fn chunk_size_derivation() {
        assert_eq!(chunk_size(64, 2), 8);
        assert_eq!(chunk_size(16, 4), 1);
        assert_eq!(chunk_size(0, 1), 1);
        assert_eq!(chunk_size(1000, 1), 250);
        // The 24-scenario slice `campaign_determinism` runs at 1/2/4/8
        // workers: multi-scenario chunks at 1 and 2 workers, one
        // scenario per claim at 4 and 8.
        for (workers, chunk) in [(1, 6), (2, 3), (4, 1), (8, 1)] {
            assert_eq!(chunk_size(24, workers), chunk, "{workers} workers");
        }
    }

    #[test]
    fn chunk_sizes_merge_identically() {
        // 64 scenarios: chunks of 16, 8, 5 and 2 at 1, 2, 3 and 8
        // workers, so every multi-worker merge interleaves multi-scenario
        // chunks.
        let m = Matrix::new().axis("i", (0..64).map(|i| i.to_string()));
        let mut renders = Vec::new();
        for workers in [1, 2, 3, 8] {
            let report = run(
                &m,
                &CampaignOptions::with_workers("toy", workers),
                toy_runner,
            )
            .unwrap();
            renders.push(render(&report));
        }
        for r in &renders[1..] {
            assert_eq!(r, &renders[0], "chunk size changed the merge");
        }
    }

    #[test]
    fn worker_stats_account_for_every_execution() {
        let m = matrix();
        for workers in [1, 3] {
            let report = run(
                &m,
                &CampaignOptions::with_workers("toy", workers),
                toy_runner,
            )
            .unwrap();
            let stats = &report.stats;
            assert_eq!(stats.per_worker.len(), stats.workers);
            let claimed: u64 = stats.per_worker.iter().map(|w| w.claimed).sum();
            let completed: u64 = stats.per_worker.iter().map(|w| w.completed).sum();
            assert_eq!(claimed, stats.total as u64);
            assert_eq!(completed, stats.total as u64);
            for w in &stats.per_worker {
                assert_eq!(w.claimed, w.completed, "clean runs finish every claim");
                let u = w.utilization(stats.wall);
                assert!(u >= 0.0 && u.is_finite());
            }
        }
    }

    #[test]
    fn empty_campaign_reports_idle_workers() {
        // Nothing to run: one worker, no claims, no busy time.
        let Ok(idle) = run(
            &Matrix::new(),
            &CampaignOptions::with_workers("toy", 2),
            toy_runner,
        );
        assert_eq!(idle.stats.total, 0);
        assert_eq!(idle.stats.workers, 1);
        assert!(idle.results.is_empty());
        let claimed: u64 = idle.stats.per_worker.iter().map(|w| w.claimed).sum();
        assert_eq!(claimed, 0);
        assert_eq!(idle.stats.per_worker[0].busy, Duration::ZERO);
    }

    #[test]
    fn worker_threads_carry_the_campaign_name() {
        let Ok(report) = run(&matrix(), &CampaignOptions::with_workers("toy", 3), |_| {
            std::thread::current().name().map(str::to_owned)
        });
        for name in report.results.iter().flatten() {
            let name = name.as_deref().expect("workers are named");
            assert!(["toy-0", "toy-1", "toy-2"].contains(&name), "{name}");
        }
    }

    #[test]
    fn claim_chunk_bounds_the_cursor_and_counts_retries() {
        let cursor = AtomicUsize::new(0);
        let (lo, r) = claim_chunk(&cursor, 4, 10);
        assert_eq!((lo, r), (0, 0));
        let (lo, _) = claim_chunk(&cursor, 4, 10);
        assert_eq!(lo, 4);
        // The final chunk clamps to len; the cursor never passes it.
        let (lo, _) = claim_chunk(&cursor, 4, 10);
        assert_eq!(lo, 8);
        assert_eq!(cursor.load(Ordering::Relaxed), 10);
        let (lo, _) = claim_chunk(&cursor, 4, 10);
        assert_eq!(lo, 10, "exhausted list claims nothing");
        assert_eq!(cursor.load(Ordering::Relaxed), 10);
        // Contended claiming stays exact: every index claimed once.
        let cursor = AtomicUsize::new(0);
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    let (lo, _) = claim_chunk(&cursor, 3, 100);
                    if lo >= 100 {
                        break;
                    }
                    let hi = (lo + 3).min(100);
                    claimed.fetch_add(hi - lo, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(claimed.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn stats_display_prints_totals_then_one_line_per_worker() {
        let report = run(
            &matrix(),
            &CampaignOptions::with_workers("toy", 2),
            toy_runner,
        )
        .unwrap();
        let text = report.stats.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(
            lines[0].starts_with("12 scenarios on 2 worker(s) in "),
            "{text}"
        );
        assert!(lines[0].ends_with(" scenarios/s)"), "{text}");
        assert!(lines[1].starts_with("  worker 0: "), "{text}");
        assert!(lines[2].ends_with("% busy"), "{text}");
    }

    #[test]
    fn idle_workers_do_not_zero_the_utilization() {
        // 16 scenarios, chunked claiming, 4 workers: chunk size is 1,
        // so a fast worker can drain the list and leave a peer with no
        // completions. Build the report shape directly: one worker
        // claimed nothing.
        let mk = |completed: u64, busy_ms: u64| WorkerStats {
            claimed: completed,
            completed,
            busy: Duration::from_millis(busy_ms),
            claim_retries: 0,
        };
        let report: CampaignReport<Cell> = CampaignReport {
            points: Vec::new(),
            results: Vec::new(),
            stats: CampaignStats {
                total: 16,
                workers: 4,
                wall: Duration::from_millis(100),
                per_worker: vec![mk(6, 90), mk(5, 85), mk(5, 95), mk(0, 0)],
            },
        };
        let point = ScalingPoint::from_report(4, report);
        assert_eq!(point.idle_workers, 1);
        assert!(
            point.utilization >= 0.8,
            "idle worker dragged utilization to {}",
            point.utilization
        );
        // All workers active: no idle count, mean busy fraction.
        let report: CampaignReport<Cell> = CampaignReport {
            points: Vec::new(),
            results: Vec::new(),
            stats: CampaignStats {
                total: 16,
                workers: 2,
                wall: Duration::from_millis(100),
                per_worker: vec![mk(8, 90), mk(8, 50)],
            },
        };
        let point = ScalingPoint::from_report(2, report);
        assert_eq!(point.idle_workers, 0);
        assert!((point.utilization - 0.7).abs() < 1e-9);
        // Empty run: everything idle, utilization reads 0.
        let report: CampaignReport<Cell> = CampaignReport {
            points: Vec::new(),
            results: Vec::new(),
            stats: CampaignStats {
                total: 0,
                workers: 2,
                wall: Duration::from_millis(1),
                per_worker: vec![mk(0, 0), mk(0, 0)],
            },
        };
        let point = ScalingPoint::from_report(2, report);
        assert_eq!(point.idle_workers, 2);
        assert_eq!(point.utilization, 0.0);
    }

    #[test]
    fn straggler_chunks_do_not_collapse_utilization() {
        // Regression for the 4-worker collapse in BENCH_throughput.json:
        // three saturated workers plus one that drew a single short
        // chunk near the end of the run. The old min-over-active rule
        // reported that straggler's 0.128 as the pool's utilization —
        // flagging a pool whose busy_frac was 0.62 as a scaling cliff.
        let mk = |completed: u64, busy_us: u64| WorkerStats {
            claimed: completed,
            completed,
            busy: Duration::from_micros(busy_us),
            claim_retries: 0,
        };
        let report: CampaignReport<Cell> = CampaignReport {
            points: Vec::new(),
            results: Vec::new(),
            stats: CampaignStats {
                total: 16,
                workers: 4,
                wall: Duration::from_micros(100_000),
                per_worker: vec![mk(6, 90_000), mk(5, 85_000), mk(4, 60_200), mk(1, 12_800)],
            },
        };
        let point = ScalingPoint::from_report(4, report);
        assert_eq!(point.idle_workers, 0);
        // With every worker active the pool-restricted mean equals
        // busy_frac; the straggler contributes its share, no more.
        assert!((point.busy_frac - 0.62).abs() < 1e-9, "{}", point.busy_frac);
        assert!(
            (point.utilization - point.busy_frac).abs() < 1e-9,
            "all-active utilization {} must equal busy_frac {}",
            point.utilization,
            point.busy_frac
        );
        assert!(
            point.utilization > 0.5,
            "straggler collapsed utilization to {}",
            point.utilization
        );
    }

    #[test]
    fn sink_observes_every_executed_scenario_without_changing_the_merge() {
        use std::sync::Mutex;
        let m = matrix();
        let base = run(&m, &CampaignOptions::sequential("toy"), toy_runner).unwrap();
        for workers in [1, 3] {
            let seen = Mutex::new(Vec::new());
            let report = run_with_sink(
                &m,
                &CampaignOptions::with_workers("toy", workers),
                || (),
                |(), p| toy_runner(p),
                |scope: &SinkScope, result: &Cell| {
                    assert!(
                        scope.worker < workers,
                        "worker {} of {workers}",
                        scope.worker
                    );
                    assert!(
                        scope.started_us <= scope.finished_us,
                        "span ends before it starts"
                    );
                    seen.lock()
                        .unwrap()
                        .push((scope.point.index, result.clone()));
                },
            )
            .unwrap();
            assert_eq!(render(&report), render(&base), "{workers} workers");
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|(i, _)| *i);
            assert_eq!(seen.len(), report.stats.total);
            for ((i, cell), (p, r)) in seen.iter().zip(report.completed()) {
                assert_eq!(*i, p.index);
                assert_eq!(cell, r, "sink saw a different result than the merge");
            }
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_reused() {
        use std::sync::atomic::AtomicUsize;
        let m = matrix();
        let states_built = AtomicUsize::new(0);
        let report = run_with(
            &m,
            &CampaignOptions::with_workers("toy", 2),
            || {
                states_built.fetch_add(1, Ordering::Relaxed);
                0u64 // scenarios served by this worker's state
            },
            |served, p| {
                *served += 1;
                toy_runner(p)
            },
        )
        .unwrap();
        assert!(report.results.iter().all(Option::is_some));
        let built = states_built.load(Ordering::Relaxed);
        assert!(
            (1..=2).contains(&built),
            "one state per worker, not per scenario (built {built})"
        );
        // Stateless and stateful paths agree byte for byte.
        let base = run(&m, &CampaignOptions::sequential("toy"), toy_runner).unwrap();
        assert_eq!(render(&report), render(&base));
    }
}
