//! Runtime self-profiling for the campaign engine: per-worker phase
//! timelines, contention counters, and the scaling audit.
//!
//! The paper's hierarchical models make every picojoule attributable to
//! a bus phase; this module applies the same discipline to the
//! simulator's *own* wall clock. Each worker of the campaign pool
//! records a monotonic timeline of pool phases (claim / db-access /
//! simulate / serialize / merge-wait / idle) into a buffer it owns
//! exclusively — no locks, no shared state on the hot path — plus
//! contention counters (claim-cursor CAS retries, shared
//! characterization-DB accesses, and heap allocations when the
//! [`CountingAlloc`] global allocator is installed). The engine
//! aggregates the timelines into a [`PoolProfile`], exportable as a
//! multi-track Perfetto trace (one track per worker) and as
//! chunk-latency / phase-duration histograms in a
//! [`MetricsSnapshot`].
//!
//! On top of the profiles, [`scaling_audit`] decomposes the measured
//! parallel-efficiency loss at each worker count into a serial fraction
//! (Amdahl fit across worker counts), load imbalance (max-vs-mean busy
//! time), contention (stall share plus busy-time inflation), and a
//! residual — turning "the pool does not scale" from guesswork into a
//! measured diagnosis.
//!
//! Everything here is wall-clock based by design (it profiles the
//! simulator, not the simulation), so profiling output must never feed
//! a merged campaign result; the engine keeps the two strictly apart
//! and a disabled [`Profiler`] reduces every probe to one branch.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::perfetto::TraceEvents;
use std::cell::Cell;
use std::time::Instant;

/// A phase of a campaign worker's life, in the sense of the paper's bus
/// phases: every nanosecond of pool wall clock should be attributable
/// to exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPhase {
    /// Claiming a chunk of scenario indices from the shared cursor.
    Claim,
    /// Building or resetting per-worker state — characterization-DB
    /// clones and session construction.
    DbAccess,
    /// Running a scenario through the model (the useful work).
    Simulate,
    /// Handing the result to the campaign's sink and pushing it into
    /// the worker's private buffer.
    Serialize,
    /// Finished claiming; waiting at the join barrier for stragglers
    /// and the index-order merge (synthesized at aggregation).
    MergeWait,
    /// Untracked gaps inside a worker's timeline (synthesized at
    /// aggregation).
    Idle,
}

impl PoolPhase {
    /// Every phase, in display order.
    pub const ALL: [PoolPhase; 6] = [
        PoolPhase::Claim,
        PoolPhase::DbAccess,
        PoolPhase::Simulate,
        PoolPhase::Serialize,
        PoolPhase::MergeWait,
        PoolPhase::Idle,
    ];

    /// Stable lower-case name (used in Perfetto tracks, metrics names
    /// and the audit JSON).
    pub fn name(self) -> &'static str {
        match self {
            PoolPhase::Claim => "claim",
            PoolPhase::DbAccess => "db-access",
            PoolPhase::Simulate => "simulate",
            PoolPhase::Serialize => "serialize",
            PoolPhase::MergeWait => "merge-wait",
            PoolPhase::Idle => "idle",
        }
    }

    /// Metrics-safe name (no `-`).
    pub fn metric_name(self) -> &'static str {
        match self {
            PoolPhase::DbAccess => "db_access",
            PoolPhase::MergeWait => "merge_wait",
            other => other.name(),
        }
    }
}

/// One closed phase interval on a worker's timeline. Timestamps are
/// nanoseconds since the profiler's epoch (the start of the campaign's
/// execution phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    pub phase: PoolPhase,
    pub begin_ns: u64,
    pub end_ns: u64,
    /// Phase-dependent payload: the scenario index for simulate /
    /// serialize, the chunk size for claim, 0 otherwise.
    pub arg: u64,
}

impl PhaseRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// The completed timeline of one worker thread, plus its contention
/// counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerTimeline {
    /// Worker index in spawn order.
    pub worker: usize,
    /// Phase records in begin order.
    pub records: Vec<PhaseRecord>,
    /// Claim-to-completion latency of each chunk this worker ran.
    pub chunk_latencies_ns: Vec<u64>,
    /// Failed compare-exchange attempts on the shared claim cursor.
    pub claim_retries: u64,
    /// Shared characterization-DB accesses on this worker's thread
    /// (see [`record_db_access`]).
    pub db_accesses: u64,
    /// Heap allocations on this worker's thread — 0 unless the process
    /// runs under [`CountingAlloc`].
    pub allocations: u64,
}

impl WorkerTimeline {
    /// Total nanoseconds spent in `phase`.
    pub fn phase_ns(&self, phase: PoolPhase) -> u64 {
        self.records
            .iter()
            .filter(|r| r.phase == phase)
            .map(PhaseRecord::duration_ns)
            .sum()
    }

    /// Nanoseconds spent on scenarios: simulate + serialize, from each
    /// scenario's start to the clock reading after its result was
    /// stored. Session build (db-access) and claiming are not busy
    /// time. The campaign engine's `WorkerStats::busy` is the same
    /// quantity, summed from the same clock readings.
    pub fn busy_ns(&self) -> u64 {
        self.phase_ns(PoolPhase::Simulate) + self.phase_ns(PoolPhase::Serialize)
    }

    /// End of the last record (0 on an empty timeline).
    pub fn end_ns(&self) -> u64 {
        self.records.iter().map(|r| r.end_ns).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Thread-local contention counters.
// ---------------------------------------------------------------------

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_DB_ACCESSES: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations performed on the calling thread since it started —
/// monotone, so workers read a before/after delta. Always 0 unless the
/// binary installs [`CountingAlloc`] as its global allocator.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Records one access to the shared characterization database on the
/// calling thread. Instrumented call sites (session constructors, db
/// clones) call this unconditionally — it is one thread-local counter
/// increment, far off any per-cycle path.
pub fn record_db_access() {
    let _ = THREAD_DB_ACCESSES.try_with(|c| c.set(c.get() + 1));
}

/// Shared-DB accesses recorded on the calling thread (monotone).
pub fn thread_db_accesses() -> u64 {
    THREAD_DB_ACCESSES.with(|c| c.get())
}

/// A counting global allocator: forwards to the system allocator and
/// counts allocations per thread, so campaign workers can report
/// allocation churn. Install in a bench binary with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: hierbus_obs::profiling::CountingAlloc = CountingAlloc;
/// ```
pub struct CountingAlloc;

fn count_alloc() {
    // `try_with` because allocation can happen while thread-locals are
    // being torn down; dropping the count there is fine.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `std::alloc::System`; the only addition
// is a destructor-free thread-local counter bump, which itself never
// allocates.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc();
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc();
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

// ---------------------------------------------------------------------
// The profiler handle.
// ---------------------------------------------------------------------

/// The campaign engine's profiling handle: disabled by default, in
/// which case every probe is one branch. The profiler never reads the
/// clock itself: the engine hands it the readings it already takes for
/// its own stats and sink, so profiling adds bookkeeping, not timing.
#[derive(Debug, Clone, Copy)]
pub struct Profiler {
    enabled: bool,
    epoch: Instant,
}

impl Profiler {
    /// A profiler whose timestamps count from `epoch` (the start of the
    /// campaign's execution phase); `enabled: false` is the
    /// near-zero-cost default.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Profiler { enabled, epoch }
    }

    /// A per-worker recorder. Call on the worker's own thread so the
    /// thread-local contention baselines belong to that thread.
    pub fn worker(&self, worker: usize) -> WorkerProfile {
        WorkerProfile {
            enabled: self.enabled,
            epoch: self.epoch,
            timeline: WorkerTimeline {
                worker,
                ..WorkerTimeline::default()
            },
            alloc_base: if self.enabled {
                thread_allocations()
            } else {
                0
            },
            db_base: if self.enabled {
                thread_db_accesses()
            } else {
                0
            },
        }
    }

    /// Aggregates the collected worker timelines into a [`PoolProfile`]
    /// (`None` when disabled). Synthesizes the phases only the
    /// aggregator can see: per-worker idle gaps larger than 1 µs and
    /// the merge-wait tail from each worker's last record to the end of
    /// the execution phase at `wall_ns`.
    pub fn assemble(
        &self,
        mut timelines: Vec<WorkerTimeline>,
        wall_ns: u64,
        merge_ns: u64,
    ) -> Option<PoolProfile> {
        if !self.enabled {
            return None;
        }
        const IDLE_GAP_NS: u64 = 1_000;
        timelines.sort_by_key(|t| t.worker);
        for tl in &mut timelines {
            tl.records.sort_by_key(|r| (r.begin_ns, r.end_ns));
            let mut synthesized = Vec::new();
            let mut prev_end = tl.records.first().map_or(0, |r| r.begin_ns);
            for r in &tl.records {
                if r.begin_ns > prev_end + IDLE_GAP_NS {
                    synthesized.push(PhaseRecord {
                        phase: PoolPhase::Idle,
                        begin_ns: prev_end,
                        end_ns: r.begin_ns,
                        arg: 0,
                    });
                }
                prev_end = prev_end.max(r.end_ns);
            }
            if wall_ns > prev_end {
                synthesized.push(PhaseRecord {
                    phase: PoolPhase::MergeWait,
                    begin_ns: prev_end,
                    end_ns: wall_ns,
                    arg: 0,
                });
            }
            tl.records.extend(synthesized);
            tl.records.sort_by_key(|r| (r.begin_ns, r.end_ns));
        }
        Some(PoolProfile {
            wall_ns,
            merge_ns,
            workers: timelines,
        })
    }
}

/// One worker's recorder: owned exclusively by its thread, so recording
/// is lock-free by construction.
#[derive(Debug)]
pub struct WorkerProfile {
    enabled: bool,
    epoch: Instant,
    timeline: WorkerTimeline,
    alloc_base: u64,
    db_base: u64,
}

impl WorkerProfile {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a `phase` that ran from `begin` to `end`. No-op when
    /// disabled.
    pub fn record(&mut self, phase: PoolPhase, begin: Instant, end: Instant, arg: u64) {
        if !self.enabled {
            return;
        }
        let (begin_ns, end_ns) = (self.ns(begin), self.ns(end));
        self.timeline.records.push(PhaseRecord {
            phase,
            begin_ns,
            end_ns: end_ns.max(begin_ns),
            arg,
        });
    }

    /// Records the claim-to-completion latency of a chunk claimed at
    /// `claimed` and finished at `done`.
    pub fn chunk_done(&mut self, claimed: Instant, done: Instant) {
        if self.enabled {
            let latency = self.ns(done).saturating_sub(self.ns(claimed));
            self.timeline.chunk_latencies_ns.push(latency);
        }
    }

    /// Finishes the worker: takes its final claim-retry count, captures
    /// the thread-local contention deltas and releases the timeline.
    pub fn finish(mut self, claim_retries: u64) -> WorkerTimeline {
        if self.enabled {
            self.timeline.claim_retries = claim_retries;
            self.timeline.allocations = thread_allocations().saturating_sub(self.alloc_base);
            self.timeline.db_accesses = thread_db_accesses().saturating_sub(self.db_base);
        }
        self.timeline
    }
}

// ---------------------------------------------------------------------
// The aggregated pool profile.
// ---------------------------------------------------------------------

/// Histogram bounds for nanosecond durations (1 µs … 1 s, inclusive
/// upper edges).
pub const NS_BOUNDS: [u64; 12] = [
    1_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
];

/// The aggregated profile of one campaign run: every worker's timeline
/// plus the main thread's merge time.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolProfile {
    /// Wall clock of the execution phase (spawn to join), ns.
    pub wall_ns: u64,
    /// Main-thread merge time after the join, ns.
    pub merge_ns: u64,
    /// One timeline per worker, in spawn order.
    pub workers: Vec<WorkerTimeline>,
}

impl PoolProfile {
    /// Total nanoseconds spent in `phase` across all workers.
    pub fn phase_ns(&self, phase: PoolPhase) -> u64 {
        self.workers.iter().map(|w| w.phase_ns(phase)).sum()
    }

    /// Sum of every worker's busy time.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(WorkerTimeline::busy_ns).sum()
    }

    /// The busiest worker's busy time.
    pub fn max_busy_ns(&self) -> u64 {
        self.workers
            .iter()
            .map(WorkerTimeline::busy_ns)
            .max()
            .unwrap_or(0)
    }

    /// Total failed claim compare-exchange attempts.
    pub fn claim_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.claim_retries).sum()
    }

    /// Total shared-DB accesses on worker threads.
    pub fn db_accesses(&self) -> u64 {
        self.workers.iter().map(|w| w.db_accesses).sum()
    }

    /// Total worker-thread heap allocations (0 without
    /// [`CountingAlloc`]).
    pub fn allocations(&self) -> u64 {
        self.workers.iter().map(|w| w.allocations).sum()
    }

    /// Fraction of the pool's worker-seconds spent busy.
    pub fn busy_frac(&self) -> f64 {
        let cap = self.wall_ns.saturating_mul(self.workers.len() as u64);
        if cap == 0 {
            return 0.0;
        }
        self.total_busy_ns() as f64 / cap as f64
    }

    /// Multi-track Perfetto export: one process, one thread track per
    /// worker (plus an `engine` track for the merge), phases as
    /// complete events. Timestamps map nanoseconds to microseconds so
    /// the viewer axis reads in wall-clock µs.
    pub fn to_perfetto(&self) -> String {
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1_000.0);
        let mut tb = TraceEvents::new();
        tb.meta_process(1, "campaign pool");
        for w in &self.workers {
            tb.meta_thread(1, w.worker as u32 + 1, &format!("worker {}", w.worker));
        }
        let engine_tid = self.workers.len() as u32 + 1;
        tb.meta_thread(1, engine_tid, "engine");
        for w in &self.workers {
            for r in &w.records {
                let args = match r.phase {
                    PoolPhase::Simulate | PoolPhase::Serialize => {
                        format!(r#"{{"scenario":{}}}"#, r.arg)
                    }
                    PoolPhase::Claim => format!(r#"{{"chunk":{}}}"#, r.arg),
                    _ => "{}".to_owned(),
                };
                tb.complete(
                    1,
                    w.worker as u32 + 1,
                    r.phase.name(),
                    "pool",
                    &us(r.begin_ns),
                    &us(r.duration_ns()),
                    &args,
                );
            }
        }
        tb.complete(
            1,
            engine_tid,
            "merge",
            "pool",
            &us(self.wall_ns),
            &us(self.merge_ns),
            "{}",
        );
        tb.finish()
    }

    /// Chunk-latency and phase-duration histograms plus the contention
    /// counters, as a standard metrics snapshot (CSV-exportable,
    /// diffable).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        let chunks = reg.histogram("pool.chunk_latency_ns", &NS_BOUNDS);
        for w in &self.workers {
            for &lat in &w.chunk_latencies_ns {
                reg.observe(chunks, lat);
            }
        }
        for phase in PoolPhase::ALL {
            let h = reg.histogram(
                &format!("pool.phase.{}_ns", phase.metric_name()),
                &NS_BOUNDS,
            );
            for w in &self.workers {
                for r in w.records.iter().filter(|r| r.phase == phase) {
                    reg.observe(h, r.duration_ns());
                }
            }
        }
        let mut add = |name: &str, v: u64| {
            let c = reg.counter(name);
            reg.add(c, v);
        };
        add("pool.workers", self.workers.len() as u64);
        add("pool.wall_ns", self.wall_ns);
        add("pool.merge_ns", self.merge_ns);
        add("pool.claim_retries", self.claim_retries());
        add("pool.db_accesses", self.db_accesses());
        add("pool.allocations", self.allocations());
        reg.snapshot()
    }
}

// ---------------------------------------------------------------------
// The scaling audit.
// ---------------------------------------------------------------------

/// One profiled campaign measurement feeding [`scaling_audit`].
#[derive(Debug, Clone)]
pub struct AuditInput {
    pub workers: usize,
    pub scenarios_per_sec: f64,
    /// The profile of the best run; its `wall_ns` is the run's wall
    /// clock.
    pub profile: PoolProfile,
}

/// The efficiency-loss decomposition at one worker count. All `*_loss`
/// fields are fractions of the pool's worker-seconds (`workers ×
/// wall`), so `loss = serial + imbalance + contention + residual`
/// exactly.
#[derive(Debug, Clone)]
pub struct AuditPoint {
    pub workers: usize,
    pub wall_ns: u64,
    pub scenarios_per_sec: f64,
    /// `T1 / (N × TN)` — 1.0 means perfect scaling.
    pub efficiency: f64,
    /// `1 − efficiency`: the gap the remaining fields decompose.
    pub loss: f64,
    /// Amdahl share: `s·T1·(N−1) / (N·TN)` with `s` the fitted serial
    /// fraction — worker-seconds idled away while serial work runs.
    pub serial_loss: f64,
    /// Worker-seconds lost waiting for the busiest worker:
    /// `(N·max_busy − Σ busy) / (N·TN)`.
    pub imbalance_loss: f64,
    /// Stall share (claim-phase time) plus busy-time inflation over the
    /// baseline run (`(Σ busy − busy₁)/(N·TN)`) — the signature of
    /// memory/allocator contention making each scenario slower.
    pub contention_loss: f64,
    /// `loss − serial − imbalance − contention`; may be negative when
    /// the attributed terms overlap.
    pub residual_loss: f64,
    /// Σ busy / (workers × wall): [`PoolProfile::busy_frac`].
    pub busy_frac: f64,
    /// max busy / mean busy (1.0 = perfectly balanced).
    pub balance: f64,
    pub claim_retries: u64,
    pub db_accesses: u64,
    pub allocations: u64,
    /// Pool-wide per-phase totals in [`PoolPhase::ALL`] order, ns.
    pub phase_ns: [u64; 6],
    /// Main-thread merge time, ns.
    pub merge_ns: u64,
    /// Chunk-latency percentiles (ns) from the fixed-bucket histogram.
    pub chunk_p50_ns: u64,
    pub chunk_p90_ns: u64,
    pub chunk_p99_ns: u64,
}

/// The full audit: the fitted serial fraction and one decomposition per
/// measured worker count.
#[derive(Debug, Clone)]
pub struct ScalingAudit {
    pub campaign: String,
    pub scenarios: usize,
    /// Amdahl serial fraction fitted across the worker counts
    /// (least squares on `TN = T1·(s + (1−s)/N)`, clamped to [0, 1]).
    pub serial_fraction: f64,
    pub points: Vec<AuditPoint>,
}

/// Decomposes the scaling trajectory in `inputs` (ascending worker
/// counts; the first entry is the baseline, normally 1 worker).
///
/// # Panics
///
/// Panics on an empty input slice.
pub fn scaling_audit(campaign: &str, scenarios: usize, inputs: &[AuditInput]) -> ScalingAudit {
    assert!(!inputs.is_empty(), "scaling_audit needs at least one run");
    let base = &inputs[0];
    let t1 = base.profile.wall_ns as f64;
    let busy1 = base.profile.total_busy_ns() as f64;

    // Amdahl fit over the non-baseline points: TN − T1/N = s·T1·(1−1/N).
    let mut num = 0.0;
    let mut den = 0.0;
    for p in inputs.iter().filter(|p| p.workers > base.workers) {
        let n = p.workers as f64;
        let x = t1 * (1.0 - 1.0 / n);
        let y = p.profile.wall_ns as f64 - t1 / n;
        num += x * y;
        den += x * x;
    }
    let serial_fraction = if den > 0.0 {
        (num / den).clamp(0.0, 1.0)
    } else {
        0.0
    };

    let points = inputs
        .iter()
        .map(|p| {
            let n = p.workers as f64;
            let tn = p.profile.wall_ns as f64;
            let cap = (n * tn).max(1.0);
            let efficiency = t1 / cap;
            let loss = 1.0 - efficiency;
            let sum_busy = p.profile.total_busy_ns() as f64;
            let max_busy = p.profile.max_busy_ns() as f64;
            let (imbalance_loss, contention_loss, serial_loss) = if p.workers == base.workers {
                (0.0, 0.0, 0.0)
            } else {
                let imbalance = (n * max_busy - sum_busy).max(0.0) / cap;
                let stall = p.profile.phase_ns(PoolPhase::Claim) as f64 / cap;
                let inflation = (sum_busy - busy1).max(0.0) / cap;
                let serial = serial_fraction * t1 * (n - 1.0) / cap;
                (imbalance, stall + inflation, serial)
            };
            let residual_loss = loss - serial_loss - imbalance_loss - contention_loss;
            let mean_busy = sum_busy / n.max(1.0);
            let mut reg = MetricsRegistry::new();
            let h = reg.histogram("chunks", &NS_BOUNDS);
            for w in &p.profile.workers {
                for &lat in &w.chunk_latencies_ns {
                    reg.observe(h, lat);
                }
            }
            let hist = reg.histogram_data(h);
            let mut phase_ns = [0u64; 6];
            for (slot, phase) in phase_ns.iter_mut().zip(PoolPhase::ALL) {
                *slot = p.profile.phase_ns(phase);
            }
            AuditPoint {
                workers: p.workers,
                wall_ns: p.profile.wall_ns,
                scenarios_per_sec: p.scenarios_per_sec,
                efficiency,
                loss,
                serial_loss,
                imbalance_loss,
                contention_loss,
                residual_loss,
                busy_frac: p.profile.busy_frac(),
                balance: if mean_busy > 0.0 {
                    max_busy / mean_busy
                } else {
                    1.0
                },
                claim_retries: p.profile.claim_retries(),
                db_accesses: p.profile.db_accesses(),
                allocations: p.profile.allocations(),
                phase_ns,
                merge_ns: p.profile.merge_ns,
                chunk_p50_ns: hist.p50().unwrap_or(0),
                chunk_p90_ns: hist.p90().unwrap_or(0),
                chunk_p99_ns: hist.p99().unwrap_or(0),
            }
        })
        .collect();

    ScalingAudit {
        campaign: campaign.to_owned(),
        scenarios,
        serial_fraction,
        points,
    }
}

/// JSON-safe number rendering (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

impl ScalingAudit {
    /// Serializes the audit as the `results/obs/scaling_audit.json`
    /// document (`schema_version` 1, validated by the
    /// `check_scaling_audit` bin).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let phases: Vec<String> = PoolPhase::ALL
                    .iter()
                    .zip(p.phase_ns)
                    .map(|(phase, ns)| format!(r#""{}":{ns}"#, phase.metric_name()))
                    .collect();
                format!(
                    concat!(
                        r#"{{"workers":{},"wall_ns":{},"scenarios_per_s":{},"#,
                        r#""efficiency":{},"loss":{},"serial_loss":{},"#,
                        r#""imbalance_loss":{},"contention_loss":{},"residual_loss":{},"#,
                        r#""busy_frac":{},"balance":{},"#,
                        r#""claim_retries":{},"db_accesses":{},"allocations":{},"#,
                        r#""phase_ns":{{{},"merge":{}}},"#,
                        r#""chunk_latency_ns":{{"p50":{},"p90":{},"p99":{}}}}}"#
                    ),
                    p.workers,
                    p.wall_ns,
                    num(p.scenarios_per_sec),
                    num(p.efficiency),
                    num(p.loss),
                    num(p.serial_loss),
                    num(p.imbalance_loss),
                    num(p.contention_loss),
                    num(p.residual_loss),
                    num(p.busy_frac),
                    num(p.balance),
                    p.claim_retries,
                    p.db_accesses,
                    p.allocations,
                    phases.join(","),
                    p.merge_ns,
                    p.chunk_p50_ns,
                    p.chunk_p90_ns,
                    p.chunk_p99_ns,
                )
            })
            .collect();
        format!(
            "{{\"schema_version\":1,\"campaign\":\"{}\",\"scenarios\":{},\
             \"serial_fraction\":{},\"workers\":[{}]}}\n",
            self.campaign,
            self.scenarios,
            num(self.serial_fraction),
            points.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs test binary runs under the counting allocator so the
    // allocation counters are exercised for real.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn disabled_profiler_records_nothing() {
        let t = Instant::now();
        let profiler = Profiler::new(false, t);
        let mut wp = profiler.worker(0);
        wp.record(PoolPhase::Simulate, t, Instant::now(), 7);
        wp.chunk_done(t, Instant::now());
        let tl = wp.finish(3);
        assert!(tl.records.is_empty());
        assert!(tl.chunk_latencies_ns.is_empty());
        assert_eq!(tl.claim_retries, 0);
        assert!(profiler.assemble(vec![tl], 0, 0).is_none());
    }

    #[test]
    fn enabled_profiler_builds_a_timeline_with_synthesized_tail() {
        let epoch = Instant::now();
        let profiler = Profiler::new(true, epoch);
        let mut wp = profiler.worker(2);
        let claimed = Instant::now();
        let started = Instant::now();
        wp.record(PoolPhase::Claim, claimed, started, 4);
        let finished = Instant::now();
        wp.record(PoolPhase::Simulate, started, finished, 0);
        wp.chunk_done(claimed, finished);
        let tl = wp.finish(0);
        assert_eq!(tl.worker, 2);
        assert_eq!(tl.records.len(), 2);
        // Records share the readings they were handed: the claim ends
        // exactly where the simulate begins.
        assert_eq!(tl.records[0].end_ns, tl.records[1].begin_ns);
        assert_eq!(
            tl.chunk_latencies_ns,
            [tl.records[1].end_ns - tl.records[0].begin_ns]
        );
        let end = tl.end_ns();
        let profile = profiler
            .assemble(vec![tl], end + 5_000_000, 1_000)
            .expect("enabled");
        // The gap from the last record to wall becomes a merge-wait.
        let w = &profile.workers[0];
        let tail = w.records.last().unwrap();
        assert_eq!(tail.phase, PoolPhase::MergeWait);
        assert_eq!(tail.end_ns, end + 5_000_000);
        assert!(w.phase_ns(PoolPhase::MergeWait) >= 5_000_000);
    }

    #[test]
    fn idle_gaps_between_records_are_synthesized() {
        let profiler = Profiler::new(true, Instant::now());
        let tl = WorkerTimeline {
            worker: 0,
            records: vec![
                PhaseRecord {
                    phase: PoolPhase::Simulate,
                    begin_ns: 0,
                    end_ns: 10_000,
                    arg: 0,
                },
                PhaseRecord {
                    phase: PoolPhase::Simulate,
                    begin_ns: 50_000,
                    end_ns: 60_000,
                    arg: 1,
                },
            ],
            ..WorkerTimeline::default()
        };
        let profile = profiler.assemble(vec![tl], 60_000, 0).unwrap();
        let w = &profile.workers[0];
        assert_eq!(w.phase_ns(PoolPhase::Idle), 40_000);
        // Records stay sorted after synthesis.
        let begins: Vec<u64> = w.records.iter().map(|r| r.begin_ns).collect();
        let mut sorted = begins.clone();
        sorted.sort_unstable();
        assert_eq!(begins, sorted);
    }

    #[test]
    fn counting_allocator_reports_thread_allocations() {
        let before = thread_allocations();
        let v: Vec<u64> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        let after = thread_allocations();
        assert!(after > before, "allocation not counted: {before} → {after}");
    }

    #[test]
    fn db_access_counter_is_per_thread() {
        let main_before = thread_db_accesses();
        record_db_access();
        assert_eq!(thread_db_accesses(), main_before + 1);
        let other = std::thread::spawn(|| {
            let t0 = thread_db_accesses();
            record_db_access();
            record_db_access();
            thread_db_accesses() - t0
        })
        .join()
        .unwrap();
        assert_eq!(other, 2);
        // The other thread's accesses never leak into this thread.
        assert_eq!(thread_db_accesses(), main_before + 1);
    }

    #[test]
    fn worker_profile_captures_contention_deltas() {
        let profiler = Profiler::new(true, Instant::now());
        let wp = profiler.worker(0);
        record_db_access();
        record_db_access();
        let v: Vec<u64> = vec![1, 2, 3];
        std::hint::black_box(&v);
        let tl = wp.finish(5);
        assert_eq!(tl.db_accesses, 2);
        assert_eq!(tl.claim_retries, 5);
        assert!(tl.allocations > 0);
    }

    fn synthetic_profile(workers: usize, busy_each_ns: u64, wall_ns: u64) -> PoolProfile {
        PoolProfile {
            wall_ns,
            merge_ns: 0,
            workers: (0..workers)
                .map(|w| WorkerTimeline {
                    worker: w,
                    records: vec![PhaseRecord {
                        phase: PoolPhase::Simulate,
                        begin_ns: 0,
                        end_ns: busy_each_ns,
                        arg: 0,
                    }],
                    chunk_latencies_ns: vec![busy_each_ns],
                    ..WorkerTimeline::default()
                })
                .collect(),
        }
    }

    #[test]
    fn audit_decomposition_sums_to_the_measured_loss() {
        // A pool that stops scaling: the wall clock barely moves as
        // workers are added (every worker's busy time inflates).
        let inputs = vec![
            AuditInput {
                workers: 1,
                scenarios_per_sec: 16.0,
                profile: synthetic_profile(1, 950_000, 1_000_000),
            },
            AuditInput {
                workers: 2,
                scenarios_per_sec: 17.8,
                profile: synthetic_profile(2, 850_000, 900_000),
            },
            AuditInput {
                workers: 4,
                scenarios_per_sec: 18.2,
                profile: synthetic_profile(4, 820_000, 880_000),
            },
        ];
        let audit = scaling_audit("toy", 16, &inputs);
        assert!((0.0..=1.0).contains(&audit.serial_fraction));
        assert_eq!(audit.points.len(), 3);
        for p in &audit.points {
            let sum = p.serial_loss + p.imbalance_loss + p.contention_loss + p.residual_loss;
            assert!(
                (sum - p.loss).abs() <= 0.1 * p.loss.abs().max(1e-9),
                "decomposition at {}w: {sum} vs loss {}",
                p.workers,
                p.loss
            );
            assert!(p.efficiency > 0.0 && p.efficiency <= 1.0 + 1e-9);
        }
        // The baseline point is lossless by definition.
        assert!(audit.points[0].loss.abs() < 1e-9);
        // Flat scaling must show up as a large loss at 4 workers.
        assert!(audit.points[2].loss > 0.5);
    }

    #[test]
    fn perfect_scaling_audits_as_near_zero_loss() {
        let inputs = vec![
            AuditInput {
                workers: 1,
                scenarios_per_sec: 16.0,
                profile: synthetic_profile(1, 990_000, 1_000_000),
            },
            AuditInput {
                workers: 4,
                scenarios_per_sec: 64.0,
                profile: synthetic_profile(4, 247_000, 250_000),
            },
        ];
        let audit = scaling_audit("ideal", 16, &inputs);
        assert!(audit.serial_fraction < 0.01, "{}", audit.serial_fraction);
        assert!(audit.points[1].loss.abs() < 0.01);
    }

    #[test]
    fn audit_json_has_schema_and_parses_shape() {
        let inputs = vec![AuditInput {
            workers: 1,
            scenarios_per_sec: 1.0,
            profile: synthetic_profile(1, 900, 1_000),
        }];
        let audit = scaling_audit("toy", 4, &inputs);
        let json = audit.to_json();
        assert!(json.starts_with("{\"schema_version\":1,\"campaign\":\"toy\""));
        assert!(json.contains("\"serial_fraction\":"));
        assert!(json.contains("\"phase_ns\":{\"claim\":"));
        assert!(json.contains("\"chunk_latency_ns\":{\"p50\":"));
        // Balanced braces per the exporter's structural convention.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn pool_profile_exports_perfetto_tracks_and_metrics() {
        let profiler = Profiler::new(true, Instant::now());
        let mk = |w: usize| {
            let mut wp = profiler.worker(w);
            let claimed = Instant::now();
            let started = Instant::now();
            wp.record(PoolPhase::Claim, claimed, started, 8);
            let finished = Instant::now();
            wp.record(PoolPhase::Simulate, started, finished, w as u64);
            wp.chunk_done(claimed, finished);
            wp.finish(0)
        };
        let timelines = vec![mk(0), mk(1)];
        let wall = timelines.iter().map(WorkerTimeline::end_ns).max().unwrap() + 10_000;
        let profile = profiler.assemble(timelines, wall, 500).unwrap();
        let trace = profile.to_perfetto();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains(r#""name":"worker 0""#));
        assert!(trace.contains(r#""name":"worker 1""#));
        assert!(trace.contains(r#""name":"engine""#));
        assert!(trace.contains(r#""name":"claim""#));
        assert!(trace.contains(r#""name":"simulate""#));
        assert!(trace.contains(r#""name":"merge""#));
        let snap = profile.metrics();
        let chunk_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "pool.chunk_latency_ns")
            .expect("chunk latency histogram");
        assert_eq!(chunk_hist.count, 2);
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "pool.workers" && *v == 2));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "pool.phase.simulate_ns" && h.count == 2));
    }
}
