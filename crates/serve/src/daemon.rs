//! The daemon itself: request queue, batch execution, streaming
//! responses, graceful drain — and the telemetry plane that makes it
//! operable as a real service.
//!
//! [`Daemon::serve`] runs one protocol session over any
//! `BufRead`/`Write` pair — stdin/stdout for the `hierbus-serve`
//! binary, an accepted Unix-socket stream, or in-process buffers for
//! tests and the `serve_client` example. A reader thread parses
//! request lines into a FIFO queue so clients can pipeline requests
//! while a batch is executing; the serving loop pops requests one at a
//! time and batches each `run` request's cache misses onto the
//! campaign worker pool, streaming a `result` event from the worker
//! thread the moment each scenario completes.
//!
//! The telemetry plane has three parts. **Request tracing**
//! ([`DaemonOptions::trace_requests`]): every `run` request gets a
//! trace id (`t1`, `t2`, ...) that rides through the queue, the cache
//! pass, the worker pool (whose sink spans share the request's clock
//! via [`CampaignOptions::epoch`]) and down into the bus model's span
//! collector, assembled per request into one
//! connected Perfetto trace ([`crate::telemetry::TraceBuilder`]) and
//! retained in a ring for the `dump-trace` op. **Live telemetry**: a
//! leveled [`EventLog`], a rolling [`SloWindow`] over request
//! latencies, and a [`MetricsRegistry`] surfaced through the extended
//! `stats` reply, `subscribe` snapshot streaming, and an atomically
//! rewritten Prometheus text file ([`DaemonOptions::metrics_file`]).
//! **Watchdog**: a monitor thread that ticks every
//! [`DaemonOptions::tick_ms`] ms, detecting in-flight requests past
//! [`DaemonOptions::deadline_ms`], a non-empty queue with idle
//! workers, and cache-index flush failures — each emits a warn event
//! plus a counter and flips the `health` op's answer to `degraded`
//! while the condition persists. With everything at its default-off
//! setting the plane adds nothing measurable to the request path (the
//! serve benchmark gates this).
//!
//! Shutdown is drain-and-exit: the reader flags a `shutdown` request
//! out-of-band (it never waits in the queue), the in-flight request
//! finishes normally, every request still queued behind it is answered
//! with a retryable `retry` event, the cache index is flushed, and the
//! session ends with a `bye` event. Input EOF drains the queue fully
//! (nothing is retried — the client simply stopped talking) and
//! flushes the index the same way. `health` probes are answered by the
//! reader thread the moment they parse, so a daemon stuck in a long
//! batch still reports its (degraded) health.

use crate::cache::ResultCache;
use crate::proto::{
    self, parse_request, Op, Request, ScenarioSpec, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::session::{db_fingerprint, LeanResult, ServeSession};
use crate::telemetry::{RequestTrace, TraceBuilder, TraceRing, LAYER_SPAN_CAP};
use hierbus_campaign::{run_with_sink, CampaignOptions, CampaignPayload, Json, Matrix, SinkScope};
use hierbus_obs::telemetry::{
    prometheus_text, write_atomic, EventLog, Level, RequestSample, SloWindow, Value,
};
use hierbus_obs::{CounterId, GaugeId, HistogramId, MetricsRegistry, TraceCollector};
use hierbus_power::CharacterizationDb;
use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default bound on cached results.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Requests a [`SloWindow`] aggregates over.
const SLO_WINDOW: usize = 256;

/// Event-log ring capacity (entries).
const LOG_CAPACITY: usize = 256;

/// Consecutive monitor ticks of a non-empty queue with no request in
/// flight before the watchdog calls the pool idle.
const IDLE_TICKS: u32 = 3;

/// Upper bucket edges (µs) of the request latency histograms: cache
/// hits land in the low buckets, cold multi-scenario batches in the
/// high ones.
const LATENCY_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// How a [`Daemon`] is configured.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Worker threads for batch execution (clamped to at least 1).
    pub workers: usize,
    /// Result-cache bound (entries; clamped to at least 1).
    pub cache_capacity: usize,
    /// Persisted cache index: loaded (if compatible) on construction,
    /// flushed by the monitor when dirty and on every session drain.
    /// `None` keeps the cache purely in-memory.
    pub cache_index: Option<PathBuf>,
    /// Per-request Perfetto traces to retain for `dump-trace`; 0
    /// disables request tracing entirely (no trace assembly, no layer
    /// span capture).
    pub trace_requests: usize,
    /// Directory `dump-trace` writes retained traces into; without it
    /// the op answers with an error.
    pub trace_dir: Option<PathBuf>,
    /// Event-log capture threshold (`None` = capture off).
    pub log_level: Option<Level>,
    /// Mirror events at this severity or worse to stderr, prefixed
    /// `hierbus-serve:`.
    pub log_stderr: Option<Level>,
    /// Prometheus text exposition file, atomically rewritten by the
    /// monitor whenever the metrics change and once at session end.
    pub metrics_file: Option<PathBuf>,
    /// Watchdog stall deadline for an in-flight request (ms); 0
    /// disables stall detection.
    pub deadline_ms: u64,
    /// Monitor thread tick (ms; clamped to at least 1).
    pub tick_ms: u64,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            workers: 1,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_index: None,
            trace_requests: 0,
            trace_dir: None,
            log_level: None,
            log_stderr: None,
            metrics_file: None,
            deadline_ms: 0,
            tick_ms: 25,
        }
    }
}

/// What one protocol session did — returned by [`Daemon::serve`] so
/// callers (the binary's socket loop, tests) can see whether the
/// client asked for shutdown. Out-of-band `health` probes are answered
/// by the reader thread and not counted here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests handled (run/stats/ping/subscribe/dump-trace — not
    /// counting retried ones).
    pub requests: usize,
    /// Result events streamed.
    pub results: usize,
    /// Scenario lookups answered from cache.
    pub cache_hits: u64,
    /// Scenario lookups that went to a worker.
    pub cache_misses: u64,
    /// Requests answered with a `retry` event because they were still
    /// queued when shutdown arrived.
    pub retried: usize,
    /// True when the session ended on a `shutdown` request (false on
    /// input EOF).
    pub shutdown: bool,
}

struct Metrics {
    registry: MetricsRegistry,
    requests: CounterId,
    scenarios: CounterId,
    singles: CounterId,
    multis: CounterId,
    hits: CounterId,
    misses: CounterId,
    evictions: CounterId,
    stalls: CounterId,
    idle_alerts: CounterId,
    flush_failures: CounterId,
    queue_depth: GaugeId,
    latency: HistogramId,
    queue_wait: HistogramId,
    execute: HistogramId,
}

impl Metrics {
    fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let requests = registry.counter("serve.requests");
        let scenarios = registry.counter("serve.scenarios");
        let singles = registry.counter("serve.scenarios.single");
        let multis = registry.counter("serve.scenarios.multi");
        let hits = registry.counter("serve.cache.hit");
        let misses = registry.counter("serve.cache.miss");
        let evictions = registry.counter("serve.cache.eviction");
        let stalls = registry.counter("serve.watchdog.stall");
        let idle_alerts = registry.counter("serve.watchdog.idle");
        let flush_failures = registry.counter("serve.cache.flush_failure");
        let queue_depth = registry.gauge("serve.queue.depth");
        let latency = registry.histogram("serve.request_latency_us", LATENCY_BOUNDS_US);
        let queue_wait = registry.histogram("serve.queue_wait_us", LATENCY_BOUNDS_US);
        let execute = registry.histogram("serve.execute_us", LATENCY_BOUNDS_US);
        Metrics {
            registry,
            requests,
            scenarios,
            singles,
            multis,
            hits,
            misses,
            evictions,
            stalls,
            idle_alerts,
            flush_failures,
            queue_depth,
            latency,
            queue_wait,
            execute,
        }
    }
}

/// A streaming snapshot subscription (one per session at a time; a new
/// `subscribe` replaces the old one).
struct Subscription {
    id: String,
    every: Duration,
    last: Instant,
}

/// The mutable telemetry plane state.
struct Telemetry {
    log: EventLog,
    window: SloWindow,
    traces: TraceRing,
    subscription: Option<Subscription>,
    /// Consecutive monitor ticks with a non-empty queue and nothing in
    /// flight.
    idle_ticks: u32,
    /// Sticky until the next successful cache-index flush.
    flush_failed: bool,
}

/// The request currently executing, watched by the monitor thread.
struct InFlight {
    id: String,
    started: Instant,
    /// The stall warn event fires once per request.
    warned: bool,
}

/// The resident estimation service.
pub struct Daemon {
    db: Arc<CharacterizationDb>,
    db_fp: String,
    workers: usize,
    cache_index: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    metrics_file: Option<PathBuf>,
    deadline_ms: u64,
    tick_ms: u64,
    /// False when neither capture nor stderr wants any level — the
    /// lock-free fast path that keeps disabled logging at one branch.
    log_active: bool,
    cache: Mutex<ResultCache>,
    metrics: Mutex<Metrics>,
    telemetry: Mutex<Telemetry>,
    inflight: Mutex<Option<InFlight>>,
    trace_seq: AtomicU64,
}

impl Daemon {
    /// Builds a daemon over a characterization database. When
    /// [`DaemonOptions::cache_index`] names a compatible persisted
    /// index (same format version, same database fingerprint), the
    /// cache starts warm from it.
    pub fn new(db: Arc<CharacterizationDb>, opts: DaemonOptions) -> Self {
        let db_fp = db_fingerprint(&db);
        let capacity = opts.cache_capacity.max(1);
        let cache = opts
            .cache_index
            .as_deref()
            .and_then(|path| ResultCache::load(path, capacity, &db_fp).ok().flatten())
            .unwrap_or_else(|| ResultCache::new(capacity));
        let mut log = EventLog::new("hierbus-serve", opts.log_level, LOG_CAPACITY);
        log.set_stderr(opts.log_stderr);
        let log_active = opts.log_level.is_some() || opts.log_stderr.is_some();
        Daemon {
            db,
            db_fp,
            workers: opts.workers.max(1),
            cache_index: opts.cache_index,
            trace_dir: opts.trace_dir,
            metrics_file: opts.metrics_file,
            deadline_ms: opts.deadline_ms,
            tick_ms: opts.tick_ms.max(1),
            log_active,
            cache: Mutex::new(cache),
            metrics: Mutex::new(Metrics::new()),
            telemetry: Mutex::new(Telemetry {
                log,
                window: SloWindow::new(SLO_WINDOW),
                traces: TraceRing::new(opts.trace_requests),
                subscription: None,
                idle_ticks: 0,
                flush_failed: false,
            }),
            inflight: Mutex::new(None),
            trace_seq: AtomicU64::new(0),
        }
    }

    /// The fingerprint of the database this daemon serves.
    pub fn db_fingerprint(&self) -> &str {
        &self.db_fp
    }

    /// Cached entries right now.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// The daemon's metrics (cache counters, watchdog counters,
    /// latency histograms) as the registry's CSV export.
    pub fn metrics_csv(&self) -> String {
        self.metrics.lock().unwrap().registry.to_csv()
    }

    /// The daemon's metrics in the Prometheus text exposition format —
    /// the content of [`DaemonOptions::metrics_file`].
    pub fn metrics_prometheus(&self) -> String {
        prometheus_text(&self.metrics.lock().unwrap().registry.snapshot())
    }

    /// The buffered event log as JSONL (schema_version 1).
    pub fn telemetry_jsonl(&self) -> String {
        self.telemetry.lock().unwrap().log.to_jsonl()
    }

    /// The retained per-request Perfetto traces, oldest first.
    pub fn request_traces(&self) -> Vec<RequestTrace> {
        self.telemetry
            .lock()
            .unwrap()
            .traces
            .iter()
            .cloned()
            .collect()
    }

    /// Current health: `true` iff no degradation reason is active.
    /// Reasons mirror the watchdog's conditions: a stalled in-flight
    /// request, a non-empty queue with idle workers, a failed
    /// cache-index flush.
    pub fn health(&self) -> (bool, Vec<String>) {
        let mut reasons = Vec::new();
        if self.deadline_ms > 0 {
            if let Some(f) = &*self.inflight.lock().unwrap() {
                if f.started.elapsed() >= Duration::from_millis(self.deadline_ms) {
                    reasons.push(format!("stalled-request:{}", f.id));
                }
            }
        }
        let t = self.telemetry.lock().unwrap();
        if t.idle_ticks >= IDLE_TICKS {
            reasons.push("idle-queue".to_owned());
        }
        if t.flush_failed {
            reasons.push("cache-flush-failure".to_owned());
        }
        (reasons.is_empty(), reasons)
    }

    /// Records a structured event; costs one branch when logging is
    /// off (fields are built only for wanted levels).
    fn log(
        &self,
        level: Level,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if !self.log_active {
            return;
        }
        let mut t = self.telemetry.lock().unwrap();
        if t.log.wants(level) {
            t.log.emit(level, name, fields());
        }
    }

    /// Runs one protocol session: reads request lines from `input`
    /// until shutdown or EOF, writing response events to `output`.
    ///
    /// # Errors
    ///
    /// The first write error of the session (the drain still
    /// completes), or an I/O error flushing the cache index.
    pub fn serve<R, W>(&self, input: R, output: W) -> io::Result<ServeSummary>
    where
        R: BufRead + Send,
        W: Write + Send,
    {
        let emitter = Emitter::new(output);
        let queue: Mutex<QueueState> = Mutex::new(QueueState::default());
        let cond = Condvar::new();
        let stop = Mutex::new(false);
        let stop_cond = Condvar::new();
        let mut summary = ServeSummary::default();
        self.log(Level::Info, "session.start", || {
            vec![
                ("workers", Value::from(self.workers)),
                ("db", Value::from(self.db_fp.as_str())),
            ]
        });

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut input = input;
                // One line buffer for the whole session. A bad line is
                // answered with an error event; only a read error (or
                // EOF) ends the session.
                let mut buf = Vec::new();
                while let Ok(Some(line)) = read_line(&mut input, &mut buf) {
                    let parsed = match line {
                        Ok(text) if text.trim().is_empty() => continue,
                        Ok(text) => parse_request(text),
                        Err(error) => Err((String::new(), error)),
                    };
                    match parsed {
                        Ok(Request {
                            id,
                            op: Op::Shutdown,
                        }) => {
                            let mut state = queue.lock().unwrap();
                            state.shutdown = Some(id);
                            state.reader_done = true;
                            cond.notify_all();
                            return;
                        }
                        // Answered out-of-band: a daemon busy with a
                        // long batch still answers its liveness probe.
                        Ok(Request { id, op: Op::Health }) => emitter.emit(self.health_event(&id)),
                        Ok(req) => {
                            let mut state = queue.lock().unwrap();
                            state.items.push_back(Item::Req(req, Instant::now()));
                            cond.notify_all();
                        }
                        Err((id, error)) => {
                            self.log(Level::Warn, "request.bad", || {
                                vec![
                                    ("req", Value::from(id.as_str())),
                                    ("error", Value::from(error.as_str())),
                                ]
                            });
                            let mut state = queue.lock().unwrap();
                            state.items.push_back(Item::Bad { id, error });
                            cond.notify_all();
                        }
                    }
                }
                queue.lock().unwrap().reader_done = true;
                cond.notify_all();
            });

            scope.spawn(|| self.monitor_loop(&queue, &emitter, &stop, &stop_cond));

            loop {
                let (item, draining) = {
                    let mut state = queue.lock().unwrap();
                    loop {
                        let draining = state.shutdown.is_some();
                        if let Some(item) = state.items.pop_front() {
                            break (Some(item), draining);
                        }
                        if state.reader_done {
                            break (None, draining);
                        }
                        state = cond.wait(state).unwrap();
                    }
                };
                match item {
                    None => break,
                    Some(item) if draining => {
                        // Queued behind the shutdown: clean retryable
                        // status instead of silence.
                        match item {
                            Item::Req(req, _) => {
                                self.log(Level::Info, "request.retry", || {
                                    vec![("req", Value::from(req.id.as_str()))]
                                });
                                let mut fields = proto::event(&req.id, "retry");
                                fields.push((
                                    "reason".to_owned(),
                                    Json::Str("shutting-down".to_owned()),
                                ));
                                emitter.emit(fields);
                            }
                            Item::Bad { id, error } => self.emit_error(&emitter, &id, &error),
                        }
                        summary.retried += 1;
                    }
                    Some(Item::Bad { id, error }) => self.emit_error(&emitter, &id, &error),
                    Some(Item::Req(req, enqueued)) => {
                        let depth = queue.lock().unwrap().items.len();
                        self.handle(req, enqueued, depth, &emitter, &mut summary);
                    }
                }
            }
            *stop.lock().unwrap() = true;
            stop_cond.notify_all();
        });

        if let Some(path) = &self.metrics_file {
            // Final exposition so short sessions (CI smoke pipes) leave
            // a complete file even if the monitor never ticked.
            let _ = write_atomic(path, &self.metrics_prometheus());
        }
        self.log(Level::Info, "session.end", || {
            vec![
                ("requests", Value::from(summary.requests)),
                ("results", Value::from(summary.results)),
                ("retried", Value::from(summary.retried)),
            ]
        });
        if let Some(path) = &self.cache_index {
            if let Err(e) = self.cache.lock().unwrap().save(path, &self.db_fp) {
                self.note_flush_failure(&e);
                return Err(e);
            }
            self.telemetry.lock().unwrap().flush_failed = false;
        }
        let shutdown_id = queue.into_inner().unwrap().shutdown;
        if let Some(id) = shutdown_id {
            summary.shutdown = true;
            emitter.emit(proto::event(&id, "bye"));
        }
        emitter.finish()?;
        Ok(summary)
    }

    fn note_flush_failure(&self, error: &io::Error) {
        self.log(Level::Warn, "cache.flush_failed", || {
            vec![("error", Value::from(error.to_string()))]
        });
        self.telemetry.lock().unwrap().flush_failed = true;
        let m = &mut *self.metrics.lock().unwrap();
        m.registry.inc(m.flush_failures);
    }

    /// The watchdog / telemetry monitor: ticks until `stop`, checking
    /// for stalled requests and idle-queue conditions, streaming
    /// subscription snapshots, flushing a dirty cache index, and
    /// rewriting the metrics file when the exposition changed.
    fn monitor_loop<W: Write>(
        &self,
        queue: &Mutex<QueueState>,
        emitter: &Emitter<W>,
        stop: &Mutex<bool>,
        stop_cond: &Condvar,
    ) {
        let tick = Duration::from_millis(self.tick_ms);
        let mut last_metrics = String::new();
        let mut last_flush_marker = self.cache_marker();
        loop {
            {
                let guard = stop.lock().unwrap();
                if *guard {
                    break;
                }
                let (guard, _) = stop_cond.wait_timeout(guard, tick).unwrap();
                if *guard {
                    break;
                }
            }
            self.monitor_tick(queue, emitter, &mut last_metrics, &mut last_flush_marker);
        }
    }

    /// `(len, hits, misses, evictions)` — changes whenever the cache's
    /// persisted content or LRU order may have moved.
    fn cache_marker(&self) -> (usize, u64, u64, u64) {
        let c = self.cache.lock().unwrap();
        (c.len(), c.hits(), c.misses(), c.evictions())
    }

    fn monitor_tick<W: Write>(
        &self,
        queue: &Mutex<QueueState>,
        emitter: &Emitter<W>,
        last_metrics: &mut String,
        last_flush_marker: &mut (usize, u64, u64, u64),
    ) {
        let depth = queue.lock().unwrap().items.len();
        {
            let m = &mut *self.metrics.lock().unwrap();
            let id = m.queue_depth;
            m.registry.set_gauge(id, depth as i64);
        }

        // Stall: an in-flight request past the deadline warns once and
        // degrades health() until it completes.
        if self.deadline_ms > 0 {
            let newly_stalled = {
                let mut inflight = self.inflight.lock().unwrap();
                match &mut *inflight {
                    Some(f)
                        if !f.warned
                            && f.started.elapsed() >= Duration::from_millis(self.deadline_ms) =>
                    {
                        f.warned = true;
                        Some((f.id.clone(), f.started.elapsed().as_millis() as u64))
                    }
                    _ => None,
                }
            };
            if let Some((id, elapsed_ms)) = newly_stalled {
                self.log(Level::Warn, "watchdog.stall", || {
                    vec![
                        ("req", Value::from(id.as_str())),
                        ("elapsed_ms", Value::from(elapsed_ms)),
                        ("deadline_ms", Value::from(self.deadline_ms)),
                    ]
                });
                let m = &mut *self.metrics.lock().unwrap();
                m.registry.inc(m.stalls);
            }
        }

        // Idle queue: work waiting while nothing executes means the
        // serving loop is wedged (it should pop within a tick).
        let busy = self.inflight.lock().unwrap().is_some();
        let idle_alert = {
            let mut t = self.telemetry.lock().unwrap();
            if depth > 0 && !busy {
                t.idle_ticks += 1;
            } else {
                t.idle_ticks = 0;
            }
            t.idle_ticks == IDLE_TICKS
        };
        if idle_alert {
            self.log(Level::Warn, "watchdog.idle_queue", || {
                vec![
                    ("depth", Value::from(depth)),
                    ("ticks", Value::from(IDLE_TICKS as u64)),
                ]
            });
            let m = &mut *self.metrics.lock().unwrap();
            m.registry.inc(m.idle_alerts);
        }

        // Subscription snapshots.
        let due = {
            let mut t = self.telemetry.lock().unwrap();
            match &mut t.subscription {
                Some(sub) if sub.last.elapsed() >= sub.every => {
                    sub.last = Instant::now();
                    Some(sub.id.clone())
                }
                _ => None,
            }
        };
        if let Some(id) = due {
            emitter.emit(self.status_event(&id, "snapshot", depth));
        }

        // Flush a dirty cache index so a crash loses at most a tick's
        // worth of fresh results; failures degrade health.
        if let Some(path) = &self.cache_index {
            let marker = self.cache_marker();
            if marker != *last_flush_marker {
                let outcome = self.cache.lock().unwrap().save(path, &self.db_fp);
                match outcome {
                    Ok(()) => {
                        *last_flush_marker = marker;
                        self.telemetry.lock().unwrap().flush_failed = false;
                        self.log(Level::Debug, "cache.flush", || {
                            vec![("entries", Value::from(marker.0))]
                        });
                    }
                    Err(e) => self.note_flush_failure(&e),
                }
            }
        }

        // Metrics file: atomic rewrite, only when the exposition moved.
        if let Some(path) = &self.metrics_file {
            let text = self.metrics_prometheus();
            if text != *last_metrics {
                if let Err(e) = write_atomic(path, &text) {
                    self.log(Level::Warn, "metrics.write_failed", || {
                        vec![("error", Value::from(e.to_string()))]
                    });
                } else {
                    *last_metrics = text;
                }
            }
        }
    }

    fn emit_error<W: Write>(&self, emitter: &Emitter<W>, id: &str, message: &str) {
        self.log(Level::Warn, "request.error", || {
            vec![("req", Value::from(id)), ("message", Value::from(message))]
        });
        let mut fields = proto::event(id, "error");
        fields.push(("message".to_owned(), Json::Str(message.to_owned())));
        emitter.emit(fields);
    }

    fn handle<W: Write + Send>(
        &self,
        req: Request,
        enqueued: Instant,
        queue_depth: usize,
        emitter: &Emitter<W>,
        summary: &mut ServeSummary,
    ) {
        match req.op {
            Op::Ping => {
                emitter.emit(proto::event(&req.id, "pong"));
                summary.requests += 1;
            }
            Op::Stats => {
                emitter.emit(self.status_event(&req.id, "stats", queue_depth));
                summary.requests += 1;
            }
            Op::Health => {
                // Normally intercepted by the reader; answered here too
                // so in-process callers that bypass it still get one.
                emitter.emit(self.health_event(&req.id));
                summary.requests += 1;
            }
            Op::Subscribe { every_ms } => {
                self.handle_subscribe(&req.id, every_ms, queue_depth, emitter);
                summary.requests += 1;
            }
            Op::DumpTrace => {
                self.handle_dump_trace(&req.id, emitter);
                summary.requests += 1;
            }
            Op::Run(specs) => self.handle_run(&req.id, &specs, enqueued, emitter, summary),
            // The reader intercepts shutdown before it can be queued.
            Op::Shutdown => unreachable!("shutdown never reaches the serving loop"),
        }
    }

    fn handle_subscribe<W: Write>(
        &self,
        id: &str,
        every_ms: u64,
        queue_depth: usize,
        emitter: &Emitter<W>,
    ) {
        if every_ms == 0 {
            self.telemetry.lock().unwrap().subscription = None;
            self.log(Level::Info, "subscribe.stop", || {
                vec![("req", Value::from(id))]
            });
            emitter.emit(proto::event(id, "unsubscribed"));
            return;
        }
        self.log(Level::Info, "subscribe.start", || {
            vec![
                ("req", Value::from(id)),
                ("every_ms", Value::from(every_ms)),
            ]
        });
        self.telemetry.lock().unwrap().subscription = Some(Subscription {
            id: id.to_owned(),
            every: Duration::from_millis(every_ms),
            last: Instant::now(),
        });
        // An immediate first snapshot doubles as the subscription ack.
        emitter.emit(self.status_event(id, "snapshot", queue_depth));
    }

    fn handle_dump_trace<W: Write>(&self, id: &str, emitter: &Emitter<W>) {
        let Some(dir) = &self.trace_dir else {
            self.emit_error(emitter, id, "dump-trace requires a trace directory");
            return;
        };
        let traces = self.request_traces();
        let mut files = Vec::with_capacity(traces.len());
        for t in &traces {
            let path = dir.join(format!("{}.trace.json", t.trace_id));
            if let Err(e) = write_atomic(&path, &t.json) {
                self.emit_error(emitter, id, &format!("writing {}: {e}", path.display()));
                return;
            }
            files.push(Json::Str(path.display().to_string()));
        }
        self.log(Level::Info, "trace.dump", || {
            vec![
                ("req", Value::from(id)),
                ("count", Value::from(files.len())),
            ]
        });
        let mut fields = proto::event(id, "traces");
        fields.push(("count".to_owned(), Json::Num(files.len() as f64)));
        fields.push(("files".to_owned(), Json::Arr(files)));
        emitter.emit(fields);
    }

    fn handle_run<W: Write + Send>(
        &self,
        id: &str,
        specs: &[ScenarioSpec],
        enqueued: Instant,
        emitter: &Emitter<W>,
        summary: &mut ServeSummary,
    ) {
        let started = Instant::now();
        let queue_us = enqueued.elapsed().as_micros() as u64;
        // Every mix and multi field was validated when the request
        // parsed, so only an unknown name can fail to materialize:
        // reject it before the cache is touched.
        let unknown = specs.iter().enumerate().find_map(|(i, spec)| match spec {
            ScenarioSpec::Named { .. } => spec.materialize().err().map(|e| (i, e)),
            _ => None,
        });
        if let Some((i, e)) = unknown {
            self.emit_error(emitter, id, &format!("scenarios[{i}]: {e}"));
            summary.requests += 1;
            return;
        }
        let multis = specs
            .iter()
            .filter(|s| matches!(s, ScenarioSpec::Multi { .. }))
            .count() as u64;
        let singles = specs.len() as u64 - multis;
        let keys: Vec<String> = specs.iter().map(|s| s.fingerprint(&self.db_fp)).collect();
        let tracing = !self.telemetry.lock().unwrap().traces.is_disabled();
        let trace = format!("t{}", self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1);
        *self.inflight.lock().unwrap() = Some(InFlight {
            id: id.to_owned(),
            started,
            warned: false,
        });

        // Cache pass: answer hits immediately (in request order),
        // collect misses deduplicated by fingerprint. Only a miss is
        // ever materialized, on the worker that runs it.
        let mut miss_keys: Vec<String> = Vec::new();
        let mut miss_specs: Vec<&ScenarioSpec> = Vec::new();
        let mut miss_targets: Vec<Vec<usize>> = Vec::new();
        let (hits, misses, evictions_before) = {
            let mut cache = self.cache.lock().unwrap();
            let (h0, m0) = (cache.hits(), cache.misses());
            let evictions_before = cache.evictions();
            for (i, key) in keys.iter().enumerate() {
                if let Some(bytes) = cache.get(key) {
                    self.emit_result(emitter, id, i, key, true, &bytes);
                } else {
                    match miss_keys.iter().position(|k| k == key) {
                        Some(j) => miss_targets[j].push(i),
                        None => {
                            miss_keys.push(key.clone());
                            miss_specs.push(&specs[i]);
                            miss_targets.push(vec![i]);
                        }
                    }
                }
            }
            (cache.hits() - h0, cache.misses() - m0, evictions_before)
        };
        let cache_us = enqueued.elapsed().as_micros() as u64;

        // Batch the misses onto the worker pool, streaming each result
        // (and filling the cache) from the worker thread that produced
        // it. One fingerprint axis: the matrix is this request's
        // deduplicated work list. The request's enqueue instant rides
        // into the pool so worker spans share the request's clock, and
        // under tracing the first few scenarios run with the bus span
        // collector on.
        let worker_spans: Mutex<Vec<(usize, usize, u64, u64)>> = Mutex::new(Vec::new());
        let layer_caps: Mutex<Vec<(usize, TraceCollector)>> = Mutex::new(Vec::new());
        if !miss_keys.is_empty() {
            let opts = CampaignOptions {
                epoch: Some(enqueued),
                ..CampaignOptions::with_workers("serve", self.workers)
            };
            let Ok(_) = run_with_sink(
                &Matrix::new().axis("spec", miss_keys.iter().cloned()),
                &opts,
                || ServeSession::new(&self.db),
                |session, point| {
                    let scenario = miss_specs[point.index]
                        .materialize()
                        .expect("unknown names were rejected before the cache pass");
                    if tracing && point.index < LAYER_SPAN_CAP {
                        let (result, collector) = session.run_observed(&scenario);
                        layer_caps.lock().unwrap().push((point.index, collector));
                        result
                    } else {
                        session.run_materialized(&scenario)
                    }
                },
                |scope: &SinkScope, result: &LeanResult| {
                    let index = scope.point.index;
                    let bytes = result.to_json().to_string_compact();
                    self.cache
                        .lock()
                        .unwrap()
                        .insert(&miss_keys[index], bytes.clone());
                    for &i in &miss_targets[index] {
                        self.emit_result(emitter, id, i, &miss_keys[index], false, &bytes);
                    }
                    if tracing {
                        worker_spans.lock().unwrap().push((
                            scope.worker,
                            index,
                            scope.started_us,
                            scope.finished_us,
                        ));
                    }
                },
            );
        }
        let exec_us = enqueued.elapsed().as_micros() as u64;

        let wall_us = started.elapsed().as_micros() as u64;
        {
            let evicted = self.cache.lock().unwrap().evictions() - evictions_before;
            let m = &mut *self.metrics.lock().unwrap();
            m.registry.inc(m.requests);
            m.registry.add(m.scenarios, specs.len() as u64);
            m.registry.add(m.singles, singles);
            m.registry.add(m.multis, multis);
            m.registry.add(m.hits, hits);
            m.registry.add(m.misses, misses);
            m.registry.add(m.evictions, evicted);
            m.registry.observe(m.latency, wall_us);
            m.registry.observe(m.queue_wait, queue_us);
            m.registry
                .observe(m.execute, exec_us.saturating_sub(cache_us));
        }

        let mut fields = proto::event(id, "done");
        fields.push(("scenarios".to_owned(), Json::Num(specs.len() as f64)));
        fields.push(("hits".to_owned(), Json::Num(hits as f64)));
        fields.push(("misses".to_owned(), Json::Num(misses as f64)));
        if tracing {
            fields.push(("trace".to_owned(), Json::Str(trace.clone())));
        }
        // Wall-clock diagnostics only — comparisons must strip it.
        fields.push(("wall_us".to_owned(), Json::Num(wall_us as f64)));
        emitter.emit(fields);
        let done_us = enqueued.elapsed().as_micros() as u64;
        *self.inflight.lock().unwrap() = None;

        self.log(Level::Debug, "request.done", || {
            vec![
                ("req", Value::from(id)),
                ("trace", Value::from(trace.as_str())),
                ("scenarios", Value::from(specs.len())),
                ("hits", Value::from(hits)),
                ("misses", Value::from(misses)),
                ("wall_us", Value::from(wall_us)),
            ]
        });

        {
            let mut t = self.telemetry.lock().unwrap();
            t.window.push(RequestSample {
                queue_us,
                execute_us: exec_us.saturating_sub(cache_us),
                total_us: done_us,
                scenarios: specs.len() as u64,
                hits,
                misses,
            });
        }

        if tracing {
            let mut b = TraceBuilder::new(id, &trace);
            b.daemon_span("queued", 0, queue_us);
            b.daemon_span("cache-check", queue_us, cache_us.saturating_sub(queue_us));
            if !miss_keys.is_empty() {
                b.daemon_span("execute", cache_us, exec_us.saturating_sub(cache_us));
            }
            b.daemon_span("serialize", exec_us, done_us.saturating_sub(exec_us));
            let mut spans = worker_spans.into_inner().unwrap();
            spans.sort_unstable();
            for (worker, index, s, f) in spans {
                b.worker_span(worker, index, &miss_keys[index], s, f);
            }
            let mut caps = layer_caps.into_inner().unwrap();
            caps.sort_unstable_by_key(|(index, _)| *index);
            for (index, collector) in &caps {
                b.layer_spans(*index, collector);
            }
            self.telemetry.lock().unwrap().traces.push(b.finish());
        }

        summary.requests += 1;
        summary.results += specs.len();
        summary.cache_hits += hits;
        summary.cache_misses += misses;
    }

    fn emit_result<W: Write>(
        &self,
        emitter: &Emitter<W>,
        id: &str,
        index: usize,
        key: &str,
        cached: bool,
        bytes: &str,
    ) {
        let mut fields = proto::event(id, "result");
        fields.push(("index".to_owned(), Json::Num(index as f64)));
        fields.push(("key".to_owned(), Json::Str(key.to_owned())));
        fields.push(("cached".to_owned(), Json::Bool(cached)));
        // Every cache value is serializer output, and serializing a
        // parse of it gives the same bytes back, so the bytes are
        // spliced in as the last field without a re-parse.
        let mut line = Json::Obj(fields).to_string_compact();
        line.pop(); // the object's closing brace
        line.push_str(",\"result\":");
        line.push_str(bytes);
        line.push('}');
        emitter.emit_line(&line);
    }

    fn health_event(&self, id: &str) -> Vec<(String, Json)> {
        let (ok, reasons) = self.health();
        let mut fields = proto::event(id, "health");
        fields.push((
            "status".to_owned(),
            Json::Str(if ok { "ok" } else { "degraded" }.to_owned()),
        ));
        fields.push((
            "reasons".to_owned(),
            Json::Arr(reasons.into_iter().map(Json::Str).collect()),
        ));
        fields
    }

    /// The extended status body shared by the `stats` reply and
    /// `subscribe` snapshots: cache counters and occupancy, lifetime
    /// request counters, per-master scenario counts, latency
    /// percentiles, the rolling-window SLO aggregates, watchdog
    /// counters, health, and event-log pressure.
    fn status_event(&self, id: &str, name: &str, queue_depth: usize) -> Vec<(String, Json)> {
        let quantile = |q: Option<u64>| match q {
            Some(v) => Json::Num(v as f64),
            None => Json::Null,
        };
        let mut fields = proto::event(id, name);
        fields.push(("protocol".to_owned(), Json::Num(PROTOCOL_VERSION as f64)));
        fields.push(("workers".to_owned(), Json::Num(self.workers as f64)));
        fields.push(("db".to_owned(), Json::Str(self.db_fp.clone())));
        fields.push(("queue_depth".to_owned(), Json::Num(queue_depth as f64)));
        {
            let cache = self.cache.lock().unwrap();
            fields.push(("cache_len".to_owned(), Json::Num(cache.len() as f64)));
            fields.push((
                "cache_capacity".to_owned(),
                Json::Num(cache.capacity() as f64),
            ));
            fields.push((
                "cache_occupancy".to_owned(),
                Json::Num(cache.len() as f64 / cache.capacity() as f64),
            ));
            fields.push(("cache_hits".to_owned(), Json::Num(cache.hits() as f64)));
            fields.push(("cache_misses".to_owned(), Json::Num(cache.misses() as f64)));
            fields.push((
                "cache_evictions".to_owned(),
                Json::Num(cache.evictions() as f64),
            ));
        }
        {
            let m = self.metrics.lock().unwrap();
            let counter = |id| Json::Num(m.registry.counter_value(id) as f64);
            fields.push(("requests".to_owned(), counter(m.requests)));
            fields.push(("scenarios".to_owned(), counter(m.scenarios)));
            fields.push(("single_scenarios".to_owned(), counter(m.singles)));
            fields.push(("multi_scenarios".to_owned(), counter(m.multis)));
            fields.push(("watchdog_stalls".to_owned(), counter(m.stalls)));
            fields.push(("watchdog_idle".to_owned(), counter(m.idle_alerts)));
            fields.push(("flush_failures".to_owned(), counter(m.flush_failures)));
            let latency = m.registry.histogram_data(m.latency);
            fields.push(("latency_p50_us".to_owned(), quantile(latency.p50())));
            fields.push(("latency_p90_us".to_owned(), quantile(latency.p90())));
            fields.push(("latency_p99_us".to_owned(), quantile(latency.p99())));
        }
        {
            let t = self.telemetry.lock().unwrap();
            let agg = t.window.aggregate();
            fields.push(("win_requests".to_owned(), Json::Num(agg.window as f64)));
            fields.push((
                "win_hit_ratio".to_owned(),
                match agg.hit_ratio {
                    Some(r) => Json::Num(r),
                    None => Json::Null,
                },
            ));
            for (prefix, q) in [
                ("win_queue", agg.queue_us),
                ("win_execute", agg.execute_us),
                ("win_total", agg.total_us),
            ] {
                let get =
                    |f: fn(&hierbus_obs::telemetry::Quantiles) -> u64| quantile(q.as_ref().map(f));
                fields.push((format!("{prefix}_p50_us"), get(|q| q.p50)));
                fields.push((format!("{prefix}_p90_us"), get(|q| q.p90)));
                fields.push((format!("{prefix}_p99_us"), get(|q| q.p99)));
            }
            fields.push(("log_events".to_owned(), Json::Num(t.log.total() as f64)));
            fields.push(("log_dropped".to_owned(), Json::Num(t.log.dropped() as f64)));
            fields.push(("traces_held".to_owned(), Json::Num(t.traces.len() as f64)));
        }
        let (ok, reasons) = self.health();
        fields.push((
            "health".to_owned(),
            Json::Str(if ok { "ok" } else { "degraded" }.to_owned()),
        ));
        fields.push((
            "health_reasons".to_owned(),
            Json::Arr(reasons.into_iter().map(Json::Str).collect()),
        ));
        fields
    }
}

/// Serializes response events to the shared output; the first write
/// error is kept and re-raised when the session ends, later writes are
/// skipped (the client is gone — finish draining, don't panic a
/// worker).
struct Emitter<W: Write> {
    out: Mutex<W>,
    error: Mutex<Option<io::Error>>,
}

impl<W: Write> Emitter<W> {
    fn new(out: W) -> Self {
        Emitter {
            out: Mutex::new(out),
            error: Mutex::new(None),
        }
    }

    fn emit(&self, fields: Vec<(String, Json)>) {
        self.emit_line(&Json::Obj(fields).to_string_compact());
    }

    /// Writes one already-serialized event line.
    fn emit_line(&self, line: &str) {
        let mut error = self.error.lock().unwrap();
        if error.is_some() {
            return;
        }
        let mut out = self.out.lock().unwrap();
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            *error = Some(e);
        }
    }

    fn finish(self) -> io::Result<()> {
        match self.error.into_inner().unwrap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Reads the next request line into `buf` (cleared first, reused across
/// lines) and returns it without its line terminator; `Ok(None)` at end
/// of input. A line that is not UTF-8 or is longer than
/// [`MAX_LINE_BYTES`] comes back as an error message; the rest of an
/// over-long line is skipped unbuffered, so `buf` never grows past
/// `MAX_LINE_BYTES + 1` bytes.
fn read_line<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|e| {
        format!("request line is not valid UTF-8: {e}")
    })))
}

/// What the reader thread queues for the serving loop.
enum Item {
    /// A parsed request and the instant it was enqueued — the time
    /// origin of its queue-wait measurement and its trace.
    Req(Request, Instant),
    /// A line that failed to parse — answered with an `error` event in
    /// arrival order.
    Bad { id: String, error: String },
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<Item>,
    reader_done: bool,
    /// The id of the shutdown request, set the moment the reader sees
    /// it — out-of-band, so a long-running batch cannot delay drain
    /// detection.
    shutdown: Option<String>,
}
