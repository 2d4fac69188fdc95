//! Live telemetry: a leveled ring-buffered structured event log, a
//! rolling request-latency window, and a Prometheus-style text
//! exposition of a [`MetricsSnapshot`].
//!
//! This module answers "what is the serve daemon doing *right now*".
//! Three pieces:
//!
//! * [`EventLog`] — structured events (`level`, name, typed fields) in
//!   a bounded ring buffer, exported as JSONL
//!   (`schema_version` [`TELEMETRY_SCHEMA_VERSION`]) and optionally
//!   mirrored to stderr at `warn`+. The same cheap-when-off discipline
//!   as the rest of the crate: a log that wants nothing reduces every
//!   probe to one branch, with no allocation and no clock read.
//! * [`SloWindow`] — a sliding window over the last N request latency
//!   samples (queue wait / execute / end-to-end, plus cache hits and
//!   misses), aggregated on demand into nearest-rank percentiles and a
//!   windowed hit ratio. Count-based rather than time-based, so
//!   aggregates are deterministic given the sample sequence.
//! * [`prometheus_text`] — renders a [`MetricsSnapshot`] in the
//!   Prometheus text exposition format (counters, gauges, cumulative
//!   histogram buckets); [`write_atomic`] rewrites the metrics file
//!   with the temp-file + rename idiom so scrapers never read a torn
//!   write.
//!
//! The event log is the crate's one wall-clock-based piece (timestamps
//! are microseconds since the log's construction); everything else
//! here is deterministic.

use crate::metrics::MetricsSnapshot;
use crate::perfetto::escape;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Schema version stamped on every exported JSONL event line.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// Event severity, most severe first (so `level <= threshold` means
/// "at least as severe as the threshold admits").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The operation failed and was not recovered.
    Error,
    /// Something is off (stalls, flush failures); service continues.
    Warn,
    /// Lifecycle landmarks (session start/end, subscriptions).
    Info,
    /// Per-request diagnostics.
    Debug,
    /// Per-scenario diagnostics.
    Trace,
}

impl Level {
    pub const ALL: [Level; 5] = [
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ];

    /// The lowercase level name used on the wire and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (`"off"` maps to `None`).
    pub fn from_name(name: &str) -> Option<Option<Level>> {
        match name {
            "off" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured event: severity, a static name, typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Monotonic sequence number over the log's whole lifetime (keeps
    /// counting across ring evictions, so gaps are visible).
    pub seq: u64,
    /// Microseconds since the log was constructed.
    pub ts_us: u64,
    pub level: Level,
    /// Dotted event name, e.g. `watchdog.stall`.
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl TelemetryEvent {
    /// One JSONL line: `schema_version`, `seq`, `ts_us`, `level`,
    /// `event`, then the fields object.
    fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION},\"seq\":{},\"ts_us\":{},\
             \"level\":\"{}\",\"event\":\"{}\",\"fields\":{{",
            self.seq,
            self.ts_us,
            self.level.name(),
            escape(self.name)
        ));
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(key));
            out.push_str("\":");
            value.render(&mut out);
        }
        out.push_str("}}");
        out
    }
}

/// A leveled, bounded, ring-buffered structured event log.
///
/// The capture threshold and the stderr mirror threshold are
/// independent: a daemon can buffer `debug` events for JSONL export
/// while only `warn`+ reaches stderr. When *neither* threshold wants a
/// level, [`wants`](Self::wants) is false and an instrumentation site
/// guarded by it performs no allocation and no clock read — the same
/// discipline as a disabled metrics registry or trace collector.
#[derive(Debug)]
pub struct EventLog {
    /// Prefix of stderr-mirrored lines, e.g. `hierbus-serve`.
    component: &'static str,
    capture: Option<Level>,
    stderr: Option<Level>,
    capacity: usize,
    epoch: Instant,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<TelemetryEvent>,
}

impl EventLog {
    /// A log capturing events at `capture` severity or more severe,
    /// holding at most `capacity` of them (older events are dropped,
    /// counted by [`dropped`](Self::dropped)).
    pub fn new(component: &'static str, capture: Option<Level>, capacity: usize) -> Self {
        EventLog {
            component,
            capture,
            stderr: None,
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_seq: 0,
            dropped: 0,
            events: VecDeque::new(),
        }
    }

    /// A log that wants nothing.
    pub fn disabled(component: &'static str) -> Self {
        EventLog::new(component, None, 1)
    }

    /// Mirrors events at `level` or more severe to stderr as
    /// `component: [level] name key=value ...` lines.
    pub fn set_stderr(&mut self, level: Option<Level>) {
        self.stderr = level;
    }

    /// True when an event at `level` would be captured or mirrored —
    /// the guard instrumentation sites use to stay zero-cost when off.
    pub fn wants(&self, level: Level) -> bool {
        matches!(self.capture, Some(t) if level <= t)
            || matches!(self.stderr, Some(t) if level <= t)
    }

    /// Records an event (callers should guard with
    /// [`wants`](Self::wants); an unwanted event is dropped here
    /// regardless).
    pub fn emit(&mut self, level: Level, name: &'static str, fields: Vec<(&'static str, Value)>) {
        if !self.wants(level) {
            return;
        }
        let event = TelemetryEvent {
            seq: self.next_seq,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            level,
            name,
            fields,
        };
        self.next_seq += 1;
        if matches!(self.stderr, Some(t) if level <= t) {
            let mut line = format!("{}: [{}] {}", self.component, level.name(), event.name);
            for (key, value) in &event.fields {
                let mut rendered = String::new();
                value.render(&mut rendered);
                line.push_str(&format!(" {key}={rendered}"));
            }
            eprintln!("{line}");
        }
        if matches!(self.capture, Some(t) if level <= t) {
            if self.events.len() == self.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(event);
        }
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.events.iter()
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events ever emitted (including ones the ring has since dropped).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered events as JSONL, one
    /// `schema_version` [`TELEMETRY_SCHEMA_VERSION`] object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// One request's latency decomposition, pushed into a [`SloWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestSample {
    /// Time the request sat in the session queue (µs).
    pub queue_us: u64,
    /// Time spent checking the cache and executing misses (µs).
    pub execute_us: u64,
    /// End-to-end wall clock, enqueue to final event (µs).
    pub total_us: u64,
    /// Scenarios in the request.
    pub scenarios: u64,
    /// Scenario lookups answered from cache.
    pub hits: u64,
    /// Scenario lookups that went to a worker.
    pub misses: u64,
}

/// Nearest-rank percentiles over one latency dimension of the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

fn quantiles(values: &mut [u64]) -> Option<Quantiles> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = |q: f64| {
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    };
    Some(Quantiles {
        p50: rank(0.50),
        p90: rank(0.90),
        p99: rank(0.99),
        max: *values.last().unwrap(),
    })
}

/// Rolling aggregates over the window's current contents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAggregate {
    /// Samples currently in the window.
    pub window: usize,
    /// Requests ever pushed (beyond the window).
    pub requests: u64,
    /// Windowed cache hit ratio, `None` when the window saw no
    /// lookups.
    pub hit_ratio: Option<f64>,
    pub queue_us: Option<Quantiles>,
    pub execute_us: Option<Quantiles>,
    pub total_us: Option<Quantiles>,
}

/// A sliding window over the last N [`RequestSample`]s.
///
/// Count-based rather than time-based so aggregation is deterministic
/// for a given sample sequence — the unit tests pin exact percentiles.
#[derive(Debug, Clone)]
pub struct SloWindow {
    capacity: usize,
    total: u64,
    samples: VecDeque<RequestSample>,
}

impl SloWindow {
    /// A window over the last `capacity` requests (at least 1).
    pub fn new(capacity: usize) -> Self {
        SloWindow {
            capacity: capacity.max(1),
            total: 0,
            samples: VecDeque::new(),
        }
    }

    /// Records one completed request, evicting the oldest sample when
    /// the window is full.
    pub fn push(&mut self, sample: RequestSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
        self.total += 1;
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Aggregates the window: nearest-rank latency percentiles per
    /// dimension and the windowed cache hit ratio.
    pub fn aggregate(&self) -> SloAggregate {
        let mut queue = Vec::with_capacity(self.samples.len());
        let mut execute = Vec::with_capacity(self.samples.len());
        let mut total_us = Vec::with_capacity(self.samples.len());
        let (mut hits, mut lookups) = (0u64, 0u64);
        for s in &self.samples {
            queue.push(s.queue_us);
            execute.push(s.execute_us);
            total_us.push(s.total_us);
            hits += s.hits;
            lookups += s.hits + s.misses;
        }
        SloAggregate {
            window: self.samples.len(),
            requests: self.total,
            hit_ratio: (lookups > 0).then(|| hits as f64 / lookups as f64),
            queue_us: quantiles(&mut queue),
            execute_us: quantiles(&mut execute),
            total_us: quantiles(&mut total_us),
        }
    }
}

/// Maps a metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other byte becomes `_`, and a
/// leading digit gets a `_` prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format: one `# TYPE` declaration per family, counters and gauges as
/// plain samples (gauge high-water marks as a `_hwm` gauge), and
/// histograms as cumulative `_bucket{le="..."}` series with `_sum` and
/// `_count` — the shape `check_telemetry` gates and any Prometheus
/// scraper ingests directly.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value, hwm) in &snapshot.gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        out.push_str(&format!("# TYPE {name}_hwm gauge\n{name}_hwm {hwm}\n"));
    }
    for h in &snapshot.histograms {
        let name = sanitize(&h.name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, count) in h.counts.iter().enumerate() {
            cumulative += count;
            match h.bounds.get(i) {
                Some(b) => {
                    out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cumulative}\n"));
                }
                None => {
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                }
            }
        }
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    out
}

/// Atomically replaces `path` with `contents` (temp file + rename,
/// creating parent directories) — a scraper concurrent with the
/// rewrite reads either the old exposition or the new one, never a
/// torn mix.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn levels_order_most_severe_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        for level in Level::ALL {
            assert_eq!(Level::from_name(level.name()), Some(Some(level)));
        }
        assert_eq!(Level::from_name("off"), Some(None));
        assert_eq!(Level::from_name("loud"), None);
    }

    #[test]
    fn disabled_log_wants_nothing_and_buffers_nothing() {
        let mut log = EventLog::disabled("test");
        assert!(!log.wants(Level::Error));
        log.emit(Level::Error, "boom", vec![("k", Value::U64(1))]);
        assert!(log.is_empty());
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn capture_threshold_filters_less_severe_events() {
        let mut log = EventLog::new("test", Some(Level::Warn), 8);
        assert!(log.wants(Level::Error));
        assert!(log.wants(Level::Warn));
        assert!(!log.wants(Level::Info));
        log.emit(Level::Warn, "kept", vec![]);
        log.emit(Level::Info, "filtered", vec![]);
        assert_eq!(log.len(), 1);
        assert_eq!(log.events().next().unwrap().name, "kept");
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let mut log = EventLog::new("test", Some(Level::Trace), 2);
        log.emit(Level::Info, "a", vec![]);
        log.emit(Level::Info, "b", vec![]);
        log.emit(Level::Info, "c", vec![]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.total(), 3);
        let names: Vec<&str> = log.events().map(|e| e.name).collect();
        assert_eq!(names, ["b", "c"]);
        // Sequence numbers keep counting across the drop.
        let seqs: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2]);
    }

    #[test]
    fn jsonl_lines_carry_the_schema_version_and_typed_fields() {
        let mut log = EventLog::new("test", Some(Level::Trace), 8);
        log.emit(
            Level::Warn,
            "watchdog.stall",
            vec![
                ("req", Value::Str("r\"1".to_owned())),
                ("elapsed_ms", Value::U64(31)),
                ("ratio", Value::F64(0.5)),
                ("degraded", Value::Bool(true)),
                ("nan", Value::F64(f64::NAN)),
            ],
        );
        let jsonl = log.to_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with("{\"schema_version\":1,\"seq\":0,\"ts_us\":"));
        assert!(line.contains("\"level\":\"warn\",\"event\":\"watchdog.stall\""));
        assert!(line.contains("\"req\":\"r\\\"1\""));
        assert!(line.contains("\"elapsed_ms\":31"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.contains("\"degraded\":true"));
        // Non-finite floats degrade to null instead of invalid JSON.
        assert!(line.contains("\"nan\":null"));
    }

    #[test]
    fn event_timestamps_are_monotone() {
        let mut log = EventLog::new("test", Some(Level::Trace), 8);
        for _ in 0..5 {
            log.emit(Level::Info, "tick", vec![]);
        }
        let ts: Vec<u64> = log.events().map(|e| e.ts_us).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn slo_window_evicts_and_aggregates_nearest_rank() {
        let mut w = SloWindow::new(4);
        assert!(w.aggregate().total_us.is_none());
        for (i, total) in [10u64, 20, 30, 40, 50].iter().enumerate() {
            w.push(RequestSample {
                queue_us: i as u64,
                execute_us: total / 2,
                total_us: *total,
                scenarios: 1,
                hits: u64::from(i % 2 == 0),
                misses: u64::from(i % 2 != 0),
            });
        }
        // Capacity 4: the first sample (total 10) was evicted.
        let agg = w.aggregate();
        assert_eq!(agg.window, 4);
        assert_eq!(agg.requests, 5);
        let t = agg.total_us.unwrap();
        assert_eq!((t.p50, t.p90, t.p99, t.max), (30, 50, 50, 50));
        // Window holds samples 1..=4: hits at even i (2, 4) = 2 of 4.
        assert_eq!(agg.hit_ratio, Some(0.5));
    }

    #[test]
    fn slo_quantiles_of_a_single_sample_are_that_sample() {
        let mut w = SloWindow::new(8);
        w.push(RequestSample {
            total_us: 77,
            ..RequestSample::default()
        });
        let t = w.aggregate().total_us.unwrap();
        assert_eq!((t.p50, t.p99, t.max), (77, 77, 77));
        // No lookups at all: the ratio is absent, not fabricated.
        assert_eq!(w.aggregate().hit_ratio, None);
    }

    #[test]
    fn prometheus_histograms_are_cumulative_and_end_at_count() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("serve.requests");
        let g = m.gauge("serve.queue.depth");
        let h = m.histogram("serve.latency_us", &[10, 100]);
        m.add(c, 3);
        m.set_gauge(g, 2);
        m.observe(h, 5);
        m.observe(h, 50);
        m.observe(h, 5000);
        let text = prometheus_text(&m.snapshot());
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 3\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n"));
        assert!(text.contains("serve_queue_depth_hwm 2\n"));
        assert!(text.contains("# TYPE serve_latency_us histogram\n"));
        assert!(text.contains("serve_latency_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("serve_latency_us_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("serve_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("serve_latency_us_sum 5055\n"));
        assert!(text.contains("serve_latency_us_count 3\n"));
    }

    #[test]
    fn sanitize_maps_names_onto_the_prometheus_charset() {
        assert_eq!(sanitize("serve.cache.hit"), "serve_cache_hit");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn write_atomic_replaces_the_file() {
        let dir = std::env::temp_dir().join("hierbus_telemetry_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics.prom");
        write_atomic(&path, "first 1\n").unwrap();
        write_atomic(&path, "second 2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second 2\n");
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
