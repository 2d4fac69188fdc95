//! Request-scoped tracing: one connected Perfetto trace per protocol
//! request.
//!
//! [`TraceBuilder`] assembles the three track groups of a request's
//! trace — the daemon track (queued → cache-check → execute →
//! serialize, µs timebase), one track per worker thread that executed
//! a miss (µs timebase, spans from the campaign pool's
//! [`SinkScope`]), and the model-layer phase spans of the first few
//! executed scenarios (cycle timebase, straight from the bus
//! [`TraceCollector`]). Every span's `args` carry the request's trace
//! id, so the whole request reads as one connected story in
//! [ui.perfetto.dev](https://ui.perfetto.dev) and tooling can verify
//! daemon-side and model-layer spans belong to the same request.
//!
//! Finished traces land in a bounded [`TraceRing`]; the `dump-trace`
//! protocol op writes the ring to the daemon's `--trace-dir`.
//!
//! [`SinkScope`]: hierbus_campaign::SinkScope

use hierbus_obs::perfetto::{escape, phase_tid, TraceEvents};
use hierbus_obs::{Phase, TraceCollector};
use std::collections::VecDeque;

/// Perfetto `pid` of the daemon request track.
pub const DAEMON_PID: u32 = 1;
/// Perfetto `pid` of the worker-pool track group.
pub const WORKER_PID: u32 = 2;
/// First Perfetto `pid` of the model-layer track groups (one per
/// captured scenario).
pub const LAYER_PID_BASE: u32 = 3;

/// Executed scenarios per request whose model-layer spans are captured
/// — a cap, because layer spans are per-bus-phase and a thousand-
/// scenario batch would swamp the trace.
pub const LAYER_SPAN_CAP: usize = 4;

/// One finished request trace, ready to dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The client's request id.
    pub request_id: String,
    /// The daemon-assigned trace id (`t1`, `t2`, ...).
    pub trace_id: String,
    /// The complete trace-event JSON document.
    pub json: String,
}

/// Builds one request's trace-event document.
#[derive(Debug)]
pub struct TraceBuilder {
    request_id: String,
    trace_id: String,
    events: TraceEvents,
    named_workers: Vec<usize>,
    layer_slots: u32,
}

impl TraceBuilder {
    /// Starts a trace for one request. Track-group metadata for the
    /// daemon and worker groups is emitted up front; layer groups
    /// appear as scenarios are added.
    pub fn new(request_id: &str, trace_id: &str) -> Self {
        let mut events = TraceEvents::new();
        events.meta_process(DAEMON_PID, &format!("hierbus-serve request {request_id}"));
        events.meta_thread(DAEMON_PID, 1, "daemon");
        events.meta_process(WORKER_PID, "workers (µs)");
        TraceBuilder {
            request_id: request_id.to_owned(),
            trace_id: trace_id.to_owned(),
            events,
            named_workers: Vec::new(),
            layer_slots: 0,
        }
    }

    fn base_args(&self) -> String {
        format!(
            r#""trace":"{}","req":"{}""#,
            escape(&self.trace_id),
            escape(&self.request_id)
        )
    }

    /// A span on the daemon track (µs since the request was enqueued):
    /// `queued`, `cache-check`, `execute`, `serialize`.
    pub(crate) fn daemon_span(&mut self, name: &str, ts_us: u64, dur_us: u64) {
        let args = format!("{{{}}}", self.base_args());
        self.events.complete(
            DAEMON_PID,
            1,
            name,
            "serve",
            &ts_us.to_string(),
            &dur_us.to_string(),
            &args,
        );
    }

    /// One executed scenario on its worker's track (µs since the
    /// request was enqueued, straight from the campaign sink scope).
    pub(crate) fn worker_span(
        &mut self,
        worker: usize,
        scenario_index: usize,
        key: &str,
        started_us: u64,
        finished_us: u64,
    ) {
        if !self.named_workers.contains(&worker) {
            self.events
                .meta_thread(WORKER_PID, worker as u32 + 1, &format!("worker {worker}"));
            self.named_workers.push(worker);
        }
        let args = format!(r#"{{{},"key":"{}"}}"#, self.base_args(), escape(key));
        self.events.complete(
            WORKER_PID,
            worker as u32 + 1,
            &format!("scenario #{scenario_index}"),
            "serve",
            &started_us.to_string(),
            &finished_us.saturating_sub(started_us).to_string(),
            &args,
        );
    }

    /// The model-layer phase spans of one executed scenario, on its own
    /// track group. The timebase is bus cycles (as in
    /// [`hierbus_obs::perfetto::export`]), kept on a separate `pid` so
    /// the viewer doesn't mix cycle and µs axes; the shared trace id in
    /// `args` is the connection.
    pub(crate) fn layer_spans(&mut self, scenario_index: usize, collector: &TraceCollector) {
        let pid = LAYER_PID_BASE + self.layer_slots;
        self.layer_slots += 1;
        self.events.meta_process(
            pid,
            &format!("scenario #{scenario_index} {} (cycles)", collector.layer()),
        );
        for phase in Phase::ALL {
            self.events.meta_thread(pid, phase_tid(phase), phase.name());
        }
        for s in collector.spans() {
            let args = format!(
                r#"{{{},"txn":{},"addr":"0x{:x}","error":{}}}"#,
                self.base_args(),
                s.trace_id,
                s.addr,
                s.error
            );
            self.events.complete(
                pid,
                phase_tid(s.phase),
                &format!("{} {} #{}", s.class.name(), s.phase.name(), s.trace_id),
                "bus",
                &s.begin.to_string(),
                &s.duration().to_string(),
                &args,
            );
        }
    }

    /// Seals the document.
    pub fn finish(self) -> RequestTrace {
        RequestTrace {
            request_id: self.request_id,
            trace_id: self.trace_id,
            json: self.events.finish(),
        }
    }
}

/// Bounded ring of the most recent request traces.
#[derive(Debug, Default)]
pub struct TraceRing {
    capacity: usize,
    traces: VecDeque<RequestTrace>,
}

impl TraceRing {
    /// A ring retaining the last `capacity` request traces; capacity 0
    /// disables request tracing entirely.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            traces: VecDeque::new(),
        }
    }

    /// True when tracing is off (capacity 0).
    pub(crate) fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Retains `trace`, evicting the oldest when full; no-op when
    /// disabled.
    pub fn push(&mut self, trace: RequestTrace) {
        if self.capacity == 0 {
            return;
        }
        if self.traces.len() == self.capacity {
            self.traces.pop_front();
        }
        self.traces.push_back(trace);
    }

    /// Retained traces, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RequestTrace> {
        self.traces.iter()
    }

    pub fn len(&self) -> usize {
        self.traces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_obs::AccessClass;

    fn sample_collector() -> TraceCollector {
        let mut c = TraceCollector::for_layer("tlm1");
        c.begin(1, Phase::Address, 0, 0x100, AccessClass::Read);
        c.end(1, Phase::Address, 2, false);
        c.begin(1, Phase::ReadData, 3, 0x100, AccessClass::Read);
        c.end(1, Phase::ReadData, 4, false);
        c
    }

    #[test]
    fn trace_connects_daemon_worker_and_layer_spans_by_trace_id() {
        let mut b = TraceBuilder::new("r1", "t7");
        b.daemon_span("queued", 0, 120);
        b.daemon_span("cache-check", 120, 30);
        b.daemon_span("execute", 150, 900);
        b.daemon_span("serialize", 1050, 10);
        b.worker_span(0, 2, "deadbeef", 200, 800);
        b.layer_spans(2, &sample_collector());
        let trace = b.finish();
        assert_eq!(trace.trace_id, "t7");
        // Every span — daemon, worker, layer — carries the trace id.
        let tagged = trace.json.matches(r#""trace":"t7""#).count();
        assert_eq!(tagged, 4 + 1 + 2, "{}", trace.json);
        // The three track groups are present and named.
        assert!(trace.json.contains(r#""pid":1,"name":"process_name""#));
        assert!(trace.json.contains(r#""name":"worker 0""#));
        assert!(trace.json.contains("scenario #2 tlm1 (cycles)"));
        // Daemon phases in order, layer spans in cycle timebase.
        for name in ["queued", "cache-check", "execute", "serialize"] {
            assert!(
                trace.json.contains(&format!(r#""name":"{name}""#)),
                "{name}"
            );
        }
        assert!(trace.json.contains(r#""name":"read address #1""#));
        assert!(trace.json.contains(r#""name":"read read-data #1""#));
    }

    #[test]
    fn worker_tracks_are_named_once() {
        let mut b = TraceBuilder::new("r", "t1");
        b.worker_span(1, 0, "k0", 0, 5);
        b.worker_span(1, 3, "k3", 5, 9);
        let json = b.finish().json;
        assert_eq!(json.matches(r#""name":"worker 1""#).count(), 1);
        assert_eq!(json.matches(r#""name":"scenario #"#).count(), 2);
    }

    #[test]
    fn builder_escapes_client_controlled_ids() {
        let mut b = TraceBuilder::new("r\"1", "t1");
        b.daemon_span("queued", 0, 1);
        let json = b.finish().json;
        assert!(json.contains(r#""req":"r\"1""#), "{json}");
    }

    #[test]
    fn ring_bounds_retention_and_zero_capacity_disables() {
        let trace = |i: u64| RequestTrace {
            request_id: format!("r{i}"),
            trace_id: format!("t{i}"),
            json: String::new(),
        };
        let mut ring = TraceRing::new(2);
        assert!(!ring.is_disabled());
        for i in 0..3 {
            ring.push(trace(i));
        }
        let ids: Vec<&str> = ring.iter().map(|t| t.trace_id.as_str()).collect();
        assert_eq!(ids, ["t1", "t2"]);
        let mut off = TraceRing::new(0);
        assert!(off.is_disabled());
        off.push(trace(0));
        assert!(off.is_empty());
    }
}
