//! Chrome trace-event / Perfetto JSON exporter.
//!
//! Emits the legacy JSON trace format that both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly. Each model
//! layer becomes one *process*, each protocol phase one *thread* track,
//! spans become `ph:"X"` complete events, and energy traces become
//! `ph:"C"` counter tracks. Timestamps are in microseconds; we map one
//! bus cycle to one microsecond so cycle numbers read off the viewer
//! axis unchanged.
//!
//! Output is fully deterministic (no wall clock, stable ordering) so it
//! can be golden-file tested.

use crate::span::{Phase, TraceCollector};

/// JSON string escaping as the trace-event format needs it — public so
/// other producers (the serve daemon's request-trace assembler) can
/// build `args` objects that match this module's formatting exactly.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The thread track (`tid`) of a protocol phase within its layer's
/// process — public so other producers (the serve daemon's
/// request-trace assembler) lay phase spans on the same tracks.
pub fn phase_tid(phase: Phase) -> u32 {
    match phase {
        Phase::Request => 1,
        Phase::Address => 2,
        Phase::ReadData => 3,
        Phase::WriteData => 4,
    }
}

/// Incremental builder for a trace-event JSON document: the envelope
/// and per-event formatting used by [`export`], reusable by other
/// producers (the serve daemon builds its per-request traces with
/// it). Events render in push order; [`finish`]
/// produces the same envelope bytes `export` always emitted.
///
/// [`finish`]: TraceEvents::finish
#[derive(Debug, Default)]
pub struct TraceEvents {
    events: Vec<String>,
}

impl TraceEvents {
    pub fn new() -> Self {
        TraceEvents::default()
    }

    /// `process_name` metadata: names the `pid` track group.
    pub fn meta_process(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            r#"{{"ph":"M","pid":{pid},"name":"process_name","args":{{"name":"{}"}}}}"#,
            escape(name)
        ));
    }

    /// `thread_name` metadata: names one track inside a process.
    pub fn meta_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"thread_name","args":{{"name":"{}"}}}}"#,
            escape(name)
        ));
    }

    /// A `ph:"X"` complete event. `ts`/`dur` are pre-rendered numbers
    /// (integer cycles or fractional microseconds) and `args` is a
    /// pre-rendered JSON object.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts: &str,
        dur: &str,
        args: &str,
    ) {
        self.events.push(format!(
            r#"{{"ph":"X","pid":{pid},"tid":{tid},"name":"{}","cat":"{cat}","ts":{ts},"dur":{dur},"args":{args}}}"#,
            escape(name)
        ));
    }

    /// A `ph:"C"` counter sample.
    pub fn counter(&mut self, pid: u32, name: &str, ts: u64, value: f64) {
        let name = escape(name);
        self.events.push(format!(
            r#"{{"ph":"C","pid":{pid},"name":"{name}","ts":{ts},"args":{{"{name}":{value}}}}}"#
        ));
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Wraps the pushed events in the trace-event envelope.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Renders one or more per-layer collectors as a single trace-event
/// JSON document. Accepts owned or borrowed collector slices.
pub fn export<C: std::borrow::Borrow<TraceCollector>>(collectors: &[C]) -> String {
    let mut tb = TraceEvents::new();
    for (i, c) in collectors.iter().enumerate() {
        let c = c.borrow();
        let pid = i as u32 + 1;
        tb.meta_process(pid, c.layer());
        for phase in Phase::ALL {
            tb.meta_thread(pid, phase_tid(phase), phase.name());
        }
        for s in c.spans() {
            tb.complete(
                pid,
                phase_tid(s.phase),
                &format!("{} {} #{}", s.class.name(), s.phase.name(), s.trace_id),
                "bus",
                &s.begin.to_string(),
                &s.duration().to_string(),
                &format!(
                    r#"{{"trace_id":{},"addr":"0x{:x}","error":{}}}"#,
                    s.trace_id, s.addr, s.error
                ),
            );
        }
        for t in c.counters() {
            // Stored samples, then the dedup-dropped end of a trailing
            // plateau (if any) so the counter holds its final value for
            // the full run instead of stopping at the plateau's first
            // cycle.
            let trailing = t.trailing_sample();
            for &(cycle, value) in t.samples.iter().chain(trailing.iter()) {
                tb.counter(pid, &t.name, cycle, value);
            }
        }
    }
    tb.finish()
}

/// Writes [`export`]ed JSON to `path`, creating parent directories.
pub fn save<C: std::borrow::Borrow<TraceCollector>>(
    path: impl AsRef<std::path::Path>,
    collectors: &[C],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, export(collectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::AccessClass;

    fn sample_collector() -> TraceCollector {
        let mut c = TraceCollector::for_layer("tlm1");
        c.begin(1, Phase::Request, 0, 0x100, AccessClass::Read);
        c.end(1, Phase::Request, 1, false);
        c.begin(1, Phase::Address, 2, 0x100, AccessClass::Read);
        c.end(1, Phase::Address, 3, false);
        c.counter_sample("energy_pj", 0, 2.25);
        c
    }

    #[test]
    fn export_is_valid_trace_json_shape() {
        let c = sample_collector();
        let json = export(&[&c]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("}"));
        assert!(json.contains(r#""ph":"M","pid":1,"name":"process_name","args":{"name":"tlm1"}"#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""name":"read address #1""#));
        assert!(json.contains(r#""ts":2,"dur":2"#));
        assert!(json
            .contains(r#""ph":"C","pid":1,"name":"energy_pj","ts":0,"args":{"energy_pj":2.25}"#));
    }

    #[test]
    fn export_is_deterministic() {
        let c = sample_collector();
        assert_eq!(export(&[&c]), export(&[&c]));
    }

    #[test]
    fn multiple_collectors_get_distinct_pids() {
        let a = sample_collector();
        let mut b = TraceCollector::for_layer("rtl");
        b.begin(1, Phase::Request, 0, 0x100, AccessClass::Read);
        b.end(1, Phase::Request, 1, false);
        let json = export(&[&a, &b]);
        assert!(json.contains(r#""pid":1,"name":"process_name","args":{"name":"tlm1"}"#));
        assert!(json.contains(r#""pid":2,"name":"process_name","args":{"name":"rtl"}"#));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn counter_plateau_ends_at_its_last_cycle() {
        // Regression: the dedup in counter_sample dropped the final
        // sample of a plateau, so exported ramps ended early.
        let mut c = TraceCollector::for_layer("tlm1");
        c.counter_sample("e", 0, 1.0);
        c.counter_sample("e", 1, 2.0);
        c.counter_sample("e", 5, 2.0);
        let json = export(&[&c]);
        assert!(json.contains(r#""name":"e","ts":1,"args":{"e":2}"#));
        assert!(json.contains(r#""name":"e","ts":5,"args":{"e":2}"#));
        // No duplicate event when the last sample was stored anyway.
        let mut c2 = TraceCollector::for_layer("tlm1");
        c2.counter_sample("e", 0, 1.0);
        c2.counter_sample("e", 5, 2.0);
        let json2 = export(&[&c2]);
        assert_eq!(json2.matches(r#""ts":5"#).count(), 1);
    }

    #[test]
    fn trace_events_builder_matches_export_formatting() {
        // The builder is the formatting authority behind export(); a
        // hand-driven builder replay of a collector must be
        // byte-identical to export() so golden traces never drift.
        let c = sample_collector();
        let mut tb = TraceEvents::new();
        tb.meta_process(1, c.layer());
        for phase in Phase::ALL {
            tb.meta_thread(1, phase_tid(phase), phase.name());
        }
        for s in c.spans() {
            tb.complete(
                1,
                phase_tid(s.phase),
                &format!("{} {} #{}", s.class.name(), s.phase.name(), s.trace_id),
                "bus",
                &s.begin.to_string(),
                &s.duration().to_string(),
                &format!(
                    r#"{{"trace_id":{},"addr":"0x{:x}","error":{}}}"#,
                    s.trace_id, s.addr, s.error
                ),
            );
        }
        for t in c.counters() {
            let trailing = t.trailing_sample();
            for &(cycle, value) in t.samples.iter().chain(trailing.iter()) {
                tb.counter(1, &t.name, cycle, value);
            }
        }
        assert_eq!(tb.finish(), export(&[&c]));
    }

    #[test]
    fn trace_events_builder_escapes_names() {
        let mut tb = TraceEvents::new();
        tb.meta_process(1, "a\"b");
        tb.complete(1, 1, "x\ny", "cat", "0", "1", "{}");
        assert_eq!(tb.len(), 2);
        let json = tb.finish();
        assert!(json.contains(r#""name":"a\"b""#));
        assert!(json.contains(r#""name":"x\ny""#));
    }

    #[test]
    fn empty_builder_still_emits_the_envelope() {
        let tb = TraceEvents::new();
        assert!(tb.is_empty());
        assert_eq!(
            tb.finish(),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n"
        );
    }

    #[test]
    fn every_line_of_events_is_json_balanced() {
        // Cheap structural check: each event line has balanced braces.
        let c = sample_collector();
        let json = export(&[&c]);
        for line in json.lines().skip(1) {
            if line.starts_with('{') {
                let line = line.trim_end_matches(',');
                let opens = line.matches('{').count();
                let closes = line.matches('}').count();
                assert_eq!(opens, closes, "unbalanced: {line}");
            }
        }
    }
}
