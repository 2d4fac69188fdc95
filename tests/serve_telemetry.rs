//! The serve telemetry plane: request-scoped traces that connect
//! daemon, worker and model-layer spans under one trace id; the
//! watchdog flipping health to degraded on a stalled request; the v2
//! `subscribe`/`health`/`dump-trace` ops; and the zero-cost default
//! (telemetry off leaves no residue in responses).

use hierbus::serve::{Daemon, DaemonOptions};
use hierbus_campaign::Json;
use hierbus_obs::telemetry::Level;
use hierbus_power::CharacterizationDb;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn daemon(opts: DaemonOptions) -> Daemon {
    Daemon::new(Arc::new(CharacterizationDb::uniform()), opts)
}

/// Runs one session over in-memory buffers, returning the parsed
/// response events.
fn session(daemon: &Daemon, script: &str) -> Vec<Json> {
    let mut output = Vec::new();
    daemon
        .serve(Cursor::new(script.to_owned()), &mut output)
        .expect("in-memory session");
    String::from_utf8(output)
        .expect("utf-8 output")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect()
}

fn field<'a>(event: &'a Json, name: &str) -> &'a Json {
    event.get(name).unwrap_or_else(|| panic!("missing {name}"))
}

fn event_name(event: &Json) -> &str {
    field(event, "event").as_str().unwrap()
}

#[test]
fn a_run_request_produces_one_connected_trace() {
    let d = daemon(DaemonOptions {
        workers: 2,
        trace_requests: 8,
        ..DaemonOptions::default()
    });
    let script = concat!(
        r#"{"v":2,"id":"r1","op":"run","scenarios":"#,
        r#"[{"kind":"named","name":"burst_reads"},{"kind":"mix","seed":5,"count":50}]}"#,
    );
    let events = session(&d, script);
    let done = events
        .iter()
        .find(|e| event_name(e) == "done")
        .expect("done event");
    assert_eq!(field(done, "trace").as_str(), Some("t1"));

    let traces = d.request_traces();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.request_id, "r1");
    assert_eq!(trace.trace_id, "t1");
    let json = &trace.json;

    // The daemon track tells the request's whole story in order.
    for name in ["queued", "cache-check", "execute", "serialize"] {
        assert!(json.contains(&format!(r#""name":"{name}""#)), "{name}");
    }
    // Both executed scenarios appear on worker tracks, and their
    // model-layer phase spans were captured on layer track groups.
    assert!(json.contains(r#""name":"scenario #0""#));
    assert!(json.contains(r#""name":"scenario #1""#));
    assert!(json.contains("(cycles)"), "layer track group missing");
    assert!(json.contains(r#""cat":"bus""#), "no model-layer spans");

    // Connectivity: every single span — daemon, worker, and layer —
    // carries the same trace id in its args.
    let spans = json.matches(r#""ph":"X""#).count();
    let tagged = json.matches(r#""trace":"t1""#).count();
    assert!(spans >= 4 + 2 + 2, "suspiciously few spans: {spans}");
    assert_eq!(spans, tagged, "some spans are missing the trace id");

    // A second request gets its own trace id; the ring keeps both.
    let events = session(&d, &script.replace("\"r1\"", "\"r2\""));
    let done = events.iter().find(|e| event_name(e) == "done").unwrap();
    assert_eq!(field(done, "trace").as_str(), Some("t2"));
    assert_eq!(d.request_traces().len(), 2);
}

#[test]
fn tracing_off_by_default_leaves_no_residue() {
    let d = daemon(DaemonOptions {
        workers: 1,
        ..DaemonOptions::default()
    });
    let events = session(
        &d,
        r#"{"v":1,"id":"r1","op":"run","scenarios":[{"kind":"named","name":"single_read"}]}"#,
    );
    let done = events.iter().find(|e| event_name(e) == "done").unwrap();
    assert!(done.get("trace").is_none(), "untraced done carries no id");
    assert!(d.request_traces().is_empty());
    assert!(
        d.telemetry_jsonl().is_empty(),
        "logging off captures nothing"
    );
}

#[test]
fn a_stalled_request_degrades_health_and_warns() {
    let d = daemon(DaemonOptions {
        workers: 1,
        deadline_ms: 1,
        log_level: Some(Level::Warn),
        ..DaemonOptions::default()
    });
    // A scenario big enough to hold the pool well past the 1 ms
    // deadline; the monitor must observe the stall while it executes.
    let script =
        r#"{"v":2,"id":"slow","op":"run","scenarios":[{"kind":"mix","seed":2,"count":20000}]}"#;
    let (ok_before, reasons) = d.health();
    assert!(ok_before, "fresh daemon is healthy: {reasons:?}");
    let mut saw_degraded = None;
    std::thread::scope(|scope| {
        let session = scope.spawn(|| session(&d, script));
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline && !session.is_finished() {
            let (ok, reasons) = d.health();
            if !ok {
                saw_degraded = Some(reasons);
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        session.join().expect("session thread");
    });
    let reasons = saw_degraded.expect("health never degraded during the stall");
    assert!(
        reasons.iter().any(|r| r == "stalled-request:slow"),
        "unexpected reasons: {reasons:?}"
    );
    // The stall left durable evidence: a warn event and a counter.
    let jsonl = d.telemetry_jsonl();
    let warn = jsonl
        .lines()
        .find(|l| l.contains(r#""event":"watchdog.stall""#))
        .expect("watchdog warn event");
    assert!(warn.contains(r#""level":"warn""#), "{warn}");
    assert!(warn.contains(r#""req":"slow""#), "{warn}");
    assert!(warn.contains(r#""schema_version":1"#), "{warn}");
    assert!(d
        .metrics_csv()
        .contains("counter,serve.watchdog.stall,count,1\n"));
    // The request completed, so health recovered.
    let (ok, reasons) = d.health();
    assert!(
        ok,
        "health must recover after the stall clears: {reasons:?}"
    );
}

#[test]
fn subscribe_health_and_extended_stats_speak_protocol_v2() {
    let d = daemon(DaemonOptions {
        workers: 1,
        ..DaemonOptions::default()
    });
    let script = [
        // Long period: the immediate ack snapshot is the only one,
        // keeping the event count deterministic.
        r#"{"v":2,"id":"sub","op":"subscribe","every_ms":60000}"#,
        r#"{"v":2,"id":"r1","op":"run","scenarios":[{"kind":"named","name":"burst_reads"}]}"#,
        r#"{"v":2,"id":"h","op":"health"}"#,
        r#"{"v":2,"id":"off","op":"subscribe","every_ms":0}"#,
        r#"{"v":2,"id":"s","op":"stats"}"#,
    ]
    .join("\n");
    let events = session(&d, &script);

    let snapshot = events
        .iter()
        .find(|e| event_name(e) == "snapshot")
        .expect("subscribe acks with an immediate snapshot");
    assert_eq!(field(snapshot, "req").as_str(), Some("sub"));
    assert_eq!(field(snapshot, "health").as_str(), Some("ok"));

    let health = events
        .iter()
        .find(|e| event_name(e) == "health")
        .expect("health event");
    assert_eq!(field(health, "req").as_str(), Some("h"));
    assert_eq!(field(health, "status").as_str(), Some("ok"));
    assert_eq!(field(health, "reasons").as_arr().map(|r| r.len()), Some(0));

    assert!(
        events.iter().any(|e| event_name(e) == "unsubscribed"),
        "every_ms:0 unsubscribes"
    );

    let stats = events
        .iter()
        .find(|e| event_name(e) == "stats")
        .expect("stats event");
    // Cache counters and occupancy ride in the stats reply.
    assert_eq!(field(stats, "cache_len").as_u64(), Some(1));
    assert_eq!(field(stats, "cache_hits").as_u64(), Some(0));
    assert_eq!(field(stats, "cache_misses").as_u64(), Some(1));
    assert_eq!(field(stats, "cache_evictions").as_u64(), Some(0));
    let occupancy = field(stats, "cache_occupancy").as_f64().unwrap();
    assert!(occupancy > 0.0 && occupancy <= 1.0, "{occupancy}");
    // Rolling-window SLO aggregates cover the one run.
    assert_eq!(field(stats, "win_requests").as_u64(), Some(1));
    assert_eq!(field(stats, "win_hit_ratio").as_f64(), Some(0.0));
    assert!(field(stats, "win_total_p50_us").as_u64().is_some());
    assert_eq!(field(stats, "single_scenarios").as_u64(), Some(1));
    assert_eq!(field(stats, "multi_scenarios").as_u64(), Some(0));
    assert_eq!(field(stats, "watchdog_stalls").as_u64(), Some(0));
    assert_eq!(field(stats, "health").as_str(), Some("ok"));
}

#[test]
fn dump_trace_writes_retained_traces_to_the_trace_dir() {
    let dir = std::env::temp_dir().join("hierbus_serve_trace_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let d = daemon(DaemonOptions {
        workers: 1,
        trace_requests: 8,
        trace_dir: Some(dir.clone()),
        ..DaemonOptions::default()
    });
    let script = [
        r#"{"v":2,"id":"r1","op":"run","scenarios":[{"kind":"named","name":"single_read"}]}"#,
        r#"{"v":2,"id":"d1","op":"dump-trace"}"#,
    ]
    .join("\n");
    let events = session(&d, &script);
    let traces = events
        .iter()
        .find(|e| event_name(e) == "traces")
        .expect("dump-trace reply");
    assert_eq!(field(traces, "count").as_u64(), Some(1));
    let files = field(traces, "files").as_arr().unwrap();
    assert_eq!(files.len(), 1);
    let path = std::path::PathBuf::from(files[0].as_str().unwrap());
    let contents = std::fs::read_to_string(&path).expect("dumped trace file");
    assert!(contents.contains(r#""trace":"t1""#));
    assert!(contents.contains(r#""name":"queued""#));
    let _ = std::fs::remove_dir_all(&dir);

    // Without a trace dir the op answers with an error, not a panic.
    let bare = daemon(DaemonOptions {
        trace_requests: 8,
        ..DaemonOptions::default()
    });
    let events = session(&bare, r#"{"v":2,"id":"d","op":"dump-trace"}"#);
    assert_eq!(event_name(&events[0]), "error");
    assert!(field(&events[0], "message")
        .as_str()
        .unwrap()
        .contains("trace directory"));
}

#[test]
fn event_log_captures_leveled_session_events() {
    let d = daemon(DaemonOptions {
        workers: 1,
        log_level: Some(Level::Debug),
        ..DaemonOptions::default()
    });
    let script = [
        r#"{"v":1,"id":"r1","op":"run","scenarios":[{"kind":"named","name":"single_read"}]}"#,
        "this is not json",
    ]
    .join("\n");
    session(&d, &script);
    let jsonl = d.telemetry_jsonl();
    // Every line is schema-versioned JSON with monotonically increasing
    // sequence numbers.
    let mut last_seq = 0;
    for line in jsonl.lines() {
        let event = Json::parse(line).expect("event log line is JSON");
        assert_eq!(field(&event, "schema_version").as_u64(), Some(1));
        let seq = field(&event, "seq").as_u64().unwrap();
        assert!(seq > last_seq || last_seq == 0, "seq not monotone");
        last_seq = seq;
    }
    for (needle, level) in [
        (r#""event":"session.start""#, "info"),
        (r#""event":"request.done""#, "debug"),
        (r#""event":"request.bad""#, "warn"),
        (r#""event":"session.end""#, "info"),
    ] {
        let line = jsonl
            .lines()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("missing {needle}"));
        assert!(line.contains(&format!(r#""level":"{level}""#)), "{line}");
    }
    // At warn threshold the debug/info events are never captured.
    let quiet = daemon(DaemonOptions {
        workers: 1,
        log_level: Some(Level::Warn),
        ..DaemonOptions::default()
    });
    session(&quiet, &script);
    let jsonl = quiet.telemetry_jsonl();
    assert!(!jsonl.contains("request.done"));
    assert!(jsonl.contains("request.bad"));
}

#[test]
fn metrics_file_is_written_in_prometheus_text_format() {
    let dir = std::env::temp_dir().join("hierbus_serve_metrics_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.prom");
    let d = daemon(DaemonOptions {
        workers: 1,
        metrics_file: Some(path.clone()),
        ..DaemonOptions::default()
    });
    session(
        &d,
        r#"{"v":1,"id":"r1","op":"run","scenarios":[{"kind":"named","name":"single_read"}]}"#,
    );
    let text = std::fs::read_to_string(&path).expect("metrics file");
    assert_eq!(text, d.metrics_prometheus());
    assert!(text.contains("# TYPE serve_requests counter"));
    assert!(text.contains("serve_requests 1\n"));
    assert!(text.contains("# TYPE serve_request_latency_us histogram"));
    assert!(text.contains(r#"serve_request_latency_us_bucket{le="+Inf"} 1"#));
    let _ = std::fs::remove_dir_all(&dir);
}
