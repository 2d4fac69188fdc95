//! Daemon protocol behavior: request/response correlation, error
//! reporting, graceful drain, and bit-exactness of served results
//! against the batch harness.

use hierbus::harness;
use hierbus::serve::{Daemon, DaemonOptions, ScenarioSpec, MAX_LINE_BYTES};
use hierbus_campaign::Json;
use hierbus_ec::MixParams;
use hierbus_power::CharacterizationDb;
use std::collections::VecDeque;
use std::io::{BufReader, Cursor, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Output sink shared with [`GatedReader`]: the daemon's responses
/// accumulate here so later input can be gated on earlier output.
#[derive(Clone, Default)]
struct SharedOut(Arc<Mutex<Vec<u8>>>);

impl Write for SharedOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedOut {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 output")
    }

    fn contains(&self, needle: &str) -> bool {
        self.0
            .lock()
            .unwrap()
            .windows(needle.len())
            .any(|w| w == needle.as_bytes())
    }
}

/// Input released in steps: a step's bytes become readable only once
/// the session output contains its marker. Pipelining a `shutdown`
/// behind a `run` is inherently racy over instant in-memory input —
/// the reader thread can flag the shutdown before the serving loop
/// pops the run — so these tests pin the ordering they mean to test.
struct GatedReader {
    steps: VecDeque<(Option<&'static str>, String)>,
    out: SharedOut,
    current: Cursor<Vec<u8>>,
}

impl GatedReader {
    fn new(steps: Vec<(Option<&'static str>, String)>, out: SharedOut) -> Self {
        GatedReader {
            steps: steps.into_iter().collect(),
            out,
            current: Cursor::new(Vec::new()),
        }
    }
}

impl Read for GatedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let n = self.current.read(buf)?;
            if n > 0 {
                return Ok(n);
            }
            let Some((gate, text)) = self.steps.pop_front() else {
                return Ok(0);
            };
            if let Some(marker) = gate {
                let deadline = Instant::now() + Duration::from_secs(60);
                while !self.out.contains(marker) {
                    assert!(
                        Instant::now() < deadline,
                        "gate marker {marker:?} never appeared in the output"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            self.current = Cursor::new(text.into_bytes());
        }
    }
}

fn daemon(workers: usize) -> Daemon {
    Daemon::new(
        Arc::new(CharacterizationDb::uniform()),
        DaemonOptions {
            workers,
            ..DaemonOptions::default()
        },
    )
}

/// Runs one session over in-memory buffers, returning the parsed
/// response events plus the session summary.
fn session(daemon: &Daemon, script: impl AsRef<[u8]>) -> (Vec<Json>, hierbus::serve::ServeSummary) {
    let mut output = Vec::new();
    let summary = daemon
        .serve(Cursor::new(script.as_ref().to_vec()), &mut output)
        .expect("in-memory session");
    let events = String::from_utf8(output)
        .expect("utf-8 output")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    (events, summary)
}

fn field<'a>(event: &'a Json, name: &str) -> &'a Json {
    event.get(name).unwrap_or_else(|| panic!("missing {name}"))
}

fn event_name(event: &Json) -> &str {
    field(event, "event").as_str().unwrap()
}

#[test]
fn ping_stats_and_errors_are_correlated() {
    let d = daemon(1);
    let script = [
        r#"{"v":1,"id":"p1","op":"ping"}"#,
        r#"{"v":1,"id":"s1","op":"stats"}"#,
        r#"{"v":1,"id":"bad-op","op":"dance"}"#,
        r#"{"v":3,"id":"bad-version","op":"ping"}"#,
        "this is not json",
        r#"{"v":1,"id":"bad-name","op":"run","scenarios":[{"kind":"named","name":"nope"}]}"#,
    ]
    .join("\n");
    let (events, summary) = session(&d, &script);
    assert_eq!(events.len(), 6);
    assert_eq!(event_name(&events[0]), "pong");
    assert_eq!(field(&events[0], "req").as_str(), Some("p1"));
    assert_eq!(event_name(&events[1]), "stats");
    assert_eq!(field(&events[1], "cache_len").as_u64(), Some(0));
    assert_eq!(field(&events[1], "workers").as_u64(), Some(1));
    // Empty histogram: percentiles are null, not fabricated.
    assert!(matches!(field(&events[1], "latency_p50_us"), Json::Null));
    for (event, id) in events[2..5].iter().zip(["bad-op", "bad-version", ""]) {
        assert_eq!(event_name(event), "error");
        assert_eq!(field(event, "req").as_str(), Some(id));
    }
    assert_eq!(event_name(&events[5]), "error");
    assert!(field(&events[5], "message")
        .as_str()
        .unwrap()
        .contains("unknown scenario name"));
    assert!(!summary.shutdown, "EOF is not a shutdown");
    // ping, stats, and the failed run were handled; malformed lines
    // were answered but never dispatched.
    assert_eq!(summary.requests, 3);
}

#[test]
fn non_utf8_line_is_answered_and_the_session_continues() {
    let d = daemon(1);
    let script = b"{\"v\":1,\"id\":\"a\",\"op\":\"ping\"}\n\xff\xfe\n\
                   {\"v\":1,\"id\":\"b\",\"op\":\"ping\"}\n";
    let (events, summary) = session(&d, script);
    let names: Vec<&str> = events.iter().map(event_name).collect();
    assert_eq!(names, ["pong", "error", "pong"]);
    assert_eq!(field(&events[0], "req").as_str(), Some("a"));
    assert_eq!(field(&events[1], "req").as_str(), Some(""));
    assert!(field(&events[1], "message")
        .as_str()
        .unwrap()
        .contains("not valid UTF-8"));
    assert_eq!(field(&events[2], "req").as_str(), Some("b"));
    assert_eq!(summary.requests, 2);
}

#[test]
fn over_long_line_is_answered_and_the_next_request_served() {
    let d = daemon(1);
    let mut script = vec![b'x'; MAX_LINE_BYTES + 1];
    script.extend_from_slice(b"\n{\"v\":1,\"id\":\"after\",\"op\":\"ping\"}\n");
    let (events, summary) = session(&d, &script);
    assert_eq!(events.len(), 2);
    assert_eq!(event_name(&events[0]), "error");
    assert!(field(&events[0], "message")
        .as_str()
        .unwrap()
        .contains(&format!("exceeds {MAX_LINE_BYTES} bytes")));
    assert_eq!(event_name(&events[1]), "pong");
    assert_eq!(field(&events[1], "req").as_str(), Some("after"));
    assert_eq!(summary.requests, 1);
    // A line of exactly the limit is read, not rejected as over-long.
    let ping = br#"{"v":1,"id":"edge","op":"ping"}"#;
    let mut script = vec![b' '; MAX_LINE_BYTES - ping.len()];
    script.extend_from_slice(ping);
    script.push(b'\n');
    let (events, _) = session(&d, &script);
    assert_eq!(events.len(), 1);
    assert_eq!(event_name(&events[0]), "pong");
}

#[test]
fn spec_that_cannot_finish_is_rejected_and_the_session_continues() {
    // 50 ops with up to 4e9 idle cycles each cannot finish within the
    // run loop's cycle ceiling. Accepted, it panicked a worker and hung
    // the session; it is now rejected when the request is parsed. The
    // session runs on its own thread so a regression fails instead of
    // hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let script = concat!(
            r#"{"v":1,"id":"a","op":"run","scenarios":[{"kind":"mix","seed":7,"count":50,"max_idle":4000000000}]}"#,
            "\n",
            r#"{"v":1,"id":"p","op":"ping"}"#,
            "\n"
        );
        let _ = tx.send(session(&daemon(2), script));
    });
    let (events, summary) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the session drains at EOF");
    handle.join().expect("session thread");
    assert_eq!(events.len(), 2);
    assert_eq!(event_name(&events[0]), "error");
    assert_eq!(field(&events[0], "req").as_str(), Some("a"));
    let message = field(&events[0], "message").as_str().unwrap();
    assert!(
        message.contains("max_idle = 4000000000") && message.contains("above the limit"),
        "{message}"
    );
    assert_eq!(event_name(&events[1]), "pong");
    assert_eq!(field(&events[1], "req").as_str(), Some("p"));
    assert!(!summary.shutdown, "EOF is not a shutdown");
    assert_eq!(summary.requests, 1);
}

#[test]
fn run_streams_results_then_done_and_shutdown_says_bye() {
    let d = daemon(2);
    // The shutdown line is released only after the run's `done` event,
    // so the run is served, never retried.
    let out = SharedOut::default();
    let input = BufReader::new(GatedReader::new(
        vec![
            (
                None,
                concat!(
                    r#"{"v":1,"id":"r1","op":"run","scenarios":"#,
                    r#"[{"kind":"named","name":"burst_reads"},{"kind":"mix","seed":5,"count":50}]}"#,
                    "\n"
                )
                .to_owned(),
            ),
            (
                Some(r#""event":"done""#),
                concat!(r#"{"v":1,"id":"q","op":"shutdown"}"#, "\n").to_owned(),
            ),
        ],
        out.clone(),
    ));
    let summary = d.serve(input, out.clone()).expect("in-memory session");
    let events: Vec<Json> = out
        .take()
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    assert!(summary.shutdown);
    let results: Vec<&Json> = events
        .iter()
        .filter(|e| event_name(e) == "result")
        .collect();
    assert_eq!(results.len(), 2);
    for r in &results {
        assert_eq!(field(r, "req").as_str(), Some("r1"));
        assert_eq!(field(r, "cached").as_bool(), Some(false));
        let payload = field(r, "result");
        assert!(payload.get("cycles").unwrap().as_u64().unwrap() > 0);
        assert!(payload.get("energy_pj").unwrap().as_f64().unwrap() > 0.0);
    }
    // Both scenario indices are covered exactly once.
    let mut indices: Vec<u64> = results
        .iter()
        .map(|r| field(r, "index").as_u64().unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, [0, 1]);
    let done = events
        .iter()
        .find(|e| event_name(e) == "done")
        .expect("terminal done event");
    assert_eq!(field(done, "scenarios").as_u64(), Some(2));
    assert_eq!(field(done, "misses").as_u64(), Some(2));
    assert_eq!(event_name(events.last().unwrap()), "bye");
    assert_eq!(field(events.last().unwrap(), "req").as_str(), Some("q"));
}

#[test]
fn shutdown_drains_and_retries_queued_requests() {
    let d = daemon(1);
    // The first request's second scenario is big enough to still be in
    // flight when the rest of the script lands: the follow-up run and
    // the shutdown are released the moment the first result event is
    // streamed, so the follow-up is queued when the shutdown flag is
    // raised and must be answered with a retryable status.
    let out = SharedOut::default();
    let input = BufReader::new(GatedReader::new(
        vec![
            (
                None,
                concat!(
                    r#"{"v":1,"id":"inflight","op":"run","scenarios":"#,
                    r#"[{"kind":"mix","seed":1,"count":50},{"kind":"mix","seed":2,"count":20000}]}"#,
                    "\n"
                )
                .to_owned(),
            ),
            (
                Some(r#""event":"result""#),
                concat!(
                    r#"{"v":1,"id":"queued","op":"run","scenarios":[{"kind":"named","name":"single_read"}]}"#,
                    "\n",
                    r#"{"v":1,"id":"bye","op":"shutdown"}"#,
                    "\n"
                )
                .to_owned(),
            ),
        ],
        out.clone(),
    ));
    let summary = d.serve(input, out.clone()).expect("in-memory session");
    let events: Vec<Json> = out
        .take()
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    assert!(summary.shutdown);
    assert_eq!(summary.retried, 1, "the queued run must be retried");
    // The in-flight request finished cleanly: both results + done.
    let inflight: Vec<&Json> = events
        .iter()
        .filter(|e| field(e, "req").as_str() == Some("inflight"))
        .collect();
    assert_eq!(inflight.len(), 3);
    assert_eq!(event_name(inflight.last().unwrap()), "done");
    // The queued request got a clean retryable status, not silence.
    let retry = events
        .iter()
        .find(|e| field(e, "req").as_str() == Some("queued"))
        .expect("queued request answered");
    assert_eq!(event_name(retry), "retry");
    assert_eq!(field(retry, "reason").as_str(), Some("shutting-down"));
    assert_eq!(event_name(events.last().unwrap()), "bye");
}

#[test]
fn served_results_match_the_batch_harness_bit_exactly() {
    // The daemon must never drift from the tools it replaces: its lean
    // serve-side session and `harness::run_layer1` agree on cycles and
    // energy to the last bit.
    let db = harness::standard_db();
    let d = Daemon::new(
        Arc::new(db.clone()),
        DaemonOptions {
            workers: 2,
            ..DaemonOptions::default()
        },
    );
    let specs = [
        ScenarioSpec::Named {
            name: "burst_writes".to_owned(),
        },
        ScenarioSpec::Mix {
            seed: 99,
            params: MixParams {
                count: 150,
                ..MixParams::default()
            },
            waits: None,
        },
    ];
    let line = Json::Obj(vec![
        ("v".to_owned(), Json::Num(1.0)),
        ("id".to_owned(), Json::Str("x".to_owned())),
        ("op".to_owned(), Json::Str("run".to_owned())),
        (
            "scenarios".to_owned(),
            Json::Arr(specs.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
    .to_string_compact();
    let (events, _) = session(&d, &line);
    for event in events.iter().filter(|e| event_name(e) == "result") {
        let index = field(event, "index").as_u64().unwrap() as usize;
        let hierbus::serve::Materialized::Single(scenario) = specs[index].materialize().unwrap()
        else {
            panic!("these specs are single-master")
        };
        let expected = harness::run_layer1(&scenario, &db);
        let payload = field(event, "result");
        assert_eq!(
            payload.get("cycles").unwrap().as_u64(),
            Some(expected.cycles)
        );
        let served = payload.get("energy_pj").unwrap().as_f64().unwrap();
        assert_eq!(
            served.to_bits(),
            expected.energy_pj.to_bits(),
            "served energy differs from run_layer1 at spec {index}"
        );
    }
}

#[test]
fn drain_under_load_retries_every_queued_request_without_interleaving() {
    let d = daemon(1);
    // A run with a large trailing scenario is in flight; the moment its
    // first result streams, a pipelined burst lands at once: two more
    // runs, a malformed line, a ping, and the shutdown. Everything
    // queued when the shutdown flag is raised must get a deterministic
    // answer — `retry`/`error`, in submission order, never silence —
    // and none of it may interleave into the in-flight request's
    // result stream.
    let out = SharedOut::default();
    let input = BufReader::new(GatedReader::new(
        vec![
            (
                None,
                concat!(
                    r#"{"v":1,"id":"inflight","op":"run","scenarios":"#,
                    r#"[{"kind":"mix","seed":1,"count":50},{"kind":"mix","seed":2,"count":20000}]}"#,
                    "\n"
                )
                .to_owned(),
            ),
            (
                Some(r#""event":"result""#),
                concat!(
                    r#"{"v":1,"id":"q1","op":"run","scenarios":[{"kind":"named","name":"single_read"}]}"#,
                    "\n",
                    r#"{"v":1,"id":"q2","op":"run","scenarios":[{"kind":"multi","seed":3,"cpu_count":10}]}"#,
                    "\n",
                    "this is not json\n",
                    r#"{"v":1,"id":"q3","op":"ping"}"#,
                    "\n",
                    r#"{"v":1,"id":"bye","op":"shutdown"}"#,
                    "\n"
                )
                .to_owned(),
            ),
        ],
        out.clone(),
    ));
    let summary = d.serve(input, out.clone()).expect("in-memory session");
    let events: Vec<Json> = out
        .take()
        .lines()
        .map(|l| Json::parse(l).expect("every response line is JSON"))
        .collect();
    assert!(summary.shutdown);
    assert_eq!(summary.retried, 4, "q1, q2, the bad line and q3");
    // The in-flight request finished uncorrupted: both results (indices
    // 0 and 1, in order) and its done event, contiguously.
    let inflight: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| field(e, "req").as_str() == Some("inflight"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(inflight, vec![0, 1, 2], "in-flight stream was interleaved");
    assert_eq!(event_name(&events[2]), "done");
    for (slot, index) in inflight[..2].iter().zip([0u64, 1]) {
        assert_eq!(event_name(&events[*slot]), "result");
        assert_eq!(field(&events[*slot], "index").as_u64(), Some(index));
    }
    // The queued requests were answered in submission order with
    // deterministic statuses: retry, retry, error, retry.
    let expected = [
        ("q1", "retry"),
        ("q2", "retry"),
        ("", "error"),
        ("q3", "retry"),
    ];
    for (event, (id, name)) in events[3..7].iter().zip(expected) {
        assert_eq!(event_name(event), name);
        assert_eq!(field(event, "req").as_str(), Some(id));
        if name == "retry" {
            assert_eq!(field(event, "reason").as_str(), Some("shutting-down"));
        }
    }
    assert_eq!(event_name(events.last().unwrap()), "bye");
    assert_eq!(events.len(), 8);
}

#[test]
fn served_multi_results_match_the_multi_harness_bit_exactly() {
    use hierbus::serve::Materialized;
    use hierbus_ec::{ArbitrationPolicy, BurstLen, DmaParams};

    let db = harness::standard_db();
    let d = Daemon::new(
        Arc::new(db.clone()),
        DaemonOptions {
            workers: 2,
            ..DaemonOptions::default()
        },
    );
    let specs = [
        ScenarioSpec::Multi {
            seed: 21,
            policy: ArbitrationPolicy::FixedPriority,
            cpu_count: 60,
            dma: DmaParams::default(),
        },
        ScenarioSpec::Multi {
            seed: 21,
            policy: ArbitrationPolicy::RoundRobin,
            cpu_count: 60,
            dma: DmaParams {
                burst: BurstLen::B8,
                ..DmaParams::default()
            },
        },
    ];
    let line = Json::Obj(vec![
        ("v".to_owned(), Json::Num(1.0)),
        ("id".to_owned(), Json::Str("m".to_owned())),
        ("op".to_owned(), Json::Str("run".to_owned())),
        (
            "scenarios".to_owned(),
            Json::Arr(specs.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
    .to_string_compact();
    let (events, summary) = session(&d, &line);
    assert_eq!(summary.cache_misses, 2);
    let mut seen = 0;
    for event in events.iter().filter(|e| event_name(e) == "result") {
        let index = field(event, "index").as_u64().unwrap() as usize;
        let Materialized::Multi(ms) = specs[index].materialize().unwrap() else {
            panic!("multi specs are multi-master")
        };
        let expected = hierbus::power::Session::new(&db).run(
            &hierbus::power::RunSpec::new(hierbus::power::Layer::L1, hierbus::power::Capture::Full),
            &ms.into(),
        );
        let payload = field(event, "result");
        assert_eq!(
            payload.get("cycles").unwrap().as_u64(),
            Some(expected.cycles),
            "spec {index}"
        );
        let served = payload.get("energy_pj").unwrap().as_f64().unwrap();
        assert_eq!(
            served.to_bits(),
            expected.energy_pj.to_bits(),
            "served multi energy differs from the multi harness at spec {index}"
        );
        seen += 1;
    }
    assert_eq!(seen, 2);
    // Resubmission replays the identical bytes from cache. Both
    // sessions stream results in completion order, which two workers
    // make nondeterministic — so pair the payloads by scenario index.
    let (replay, summary) = session(&d, &line);
    assert_eq!((summary.cache_hits, summary.cache_misses), (2, 0));
    let payload_of = |evs: &[Json], index: u64| {
        evs.iter()
            .filter(|e| event_name(e) == "result")
            .find(|e| field(e, "index").as_u64() == Some(index))
            .map(|e| field(e, "result").clone())
            .expect("one result per scenario index")
    };
    let mut replayed = 0;
    for event in replay.iter().filter(|e| event_name(e) == "result") {
        assert_eq!(field(event, "cached").as_bool(), Some(true));
        let index = field(event, "index").as_u64().unwrap();
        assert_eq!(field(event, "result"), &payload_of(&events, index));
        replayed += 1;
    }
    assert_eq!(replayed, 2);
}

#[test]
fn cache_index_persists_across_daemons_and_rejects_foreign_dbs() {
    let dir = std::env::temp_dir().join("hierbus_serve_index_test");
    let _ = std::fs::remove_dir_all(&dir);
    let index = dir.join("cache.index.json");
    let opts = || DaemonOptions {
        workers: 1,
        cache_capacity: 16,
        cache_index: Some(index.clone()),
        ..DaemonOptions::default()
    };
    let script =
        r#"{"v":1,"id":"a","op":"run","scenarios":[{"kind":"named","name":"burst_reads"}]}"#;

    let first = Daemon::new(Arc::new(CharacterizationDb::uniform()), opts());
    let (_, summary) = session(&first, script);
    assert_eq!((summary.cache_hits, summary.cache_misses), (0, 1));
    assert!(index.is_file(), "drain must flush the index");

    // A new daemon over the same database starts warm.
    let second = Daemon::new(Arc::new(CharacterizationDb::uniform()), opts());
    assert_eq!(second.cache_len(), 1);
    let (events, summary) = session(&second, script);
    assert_eq!((summary.cache_hits, summary.cache_misses), (1, 0));
    let result = events
        .iter()
        .find(|e| event_name(e) == "result")
        .expect("result event");
    assert_eq!(field(result, "cached").as_bool(), Some(true));

    // A daemon over a different characterization must not replay it.
    let foreign = Daemon::new(Arc::new(harness::standard_db()), opts());
    assert_eq!(foreign.cache_len(), 0, "foreign index must be discarded");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_length_ping_is_parsed_in_linear_time() {
    // A ping line of exactly the limit, nearly all of it the id string:
    // the pong must echo the whole id, and the health probe behind it
    // (answered on the same reader thread) must not wait on a quadratic
    // string parse. The session runs on its own thread so a regression
    // fails on the deadline instead of stalling the suite.
    let frame = r#"{"v":1,"id":"","op":"ping"}"#;
    let prefix = "long-é-";
    let id = format!(
        "{prefix}{}",
        "x".repeat(MAX_LINE_BYTES - frame.len() - prefix.len())
    );
    let line = format!(r#"{{"v":1,"id":"{id}","op":"ping"}}"#);
    assert_eq!(line.len(), MAX_LINE_BYTES);
    let script = format!("{line}\n{}\n", r#"{"v":1,"id":"h","op":"health"}"#);
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(session(&daemon(1), script));
    });
    let (events, summary) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a max-length line parses in linear time");
    handle.join().expect("session thread");
    // The reader answers health out-of-band, so it may overtake the
    // pong.
    let mut answers: Vec<(&str, &str)> = events
        .iter()
        .map(|e| (event_name(e), field(e, "req").as_str().unwrap()))
        .collect();
    answers.sort_unstable();
    assert_eq!(answers, [("health", "h"), ("pong", id.as_str())]);
    assert_eq!(summary.requests, 1);
}

#[test]
fn unknown_name_beside_a_cached_spec_is_rejected_before_the_cache() {
    // Request 2 repeats request 1's cached mix next to an unknown name.
    // The name is checked before the cache pass, so request 2 streams
    // exactly one error and no result, and counts no cache lookup.
    let d = daemon(1);
    let mix = r#"{"kind":"mix","seed":7,"count":50}"#;
    let script = [
        format!(r#"{{"v":1,"id":"r1","op":"run","scenarios":[{mix}]}}"#),
        r#"{"v":1,"id":"s1","op":"stats"}"#.to_owned(),
        format!(
            r#"{{"v":1,"id":"r2","op":"run","scenarios":[{mix},{{"kind":"named","name":"nope"}}]}}"#
        ),
        r#"{"v":1,"id":"s2","op":"stats"}"#.to_owned(),
    ]
    .join("\n");
    let (events, summary) = session(&d, &script);
    let of = |req: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| field(e, "req").as_str() == Some(req))
            .collect()
    };
    let r2 = of("r2");
    assert_eq!(r2.len(), 1, "request 2 gets one event");
    assert_eq!(event_name(r2[0]), "error");
    let message = field(r2[0], "message").as_str().unwrap();
    assert!(
        message.contains("scenarios[1]: unknown scenario name"),
        "{message}"
    );
    let (s1, s2) = (of("s1")[0], of("s2")[0]);
    for counter in ["cache_hits", "cache_misses"] {
        assert_eq!(
            field(s1, counter).as_u64(),
            field(s2, counter).as_u64(),
            "{counter} moved for a rejected request"
        );
    }
    assert_eq!(field(s2, "cache_hits").as_u64(), Some(0));
    assert_eq!((summary.cache_hits, summary.cache_misses), (0, 1));
    assert_eq!(summary.requests, 4);
}

#[test]
fn spliced_hit_line_is_canonical_and_carries_the_fresh_payload() {
    // A cached result's bytes are spliced into its event line, not
    // re-serialized: the line must still be exactly what the serializer
    // writes, and its payload must match the fresh run's byte for byte.
    let d = daemon(2);
    let specs = r#"[{"kind":"mix","seed":11,"count":60},{"kind":"multi","seed":4,"cpu_count":40}]"#;
    let script = format!(
        "{}\n{}\n",
        format_args!(r#"{{"v":1,"id":"fresh","op":"run","scenarios":{specs}}}"#),
        format_args!(r#"{{"v":1,"id":"hit","op":"run","scenarios":{specs}}}"#),
    );
    let mut output = Vec::new();
    d.serve(Cursor::new(script), &mut output)
        .expect("in-memory session");
    let output = String::from_utf8(output).expect("utf-8 output");
    // (request, index) -> raw payload bytes, taken from the line text.
    let mut payloads = std::collections::BTreeMap::new();
    for line in output.lines() {
        let event = Json::parse(line).expect("every response line is JSON");
        assert_eq!(event.to_string_compact(), line, "line is not canonical");
        if event_name(&event) != "result" {
            continue;
        }
        let req = field(&event, "req").as_str().unwrap().to_owned();
        let cached = field(&event, "cached").as_bool().unwrap();
        assert_eq!(cached, req == "hit");
        let marker = format!(r#""cached":{cached},"result":"#);
        let (_, rest) = line.split_once(&marker).expect("result is the last field");
        let raw = rest.strip_suffix('}').expect("line ends its object");
        assert_eq!(raw, field(&event, "result").to_string_compact());
        let index = field(&event, "index").as_u64().unwrap();
        payloads.insert((req, index), raw.to_owned());
    }
    assert_eq!(payloads.len(), 4);
    for index in 0..2 {
        assert_eq!(
            payloads[&("hit".to_owned(), index)],
            payloads[&("fresh".to_owned(), index)],
            "cached payload {index} differs from the fresh one"
        );
    }
}
