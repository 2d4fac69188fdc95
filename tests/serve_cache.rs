//! Result-cache behavior through the daemon: hit/miss accounting,
//! LRU eviction at capacity, and byte-identical replay of cached
//! results at every worker count — the serve-side analog of
//! `campaign_determinism.rs`.

use hierbus::serve::{Daemon, DaemonOptions, ScenarioSpec};
use hierbus_campaign::Json;
use hierbus_ec::MixParams;
use hierbus_power::CharacterizationDb;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

fn daemon(workers: usize, cache_capacity: usize) -> Daemon {
    Daemon::new(
        Arc::new(CharacterizationDb::uniform()),
        DaemonOptions {
            workers,
            cache_capacity,
            ..DaemonOptions::default()
        },
    )
}

fn run_request(id: &str, specs: &[ScenarioSpec]) -> String {
    Json::Obj(vec![
        ("v".to_owned(), Json::Num(1.0)),
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("op".to_owned(), Json::Str("run".to_owned())),
        (
            "scenarios".to_owned(),
            Json::Arr(specs.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
    .to_string_compact()
}

fn specs(n: u64) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|seed| ScenarioSpec::Mix {
            seed,
            params: MixParams {
                count: 40,
                ..MixParams::default()
            },
            waits: None,
        })
        .collect()
}

/// Streams one session and maps every result event to
/// `(request id, scenario index) -> (cached flag, exact result bytes)`.
/// Result events arrive in completion order, so comparisons go through
/// this map, never through stream position.
fn run_session(daemon: &Daemon, script: &str) -> BTreeMap<(String, u64), (bool, String)> {
    let mut output = Vec::new();
    daemon
        .serve(Cursor::new(script.to_owned()), &mut output)
        .expect("in-memory session");
    let mut results = BTreeMap::new();
    for line in String::from_utf8(output).expect("utf-8").lines() {
        let event = Json::parse(line).expect("response line parses");
        if event.get("event").and_then(Json::as_str) != Some("result") {
            continue;
        }
        let req = event.get("req").unwrap().as_str().unwrap().to_owned();
        let index = event.get("index").unwrap().as_u64().unwrap();
        let cached = event.get("cached").unwrap().as_bool().unwrap();
        let bytes = event.get("result").unwrap().to_string_compact();
        let previous = results.insert((req, index), (cached, bytes));
        assert!(previous.is_none(), "duplicate result for one request index");
    }
    results
}

#[test]
fn cached_replay_is_byte_identical_at_1_2_4_workers() {
    let specs = specs(6);
    let script = [run_request("cold", &specs), run_request("warm", &specs)].join("\n");

    let mut all_cold: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let d = daemon(workers, 64);
        let results = run_session(&d, &script);
        assert_eq!(results.len(), 2 * specs.len());
        let mut cold = Vec::new();
        for i in 0..specs.len() as u64 {
            let (cold_cached, cold_bytes) = &results[&("cold".to_owned(), i)];
            let (warm_cached, warm_bytes) = &results[&("warm".to_owned(), i)];
            assert!(!cold_cached, "first submission must simulate");
            assert!(warm_cached, "resubmission must be served from cache");
            assert_eq!(
                warm_bytes, cold_bytes,
                "cached result differs from fresh run at index {i}, {workers} workers"
            );
            cold.push(cold_bytes.clone());
        }
        all_cold.push(cold);
    }
    // Fresh results are also identical across worker counts — the
    // campaign engine's determinism contract, observed over the wire.
    for other in &all_cold[1..] {
        assert_eq!(other, &all_cold[0], "results differ across worker counts");
    }
}

#[test]
fn hit_and_miss_accounting_through_the_daemon() {
    let d = daemon(2, 64);
    let s = specs(4);
    let script = [
        run_request("a", &s),      // 4 misses
        run_request("b", &s[..2]), // 2 hits
        run_request("c", &s),      // 4 hits
    ]
    .join("\n");
    let mut output = Vec::new();
    let summary = d
        .serve(Cursor::new(script), &mut output)
        .expect("in-memory session");
    assert_eq!(summary.cache_misses, 4);
    assert_eq!(summary.cache_hits, 6);
    assert_eq!(d.cache_len(), 4);
    // The counters are exported through the obs metrics registry.
    let csv = d.metrics_csv();
    assert!(csv.contains("serve.cache.hit,count,6"), "{csv}");
    assert!(csv.contains("serve.cache.miss,count,4"), "{csv}");
    assert!(csv.contains("serve.requests,count,3"), "{csv}");
}

#[test]
fn lru_eviction_at_capacity_recomputes_evicted_scenarios() {
    // Capacity 2, one worker (deterministic completion order). Filling
    // with scenarios 0,1,2 evicts 0; resubmitting 0 misses and in turn
    // evicts 1; scenario 2 — the most recently used — keeps hitting.
    let d = daemon(1, 2);
    let s = specs(3);
    let script = [
        run_request("fill", &s),
        run_request("evicted", &s[..1]),
        run_request("mixed", &s[1..]),
    ]
    .join("\n");
    let results = run_session(&d, &script);
    for i in 0..3 {
        assert!(!results[&("fill".to_owned(), i)].0, "cold fill at {i}");
    }
    assert!(
        !results[&("evicted".to_owned(), 0)].0,
        "evicted scenario must recompute"
    );
    assert!(
        !results[&("mixed".to_owned(), 0)].0,
        "scenario 1 was evicted by the recomputation of scenario 0"
    );
    assert!(
        results[&("mixed".to_owned(), 1)].0,
        "most recently used entry was wrongly evicted"
    );
    // Recomputation reproduces the original bytes exactly.
    assert_eq!(
        results[&("evicted".to_owned(), 0)].1,
        results[&("fill".to_owned(), 0)].1
    );
    assert_eq!(d.cache_len(), 2);
    let csv = d.metrics_csv();
    assert!(csv.contains("serve.cache.eviction,count,3"), "{csv}");
}

#[test]
fn within_request_duplicates_simulate_once() {
    let d = daemon(2, 64);
    let one = specs(1);
    let duplicated = vec![one[0].clone(), one[0].clone(), one[0].clone()];
    let script = run_request("dup", &duplicated);
    let results = run_session(&d, &script);
    assert_eq!(results.len(), 3, "every index gets its result event");
    let bytes: Vec<&String> = (0..3).map(|i| &results[&("dup".to_owned(), i)].1).collect();
    assert_eq!(bytes[0], bytes[1]);
    assert_eq!(bytes[1], bytes[2]);
    assert_eq!(d.cache_len(), 1, "one simulation serves all duplicates");
}
