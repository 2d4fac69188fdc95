//! `serve_cold` and `serve_hot`: one client in a closed loop over a
//! Unix socket pair into an in-process `Daemon::serve` with two
//! workers. Cold traffic never repeats a scenario, so every request
//! simulates, spawns the pool, builds sessions and inserts into (and
//! evicts from) the result cache. Hot traffic draws Zipf-distributed
//! keys from a warmed set, so requests are cache reads.
//!
//! The traced run replays each request line through the public stage
//! functions in daemon order — parse, materialize, fingerprint, cache
//! lookup, execute on the campaign pool, encode and insert — with a
//! private `ResultCache` fed the same key stream; the latency those
//! stages leave unexplained is the daemon's glue (transport, queueing,
//! bookkeeping).

use crate::report::Outcome;
use crate::run::{
    alternating, end_to_end, ms_since, shuffle, timed_loop, RunConfig, Timed, TracedLoop,
    SETUP_REPS,
};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use hierbus::campaign::{run_with_sink, CampaignOptions, CampaignPayload, Json, Matrix, SinkScope};
use hierbus::ec::sequences::Scenario;
use hierbus::ec::{ArbitrationPolicy, DmaParams, MixParams};
use hierbus::harness;
use hierbus::power::CharacterizationDb;
use hierbus::serve::{
    db_fingerprint, parse_request, Daemon, DaemonOptions, LeanResult, Materialized, Op, Request,
    ResultCache, ScenarioSpec, ServeSession, DEFAULT_CACHE_CAPACITY,
};
use hierbus::sim::SplitMix64;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon worker threads (the host has two CPUs).
pub const WORKERS: usize = 2;
/// Scenario specs per request.
pub const SPECS: usize = 16;
/// Of which `multi` (CPU + DMA behind an arbiter); the rest are mixes.
const MULTI_SPECS: usize = 2;
/// Operations per mix, and CPU operations per multi.
const OPS: usize = 200;
/// Warmed keys of the hot set.
pub const WARM_KEYS: usize = 512;
/// Zipf exponent of hot key popularity.
pub const ZIPF_S: f64 = 1.1;
/// Every this-many-th hot request also carries one never-seen scenario.
pub const FRESH_EVERY: u64 = 20;
/// Untimed requests that warm the daemon before the loop.
const WARM_REQUESTS: u64 = (WARM_KEYS / SPECS) as u64;
/// Every this-many-th cold result is re-run directly after the loop.
const CHECK_EVERY: u64 = 64;
/// Requests between daemon `stats` snapshots in a traced segment.
const STATS_EVERY: u64 = 32;
/// A reply slower than this means the daemon is wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight
/// `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.f64() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

fn mix_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::Mix {
        seed,
        params: MixParams {
            count: OPS,
            ..MixParams::default()
        },
        waits: None,
    }
}

fn multi_spec(seed: u64, policy: ArbitrationPolicy) -> ScenarioSpec {
    ScenarioSpec::Multi {
        seed,
        policy,
        cpu_count: OPS,
        dma: DmaParams::default(),
    }
}

/// The `j`-th spec of a cold-shaped request whose seeds start at
/// `seed`: mixes, then one multi per arbitration policy.
fn cold_spec(seed: u64, j: usize) -> ScenarioSpec {
    match j.checked_sub(SPECS - MULTI_SPECS) {
        None => mix_spec(seed),
        Some(m) => multi_spec(seed, ArbitrationPolicy::ALL[m % 2]),
    }
}

/// One request of the stream: its specs, and for each the warm key it
/// draws (`None` for a never-seen scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpecs {
    pub specs: Vec<ScenarioSpec>,
    pub warm: Vec<Option<usize>>,
}

/// The seeded request stream of a serve workload. Seeds stay below
/// 2^53 so that they survive the protocol's JSON numbers exactly.
#[derive(Debug, Clone)]
pub struct Traffic {
    hot: bool,
    base: u64,
    /// Hot: the warm key set, ranked by a seeded permutation.
    warm: Vec<ScenarioSpec>,
    rank_to_key: Vec<usize>,
    zipf: Zipf,
    rng: SplitMix64,
}

impl Traffic {
    pub fn new(seed: u64, hot: bool) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5E4F_E000);
        let base = rng.next_u64() >> 20;
        let warm: Vec<ScenarioSpec> = (0..WARM_KEYS)
            .map(|k| cold_spec(base + k as u64, k % SPECS))
            .collect();
        let mut rank_to_key: Vec<usize> = (0..WARM_KEYS).collect();
        shuffle(&mut rank_to_key, &mut rng);
        Traffic {
            hot,
            base,
            warm,
            rank_to_key,
            zipf: Zipf::new(WARM_KEYS, ZIPF_S),
            rng,
        }
    }

    pub fn warm_specs(&self) -> &[ScenarioSpec] {
        &self.warm
    }

    /// Request `r` of the stream; requests must be drawn in order.
    /// The first [`WARM_REQUESTS`] are the untimed warm-up: for hot
    /// traffic they insert the warm key set, for cold traffic they are
    /// ordinary cold requests.
    pub fn request(&mut self, r: u64) -> RequestSpecs {
        // Fresh seeds live above the warm keys' and never repeat.
        let base = self.base;
        let fresh = |i: u64| base + WARM_KEYS as u64 + i;
        if !self.hot || r < WARM_REQUESTS {
            let keys = (0..SPECS).map(|j| {
                let k = r as usize * SPECS + j;
                if self.hot {
                    (self.warm[k].clone(), Some(k))
                } else {
                    (cold_spec(fresh(k as u64), j), None)
                }
            });
            let (specs, warm) = keys.unzip();
            return RequestSpecs { specs, warm };
        }
        let mut out = RequestSpecs {
            specs: Vec::with_capacity(SPECS + 1),
            warm: Vec::with_capacity(SPECS + 1),
        };
        for _ in 0..SPECS {
            let key = self.rank_to_key[self.zipf.sample(&mut self.rng)];
            out.specs.push(self.warm[key].clone());
            out.warm.push(Some(key));
        }
        if r % FRESH_EVERY == FRESH_EVERY - 1 {
            // Alternate the fresh scenario's kind so that both
            // execution paths appear on hot traffic too.
            let j = if (r / FRESH_EVERY).is_multiple_of(2) {
                0
            } else {
                SPECS - 1
            };
            out.specs.push(cold_spec(fresh(r), j));
            out.warm.push(None);
        }
        out
    }
}

/// The bus traffic of the workload's request stream: the operations of
/// its mix scenarios in stream order, concatenated and cut at `txns`.
pub fn bus_stimulus(seed: u64, hot: bool, txns: usize) -> Scenario {
    let mut traffic = Traffic::new(seed, hot);
    let (mut ops, mut waits) = (Vec::with_capacity(txns), None);
    let mut r = 0;
    while ops.len() < txns {
        for spec in traffic.request(r).specs {
            if let ScenarioSpec::Mix { .. } = spec {
                if let Ok(Materialized::Single(s)) = spec.materialize() {
                    waits.get_or_insert(s.waits);
                    ops.extend(s.ops.iter().cloned());
                }
            }
        }
        r += 1;
    }
    ops.truncate(txns);
    Scenario {
        name: "serve_mixes",
        ops: ops.into(),
        waits: waits.expect("every request carries mixes"),
    }
}

/// A protocol `run` line.
pub fn run_line(id: &str, specs: &[ScenarioSpec]) -> String {
    Json::Obj(vec![
        ("v".to_owned(), Json::Num(2.0)),
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("op".to_owned(), Json::Str("run".to_owned())),
        (
            "scenarios".to_owned(),
            Json::Arr(specs.iter().map(ScenarioSpec::to_json).collect()),
        ),
    ])
    .to_string_compact()
}

/// The client end of the socket pair.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

/// Why a request failed: a check (the loop goes on) or a daemon that
/// no longer answers (the run cannot go on).
enum Failure {
    Check(String),
    Dead(String),
}

impl Conn {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        Ok(line)
    }

    /// Sends a line and reads events until one named `last` (or an
    /// `error` event); returns the latency from write to that event and
    /// every event read.
    fn exchange(&mut self, line: &str, last: &str) -> Result<(f64, Vec<String>), Failure> {
        let dead = |e: io::Error| Failure::Dead(e.to_string());
        let want = format!("\"event\":\"{last}\"");
        let start = Instant::now();
        self.send(line).map_err(dead)?;
        let mut events = Vec::new();
        loop {
            let ev = self.recv().map_err(dead)?;
            let done = ev.contains(&want);
            if ev.contains("\"event\":\"error\"") {
                return Err(Failure::Check(format!("daemon error: {}", ev.trim())));
            }
            events.push(ev);
            if done {
                return Ok((ms_since(start), events));
            }
        }
    }
}

/// Runs `f` against a fresh daemon over a socket pair, then shuts the
/// daemon down and waits for it.
fn with_daemon<R>(db: &Arc<CharacterizationDb>, f: impl FnOnce(&mut Conn) -> R) -> R {
    let daemon = Daemon::new(
        Arc::clone(db),
        DaemonOptions {
            workers: WORKERS,
            ..DaemonOptions::default()
        },
    );
    let (client, server) = UnixStream::pair().expect("socket pair");
    client
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("socket read timeout");
    std::thread::scope(|s| {
        let server_in = server.try_clone().expect("socket clone");
        let daemon = &daemon;
        let handle = s.spawn(move || daemon.serve(BufReader::new(server_in), server));
        let mut conn = Conn {
            writer: client.try_clone().expect("socket clone"),
            reader: BufReader::new(client),
        };
        let out = f(&mut conn);
        match conn.exchange(r#"{"v":2,"id":"bye","op":"shutdown"}"#, "bye") {
            Ok(_) => {}
            Err(Failure::Check(e) | Failure::Dead(e)) => wedged(&e),
        }
        drop(conn);
        handle
            .join()
            .expect("daemon thread")
            .expect("daemon session ends cleanly");
        out
    })
}

/// A daemon that stopped answering cannot be shut down or joined, so
/// the run ends here without a result line.
fn wedged(why: &str) -> ! {
    eprintln!("daemon stopped answering: {why}");
    std::process::exit(1);
}

/// One parsed `result` event.
struct ResultEvent {
    index: usize,
    cached: bool,
    /// The compact bytes of its `result` field.
    result: String,
}

fn parse_results(events: &[String], expected: usize) -> Result<Vec<ResultEvent>, String> {
    let mut out = Vec::with_capacity(expected);
    for ev in events {
        let json = Json::parse(ev.trim())?;
        if json.get("event").and_then(Json::as_str) != Some("result") {
            continue;
        }
        let field = |k: &str| json.get(k).ok_or(format!("result event without {k}"));
        out.push(ResultEvent {
            index: field("index")?.as_u64().ok_or("bad index")? as usize,
            cached: field("cached")?.as_bool().ok_or("bad cached flag")?,
            result: field("result")?.to_string_compact(),
        });
    }
    if out.len() != expected {
        return Err(format!("{} results for {expected} scenarios", out.len()));
    }
    Ok(out)
}

/// The serialized result a scenario must produce, computed directly on
/// a session outside the daemon.
fn direct(session: &mut ServeSession, spec: &ScenarioSpec) -> String {
    let m = spec.materialize().expect("generated specs materialize");
    session.run_materialized(&m).to_json().to_string_compact()
}

/// The workload's client: the stream, the oracle and what it checks.
struct Client {
    traffic: Traffic,
    /// Hot: every warm key's result, computed in set-up.
    oracle: Vec<String>,
    /// Cold: sampled `(spec, served result)` pairs to re-run later.
    sampled: Vec<(ScenarioSpec, String)>,
    scenarios: u64,
    next: u64,
}

impl Client {
    fn new(cfg: &RunConfig, hot: bool, db: &CharacterizationDb) -> Self {
        let traffic = Traffic::new(cfg.seed, hot);
        let oracle = if hot {
            let mut session = ServeSession::new(db);
            traffic
                .warm_specs()
                .iter()
                .map(|s| direct(&mut session, s))
                .collect()
        } else {
            Vec::new()
        };
        Client {
            traffic,
            oracle,
            sampled: Vec::new(),
            scenarios: 0,
            next: 0,
        }
    }

    /// Sends the next request of the stream and checks its results;
    /// returns the latency, and the line for a replay.
    fn request(&mut self, conn: &mut Conn) -> Result<(f64, String), String> {
        let r = self.next;
        self.next += 1;
        let req = self.traffic.request(r);
        let line = run_line(&format!("r{r}"), &req.specs);
        let (ms, events) = match conn.exchange(&line, "done") {
            Ok(v) => v,
            Err(Failure::Check(e)) => return Err(e),
            Err(Failure::Dead(e)) => wedged(&e),
        };
        for ev in parse_results(&events, req.specs.len())? {
            let n = self.scenarios + ev.index as u64;
            match req.warm[ev.index] {
                // Warm keys (hot traffic) must match the oracle,
                // whether served from cache or recomputed.
                Some(k) if self.traffic.hot => {
                    if ev.result != self.oracle[k] {
                        return Err(format!("warm key {k} served {}", ev.result));
                    }
                }
                _ if self.traffic.hot => {}
                _ => {
                    if ev.cached {
                        return Err(format!("cold scenario {n} was served from cache"));
                    }
                    if n.is_multiple_of(CHECK_EVERY) {
                        self.sampled.push((req.specs[ev.index].clone(), ev.result));
                    }
                }
            }
        }
        self.scenarios += req.specs.len() as u64;
        Ok((ms, line))
    }

    fn warm(&mut self, conn: &mut Conn) -> Result<Vec<String>, String> {
        (0..WARM_REQUESTS)
            .map(|_| self.request(conn).map(|(_, line)| line))
            .collect()
    }

    /// Re-runs the sampled cold scenarios directly; returns mismatches.
    fn check_sampled(&self, db: &CharacterizationDb) -> u64 {
        let mut session = ServeSession::new(db);
        let bad = self
            .sampled
            .iter()
            .filter(|(spec, served)| direct(&mut session, spec) != *served)
            .count() as u64;
        if bad > 0 {
            eprintln!("{bad} sampled cold results differ from a direct run");
        }
        bad
    }
}

fn segment(hot: bool) -> u64 {
    if hot {
        250
    } else {
        100
    }
}

/// The untraced run.
pub fn run(cfg: &RunConfig, hot: bool, out: &mut Outcome) {
    let db = harness::shared_db();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let mut client = Client::new(cfg, hot, &db);
        with_daemon(&db, |conn| {
            let warmed = client.warm(conn);
            setup_s.push(start.elapsed().as_secs_f64());
            if let Err(e) = warmed {
                eprintln!("warm-up failed: {e}");
                out.correct = false;
                return;
            }
            if rep + 1 < SETUP_REPS {
                return;
            }
            let timed = timed_loop(cfg.seconds, segment(hot), |_| {
                client.request(conn).map(|(ms, _)| ms)
            });
            end_to_end(&timed, &setup_s, out);
            out.failed += client.check_sampled(&db);
            out.correct = out.failed == 0;
        });
    }
}

/// What a traced serve session yields besides its loop.
pub struct ServeTrace {
    /// The daemon's own rolling-window p50s of queue wait and of total
    /// request time, one per `stats` snapshot.
    pub queue_p50_us: Vec<f64>,
    pub total_p50_us: Vec<f64>,
    pub ping_us: Vec<f64>,
    /// The private replay cache after the whole key stream.
    pub hit_ratio: f64,
    pub evictions: u64,
}

/// Replays request lines through the daemon's stages, spanned.
struct Replay {
    db: Arc<CharacterizationDb>,
    db_fp: String,
    cache: Mutex<ResultCache>,
}

/// Times `f` as a span when traced.
fn stage<R>(
    t: Option<&Tracer>,
    name: &'static str,
    track: u32,
    parent: Option<usize>,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match t {
        Some(t) => t.time(name, track, parent, req, f),
        None => f(),
    }
}

/// A `result` event as the daemon emits it: the cached bytes re-parsed
/// into the event object and the event serialized.
fn result_event(req: &str, index: usize, key: &str, cached: bool, bytes: &str) -> String {
    Json::Obj(vec![
        ("v".to_owned(), Json::Num(2.0)),
        ("req".to_owned(), Json::Str(req.to_owned())),
        ("event".to_owned(), Json::Str("result".to_owned())),
        ("index".to_owned(), Json::Num(index as f64)),
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("cached".to_owned(), Json::Bool(cached)),
        (
            "result".to_owned(),
            Json::parse(bytes).expect("results are valid JSON"),
        ),
    ])
    .to_string_compact()
}

impl Replay {
    fn new(db: &Arc<CharacterizationDb>) -> Self {
        Replay {
            db: Arc::clone(db),
            db_fp: db_fingerprint(db),
            cache: Mutex::new(ResultCache::new(DEFAULT_CACHE_CAPACITY)),
        }
    }

    /// Replays one request line; spans go on track 1 (daemon stages)
    /// and 2.. (pool workers) when traced.
    fn request(&self, line: &str, t: Option<&Tracer>, req: u64) {
        let root = t.map(|t| t.open("serve.replay", 1, None, req));
        let request = stage(t, "serve.parse", 1, root, req, || parse_request(line));
        let Ok(Request {
            id,
            op: Op::Run(specs),
        }) = request
        else {
            panic!("replayed lines are valid run requests");
        };
        let scenarios = stage(t, "serve.materialize", 1, root, req, || {
            specs
                .iter()
                .map(|s| s.materialize().expect("generated specs materialize"))
                .collect::<Vec<_>>()
        });
        let keys = stage(t, "serve.fingerprint", 1, root, req, || {
            specs
                .iter()
                .map(|s| s.fingerprint(&self.db_fp))
                .collect::<Vec<_>>()
        });
        let (hits, miss_keys, miss_at) = stage(t, "serve.cache.get", 1, root, req, || {
            let mut cache = self.cache.lock().expect("replay cache");
            let (mut hits, mut miss_keys, mut miss_at) =
                (Vec::new(), Vec::<String>::new(), Vec::new());
            for (i, key) in keys.iter().enumerate() {
                match cache.get(key) {
                    Some(bytes) => hits.push((i, bytes)),
                    None if !miss_keys.contains(key) => {
                        miss_keys.push(key.clone());
                        miss_at.push(i);
                    }
                    None => {}
                }
            }
            (hits, miss_keys, miss_at)
        });
        for (i, bytes) in &hits {
            stage(t, "serve.result_codec", 1, root, req, || {
                std::hint::black_box(result_event(&id, *i, &keys[*i], true, bytes))
            });
        }
        if !miss_keys.is_empty() {
            let exec = t.map(|t| t.open("serve.exec", 1, root, req));
            let next_track = AtomicU32::new(2);
            run_with_sink(
                &Matrix::new().axis("spec", miss_keys.iter().cloned()),
                &CampaignOptions::with_workers("serve", WORKERS),
                || {
                    let track = next_track.fetch_add(1, Ordering::Relaxed);
                    let session = stage(t, "serve.session_new", track, exec, req, || {
                        ServeSession::new(&self.db)
                    });
                    (session, track)
                },
                |(session, track), point| {
                    let m = &scenarios[miss_at[point.index]];
                    let name = match m {
                        Materialized::Single(_) => "serve.exec_single",
                        Materialized::Multi(_) => "serve.exec_multi",
                    };
                    let result = stage(t, name, *track, exec, req, || session.run_materialized(m));
                    Served {
                        result,
                        track: *track,
                    }
                },
                |scope: &SinkScope, served: &Served| {
                    let (key, track) = (&miss_keys[scope.point.index], served.track);
                    let bytes = stage(t, "serve.result_codec", track, exec, req, || {
                        let bytes = served.result.to_json().to_string_compact();
                        std::hint::black_box(result_event(
                            &id,
                            miss_at[scope.point.index],
                            key,
                            false,
                            &bytes,
                        ));
                        bytes
                    });
                    stage(t, "serve.cache.insert", track, exec, req, || {
                        self.cache.lock().expect("replay cache").insert(key, bytes)
                    });
                },
            )
            .expect("manifest-less campaign does no I/O");
            if let (Some(t), Some(exec)) = (t, exec) {
                t.finish(exec);
            }
        }
        if let (Some(t), Some(root)) = (t, root) {
            t.finish(root);
        }
    }
}

/// The replay's campaign payload: a result and the worker track that
/// produced it, so the sink records on the same track.
struct Served {
    result: LeanResult,
    track: u32,
}

impl CampaignPayload for Served {
    fn to_json(&self) -> Json {
        self.result.to_json()
    }

    fn from_json(json: &Json) -> Option<Self> {
        LeanResult::from_json(json).map(|result| Served { result, track: 0 })
    }
}

/// Sends `stats` and returns the daemon's rolling-window queue-wait
/// and total-time p50 in µs (absent until a request has been served).
fn daemon_stats(conn: &mut Conn) -> Option<(f64, f64)> {
    let (_, events) = match conn.exchange(r#"{"v":2,"id":"st","op":"stats"}"#, "stats") {
        Ok(v) => v,
        Err(Failure::Check(_)) => return None,
        Err(Failure::Dead(e)) => wedged(&e),
    };
    let json = Json::parse(events.last()?.trim()).ok()?;
    Some((
        json.get("win_queue_p50_us")?.as_f64()?,
        json.get("win_total_p50_us")?.as_f64()?,
    ))
}

/// `n` `ping` round trips in µs: the transport floor.
fn pings(conn: &mut Conn, n: usize) -> Vec<f64> {
    (0..n)
        .map(
            |_| match conn.exchange(r#"{"v":2,"id":"p","op":"ping"}"#, "pong") {
                Ok((ms, _)) => ms * 1e3,
                Err(Failure::Check(e) | Failure::Dead(e)) => wedged(&e),
            },
        )
        .collect()
}

/// A traced session: after warm-up, the workload's own loop in
/// alternating untraced and traced quarters of `seconds` — or, with
/// `requests`, that many requests, all traced: the probe other
/// workloads run. Every request is replayed so the private cache sees
/// the whole key stream; spans are kept only when traced.
pub fn traced(cfg: &RunConfig, hot: bool, requests: Option<u64>) -> (TracedLoop, ServeTrace) {
    let db = harness::shared_db();
    let mut client = Client::new(cfg, hot, &db);
    let replay = Replay::new(&db);
    let tracer = Tracer::new();
    let mut stats = Vec::new();
    let mut ping_us = Vec::new();
    let mut traced_requests = 0u64;
    let (plain, traced) = with_daemon(&db, |conn| {
        for line in client
            .warm(conn)
            .expect("warm-up requests pass their checks")
        {
            replay.request(&line, None, 0);
        }
        let mut op = |on: bool| -> Result<f64, String> {
            let req = client.next;
            let root = on.then(|| tracer.open("request", 0, None, req));
            let (ms, line) = client.request(conn)?;
            if let Some(root) = root {
                tracer.finish(root);
            }
            replay.request(&line, on.then_some(&tracer), req);
            traced_requests += u64::from(on);
            if on && traced_requests.is_multiple_of(STATS_EVERY) {
                stats.extend(daemon_stats(conn));
            }
            Ok(ms)
        };
        let loops = match requests {
            Some(n) => (Timed::default(), timed_loop_n(n, || op(true))),
            None => alternating(cfg.seconds, segment(hot), |_, on| op(on)),
        };
        stats.extend(daemon_stats(conn));
        ping_us = pings(conn, 200);
        loops
    });
    let (queue, total): (Vec<f64>, Vec<f64>) = stats.into_iter().unzip();
    let cache = replay.cache.into_inner().expect("replay cache");
    let lookups = cache.hits() + cache.misses();
    let own = TracedLoop {
        plain,
        traced,
        spans: tracer.into_spans(),
    };
    let serve = ServeTrace {
        queue_p50_us: queue,
        total_p50_us: total,
        ping_us,
        hit_ratio: cache.hits() as f64 / lookups.max(1) as f64,
        evictions: cache.evictions(),
    };
    (own, serve)
}

/// Exactly `n` operations, counted like a timed loop.
fn timed_loop_n(n: u64, mut op: impl FnMut() -> Result<f64, String>) -> Timed {
    let mut t = Timed::default();
    for _ in 0..n {
        t.attempted += 1;
        match op() {
            Ok(ms) => t.latencies_ms.push(ms),
            Err(e) => {
                t.failed += 1;
                eprintln!("probe request failed its check: {e}");
            }
        }
    }
    t
}

/// The serve layer's per-layer metrics from a traced session.
pub fn layer_metrics(s: &ServeTrace, spans: &[Span], out: &mut Outcome) {
    let p50_us = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.dur_ns() as f64 / 1e3)
            .collect();
        (!d.is_empty()).then(|| median(&d))
    };
    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("serve.materialize_us", "serve.materialize"),
        ("serve.fingerprint_us", "serve.fingerprint"),
        ("serve.cache.get_us", "serve.cache.get"),
        ("serve.cache.insert_us", "serve.cache.insert"),
        ("serve.result_codec_us", "serve.result_codec"),
        ("serve.session_new_us", "serve.session_new"),
        ("serve.exec_single_us", "serve.exec_single"),
        ("serve.exec_multi_us", "serve.exec_multi"),
    ] {
        if let Some(v) = p50_us(span) {
            out.set(metric, v);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if !s.queue_p50_us.is_empty() {
        out.set("serve.daemon.queue_p50_us", mean(&s.queue_p50_us));
        out.set("serve.daemon.total_p50_us", mean(&s.total_p50_us));
    }
    if !s.ping_us.is_empty() {
        out.set("serve.ping_rtt_us", median(&s.ping_us));
    }
    out.set("serve.cache.hit_ratio", s.hit_ratio);
    out.set("serve.cache.evictions", s.evictions as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(WARM_KEYS, ZIPF_S);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..10_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        assert!(d.iter().all(|&k| k < WARM_KEYS));
        let count = |rank| d.iter().filter(|&&k| k == rank).count();
        // Rank 0 carries ~1/H(512, 1.1) ≈ 19 % of the draws, the last
        // rank ~0.02 %.
        assert!((1_400..2_300).contains(&count(0)), "rank 0: {}", count(0));
        assert!(count(0) > count(1) && count(1) > count(3));
        assert!(count(WARM_KEYS - 1) < 20);
    }

    fn stream(seed: u64, hot: bool, n: u64) -> Vec<RequestSpecs> {
        let mut t = Traffic::new(seed, hot);
        (0..n).map(|r| t.request(r)).collect()
    }

    #[test]
    fn key_streams_are_deterministic_per_seed() {
        for hot in [false, true] {
            assert_eq!(stream(3, hot, 100), stream(3, hot, 100));
            assert_ne!(stream(3, hot, 100), stream(4, hot, 100));
        }
    }

    #[test]
    fn cold_stream_never_repeats_a_scenario() {
        let reqs = stream(11, false, 200);
        let mut canon: Vec<String> = reqs
            .iter()
            .flat_map(|r| r.specs.iter().map(ScenarioSpec::canonical))
            .collect();
        let n = canon.len();
        canon.sort();
        canon.dedup();
        assert_eq!(canon.len(), n);
        for r in &reqs {
            assert_eq!(r.specs.len(), SPECS);
            let multis = r
                .specs
                .iter()
                .filter(|s| matches!(s, ScenarioSpec::Multi { .. }))
                .count();
            assert_eq!(multis, MULTI_SPECS);
        }
    }

    #[test]
    fn hot_stream_warms_every_key_then_draws_from_them() {
        let reqs = stream(5, true, WARM_REQUESTS + 400);
        let warmed: Vec<usize> = reqs[..WARM_REQUESTS as usize]
            .iter()
            .flat_map(|r| r.warm.iter().map(|k| k.unwrap()))
            .collect();
        assert_eq!(warmed, (0..WARM_KEYS).collect::<Vec<_>>());
        let mut fresh = 0;
        for (r, req) in reqs.iter().enumerate().skip(WARM_REQUESTS as usize) {
            let extra = req.warm.iter().filter(|k| k.is_none()).count();
            let want = usize::from(r as u64 % FRESH_EVERY == FRESH_EVERY - 1);
            assert_eq!(extra, want, "request {r}");
            fresh += extra;
        }
        assert_eq!(fresh, 20);
    }

    #[test]
    fn seeds_survive_json_numbers() {
        for req in stream(u64::MAX, false, 3) {
            let line = run_line("x", &req.specs);
            match parse_request(&line).unwrap().op {
                Op::Run(specs) => assert_eq!(specs, req.specs),
                other => panic!("{other:?}"),
            }
        }
    }
}
