//! The daemon's wire protocol: versioned, line-delimited JSON.
//!
//! Every request and every response is one compact-JSON object per
//! line, carrying the protocol version under `"v"`. Requests name an
//! operation under `"op"` and echo back under `"req"` in every
//! response event, so a client can correlate streamed results with the
//! request that produced them.
//!
//! Requests (protocol 2; version-1 requests are still accepted, the
//! v2 operations below simply didn't exist then):
//!
//! ```text
//! {"v":2,"id":"r1","op":"run","scenarios":[<spec>, ...]}
//! {"v":2,"id":"r2","op":"stats"}
//! {"v":2,"id":"r3","op":"ping"}
//! {"v":2,"id":"r4","op":"health"}
//! {"v":2,"id":"r5","op":"subscribe","every_ms":500}
//! {"v":2,"id":"r6","op":"dump-trace"}
//! {"v":2,"id":"r7","op":"shutdown"}
//! ```
//!
//! A scenario spec is a named canned scenario, a seeded random mix
//! (all mix fields beyond `seed` default to [`MixParams::default`]),
//! or a seeded CPU+DMA contention workload behind a bus arbiter (DMA
//! fields default to [`DmaParams::default`], `policy` to `"fixed"`;
//! `dma_burst` is in beats):
//!
//! ```text
//! {"kind":"named","name":"burst_reads"}
//! {"kind":"mix","seed":7,"count":200,"read_pct":60,"waits":[1,0,0]}
//! {"kind":"multi","seed":7,"policy":"rr","cpu_count":200,"dma_burst":8}
//! ```
//!
//! A spec whose run could outlast the run loop's cycle ceiling
//! ([`ScenarioSpec::worst_case_cycles`] above [`MAX_CYCLES`]) is
//! rejected with an `error` event, like any other invalid field.
//!
//! Responses to a `run` stream one `result` event per scenario in
//! completion order (`cached` marks cache replays), then a terminal
//! `done` event; other operations answer with a single event. The
//! daemon's farewell after a shutdown is a `bye` event, and requests
//! still queued when a shutdown arrives get a `retry` event each —
//! nothing is silently dropped.
//!
//! The v2 telemetry operations: `health` is answered out-of-band by
//! the reader thread (so a daemon busy with a long batch still answers
//! its liveness probe) with an `ok`/`degraded` status plus reasons;
//! `subscribe` asks the monitor thread to stream periodic `snapshot`
//! events — the extended `stats` body — interleaved with whatever else
//! the session is emitting (`every_ms: 0` unsubscribes); `dump-trace`
//! writes every retained per-request Perfetto trace to the daemon's
//! `--trace-dir` and answers with the file list.

use hierbus_campaign::{Fingerprint, Json};
use hierbus_ec::addr::ADDR_MASK;
use hierbus_ec::sequences::{self, DataProfile, MixParams, MIX_WAITS};
use hierbus_ec::{ArbitrationPolicy, BurstLen, DmaParams, DmaProgram, MultiScenario, WaitProfile};
use hierbus_power::run::MAX_CYCLES;

/// The protocol version this daemon speaks; response events carry it.
pub const PROTOCOL_VERSION: u64 = 2;

/// The oldest protocol version still accepted. Version 1 requests are
/// a strict subset of version 2 (the telemetry operations are new), so
/// v1 clients keep working unchanged; anything outside
/// `MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION` is rejected with an
/// `error` event.
pub const MIN_PROTOCOL_VERSION: u64 = 1;

/// Version of the *result encoding* (the serialized `LeanResult` bytes
/// a fingerprint addresses). Part of every cache fingerprint instead
/// of [`PROTOCOL_VERSION`], so protocol revisions that leave result
/// bytes unchanged — like v2's telemetry operations — don't invalidate
/// warm persisted caches. Bump only when the result bytes themselves
/// change meaning.
pub const RESULT_FORMAT_VERSION: u64 = 1;

/// The most ops one spec may ask for, in each of `count`, `cpu_count`
/// and `dma_descriptors`: above every workload the tools run (the
/// largest is the 600k-transaction Table 3 mix), far below a stimulus
/// that would exhaust the daemon's memory.
pub const MAX_SPEC_OPS: u64 = 1 << 20;

/// The longest request line the daemon reads, in bytes, newline
/// excluded: far above any real request (a spec is ~100 bytes), far
/// below a line that could exhaust the daemon's memory. A longer line
/// is answered with an `error` event and skipped.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The smallest mix `window` in bytes: [`sequences::random_mix`] keeps
/// an 8-beat burst (32 bytes) inside the window and wraps sequential
/// addresses 32 bytes before its end, so a smaller window would
/// underflow its address arithmetic.
pub const MIN_MIX_WINDOW: u64 = 32;

/// Cycles per op the worst-case bound adds on top of the op's gap and
/// wait states: the address cycle, the issue cycle and the completion
/// pickup.
const OP_OVERHEAD_CYCLES: u64 = 3;

/// Worst-case cycles of one master running `ops` ops back to back, each
/// after a gap of at most `max_gap` idle cycles and of at most
/// `max_beats` beats, against `waits`. No phase overlap and no help
/// from pipelining: a real run never takes longer.
fn master_bound(ops: usize, max_gap: u32, max_beats: u32, waits: WaitProfile) -> u64 {
    let data_wait = u64::from(waits.read.max(waits.write));
    let per_op = u64::from(max_gap)
        + u64::from(waits.address)
        + u64::from(max_beats) * (data_wait + 1)
        + OP_OVERHEAD_CYCLES;
    (ops as u64).saturating_mul(per_op)
}

/// [`master_bound`] of a [`sequences::random_mix`] stimulus.
fn mix_bound(params: &MixParams, waits: WaitProfile) -> u64 {
    let beats = if params.burst_pct > 0 { 8 } else { 1 };
    master_bound(params.count, params.max_idle, beats, waits)
}

/// `spec` if its [`worst_case_cycles`](ScenarioSpec::worst_case_cycles)
/// fit the run loop's [`MAX_CYCLES`] ceiling; a spec above it would
/// trip the ceiling's deadlock assertion instead of finishing.
fn within_cycle_budget(spec: ScenarioSpec) -> Result<ScenarioSpec, String> {
    let bound = spec.worst_case_cycles();
    if bound <= MAX_CYCLES {
        return Ok(spec);
    }
    let fields = match &spec {
        ScenarioSpec::Mix { params, waits, .. } => {
            let w = waits.unwrap_or(MIX_WAITS);
            format!(
                "mix spec fields count = {}, max_idle = {} and waits = [{},{},{}]",
                params.count, params.max_idle, w.address, w.read, w.write
            )
        }
        ScenarioSpec::Multi { cpu_count, dma, .. } => format!(
            "multi spec fields cpu_count = {cpu_count}, dma_descriptors = {}, dma_gap = {} \
             and dma_burst = {}",
            dma.descriptors,
            dma.max_gap,
            dma.burst.beats()
        ),
        ScenarioSpec::Named { name } => format!("named spec {name:?}"),
    };
    Err(format!(
        "{fields} allow up to {bound} cycles, above the limit of {MAX_CYCLES}"
    ))
}

/// `value` of an op-count field, if it is at most [`MAX_SPEC_OPS`].
fn op_count(kind: &str, field: &str, value: u64) -> Result<usize, String> {
    if value > MAX_SPEC_OPS {
        return Err(format!(
            "{kind} spec field {field} = {value} exceeds the limit of {MAX_SPEC_OPS}"
        ));
    }
    Ok(value as usize)
}

/// `value` of a maximum-gap field: the generators draw from
/// `0..=value`, so `value + 1` must fit a `u32`.
fn gap_limit(kind: &str, field: &str, value: u64) -> Result<u32, String> {
    u32::try_from(value)
        .ok()
        .filter(|&v| v < u32::MAX)
        .ok_or(format!("{kind} spec field {field} = {value} out of range"))
}

/// One scenario specification of a `run` request.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// A canned scenario from [`sequences::all_scenarios`].
    Named {
        /// The scenario's name, e.g. `"burst_reads"`.
        name: String,
    },
    /// Seeded random mixed traffic via [`sequences::random_mix`].
    Mix {
        /// Generator seed.
        seed: u64,
        /// Generation parameters.
        params: MixParams,
        /// Slave wait-state override; the generator's default when
        /// `None`.
        waits: Option<WaitProfile>,
    },
    /// A seeded CPU+DMA contention workload behind a bus arbiter: a
    /// default-parameter CPU mix of `cpu_count` ops and a
    /// [`DmaProgram`] derived from the same seed, exactly as the
    /// multi-master harness builds them.
    Multi {
        /// Generator seed; the DMA program uses `seed ^ 0xD31A`.
        seed: u64,
        /// Who wins contended cycles.
        policy: ArbitrationPolicy,
        /// CPU stimulus length (ops).
        cpu_count: usize,
        /// DMA program parameters (window fields stay at their
        /// defaults so the masters never race on memory).
        dma: DmaParams,
    },
}

/// A materialized spec, ready to run on a [`hierbus_power::Session`].
pub use hierbus_power::Materialized;

impl ScenarioSpec {
    /// Parses a spec object.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        match json.get("kind").and_then(Json::as_str) {
            Some("named") => Ok(ScenarioSpec::Named {
                name: json
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("named spec missing string field name")?
                    .to_owned(),
            }),
            Some("mix") => {
                let d = MixParams::default();
                let u = |field: &str, default: u64| -> Result<u64, String> {
                    match json.get(field) {
                        None => Ok(default),
                        Some(v) => v
                            .as_u64()
                            .ok_or(format!("mix spec field {field} is not an integer")),
                    }
                };
                let pct = |field: &str, default: u32| -> Result<u32, String> {
                    let v = u(field, default as u64)?;
                    if v > 100 {
                        return Err(format!("mix spec field {field} = {v} outside 0..=100"));
                    }
                    Ok(v as u32)
                };
                let max_idle = gap_limit("mix", "max_idle", u("max_idle", d.max_idle as u64)?)?;
                let (base, window) = (u("base", d.base)?, u("window", d.window)?);
                if window < MIN_MIX_WINDOW {
                    return Err(format!(
                        "mix spec field window = {window} below the minimum of {MIN_MIX_WINDOW}"
                    ));
                }
                if !matches!(base.checked_add(window), Some(end) if end <= ADDR_MASK + 1) {
                    return Err(format!(
                        "mix spec fields base = {base} + window = {window} end beyond the \
                         36-bit address map"
                    ));
                }
                let data_profile = match json.get("data_profile").and_then(Json::as_str) {
                    None => d.data_profile,
                    Some("random") => DataProfile::Random,
                    Some("small_values") => DataProfile::SmallValues,
                    Some(other) => return Err(format!("unknown data_profile {other:?}")),
                };
                let waits = match json.get("waits") {
                    None => None,
                    Some(v) => {
                        let arr = v.as_arr().ok_or("mix spec field waits is not an array")?;
                        let n = |i: usize| -> Result<u32, String> {
                            let v = arr
                                .get(i)
                                .and_then(Json::as_u64)
                                .ok_or("waits must be three integers".to_owned())?;
                            u32::try_from(v).map_err(|_| {
                                format!("mix spec field waits[{i}] = {v} out of range")
                            })
                        };
                        if arr.len() != 3 {
                            return Err("waits must be three integers".to_owned());
                        }
                        Some(WaitProfile::new(n(0)?, n(1)?, n(2)?))
                    }
                };
                within_cycle_budget(ScenarioSpec::Mix {
                    seed: u("seed", 0)?,
                    params: MixParams {
                        count: op_count("mix", "count", u("count", d.count as u64)?)?,
                        base,
                        window,
                        read_pct: pct("read_pct", d.read_pct)?,
                        burst_pct: pct("burst_pct", d.burst_pct)?,
                        max_idle,
                        fetch_pct: pct("fetch_pct", d.fetch_pct)?,
                        sequential_pct: pct("sequential_pct", d.sequential_pct)?,
                        data_profile,
                    },
                    waits,
                })
            }
            Some("multi") => {
                let d = DmaParams::default();
                let u = |field: &str, default: u64| -> Result<u64, String> {
                    match json.get(field) {
                        None => Ok(default),
                        Some(v) => v
                            .as_u64()
                            .ok_or(format!("multi spec field {field} is not an integer")),
                    }
                };
                let policy = match json.get("policy").and_then(Json::as_str) {
                    None => ArbitrationPolicy::FixedPriority,
                    Some(name) => ArbitrationPolicy::from_name(name)
                        .ok_or(format!("unknown arbitration policy {name:?}"))?,
                };
                let burst = match u("dma_burst", u64::from(d.burst.beats()))? {
                    1 => BurstLen::Single,
                    2 => BurstLen::B2,
                    4 => BurstLen::B4,
                    8 => BurstLen::B8,
                    other => {
                        return Err(format!(
                            "dma_burst = {other} is not a burst length (1|2|4|8)"
                        ))
                    }
                };
                let max_gap = gap_limit("multi", "dma_gap", u("dma_gap", u64::from(d.max_gap))?)?;
                let ops = |field, default| op_count("multi", field, u(field, default as u64)?);
                let read_pct = u("dma_read_pct", u64::from(d.read_pct))?;
                if read_pct > 100 {
                    return Err(format!(
                        "multi spec field dma_read_pct = {read_pct} outside 0..=100"
                    ));
                }
                within_cycle_budget(ScenarioSpec::Multi {
                    seed: u("seed", 0)?,
                    policy,
                    cpu_count: ops("cpu_count", MixParams::default().count)?,
                    dma: DmaParams {
                        descriptors: ops("dma_descriptors", d.descriptors)?,
                        burst,
                        read_pct: read_pct as u32,
                        max_gap,
                        ..d
                    },
                })
            }
            Some(other) => Err(format!("unknown scenario kind {other:?}")),
            None => Err("scenario spec missing string field kind".to_owned()),
        }
    }

    /// The spec as protocol JSON (every field explicit).
    pub fn to_json(&self) -> Json {
        match self {
            ScenarioSpec::Named { name } => Json::Obj(vec![
                ("kind".to_owned(), Json::Str("named".to_owned())),
                ("name".to_owned(), Json::Str(name.clone())),
            ]),
            ScenarioSpec::Mix {
                seed,
                params: p,
                waits,
            } => {
                let mut fields = vec![
                    ("kind".to_owned(), Json::Str("mix".to_owned())),
                    ("seed".to_owned(), Json::Num(*seed as f64)),
                    ("count".to_owned(), Json::Num(p.count as f64)),
                    ("base".to_owned(), Json::Num(p.base as f64)),
                    ("window".to_owned(), Json::Num(p.window as f64)),
                    ("read_pct".to_owned(), Json::Num(p.read_pct as f64)),
                    ("burst_pct".to_owned(), Json::Num(p.burst_pct as f64)),
                    ("max_idle".to_owned(), Json::Num(p.max_idle as f64)),
                    ("fetch_pct".to_owned(), Json::Num(p.fetch_pct as f64)),
                    (
                        "sequential_pct".to_owned(),
                        Json::Num(p.sequential_pct as f64),
                    ),
                    (
                        "data_profile".to_owned(),
                        Json::Str(
                            match p.data_profile {
                                DataProfile::Random => "random",
                                DataProfile::SmallValues => "small_values",
                            }
                            .to_owned(),
                        ),
                    ),
                ];
                if let Some(w) = waits {
                    fields.push((
                        "waits".to_owned(),
                        Json::Arr(vec![
                            Json::Num(w.address as f64),
                            Json::Num(w.read as f64),
                            Json::Num(w.write as f64),
                        ]),
                    ));
                }
                Json::Obj(fields)
            }
            ScenarioSpec::Multi {
                seed,
                policy,
                cpu_count,
                dma,
            } => Json::Obj(vec![
                ("kind".to_owned(), Json::Str("multi".to_owned())),
                ("seed".to_owned(), Json::Num(*seed as f64)),
                ("policy".to_owned(), Json::Str(policy.name().to_owned())),
                ("cpu_count".to_owned(), Json::Num(*cpu_count as f64)),
                (
                    "dma_descriptors".to_owned(),
                    Json::Num(dma.descriptors as f64),
                ),
                ("dma_burst".to_owned(), Json::Num(dma.burst.beats() as f64)),
                ("dma_read_pct".to_owned(), Json::Num(dma.read_pct as f64)),
                ("dma_gap".to_owned(), Json::Num(dma.max_gap as f64)),
            ]),
        }
    }

    /// A canonical one-line rendering of the spec: every parameter
    /// explicit, in a fixed order — the text the cache fingerprint
    /// hashes, so two specs collide exactly when they describe the
    /// same simulation.
    pub fn canonical(&self) -> String {
        match self {
            ScenarioSpec::Named { name } => format!("named/{name}"),
            ScenarioSpec::Mix {
                seed,
                params: p,
                waits,
            } => {
                let data = match p.data_profile {
                    DataProfile::Random => "random",
                    DataProfile::SmallValues => "small_values",
                };
                let waits = match waits {
                    None => "default".to_owned(),
                    Some(w) => format!("{},{},{}", w.address, w.read, w.write),
                };
                format!(
                    "mix/seed={}/count={}/base={}/window={}/read={}/burst={}/idle={}/fetch={}/seq={}/data={}/waits={}",
                    seed,
                    p.count,
                    p.base,
                    p.window,
                    p.read_pct,
                    p.burst_pct,
                    p.max_idle,
                    p.fetch_pct,
                    p.sequential_pct,
                    data,
                    waits,
                )
            }
            ScenarioSpec::Multi {
                seed,
                policy,
                cpu_count,
                dma,
            } => format!(
                "multi/seed={}/policy={}/cpu={}/desc={}/burst={}/read={}/gap={}",
                seed,
                policy.name(),
                cpu_count,
                dma.descriptors,
                dma.burst.beats(),
                dma.read_pct,
                dma.max_gap,
            ),
        }
    }

    /// The most bus cycles this spec's run can take: per master, ops ×
    /// (longest gap + address wait + longest burst × (data wait + 1) +
    /// 3 cycles of issue, address and pickup), summed over the CPU and
    /// DMA masters of a multi spec. The parser rejects specs whose bound
    /// exceeds the run loop's [`MAX_CYCLES`] ceiling; an unknown name
    /// bounds at 0 (it fails to materialize instead).
    pub fn worst_case_cycles(&self) -> u64 {
        match self {
            ScenarioSpec::Named { name } => sequences::all_scenarios()
                .into_iter()
                .find(|s| s.name == name)
                .map_or(0, |s| {
                    let gap = s.ops.iter().map(|op| op.idle_before).max().unwrap_or(0);
                    let beats = s.ops.iter().map(|op| op.burst.beats()).max().unwrap_or(0);
                    master_bound(s.ops.len(), gap, beats, s.waits)
                }),
            ScenarioSpec::Mix { params, waits, .. } => {
                mix_bound(params, waits.unwrap_or(MIX_WAITS))
            }
            ScenarioSpec::Multi { cpu_count, dma, .. } => {
                let cpu = MixParams {
                    count: *cpu_count,
                    ..MixParams::default()
                };
                mix_bound(&cpu, MIX_WAITS).saturating_add(master_bound(
                    dma.descriptors,
                    dma.max_gap,
                    dma.burst.beats(),
                    MIX_WAITS,
                ))
            }
        }
    }

    /// The content-address of this spec under a protocol version and a
    /// characterization database: identical fingerprint ⇔ identical
    /// result bytes.
    pub fn fingerprint(&self, db_fingerprint: &str) -> String {
        Fingerprint::new()
            .field(&format!("hierbus-serve/v{RESULT_FORMAT_VERSION}"))
            .field(db_fingerprint)
            .field(&self.canonical())
            .finish()
    }

    /// Builds the concrete workload, or an error for an unknown name.
    pub fn materialize(&self) -> Result<Materialized, String> {
        match self {
            ScenarioSpec::Named { name } => sequences::all_scenarios()
                .into_iter()
                .find(|s| s.name == name)
                .map(Materialized::Single)
                .ok_or(format!("unknown scenario name {name:?}")),
            ScenarioSpec::Mix {
                seed,
                params,
                waits,
            } => {
                let mut scenario = sequences::random_mix(*seed, *params);
                if let Some(w) = waits {
                    scenario.waits = *w;
                }
                Ok(Materialized::Single(scenario))
            }
            ScenarioSpec::Multi {
                seed,
                policy,
                cpu_count,
                dma,
            } => {
                let cpu = sequences::random_mix(
                    *seed,
                    MixParams {
                        count: *cpu_count,
                        ..MixParams::default()
                    },
                );
                // The same derivation the equivalence harness uses, so
                // a served multi result is reproducible offline.
                let program = DmaProgram::seeded(*seed ^ 0xD31A, *dma);
                Ok(Materialized::Multi(MultiScenario::new(
                    "serve-multi",
                    cpu,
                    &program,
                    *policy,
                )))
            }
        }
    }
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run (or replay from cache) a batch of scenarios.
    Run(Vec<ScenarioSpec>),
    /// Report cache and latency statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Health probe: `ok` or `degraded` with reasons, answered
    /// out-of-band even while a batch is executing.
    Health,
    /// Stream periodic `snapshot` events every `every_ms` ms,
    /// interleaved with other responses; `0` cancels the subscription.
    Subscribe {
        /// Snapshot period in milliseconds (0 = unsubscribe).
        every_ms: u64,
    },
    /// Write the retained per-request Perfetto traces to the daemon's
    /// trace directory and report the files written.
    DumpTrace,
    /// Drain and exit.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in every response event.
    pub id: String,
    /// The requested operation.
    pub op: Op,
}

/// Parses one request line. The error carries the client id when one
/// could be recovered, so even a malformed request gets a correlated
/// `error` event.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let json = Json::parse(line)
        .map_err(|e| (String::new(), format!("request is not valid JSON: {e}")))?;
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned();
    let fail = |msg: String| Err((id.clone(), msg));
    match json.get("v").and_then(Json::as_u64) {
        Some(v) if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&v) => {}
        Some(v) => {
            return fail(format!(
                "unsupported protocol version {v} (this daemon speaks \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
            ))
        }
        None => return fail("request missing integer field v".to_owned()),
    }
    match json.get("op").and_then(Json::as_str) {
        Some("run") => {
            let specs = match json.get("scenarios").and_then(Json::as_arr) {
                Some(arr) if !arr.is_empty() => arr,
                Some(_) => return fail("run request has an empty scenarios array".to_owned()),
                None => return fail("run request missing scenarios array".to_owned()),
            };
            let mut parsed = Vec::with_capacity(specs.len());
            for (i, spec) in specs.iter().enumerate() {
                match ScenarioSpec::from_json(spec) {
                    Ok(s) => parsed.push(s),
                    Err(e) => return fail(format!("scenarios[{i}]: {e}")),
                }
            }
            Ok(Request {
                id,
                op: Op::Run(parsed),
            })
        }
        Some("stats") => Ok(Request { id, op: Op::Stats }),
        Some("ping") => Ok(Request { id, op: Op::Ping }),
        Some("health") => Ok(Request { id, op: Op::Health }),
        Some("subscribe") => {
            let every_ms = match json.get("every_ms") {
                None => 1_000,
                Some(v) => match v.as_u64() {
                    Some(ms) => ms,
                    None => return fail("subscribe field every_ms is not an integer".to_owned()),
                },
            };
            Ok(Request {
                id,
                op: Op::Subscribe { every_ms },
            })
        }
        Some("dump-trace") => Ok(Request {
            id,
            op: Op::DumpTrace,
        }),
        Some("shutdown") => Ok(Request {
            id,
            op: Op::Shutdown,
        }),
        Some(other) => fail(format!("unknown op {other:?}")),
        None => fail("request missing string field op".to_owned()),
    }
}

/// Starts a response event: version, correlation id, event name.
pub fn event(id: &str, name: &str) -> Vec<(String, Json)> {
    vec![
        ("v".to_owned(), Json::Num(PROTOCOL_VERSION as f64)),
        ("req".to_owned(), Json::Str(id.to_owned())),
        ("event".to_owned(), Json::Str(name.to_owned())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_roundtrips() {
        let specs = vec![
            ScenarioSpec::Named {
                name: "burst_reads".to_owned(),
            },
            ScenarioSpec::Mix {
                seed: 7,
                params: MixParams {
                    count: 50,
                    ..MixParams::default()
                },
                waits: Some(WaitProfile::new(1, 0, 2)),
            },
        ];
        let line = Json::Obj(vec![
            ("v".to_owned(), Json::Num(1.0)),
            ("id".to_owned(), Json::Str("r1".to_owned())),
            ("op".to_owned(), Json::Str("run".to_owned())),
            (
                "scenarios".to_owned(),
                Json::Arr(specs.iter().map(ScenarioSpec::to_json).collect()),
            ),
        ])
        .to_string_compact();
        let req = parse_request(&line).unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.op, Op::Run(specs));
    }

    #[test]
    fn mix_defaults_fill_in() {
        let req = parse_request(
            r#"{"v":1,"id":"x","op":"run","scenarios":[{"kind":"mix","seed":3,"count":10}]}"#,
        )
        .unwrap();
        let Op::Run(specs) = req.op else {
            panic!("not a run")
        };
        let ScenarioSpec::Mix {
            seed,
            params,
            waits,
        } = &specs[0]
        else {
            panic!("not a mix")
        };
        assert_eq!(*seed, 3);
        assert_eq!(params.count, 10);
        assert_eq!(params.read_pct, MixParams::default().read_pct);
        assert_eq!(*waits, None);
    }

    #[test]
    fn version_and_op_are_enforced() {
        let (id, err) = parse_request(r#"{"v":3,"id":"a","op":"ping"}"#).unwrap_err();
        assert_eq!(id, "a");
        assert!(err.contains("unsupported protocol version"), "{err}");
        let (_, err) = parse_request(r#"{"v":0,"id":"a","op":"ping"}"#).unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");
        let (_, err) = parse_request(r#"{"id":"a","op":"ping"}"#).unwrap_err();
        assert!(err.contains("missing integer field v"), "{err}");
        let (_, err) = parse_request(r#"{"v":1,"id":"a","op":"dance"}"#).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        let (_, err) = parse_request("not json at all").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        // v1 requests remain valid on a v2 daemon.
        let req = parse_request(r#"{"v":1,"id":"old","op":"ping"}"#).unwrap();
        assert_eq!(req.op, Op::Ping);
    }

    #[test]
    fn telemetry_ops_parse() {
        let req = parse_request(r#"{"v":2,"id":"h","op":"health"}"#).unwrap();
        assert_eq!(req.op, Op::Health);
        let req = parse_request(r#"{"v":2,"id":"t","op":"dump-trace"}"#).unwrap();
        assert_eq!(req.op, Op::DumpTrace);
        let req = parse_request(r#"{"v":2,"id":"s","op":"subscribe","every_ms":250}"#).unwrap();
        assert_eq!(req.op, Op::Subscribe { every_ms: 250 });
        // every_ms defaults; 0 is the unsubscribe sentinel.
        let req = parse_request(r#"{"v":2,"id":"s","op":"subscribe"}"#).unwrap();
        assert_eq!(req.op, Op::Subscribe { every_ms: 1_000 });
        let req = parse_request(r#"{"v":2,"id":"s","op":"subscribe","every_ms":0}"#).unwrap();
        assert_eq!(req.op, Op::Subscribe { every_ms: 0 });
        let (_, err) =
            parse_request(r#"{"v":2,"id":"s","op":"subscribe","every_ms":"fast"}"#).unwrap_err();
        assert!(err.contains("every_ms"), "{err}");
    }

    #[test]
    fn fingerprints_survive_the_protocol_bump() {
        // Cache fingerprints hash RESULT_FORMAT_VERSION, not
        // PROTOCOL_VERSION: the v1→v2 protocol revision left result
        // bytes unchanged, so warm persisted caches must keep matching.
        assert_eq!(RESULT_FORMAT_VERSION, 1);
        let spec = ScenarioSpec::Named {
            name: "burst_reads".to_owned(),
        };
        // The domain string predates the bump; pin it.
        let expected = Fingerprint::new()
            .field("hierbus-serve/v1")
            .field("db00")
            .field(&spec.canonical())
            .finish();
        assert_eq!(spec.fingerprint("db00"), expected);
    }

    #[test]
    fn fingerprints_separate_distinct_specs() {
        let named = ScenarioSpec::Named {
            name: "burst_reads".to_owned(),
        };
        let mix = |seed| ScenarioSpec::Mix {
            seed,
            params: MixParams::default(),
            waits: None,
        };
        let db = "0123456789abcdef";
        assert_eq!(named.fingerprint(db), named.fingerprint(db));
        assert_ne!(named.fingerprint(db), mix(0).fingerprint(db));
        assert_ne!(mix(0).fingerprint(db), mix(1).fingerprint(db));
        assert_ne!(mix(0).fingerprint(db), mix(0).fingerprint("another-db00"));
        // The waits override is part of the identity.
        let waited = ScenarioSpec::Mix {
            seed: 0,
            params: MixParams::default(),
            waits: Some(WaitProfile::ZERO),
        };
        assert_ne!(mix(0).fingerprint(db), waited.fingerprint(db));
    }

    #[test]
    fn materialize_finds_named_scenarios_and_rejects_unknown() {
        let ok = ScenarioSpec::Named {
            name: "single_read".to_owned(),
        };
        let Materialized::Single(s) = ok.materialize().unwrap() else {
            panic!("named specs are single-master")
        };
        assert_eq!(s.name, "single_read");
        let bad = ScenarioSpec::Named {
            name: "no_such_scenario".to_owned(),
        };
        assert!(bad.materialize().is_err());
        let mix = ScenarioSpec::Mix {
            seed: 9,
            params: MixParams {
                count: 25,
                ..MixParams::default()
            },
            waits: Some(WaitProfile::new(2, 1, 0)),
        };
        let Materialized::Single(scenario) = mix.materialize().unwrap() else {
            panic!("mix specs are single-master")
        };
        assert_eq!(scenario.len(), 25);
        assert_eq!(scenario.waits, WaitProfile::new(2, 1, 0));
    }

    #[test]
    fn multi_specs_roundtrip_and_default() {
        let spec = ScenarioSpec::Multi {
            seed: 11,
            policy: ArbitrationPolicy::RoundRobin,
            cpu_count: 40,
            dma: DmaParams {
                descriptors: 8,
                burst: BurstLen::B8,
                read_pct: 25,
                max_gap: 1,
                ..DmaParams::default()
            },
        };
        let line = spec.to_json().to_string_compact();
        assert_eq!(
            ScenarioSpec::from_json(&Json::parse(&line).unwrap()),
            Ok(spec.clone())
        );
        // Defaults: bare seed gets the fixed-priority harness defaults.
        let bare =
            ScenarioSpec::from_json(&Json::parse(r#"{"kind":"multi","seed":3}"#).unwrap()).unwrap();
        let ScenarioSpec::Multi {
            seed,
            policy,
            cpu_count,
            dma,
        } = &bare
        else {
            panic!("not a multi")
        };
        assert_eq!(*seed, 3);
        assert_eq!(*policy, ArbitrationPolicy::FixedPriority);
        assert_eq!(*cpu_count, MixParams::default().count);
        assert_eq!(*dma, DmaParams::default());
        // Bad fields are rejected with field-specific errors.
        for (line, needle) in [
            (r#"{"kind":"multi","policy":"lifo"}"#, "arbitration policy"),
            (r#"{"kind":"multi","dma_burst":3}"#, "burst length"),
            (r#"{"kind":"multi","dma_read_pct":101}"#, "0..=100"),
            (
                r#"{"kind":"multi","dma_gap":4294967297}"#,
                "multi spec field dma_gap = 4294967297 out of range",
            ),
            (
                r#"{"kind":"mix","max_idle":4294967297}"#,
                "mix spec field max_idle = 4294967297 out of range",
            ),
            (
                r#"{"kind":"mix","waits":[0,4294967296,1]}"#,
                "mix spec field waits[1] = 4294967296 out of range",
            ),
        ] {
            let err = ScenarioSpec::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn multi_specs_materialize_and_fingerprint_distinctly() {
        let multi = |seed, policy| ScenarioSpec::Multi {
            seed,
            policy,
            cpu_count: 30,
            dma: DmaParams::default(),
        };
        let spec = multi(5, ArbitrationPolicy::FixedPriority);
        let Materialized::Multi(ms) = spec.materialize().unwrap() else {
            panic!("multi specs are multi-master")
        };
        assert_eq!(ms.cpu.len(), 30);
        assert_eq!(ms.dma_ops.len(), DmaParams::default().descriptors);
        assert_eq!(ms.policy, ArbitrationPolicy::FixedPriority);
        let db = "0123456789abcdef";
        assert_eq!(spec.fingerprint(db), spec.fingerprint(db));
        // The policy and the seed are part of the identity, and a multi
        // spec never collides with a mix of the same seed.
        assert_ne!(
            spec.fingerprint(db),
            multi(5, ArbitrationPolicy::RoundRobin).fingerprint(db)
        );
        assert_ne!(
            spec.fingerprint(db),
            multi(6, ArbitrationPolicy::FixedPriority).fingerprint(db)
        );
        let mix = ScenarioSpec::Mix {
            seed: 5,
            params: MixParams::default(),
            waits: None,
        };
        assert_ne!(spec.fingerprint(db), mix.fingerprint(db));
    }

    fn parse_spec(line: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_json(&Json::parse(line).unwrap())
    }

    #[test]
    fn mix_windows_that_would_wrap_are_rejected() {
        // A zero window underflowed random_mix's burst clamp and a base
        // near u64::MAX overflowed base + window; both used to be
        // answered and cached.
        for (line, needle) in [
            (r#"{"kind":"mix","window":0}"#, "window = 0 below"),
            (r#"{"kind":"mix","window":31}"#, "window = 31 below"),
            (r#"{"kind":"mix","base":18446744073709551615}"#, "36-bit"),
            (r#"{"kind":"mix","max_idle":4294967295}"#, "max_idle"),
            (r#"{"kind":"multi","dma_gap":4294967295}"#, "dma_gap"),
        ] {
            let err = parse_spec(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // A window ending exactly at the top of the map fits.
        let at = |base| format!(r#"{{"kind":"mix","base":{base},"window":32}}"#);
        assert!(parse_spec(&at(ADDR_MASK + 1 - 32)).is_ok());
        assert!(parse_spec(&at(ADDR_MASK + 1 - 31)).is_err());
    }

    #[test]
    fn huge_op_counts_are_rejected() {
        for line in [
            r#"{"kind":"mix","count":1e11}"#,
            r#"{"kind":"multi","cpu_count":1e11}"#,
            r#"{"kind":"multi","dma_descriptors":1e11}"#,
        ] {
            let err = parse_spec(line).unwrap_err();
            assert!(err.contains("= 100000000000 exceeds the limit"), "{err}");
        }
        // The request fails whole, so the daemon answers with an error
        // event instead of allocating the stimulus.
        let line = r#"{"v":2,"id":"big","op":"run","scenarios":[{"kind":"mix","count":1e11}]}"#;
        let (id, err) = parse_request(line).unwrap_err();
        assert_eq!(id, "big");
        assert!(
            err.starts_with("scenarios[0]: mix spec field count"),
            "{err}"
        );
        // The limit admits the 600k-transaction Table 3 mix.
        assert!(parse_spec(r#"{"kind":"mix","count":600000}"#).is_ok());
    }

    #[test]
    fn specs_that_cannot_finish_are_rejected() {
        // 50 ops with up to 4e9 idle cycles each used to run into the
        // run loop's deadlock ceiling and take the daemon down.
        let line = r#"{"v":1,"id":"a","op":"run","scenarios":[{"kind":"mix","seed":7,"count":50,"max_idle":4000000000}]}"#;
        let (id, err) = parse_request(line).unwrap_err();
        assert_eq!(id, "a");
        assert!(
            err.starts_with("scenarios[0]: mix spec fields count = 50, max_idle = 4000000000"),
            "{err}"
        );
        for (line, needle) in [
            (
                r#"{"kind":"mix","count":10,"waits":[0,4000000000,1]}"#,
                "waits = [0,4000000000,1]",
            ),
            (
                r#"{"kind":"multi","cpu_count":10,"dma_gap":4000000000}"#,
                "dma_gap = 4000000000",
            ),
            (
                r#"{"kind":"mix","count":1048576,"max_idle":100}"#,
                "count = 1048576",
            ),
        ] {
            let err = parse_spec(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
            assert!(
                err.ends_with(&format!("above the limit of {MAX_CYCLES}")),
                "{err}"
            );
        }
        // The largest default mix still fits.
        let big = parse_spec(r#"{"kind":"mix","count":1048576}"#).unwrap();
        assert!(big.worst_case_cycles() <= MAX_CYCLES);
    }

    #[test]
    fn runs_finish_within_their_worst_case_bound() {
        let db = hierbus_power::CharacterizationDb::uniform();
        let mut session = crate::ServeSession::new(&db);
        let mut specs: Vec<ScenarioSpec> = sequences::all_scenarios()
            .into_iter()
            .map(|s| ScenarioSpec::Named {
                name: s.name.to_owned(),
            })
            .collect();
        for line in [
            // The tightest per-op bound: single beats, no waits, no gaps.
            r#"{"kind":"mix","seed":1,"count":300,"burst_pct":0,"max_idle":0,"waits":[0,0,0]}"#,
            r#"{"kind":"mix","seed":2,"count":300,"burst_pct":100,"max_idle":0,"waits":[0,0,0]}"#,
            r#"{"kind":"mix","seed":3,"count":200,"burst_pct":100,"read_pct":0,"waits":[3,5,7]}"#,
            r#"{"kind":"mix","seed":4,"count":200,"max_idle":9,"waits":[2,0,4]}"#,
            r#"{"kind":"multi","seed":5,"cpu_count":200,"dma_descriptors":60,"dma_gap":0,"dma_burst":8}"#,
            r#"{"kind":"multi","seed":6,"policy":"rr","cpu_count":200,"dma_descriptors":60,"dma_gap":0,"dma_burst":1}"#,
            r#"{"kind":"multi","seed":7,"cpu_count":50,"dma_descriptors":100,"dma_gap":20,"dma_read_pct":0}"#,
        ] {
            specs.push(parse_spec(line).unwrap());
        }
        for spec in specs {
            let bound = spec.worst_case_cycles();
            let run = session.run_materialized(&spec.materialize().unwrap());
            assert!(
                run.cycles <= bound,
                "{}: ran {} cycles, bound {bound}",
                spec.canonical(),
                run.cycles
            );
        }
    }

    /// Every spec the parser accepts over the edges of its address,
    /// window and gap fields materializes without arithmetic overflow
    /// (which panics in debug builds).
    #[test]
    fn every_accepted_spec_materializes_without_overflow() {
        let end = ADDR_MASK + 1;
        let gaps = [0, 2, u64::from(u32::MAX) - 1, u64::from(u32::MAX)];
        let mut lines = Vec::new();
        for base in [0, 4, 0x1_0000, end - 0x1_0000, end - 32, end, u64::MAX] {
            for window in [0, 4, 31, 32, 33, 0x1_0000, end, u64::MAX] {
                for (idle, seq) in gaps.iter().flat_map(|&g| [(g, 0), (g, 100)]) {
                    lines.push(format!(
                        r#"{{"kind":"mix","count":6,"burst_pct":100,"base":{base},"window":{window},"max_idle":{idle},"sequential_pct":{seq}}}"#
                    ));
                }
            }
        }
        for (gap, burst) in gaps.iter().flat_map(|&g| [(g, 1), (g, 8)]) {
            lines.push(format!(
                r#"{{"kind":"multi","cpu_count":6,"dma_descriptors":4,"dma_gap":{gap},"dma_burst":{burst}}}"#
            ));
        }
        let accepted: Vec<ScenarioSpec> = lines.iter().filter_map(|l| parse_spec(l).ok()).collect();
        assert!(accepted.len() > 50, "{} accepted", accepted.len());
        for spec in accepted {
            spec.materialize().expect("accepted specs materialize");
        }
    }
}
