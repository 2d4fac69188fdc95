//! What every workload shares: the run configuration, repeated set-up,
//! the closed timed loop with per-operation failure accounting, the
//! end-to-end metrics derived from it, and the process readings
//! (CPU time, peak RSS) and provenance stamped on each run.

use crate::host::{calibration_ms, CALIBRATION_EVERY_S, CALIBRATION_REFERENCE_MS};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::Workload;
use hierbus::campaign::Json;
use hierbus::sim::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One invocation of `run`.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scaled-down inputs for a quick check of every output oracle.
    pub smoke: bool,
}

/// Set-ups per untraced run. Set-up is measured this many times and
/// reported as the median, so that one slow start does not decide it.
pub const SETUP_REPS: usize = 5;

/// The measured loop's record.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Latency of every operation that passed its checks.
    pub latencies_ms: Vec<f64>,
    /// Operations per second of each complete segment.
    pub segment_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU time (all threads) spent in the loop's operations.
    pub cpu_s: f64,
    /// Calibration samples taken between operations (ms).
    pub calibration_ms: Vec<f64>,
}

impl Timed {
    /// Appends another loop's record (a later segment of one run).
    pub fn extend(&mut self, other: Timed) {
        self.latencies_ms.extend(other.latencies_ms);
        self.segment_rates.extend(other.segment_rates);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cpu_s += other.cpu_s;
        self.calibration_ms.extend(other.calibration_ms);
    }
}

/// Failures printed to stderr before the rest are only counted.
const FAILURES_SHOWN: u64 = 5;

/// Runs `op(i)` for `i = 0, 1, ...` in a closed loop until `seconds`
/// have passed at a segment boundary (`segment` operations), so every
/// rate covers whole segments. `op` returns its latency in ms, or why
/// its output failed a check; a panic counts as a failure too. Neither
/// stops the loop. Every [`CALIBRATION_EVERY_S`] a calibration sample
/// is taken between operations; its time is left out of the rates and
/// the CPU time.
pub fn timed_loop(
    seconds: f64,
    segment: u64,
    mut op: impl FnMut(u64) -> Result<f64, String>,
) -> Timed {
    let mut t = Timed::default();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut seg_start = start;
    let mut last_cal = start;
    let mut seg_cal_s = 0.0;
    t.calibration_ms.push(calibration_ms());
    loop {
        let i = t.attempted;
        t.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| op(i))) {
            Ok(Ok(ms)) => t.latencies_ms.push(ms),
            Ok(Err(why)) => {
                t.failed += 1;
                if t.failed <= FAILURES_SHOWN {
                    eprintln!("operation {i} failed its check: {why}");
                }
            }
            Err(_) => t.failed += 1,
        }
        if last_cal.elapsed().as_secs_f64() >= CALIBRATION_EVERY_S {
            let ms = calibration_ms();
            t.calibration_ms.push(ms);
            seg_cal_s += ms / 1e3;
            last_cal = Instant::now();
        }
        if t.attempted % segment == 0 {
            let now = Instant::now();
            let busy = (now - seg_start).as_secs_f64() - seg_cal_s;
            t.segment_rates.push(segment as f64 / busy);
            (seg_start, seg_cal_s) = (now, 0.0);
            if (now - start).as_secs_f64() >= seconds {
                break;
            }
        }
    }
    let cal_s: f64 = t.calibration_ms.iter().sum::<f64>() / 1e3;
    t.cpu_s = cpu_seconds() - cpu0 - cal_s;
    t
}

/// What a traced run's own loop yields: the untraced and the traced
/// quarters, and the traced quarters' spans.
pub struct TracedLoop {
    pub plain: Timed,
    pub traced: Timed,
    pub spans: Vec<crate::trace::Span>,
}

/// Runs `op(i, traced)` for `seconds` in four quarters, untraced and
/// traced alternately, numbering operations across quarters; returns
/// the untraced and the traced records.
pub fn alternating(
    seconds: f64,
    segment: u64,
    mut op: impl FnMut(u64, bool) -> Result<f64, String>,
) -> (Timed, Timed) {
    let (mut plain, mut traced) = (Timed::default(), Timed::default());
    let mut next = 0;
    for quarter in 0..4 {
        let on = quarter % 2 == 1;
        let offset = next;
        let t = timed_loop(seconds / 4.0, segment, |i| op(offset + i, on));
        next += t.attempted;
        if on { &mut traced } else { &mut plain }.extend(t);
    }
    (plain, traced)
}

/// Builds a workload's state `SETUP_REPS` times (dropping all but the
/// last) and returns it with every set-up's duration in seconds.
pub fn repeated_setup<S>(mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS > 0"), times)
}

/// Fills in the end-to-end metrics of an untraced run. Times and rates
/// are scaled to the reference host by the run's median calibration
/// sample (README.md, "Host normalization"); the measured values are
/// kept as `raw.*` notes.
pub fn end_to_end(t: &Timed, setup_s: &[f64], out: &mut Outcome) {
    out.attempted = t.attempted;
    out.failed = t.failed;
    let cal = median(&t.calibration_ms);
    let scale = CALIBRATION_REFERENCE_MS / cal;
    out.note("host.calibration_ms", cal, "ms");
    let mut timed = |name: &'static str, raw_name: &'static str, raw: f64, unit, factor: f64| {
        out.note(raw_name, raw, unit);
        out.set(name, raw * factor);
    };
    if !t.latencies_ms.is_empty() {
        let lat = sorted(&t.latencies_ms);
        timed("p50_ms", "raw.p50_ms", percentile(&lat, 50.0), "ms", scale);
        timed("p90_ms", "raw.p90_ms", percentile(&lat, 90.0), "ms", scale);
    }
    if !t.segment_rates.is_empty() {
        let rate = median(&t.segment_rates);
        timed("ops_per_s", "raw.ops_per_s", rate, "1/s", 1.0 / scale);
    }
    let cpu = t.cpu_s * 1e3 / t.attempted as f64;
    timed("cpu_ms_per_op", "raw.cpu_ms_per_op", cpu, "ms", scale);
    timed("setup_s", "raw.setup_s", median(setup_s), "s", scale);
    out.set("peak_rss_mb", peak_rss_mb());
}

/// The latency tail of a set of operations: the highest percentile
/// with at least ten samples beyond it, that percentile, and the
/// sample count.
pub fn tail(out: &mut Outcome, latencies_ms: &[f64]) {
    let lat = sorted(latencies_ms);
    let p = tail_percentile(lat.len()).unwrap_or(50.0);
    if !lat.is_empty() {
        out.set("client.tail_ms", percentile(&lat, p));
    }
    out.set("client.tail_pct", p);
    out.set("client.samples", lat.len() as f64);
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// User plus system CPU time of the whole process, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    ticks.iter().sum::<u64>() as f64 / 100.0
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the run happened and what built it.
pub fn provenance(cfg: &RunConfig) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_owned())
    };
    let flags = field("flags");
    let simd: Vec<Json> = ["avx2", "avx512f"]
        .iter()
        .filter(|f| flags.split_whitespace().any(|x| x == **f))
        .map(|f| Json::Str((*f).to_owned()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let s = |v: &str| Json::Str(v.to_owned());
    Json::Obj(vec![
        ("commit".to_owned(), s(&git_commit())),
        ("nproc".to_owned(), Json::Num(nproc as f64)),
        ("cpu".to_owned(), s(&field("model name"))),
        ("cpu_flags".to_owned(), Json::Arr(simd)),
        ("rustc".to_owned(), s(env!("BENCH_RUSTC_VERSION"))),
        ("profile".to_owned(), s(env!("BENCH_PROFILE"))),
        ("workload".to_owned(), s(cfg.workload.name())),
        ("seed".to_owned(), Json::Num(cfg.seed as f64)),
        ("seconds".to_owned(), Json::Num(cfg.seconds)),
        ("trace".to_owned(), Json::Bool(cfg.trace)),
        ("smoke".to_owned(), Json::Bool(cfg.smoke)),
    ])
}

/// The checked-out commit, read from the repository's `.git` directory
/// (no subprocess, nothing outside the checkout); `unknown` when the
/// checkout is not a git repository.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(r)
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
