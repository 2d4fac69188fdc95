//! The hierbus benchmark: four closed-loop workloads over the public
//! layer APIs, end-to-end metrics with tracing off, and per-layer
//! metrics from a separate traced run. See README.md.
//!
//! ```text
//! hierbus-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//! hierbus-benchmark compare <dirA> <dirB>
//! ```

mod compare;
mod explore;
mod host;
mod probes;
mod report;
mod run;
mod serve;
mod stats;
mod table3;
mod trace;

use hierbus::ec::sequences::{random_mix, Scenario};
use report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use run::{tail, RunConfig, TracedLoop};
use stats::median;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table3Mix,
    ExploreJcvm,
    ServeCold,
    ServeHot,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table3Mix,
        Workload::ExploreJcvm,
        Workload::ServeCold,
        Workload::ServeHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3Mix => "table3_mix",
            Workload::ExploreJcvm => "explore_jcvm",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;
/// Transactions of the bus probes' stimulus.
const PROBE_TXNS: usize = 100_000;
/// Requests of the serve probe that non-serve workloads run.
const SERVE_PROBE_REQUESTS: u64 = 128;
/// Traced campaigns of the pool probe that non-exploration workloads run.
const POOL_PROBE_CAMPAIGNS: u64 = 6;

const USAGE: &str = "usage:
  hierbus-benchmark run --workload <table3_mix|explore_jcvm|serve_cold|serve_hot> --seed <u64>
                        [--seconds <n>] [--trace [0|1]] [--smoke]
  hierbus-benchmark compare <dirA> <dirB>";

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::Table3Mix,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let (mut workload, mut seed) = (None, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                cfg.seconds = s;
            }
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        cfg.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    cfg.seed = seed.ok_or("--seed is required")?;
    if cfg.smoke {
        cfg.seconds = cfg.seconds.min(1.0);
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(cfg) => run_and_print(&cfg),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            match compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok((report, flagged)) => {
                    print!("{report}");
                    if flagged {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_and_print(cfg: &RunConfig) -> ExitCode {
    println!("provenance {}", run::provenance(cfg).to_string_compact());
    let mut out = Outcome::default();
    let defs: &[MetricDef] = if cfg.trace {
        traced(cfg, &mut out);
        PER_LAYER
    } else {
        match cfg.workload {
            Workload::Table3Mix => table3::run(cfg, &mut out),
            Workload::ExploreJcvm => explore::run(cfg, &mut out),
            Workload::ServeCold => serve::run(cfg, false, &mut out),
            Workload::ServeHot => serve::run(cfg, true, &mut out),
        }
        END_TO_END
    };
    for (name, v, unit) in &out.notes {
        println!("{name} {v} {unit}");
    }
    for d in defs {
        if let Some(v) = out.get(d.name) {
            println!("{} {v} {}", d.name, d.unit);
        }
    }
    match report::result_line(&out, defs) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("no result: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How a workload's traced time splits: `e2e_ms` on a stated basis,
/// the spanned layer calls' time, and the glue no span accounts for.
struct Decomposition {
    basis: &'static str,
    e2e_ms: f64,
    parts: Vec<(&'static str, f64)>,
}

impl Decomposition {
    fn glue_ms(&self) -> f64 {
        self.e2e_ms - self.parts.iter().map(|p| p.1).sum::<f64>()
    }
}

/// Total duration of the spans named `name` (on `track`, if given).
fn total_ms(spans: &[Span], name: &str, track: Option<u32>) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && track.is_none_or(|t| s.track == t))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

fn decomposition(w: Workload, spans: &[Span]) -> Decomposition {
    let parts = |names: &[(&'static str, Option<u32>)]| {
        names
            .iter()
            .map(|&(n, t)| (n, total_ms(spans, n, t)))
            .collect()
    };
    match w {
        Workload::Table3Mix => Decomposition {
            basis: "client time: sum of arm passes",
            e2e_ms: table3::Arm::ALL
                .iter()
                .map(|a| total_ms(spans, a.span(), None))
                .sum(),
            parts: parts(&[
                ("core.tlm1.run", None),
                ("core.tlm2.run", None),
                ("core.tlm3.run", None),
            ]),
        },
        Workload::ExploreJcvm => Decomposition {
            basis: "worker time: campaign wall x workers",
            e2e_ms: total_ms(spans, "campaign", None) * explore::WORKERS as f64,
            parts: parts(&[("campaign.session_new", None), ("jcvm.explore_run", None)]),
        },
        Workload::ServeCold | Workload::ServeHot => Decomposition {
            basis: "client time: write to done, per request",
            e2e_ms: total_ms(spans, "request", None),
            parts: parts(&[
                ("serve.parse", Some(1)),
                ("serve.materialize", Some(1)),
                ("serve.fingerprint", Some(1)),
                ("serve.cache.get", Some(1)),
                ("serve.result_codec", Some(1)),
                ("serve.exec", Some(1)),
            ]),
        },
    }
}

/// The traced run: the workload's own loop in alternating untraced and
/// traced segments, then the per-layer probes, each layer on the input
/// this workload feeds it (README.md, "Per-layer metrics").
fn traced(cfg: &RunConfig, out: &mut Outcome) {
    let db = hierbus::harness::shared_db();
    let probe_txns = if cfg.smoke {
        PROBE_TXNS / 5
    } else {
        PROBE_TXNS
    };
    let (seed, hot) = (cfg.seed, cfg.workload == Workload::ServeHot);
    // The bus probes' stimulus, rebuilt to time its generation.
    let generate: Box<dyn Fn() -> Scenario> = match cfg.workload {
        Workload::ServeCold | Workload::ServeHot => {
            Box::new(move || serve::bus_stimulus(seed, hot, probe_txns))
        }
        _ => Box::new(move || random_mix(seed, table3::params(probe_txns))),
    };
    let (own, explore_state, pool_stats, serve_trace) = match cfg.workload {
        Workload::Table3Mix => (table3::traced(cfg), explore::setup(cfg), Vec::new(), None),
        Workload::ExploreJcvm => {
            let (st, own, stats) = explore::traced(cfg);
            (own, st, stats, None)
        }
        Workload::ServeCold | Workload::ServeHot => {
            let (own, s) = serve::traced(cfg, hot, None);
            (own, explore::setup(cfg), Vec::new(), Some((s, None)))
        }
    };

    // The workload's own loop: overhead, tail and decomposition.
    let (plain, traced) = (&own.plain, &own.traced);
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    if !plain.latencies_ms.is_empty() && !traced.latencies_ms.is_empty() {
        let overhead = median(&traced.latencies_ms) / median(&plain.latencies_ms) - 1.0;
        out.set("trace_overhead_frac", overhead);
    }
    tail(out, &plain.latencies_ms);
    let calibration: Vec<f64> = plain
        .calibration_ms
        .iter()
        .chain(&traced.calibration_ms)
        .copied()
        .collect();
    out.set("host.calibration_ms", median(&calibration));
    let dec = decomposition(cfg.workload, &own.spans);
    out.set("trace.glue_frac", dec.glue_ms() / dec.e2e_ms);

    // Probes.
    let bus_input = generate();
    let (mut correct, l1_split) = probes::bus(&bus_input, &db, || generate().ops.len(), out);
    if !correct {
        eprintln!("a bus probe replay did not reproduce its arm's cycles and energy");
    }
    if !probes::accuracy(&bus_input, &db, out) {
        eprintln!("layer 1 is not cycle-exact against the RTL reference");
        correct = false;
    }
    probes::jcvm_and_campaign(&explore_state, out);
    let pool_stats = if pool_stats.is_empty() {
        let tracer = trace::Tracer::new();
        (0..POOL_PROBE_CAMPAIGNS)
            .map(|i| explore::traced_campaign(&explore_state, &tracer, i).1)
            .collect()
    } else {
        pool_stats
    };
    explore::pool_metrics(&pool_stats, out);
    let (serve_trace, probe) = serve_trace.unwrap_or_else(|| {
        let probe_cfg = RunConfig {
            workload: Workload::ServeCold,
            ..*cfg
        };
        let (probe, s) = serve::traced(&probe_cfg, false, Some(SERVE_PROBE_REQUESTS));
        out.attempted += probe.traced.attempted;
        out.failed += probe.traced.failed;
        (s, Some(probe))
    });
    let serve_spans = probe.as_ref().map_or(&own.spans, |p| &p.spans);
    serve::layer_metrics(&serve_trace, serve_spans, out);
    out.correct = correct && out.failed == 0;

    if let Err(e) = write_trace(cfg, &own, &dec, &l1_split, out) {
        eprintln!("could not write the trace files: {e}");
        out.correct = false;
    }
}

/// Where traced runs leave their files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `<workload>.trace.json` (Perfetto) and `<workload>.layers.json`.
fn write_trace(
    cfg: &RunConfig,
    own: &TracedLoop,
    dec: &Decomposition,
    l1_split: &[(&'static str, f64)],
    out: &Outcome,
) -> std::io::Result<()> {
    let spans = &own.spans;
    use hierbus::campaign::Json;
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut tracks = vec![(0, "client"), (1, "serve stages (replay)")];
    let max_track = spans.iter().map(|s| s.track).max().unwrap_or(0);
    let names: Vec<String> = (2..=max_track)
        .map(|t| format!("worker {}", t - 2))
        .collect();
    tracks.extend((2..=max_track).zip(names.iter().map(String::as_str)));
    let name = cfg.workload.name();
    std::fs::write(
        dir.join(format!("{name}.trace.json")),
        trace::perfetto(spans, &tracks),
    )?;
    let num = Json::Num;
    let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
    let ms_map = |parts: &[(&'static str, f64)]| {
        obj(parts
            .iter()
            .map(|(n, v)| ((*n).to_owned(), num(*v)))
            .collect())
    };
    let layers = obj(vec![
        ("workload".to_owned(), Json::Str(name.to_owned())),
        ("seed".to_owned(), num(cfg.seed as f64)),
        (
            "loop".to_owned(),
            obj(vec![
                (
                    "untraced_ops".to_owned(),
                    num(own.plain.latencies_ms.len() as f64),
                ),
                (
                    "traced_ops".to_owned(),
                    num(own.traced.latencies_ms.len() as f64),
                ),
                (
                    "trace_overhead_frac".to_owned(),
                    num(out.get("trace_overhead_frac").unwrap_or(f64::NAN)),
                ),
            ]),
        ),
        (
            "decomposition".to_owned(),
            obj(vec![
                ("basis".to_owned(), Json::Str(dec.basis.to_owned())),
                ("e2e_ms".to_owned(), num(dec.e2e_ms)),
                ("parts_ms".to_owned(), ms_map(&dec.parts)),
                ("glue_ms".to_owned(), num(dec.glue_ms())),
            ]),
        ),
        ("table3_l1_est_split_ms".to_owned(), ms_map(l1_split)),
        (
            "spans".to_owned(),
            Json::Arr(
                trace::by_name(spans)
                    .into_iter()
                    .map(|(n, count, total, own)| {
                        obj(vec![
                            ("name".to_owned(), Json::Str(n.to_owned())),
                            ("count".to_owned(), num(count as f64)),
                            ("total_ms".to_owned(), num(total as f64 / 1e6)),
                            ("self_ms".to_owned(), num(own as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics".to_owned(),
            obj(out
                .metrics
                .iter()
                .map(|(n, v)| ((*n).to_owned(), num(*v)))
                .collect()),
        ),
    ]);
    std::fs::write(
        dir.join(format!("{name}.layers.json")),
        layers.to_string_pretty(),
    )?;
    eprintln!("trace written to {}", dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn run_arguments_parse_in_both_trace_forms() {
        let cfg = parse_run(&args(
            "--workload serve_hot --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Workload::ServeHot);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (3, 10.0, true));
        let cfg = parse_run(&args("--trace 0 --workload table3_mix --seed 9")).unwrap();
        assert!(!cfg.trace);
        let cfg = parse_run(&args("--workload table3_mix --trace --seed 9 --smoke")).unwrap();
        assert!(cfg.trace && cfg.smoke);
        assert_eq!(cfg.seconds, 1.0);
        assert!(parse_run(&args("--workload nope --seed 1")).is_err());
        assert!(parse_run(&args("--workload table3_mix")).is_err());
        assert!(parse_run(&args("--workload table3_mix --seed 1 --seconds 0")).is_err());
    }
}
