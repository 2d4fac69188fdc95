//! The campaign-pool instrument: one profiled scaling measurement of
//! the §4.3 exploration campaign feeds every campaign-pool number.
//!
//! The binary runs the exploration slice (8 interface configurations ×
//! every JCVM workload) on the `hierbus-campaign` worker pool at
//! 1/2/4/N workers with the pool profiler on, best of
//! [`SCALING_REPS`](hierbus_campaign::SCALING_REPS) runs each, and
//! decomposes each worker count's efficiency loss into serial /
//! imbalance / contention / residual shares. From those same runs it
//! writes:
//!
//! * the `campaign_explore` section of `BENCH_throughput.json`;
//! * `results/obs/scaling_audit.json` (schema_version 1);
//! * one multi-track Perfetto trace and metrics CSV per worker count
//!   (`results/obs/scaling_audit_w{N}.*`).
//!
//! `check_scaling_audit` gates that the audit and the BENCH rows come
//! from one run. Every output is validated in-process first with the
//! same validator. The binary installs the counting global allocator
//! so the per-worker allocation counters in the audit are real.
//!
//! Run with `cargo run --release -p hierbus-bench --bin scaling_audit`.
//! `--smoke` measures a 2 × 2 slice and writes nothing: it is the CI
//! check that the instrument runs and its output validates.

use hierbus::harness;
use hierbus::observe;
use hierbus_bench::{TextTable, THROUGHPUT_JSON};
use hierbus_campaign::{CampaignOptions, Json, ScalingPoint};
use hierbus_jcvm::workloads::standard_workloads;
use hierbus_jcvm::{explore_matrix, ExplorationRow, ExploreSession, IfaceConfig};
use hierbus_obs::profiling::{scaling_audit, AuditInput, CountingAlloc, ScalingAudit};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The campaign's name in the audit and its section in
/// `BENCH_throughput.json`.
const CAMPAIGN: &str = "campaign_explore";

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The `campaign_explore` section of `BENCH_throughput.json`.
fn bench_section(scenarios: usize, points: &[ScalingPoint]) -> Vec<(String, Json)> {
    let base_sps = points[0].scenarios_per_sec;
    let rows = points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("workers".to_owned(), Json::Num(p.workers as f64)),
                ("scenarios_per_s".to_owned(), Json::Num(p.scenarios_per_sec)),
                (
                    "scaling".to_owned(),
                    Json::Num(p.scenarios_per_sec / base_sps),
                ),
                ("busy_frac".to_owned(), Json::Num(p.busy_frac)),
                ("utilization".to_owned(), Json::Num(p.utilization)),
                ("idle_workers".to_owned(), Json::Num(p.idle_workers as f64)),
            ])
        })
        .collect();
    vec![
        ("scenarios".to_owned(), Json::Num(scenarios as f64)),
        ("workers".to_owned(), Json::Arr(rows)),
    ]
}

/// Writes the audit, its traces and the BENCH section.
fn write_artifacts(
    audit: &ScalingAudit,
    inputs: &[AuditInput],
    bench: Vec<(String, Json)>,
) -> std::io::Result<()> {
    let dir = observe::default_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("scaling_audit.json"), audit.to_json())?;
    for input in inputs {
        let name = format!("scaling_audit_w{}", input.workers);
        observe::export_pool_profile(&input.profile, &dir, &name)?;
    }
    hierbus_bench::write_throughput_section(hierbus_bench::throughput_json_path(), CAMPAIGN, bench)
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut configs = IfaceConfig::all_variants(0x8000);
    let mut workloads = standard_workloads();
    configs.truncate(if smoke { 2 } else { 8 });
    if smoke {
        workloads.truncate(2);
    }
    let matrix = explore_matrix(&configs, &workloads);
    let mut worker_counts = vec![1, 2, 4];
    if let Ok(n) = std::thread::available_parallelism() {
        worker_counts.push(n.get());
    }
    worker_counts.sort_unstable();
    worker_counts.dedup();

    let db = harness::shared_db();
    let points = hierbus_campaign::measure_scaling::<ExploreSession, ExplorationRow, _, _>(
        &matrix,
        &CampaignOptions {
            profile: true,
            ..CampaignOptions::sequential(CAMPAIGN)
        },
        &worker_counts,
        || ExploreSession::new(&db),
        |session, point| {
            session
                .run(configs[point.coords[0]], &workloads[point.coords[1]])
                .expect("exploration scenario runs")
        },
    );

    let inputs: Vec<AuditInput> = points
        .iter()
        .map(|p| AuditInput {
            workers: p.workers,
            scenarios_per_sec: p.scenarios_per_sec,
            profile: p
                .profile
                .clone()
                .expect("a profiled measure_scaling always attaches a profile"),
        })
        .collect();
    let audit = scaling_audit(CAMPAIGN, matrix.len(), &inputs);
    let checked = Json::parse(&audit.to_json())
        .map_err(|e| format!("audit is not valid JSON: {e}"))
        .and_then(|doc| hierbus_bench::check_scaling_audit(&doc));
    if let Err(e) = checked {
        eprintln!("scaling_audit: {e}");
        return ExitCode::FAILURE;
    }

    let base_sps = points[0].scenarios_per_sec;
    let mut table = TextTable::new([
        "workers",
        "wall",
        "scen/s",
        "scaling",
        "busy",
        "efficiency",
        "loss",
        "serial",
        "imbalance",
        "contention",
        "residual",
        "balance",
        "retries",
        "chunk p50/p99",
    ]);
    for p in &audit.points {
        table.row([
            p.workers.to_string(),
            format!("{:.2?}", std::time::Duration::from_nanos(p.wall_ns)),
            format!("{:.1}", p.scenarios_per_sec),
            format!("{:.2}x", p.scenarios_per_sec / base_sps),
            pct(p.busy_frac),
            pct(p.efficiency),
            pct(p.loss),
            pct(p.serial_loss),
            pct(p.imbalance_loss),
            pct(p.contention_loss),
            pct(p.residual_loss),
            format!("{:.2}", p.balance),
            p.claim_retries.to_string(),
            format!(
                "{:.1}/{:.1}µs",
                p.chunk_p50_ns as f64 / 1_000.0,
                p.chunk_p99_ns as f64 / 1_000.0
            ),
        ]);
    }
    println!(
        "Campaign scaling audit ({} exploration scenarios per run, profiled, \
         Amdahl serial fraction {:.3}):\n",
        matrix.len(),
        audit.serial_fraction
    );
    println!("{}", table.render());
    if smoke {
        println!("smoke run: audit validated, nothing written");
        return ExitCode::SUCCESS;
    }
    match write_artifacts(&audit, &inputs, bench_section(matrix.len(), &points)) {
        Ok(()) => {
            println!(
                "audit and traces written to {}, campaign_explore to {THROUGHPUT_JSON}",
                observe::default_dir().display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scaling_audit: cannot write artifacts: {e}");
            ExitCode::FAILURE
        }
    }
}
