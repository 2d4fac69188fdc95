//! The campaign engine's scaling curve: the §4.3 exploration slice
//! (8 interface configurations × every JCVM workload) on the
//! `hierbus-campaign` worker pool at 1/2/4/N workers, best of
//! [`SCALING_REPS`](hierbus_campaign::SCALING_REPS) runs each.
//!
//! Every number comes from the engine's
//! [`CampaignStats`](hierbus_campaign::CampaignStats) via
//! [`measure_scaling`](hierbus_campaign::measure_scaling): throughput,
//! scaling vs the 1-worker point, busy fraction, active-worker
//! utilization and idle workers. The binary prints them and writes the
//! `campaign_explore` section of `BENCH_throughput.json`, after
//! validating it in-process with [`hierbus_bench::check_campaign`] —
//! the validator `check_throughput` runs on the committed file.
//!
//! Run with `cargo run --release -p hierbus-bench --bin campaign_scaling`.
//! `--smoke` measures a 2 × 2 slice and writes nothing: it is the CI
//! check that the measurement runs and its section validates.

use hierbus::harness;
use hierbus_bench::{TextTable, CAMPAIGN_SECTION, THROUGHPUT_JSON};
use hierbus_campaign::{CampaignOptions, Json, ScalingPoint};
use hierbus_jcvm::workloads::standard_workloads;
use hierbus_jcvm::{explore_matrix, ExplorationRow, ExploreSession, IfaceConfig};
use std::process::ExitCode;

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
        &CampaignOptions::sequential(CAMPAIGN_SECTION),
        &worker_counts,
        || ExploreSession::new(&db),
        |session, point| {
            session
                .run(configs[point.coords[0]], &workloads[point.coords[1]])
                .expect("exploration scenario runs")
        },
    );

    let section = bench_section(matrix.len(), &points);
    let doc = Json::Obj(vec![(
        CAMPAIGN_SECTION.to_owned(),
        Json::Obj(section.clone()),
    )]);
    if let Err(e) = hierbus_bench::check_campaign(&doc) {
        eprintln!("campaign_scaling: {e}");
        return ExitCode::FAILURE;
    }

    let base_sps = points[0].scenarios_per_sec;
    let mut table = TextTable::new([
        "workers",
        "wall",
        "scen/s",
        "scaling",
        "busy",
        "utilization",
        "idle",
    ]);
    for p in &points {
        table.row([
            p.workers.to_string(),
            format!("{:.2?}", p.wall),
            format!("{:.1}", p.scenarios_per_sec),
            format!("{:.2}x", p.scenarios_per_sec / base_sps),
            format!("{:.1}%", p.busy_frac * 100.0),
            format!("{:.1}%", p.utilization * 100.0),
            p.idle_workers.to_string(),
        ]);
    }
    println!(
        "Campaign scaling ({} exploration scenarios per run, best of {}):\n",
        matrix.len(),
        hierbus_campaign::SCALING_REPS
    );
    println!("{}", table.render());
    if smoke {
        println!("smoke run: {CAMPAIGN_SECTION} section validated, nothing written");
        return ExitCode::SUCCESS;
    }
    let path = hierbus_bench::throughput_json_path();
    match hierbus_bench::write_throughput_section(&path, CAMPAIGN_SECTION, section) {
        Ok(()) => {
            println!("{CAMPAIGN_SECTION} written to {THROUGHPUT_JSON}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign_scaling: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
