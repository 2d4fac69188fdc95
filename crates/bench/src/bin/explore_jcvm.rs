//! **Fig. 7 / §4.3** — HW/SW interface exploration for the Java Card VM.
//!
//! The refined model (bytecode interpreter → master adapter → energy-
//! aware layer-1 TLM bus → slave adapter → hardware stack) runs every
//! workload on every interface configuration; the resulting table ranks
//! the design points by cycles and energy — the evaluation the paper
//! built its models for.
//!
//! The sweep executes as a campaign on the `hierbus-campaign` engine:
//!
//! ```text
//! cargo run --release -p hierbus-bench --bin explore_jcvm            # sequential
//! cargo run --release -p hierbus-bench --bin explore_jcvm -- --workers 4
//! cargo run --release -p hierbus-bench --bin explore_jcvm -- \
//!     --workers 4 --manifest results/explore_jcvm.manifest.json      # resumable
//! cargo run --release -p hierbus-bench --bin explore_jcvm -- --smoke # tiny matrix (CI)
//! ```
//!
//! `CAMPAIGN_WORKERS=N` is honoured when `--workers` is absent. The
//! merged table is byte-identical for every worker count.

use hierbus::harness;
use hierbus_bench::TextTable;
use hierbus_campaign::CampaignOptions;
use hierbus_jcvm::workloads::standard_workloads;
use hierbus_jcvm::{explore_campaign, IfaceConfig};
use std::path::PathBuf;

const STACK_BASE: u64 = 0x8000;

struct Args {
    workers: Option<usize>,
    manifest: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: None,
        manifest: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                args.workers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--workers takes a positive integer"),
                );
            }
            "--manifest" => {
                args.manifest = Some(PathBuf::from(it.next().expect("--manifest takes a path")));
            }
            "--smoke" => args.smoke = true,
            other => panic!("unknown argument {other:?} (see the module docs)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!("Characterizing the energy models (gate-level training run)...\n");
    let db = harness::shared_db();

    let mut configs = IfaceConfig::all_variants(STACK_BASE);
    // Plus the burst-transfer variants ("used bus transactions" axis):
    // call arguments move as burst transactions; on the slow window the
    // once-per-block address phase is where bursts win cycles.
    configs.push(IfaceConfig::with_bursts(STACK_BASE));
    configs.push(IfaceConfig {
        slow_window: true,
        ..IfaceConfig::with_bursts(STACK_BASE)
    });
    let mut workloads = standard_workloads();
    if args.smoke {
        configs.truncate(2);
        workloads.truncate(2);
    }
    let workers = hierbus_campaign::worker_count(args.workers);
    println!(
        "Exploring {} interface configurations x {} workloads...\n",
        configs.len(),
        workloads.len()
    );
    let opts = CampaignOptions {
        manifest_path: args.manifest.clone(),
        ..CampaignOptions::with_workers("explore_jcvm", workers)
    };
    let (rows, stats) =
        explore_campaign(&configs, &workloads, &db, &opts).expect("campaign manifest I/O");
    // Worker count and wall-clock go to stderr so stdout (captured into
    // results/) is byte-identical for every worker count.
    eprintln!("campaign: {stats}");

    // Full table, with the stack-access energy attribution from each
    // row's ledger. Back-to-back stack traffic is pipelined (address
    // cycles fold into the overlapping data phases), so a nonzero
    // address share is the signature of wait states — the slow window.
    let mut table = TextTable::new([
        "interface",
        "workload",
        "cycles",
        "txns",
        "energy pJ",
        "pJ/cycle",
        "addr",
        "rd",
        "wr",
        "idle",
    ]);
    for row in &rows {
        let share = |p: &str| format!("{:.0}%", 100.0 * row.phase_share(p));
        table.row([
            row.config.clone(),
            row.workload.clone(),
            row.cycles.to_string(),
            row.transactions.to_string(),
            format!("{:.0}", row.energy_pj),
            format!("{:.2}", row.energy_per_cycle()),
            share("address"),
            share("read-data"),
            share("write-data"),
            share("idle"),
        ]);
    }
    println!("{}", table.render());

    // Per-workload ranking summary.
    let mut summary = TextTable::new([
        "workload",
        "best (cycles)",
        "cycles",
        "worst (cycles)",
        "cycles",
        "energy spread",
    ]);
    for w in &workloads {
        let mut of_w: Vec<_> = rows.iter().filter(|r| r.workload == w.name).collect();
        of_w.sort_by_key(|r| r.cycles);
        let best = of_w.first().expect("rows exist");
        let worst = of_w.last().expect("rows exist");
        let e_min = of_w
            .iter()
            .map(|r| r.energy_pj)
            .fold(f64::INFINITY, f64::min);
        let e_max = of_w.iter().map(|r| r.energy_pj).fold(0.0f64, f64::max);
        summary.row([
            w.name.to_owned(),
            best.config.clone(),
            best.cycles.to_string(),
            worst.config.clone(),
            worst.cycles.to_string(),
            format!("{:.1}x", e_max / e_min),
        ]);
    }
    println!("Per-workload extremes:\n");
    println!("{}", summary.render());

    if args.smoke {
        println!("Smoke matrix only — run without --smoke for the full sweep.");
        return;
    }
    println!(
        "Expected shape: 32-bit access on the fast window without polling\n\
         wins everywhere; 8-bit access, status polling and the slow window\n\
         each multiply cost; the register organisation only separates on\n\
         peek-heavy code (dup_squares), where the single-data-register\n\
         interface pays a pop + re-push per Dup."
    );
}
