//! The automated scaling audit: runs the bus-level characterization
//! campaign at 1/2/4 workers with the pool profiler on, decomposes the
//! efficiency loss at each worker count into serial / imbalance /
//! contention / residual shares, and writes
//! `results/obs/scaling_audit.json` (schema_version 1, validated by
//! `check_scaling_audit`) plus one multi-track Perfetto trace per
//! worker count (`scaling_audit_w{N}.trace.json`).
//!
//! The binary installs the counting global allocator so the per-worker
//! allocation counters in the audit are real, not zero.
//!
//! Run with `cargo run --release -p hierbus-bench --bin scaling_audit`
//! (append `--smoke` for the fast CI shape: fewer seeds, shorter
//! mixes — same schema, noisier numbers).

use hierbus::harness;
use hierbus::observe;
use hierbus_bench::TextTable;
use hierbus_campaign::{CampaignPayload, ClaimStrategy, Json, Matrix};
use hierbus_ec::sequences::{random_mix, MixParams};
use hierbus_obs::profiling::{scaling_audit, AuditInput, CountingAlloc};
use hierbus_power::{Capture, Layer, Materialized, RunSpec, Session};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// One cell of the audited campaign: a seeded random mix through a
/// lean layer-1 session run.
struct MixCell {
    cycles: u64,
    energy_pj: f64,
}

impl CampaignPayload for MixCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".to_owned(), Json::Num(self.cycles as f64)),
            ("energy_pj".to_owned(), Json::Num(self.energy_pj)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(MixCell {
            cycles: json.get("cycles")?.as_u64()?,
            energy_pj: json.get("energy_pj")?.as_f64()?,
        })
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (seed_count, txns) = if smoke { (8u64, 200) } else { (16u64, 1_000) };

    let seeds: Vec<u64> = (0..seed_count).map(|i| 0xBE9C + 0x101 * i).collect();
    let matrix = Matrix::new().axis("seed", seeds.iter().map(|s| format!("{s:#06x}")));
    let scenarios: Vec<Materialized> = seeds
        .iter()
        .map(|&s| {
            random_mix(
                s,
                MixParams {
                    count: txns,
                    read_pct: 50,
                    burst_pct: 40,
                    fetch_pct: 30,
                    max_idle: 0,
                    ..MixParams::default()
                },
            )
            .into()
        })
        .collect();
    let db = harness::standard_db();

    let lean = RunSpec::new(Layer::L1, Capture::Lean);
    let points = hierbus_campaign::measure_scaling_profiled::<Session, MixCell, _, _>(
        &matrix,
        "scaling_audit_bus",
        &WORKER_COUNTS,
        ClaimStrategy::Chunked,
        true,
        || Session::new(&db),
        |session, point| {
            let run = session.run(&lean, &scenarios[point.coords[0]]);
            MixCell {
                cycles: run.cycles,
                energy_pj: run.energy_pj,
            }
        },
    );

    let inputs: Vec<AuditInput> = points
        .iter()
        .map(|p| AuditInput {
            workers: p.workers,
            wall_ns: p.wall.as_nanos() as u64,
            scenarios_per_sec: p.scenarios_per_sec,
            profile: p
                .profile
                .clone()
                .expect("measure_scaling_profiled(profile=true) always attaches a profile"),
        })
        .collect();
    let audit = scaling_audit("scaling_audit_bus", seeds.len(), &inputs);

    let dir = observe::default_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("scaling_audit: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let json_path = dir.join("scaling_audit.json");
    if let Err(e) = std::fs::write(&json_path, audit.to_json()) {
        eprintln!("scaling_audit: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    for input in &inputs {
        let name = format!("scaling_audit_w{}", input.workers);
        if let Err(e) = observe::export_pool_profile(&input.profile, Path::new(&dir), &name) {
            eprintln!("scaling_audit: cannot export {name}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut table = TextTable::new([
        "workers",
        "wall",
        "scen/s",
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
        "scaling audit ({} bus scenarios per run, Amdahl serial fraction {:.3}):\n",
        seeds.len(),
        audit.serial_fraction
    );
    println!("{}", table.render());
    println!("audit written to {}", json_path.display());
    ExitCode::SUCCESS
}
