//! Arbitration smoke gate — part of the `ci.sh` checks.
//!
//! Runs a seeded CPU+DMA contention workload under every arbitration
//! policy, with the DMA engine both active and idle, through all three
//! model layers, and verifies the cross-layer equivalence contract the
//! full `arbitration_equivalence` suite pins in depth:
//!
//! * identical per-master outcomes and committed memory at every layer;
//! * layer 1 cycle-exact and grant-line-exact against the RTL
//!   reference;
//! * the layer-1 characterized energy reproduced over the RTL frame
//!   log to 1e-9 relative;
//! * each layer's master-tagged ledger slices summing back to its own
//!   attributed total;
//! * with the DMA idle, every grant going to the CPU (the multi-master
//!   path degrades to the single-master one).
//!
//! Prints one line per configuration and exits non-zero with a
//! description of the first violation. Fast enough to run on every
//! commit (four small workloads, three layers each).
//!
//! Run with `cargo run --release -p hierbus-bench --bin arbitration_smoke`.

use hierbus::harness::multi::{run_layer1, run_layer2, run_reference, MultiRun};
use hierbus::harness::shared_db;
use hierbus_ec::sequences::{self, MixParams};
use hierbus_ec::{ArbitrationPolicy, DmaParams, DmaProgram, MultiScenario};
use std::process::ExitCode;

const SEED: u64 = 0x5D0C;

fn workload(policy: ArbitrationPolicy, dma_active: bool) -> MultiScenario {
    let cpu = sequences::random_mix(
        SEED,
        MixParams {
            count: 40,
            ..MixParams::default()
        },
    );
    let dma = DmaProgram::seeded(
        SEED ^ 0xD31A,
        DmaParams {
            descriptors: if dma_active { 8 } else { 0 },
            ..DmaParams::default()
        },
    );
    MultiScenario::new("arbitration-smoke", cpu, &dma, policy)
}

fn assert_close(tag: &str, a: f64, b: f64) -> Result<(), String> {
    let denom = a.abs().max(b.abs()).max(1e-12);
    if (a - b).abs() / denom < 1e-9 {
        Ok(())
    } else {
        Err(format!("{tag}: {a} vs {b} diverge beyond 1e-9 relative"))
    }
}

fn check(tag: &str, rtl: &MultiRun, l1: &MultiRun, l2: &MultiRun) -> Result<(), String> {
    if rtl.outcomes() != l1.outcomes() || l1.outcomes() != l2.outcomes() {
        return Err(format!("{tag}: per-master outcomes diverge across layers"));
    }
    if rtl.memory != l1.memory || l1.memory != l2.memory {
        return Err(format!("{tag}: committed memory diverges across layers"));
    }
    if rtl.cycles != l1.cycles {
        return Err(format!(
            "{tag}: layer 1 not cycle-exact ({} vs {})",
            l1.cycles, rtl.cycles
        ));
    }
    if rtl.grants != l1.grants {
        return Err(format!(
            "{tag}: grant lines diverge between RTL and layer 1"
        ));
    }
    let frames_energy = rtl
        .l1_frames_energy_pj
        .ok_or_else(|| format!("{tag}: reference run carries no frame-log energy"))?;
    assert_close(
        &format!("{tag}: l1-over-frames"),
        frames_energy,
        l1.energy_pj,
    )?;
    for (name, run, total) in [
        ("rtl", rtl, frames_energy),
        ("tlm1", l1, l1.energy_pj),
        ("tlm2", l2, l2.energy_pj),
    ] {
        let ledger_sum: f64 = run.ledger.master_totals().iter().map(|(_, e)| e).sum();
        assert_close(
            &format!("{tag}/{name}: ledger vs slices"),
            run.ledger.total_pj(),
            ledger_sum,
        )?;
        assert_close(
            &format!("{tag}/{name}: ledger vs layer total"),
            run.ledger.total_pj(),
            total,
        )?;
    }
    Ok(())
}

fn run_one(policy: ArbitrationPolicy, dma_active: bool) -> Result<(), String> {
    let db = shared_db();
    let ms = workload(policy, dma_active);
    let tag = format!(
        "{}/dma-{}",
        policy.name(),
        if dma_active { "on" } else { "off" }
    );
    let rtl = run_reference(&ms, &db, &[]);
    let l1 = run_layer1(&ms, &db, &[]);
    let l2 = run_layer2(&ms, &db, &[]);
    check(&tag, &rtl, &l1, &l2)?;
    if !dma_active && rtl.grants.iter().any(|&(_, m)| m != 0) {
        return Err(format!("{tag}: idle DMA master won a grant"));
    }
    println!(
        "arbitration_smoke: {tag}: cycles={} grants={:?} contended={} energy_pj={:.3}",
        rtl.cycles, rtl.stats.grants, rtl.stats.contended_cycles, l1.energy_pj,
    );
    Ok(())
}

fn main() -> ExitCode {
    for policy in ArbitrationPolicy::ALL {
        for dma_active in [true, false] {
            if let Err(msg) = run_one(policy, dma_active) {
                eprintln!("arbitration_smoke: FAIL: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("arbitration_smoke: all layers agree under both policies, DMA on and off");
    ExitCode::SUCCESS
}
