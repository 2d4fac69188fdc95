//! Cross-layer arbitration equivalence: a CPU scenario and a DMA
//! descriptor program behind one arbiter, replayed at every abstraction
//! level, must agree — identical per-master outcomes and committed
//! memory at all three layers, cycle-exact grant lines between the RTL
//! reference and layer 1, the layer-1 characterized energy reproduced
//! over real RTL frames to 1e-9 relative, per-master ledger slices
//! summing to each layer's attributed total, and fault/tear replays
//! staying layer-invariant under contention. Campaigns over the new
//! arbitration axes must stay byte-identical for any worker count.

use hierbus::ec::sequences::{self, MasterOp, MixParams, Scenario};
use hierbus::ec::{
    ArbitrationPolicy, BurstLen, DmaParams, DmaProgram, FaultKind, FaultPlan, MultiScenario,
    OpFault, RetryPolicy, WaitProfile,
};
use hierbus::harness::shared_db;
use hierbus::power::{Capture, CharacterizationDb, Layer, MasterFaults, Outcome, RunSpec, Session};

/// A CPU+DMA workload at `layer` with per-master faults, full capture.
fn run_at(
    layer: Layer,
    ms: &MultiScenario,
    db: &CharacterizationDb,
    faults: &[MasterFaults],
) -> Outcome {
    let spec = RunSpec::new(layer, Capture::Full).with_faults(faults.to_vec());
    Session::new(db).run(&spec, &ms.clone().into())
}

/// The reference runs on the ideal netlist, so its energy is the
/// deterministic settled-transition cost.
fn run_reference(ms: &MultiScenario, db: &CharacterizationDb, faults: &[MasterFaults]) -> Outcome {
    run_at(Layer::Rtl { glitches: false }, ms, db, faults)
}

fn run_layer1(ms: &MultiScenario, db: &CharacterizationDb, faults: &[MasterFaults]) -> Outcome {
    run_at(Layer::L1, ms, db, faults)
}

fn run_layer2(ms: &MultiScenario, db: &CharacterizationDb, faults: &[MasterFaults]) -> Outcome {
    run_at(Layer::L2 { correlation: false }, ms, db, faults)
}

/// Relative agreement pin for energy totals.
fn assert_close(tag: &str, a: f64, b: f64) {
    let denom = a.abs().max(b.abs()).max(1e-12);
    assert!(
        ((a - b).abs() / denom) < 1e-9,
        "{tag}: {a} vs {b} (rel err {})",
        (a - b).abs() / denom
    );
}

/// A seeded CPU+DMA contention scenario: the CPU mix lives in
/// [0, 0x1_0000), the DMA program in [0x1_0000, 0x2_0000), so the two
/// masters contend for the bus but never race on memory.
fn contention_scenario(
    seed: u64,
    policy: ArbitrationPolicy,
    burst: BurstLen,
    cpu_count: usize,
    descriptors: usize,
) -> MultiScenario {
    let cpu = sequences::random_mix(
        seed,
        MixParams {
            count: cpu_count,
            ..MixParams::default()
        },
    );
    let dma = DmaProgram::seeded(
        seed ^ 0xD31A,
        DmaParams {
            descriptors,
            burst,
            ..DmaParams::default()
        },
    );
    MultiScenario::new("contention", cpu, &dma, policy)
}

fn all_layers(
    ms: &MultiScenario,
    db: &CharacterizationDb,
    faults: &[MasterFaults],
) -> (Outcome, Outcome, Outcome) {
    (
        run_reference(ms, db, faults),
        run_layer1(ms, db, faults),
        run_layer2(ms, db, faults),
    )
}

/// The layer-invariant multi-master contract.
fn assert_agreement(tag: &str, rtl: &Outcome, l1: &Outcome, l2: &Outcome) {
    // Per-master outcomes and fault counters agree everywhere.
    assert_eq!(rtl.outcomes(), l1.outcomes(), "{tag}: rtl vs l1 outcomes");
    assert_eq!(l1.outcomes(), l2.outcomes(), "{tag}: l1 vs l2 outcomes");
    for (i, (r, o)) in rtl.masters.iter().zip(l1.masters.iter()).enumerate() {
        assert_eq!(r.fault, o.fault, "{tag}: master {i} rtl vs l1 counters");
    }
    for (i, (r, o)) in l1.masters.iter().zip(l2.masters.iter()).enumerate() {
        assert_eq!(r.fault, o.fault, "{tag}: master {i} l1 vs l2 counters");
    }
    // Committed memory agrees everywhere.
    assert_eq!(rtl.memory, l1.memory, "{tag}: rtl vs l1 memory");
    assert_eq!(l1.memory, l2.memory, "{tag}: l1 vs l2 memory");
    // Layer 1 is cycle-exact, grant line for grant line, record for
    // record; layer 2 prices contention coarsely but never optimistically.
    assert_eq!(rtl.cycles, l1.cycles, "{tag}: layer 1 not cycle-exact");
    assert_eq!(rtl.grants, l1.grants, "{tag}: grant lines diverge");
    for (i, (r, o)) in rtl.masters.iter().zip(l1.masters.iter()).enumerate() {
        assert_eq!(r.records, o.records, "{tag}: master {i} records diverge");
    }
    assert!(
        l2.cycles >= l1.cycles,
        "{tag}: layer 2 optimistic ({} < {})",
        l2.cycles,
        l1.cycles
    );
    // Every layer grants exactly once per issued attempt.
    for run in [rtl, l1, l2] {
        let attempts: usize = run.masters.iter().map(|m| m.records.len()).sum();
        assert_eq!(run.grants.len(), attempts, "{tag}: grants != attempts");
        for (i, m) in run.masters.iter().enumerate() {
            assert_eq!(
                run.stats.grants[i] as usize,
                m.records.len(),
                "{tag}: master {i} grant count"
            );
        }
    }
    // The layer-1 characterized model over the *RTL frame log* equals
    // the layer-1 TLM run's energy to 1e-9 relative.
    let frames_energy = rtl.l1_frames_energy_pj.expect("reference run");
    assert_close(
        &format!("{tag}: l1-over-frames"),
        frames_energy,
        l1.energy_pj,
    );
    // Each layer's master-tagged ledger partitions its own attributed
    // total: the untagged (idle) slice plus the per-master slices sum
    // back to the total the layer reported.
    for (name, run, total) in [
        ("rtl", rtl, frames_energy),
        ("tlm1", l1, l1.energy_pj),
        ("tlm2", l2, l2.energy_pj),
    ] {
        let slices: f64 = run.ledger.master_totals().iter().map(|(_, e)| e).sum();
        assert_close(
            &format!("{tag}: {name} ledger total"),
            run.ledger.total_pj(),
            total,
        );
        assert_close(&format!("{tag}: {name} slice sum"), slices, total);
    }
    // The per-master split itself is layer-exact between the reference
    // and layer 1 (same frames, same spans, same ownership rule).
    for master in [None, Some("cpu"), Some("dma")] {
        assert_close(
            &format!("{tag}: {master:?} split rtl vs l1"),
            rtl.ledger.master_total(master),
            l1.ledger.master_total(master),
        );
    }
}

#[test]
fn contention_sweep_all_layers_agree() {
    let db = shared_db();
    for policy in ArbitrationPolicy::ALL {
        for (seed, burst, cpu_count, descriptors) in [
            (11, BurstLen::Single, 120, 24),
            (12, BurstLen::B4, 120, 16),
            (13, BurstLen::B8, 60, 20),
            (14, BurstLen::B2, 200, 8),
        ] {
            let ms = contention_scenario(seed, policy, burst, cpu_count, descriptors);
            let (rtl, l1, l2) = all_layers(&ms, &db, &[]);
            let tag = format!("{}/seed{}", policy.name(), seed);
            assert_agreement(&tag, &rtl, &l1, &l2);
            // Both masters actually ran and burned energy.
            assert!(l1.ledger.master_total(Some("cpu")) > 0.0, "{tag}");
            assert!(l1.ledger.master_total(Some("dma")) > 0.0, "{tag}");
        }
    }
}

#[test]
fn fixed_priority_never_makes_the_cpu_wait() {
    let db = shared_db();
    for seed in 0..8 {
        let ms = contention_scenario(seed, ArbitrationPolicy::FixedPriority, BurstLen::B4, 80, 12);
        let run = run_layer1(&ms, &db, &[]);
        assert_eq!(run.stats.waits[0], 0, "seed {seed}: cpu waited");
        // ... and the DMA still finishes: fixed priority starves only
        // while the CPU actually requests, which a finite stimulus
        // stops doing.
        assert!(run.masters[1].outcomes.iter().all(|o| o.is_ok()));
    }
}

/// Two saturated symmetric masters: back-to-back CPU reads against a
/// gapless single-beat DMA read stream.
fn saturated_scenario(policy: ArbitrationPolicy) -> MultiScenario {
    let ops: Vec<MasterOp> = (0..64).map(|i| MasterOp::read(0x100 + 4 * i)).collect();
    let cpu = Scenario {
        name: "saturated-cpu",
        ops: ops.into(),
        waits: WaitProfile::ZERO,
    };
    let dma = DmaProgram::seeded(
        5,
        DmaParams {
            descriptors: 64,
            burst: BurstLen::Single,
            read_pct: 100,
            max_gap: 0,
            ..DmaParams::default()
        },
    );
    MultiScenario::new("saturated", cpu, &dma, policy)
}

#[test]
fn round_robin_shares_a_saturated_bus_fairly() {
    let db = shared_db();
    let rr = run_layer1(&saturated_scenario(ArbitrationPolicy::RoundRobin), &db, &[]);
    let fixed = run_layer1(
        &saturated_scenario(ArbitrationPolicy::FixedPriority),
        &db,
        &[],
    );
    // Contention actually happened and round-robin spread the waiting
    // over both masters, evenly for symmetric traffic.
    assert!(rr.stats.contended_cycles > 0);
    assert!(rr.stats.waits[0] > 0 && rr.stats.waits[1] > 0);
    let diff = (rr.stats.waits[0] as i64 - rr.stats.waits[1] as i64).unsigned_abs();
    assert!(diff <= 8, "unbalanced rr waits: {:?}", rr.stats.waits);
    // Fixed priority pushes all of it onto the DMA.
    assert_eq!(fixed.stats.waits[0], 0);
    assert!(
        fixed.stats.waits[1] >= rr.stats.waits[1],
        "fixed {:?} vs rr {:?}",
        fixed.stats.waits,
        rr.stats.waits
    );
    // Round-robin interleaves the grant log more than fixed priority.
    let same_pairs = |g: &[(u64, usize)]| g.windows(2).filter(|w| w[0].1 == w[1].1).count();
    assert!(
        same_pairs(&rr.grants) < same_pairs(&fixed.grants),
        "rr {} vs fixed {}",
        same_pairs(&rr.grants),
        same_pairs(&fixed.grants)
    );
    // No starvation under either policy: everything completed Ok.
    for run in [&rr, &fixed] {
        assert!(run
            .masters
            .iter()
            .all(|m| m.outcomes.iter().all(|o| o.is_ok())));
    }
}

#[test]
fn starvation_freedom_proptest_both_policies() {
    // Seeded property sweep: under both policies every seeded traffic
    // shape completes with all-Ok outcomes (run() would panic on a
    // livelock), one grant per attempt, and disjoint id windows.
    let db = shared_db();
    for policy in ArbitrationPolicy::ALL {
        for seed in 20..28 {
            let ms = contention_scenario(seed, policy, BurstLen::B4, 60, 10);
            let run = run_layer1(&ms, &db, &[]);
            let tag = format!("{}/seed{}", policy.name(), seed);
            assert!(
                run.masters
                    .iter()
                    .all(|m| m.outcomes.iter().all(|o| o.is_ok())),
                "{tag}"
            );
            let attempts: usize = run.masters.iter().map(|m| m.records.len()).sum();
            assert_eq!(run.grants.len(), attempts, "{tag}");
            assert!(run.masters[0]
                .records
                .iter()
                .all(|r| r.id.0 < hierbus::ec::DMA_ID_BASE));
            assert!(run.masters[1]
                .records
                .iter()
                .all(|r| r.id.0 >= hierbus::ec::DMA_ID_BASE));
        }
    }
}

/// A tear-alignment scenario: zero-wait single-beat writes on both
/// masters, so the block-atomic layer-2 transfers commit at the same
/// cycles as the beat-level models and the sweep can demand exact
/// memory agreement at every tear offset.
fn tear_scenario(policy: ArbitrationPolicy) -> MultiScenario {
    let cpu = Scenario {
        name: "tear-cpu",
        ops: vec![
            MasterOp::write(0x100, 0x1111_1111),
            MasterOp::write(0x104, 0x2222_2222).after_idle(1),
            MasterOp::write(0x108, 0x3333_3333),
        ]
        .into(),
        waits: WaitProfile::ZERO,
    };
    let dma = DmaProgram::seeded(
        3,
        DmaParams {
            descriptors: 4,
            burst: BurstLen::Single,
            read_pct: 0,
            max_gap: 1,
            ..DmaParams::default()
        },
    );
    MultiScenario::new("tear", cpu, &dma, policy)
}

#[test]
fn tear_under_contention_commits_identical_memory() {
    let db = shared_db();
    for policy in ArbitrationPolicy::ALL {
        let ms = tear_scenario(policy);
        let full = run_reference(&ms, &db, &[]);
        assert!(!full.torn);
        for t in 0..=full.cycles + 2 {
            let faults = [MasterFaults {
                master: 0,
                plan: FaultPlan::new().with_tear(t),
                policy: RetryPolicy::NONE,
            }];
            let (rtl, l1, l2) = all_layers(&ms, &db, &faults);
            let tag = format!("{}/tear@{t}", policy.name());
            assert_agreement(&tag, &rtl, &l1, &l2);
            if t < full.cycles {
                assert!(rtl.torn && l1.torn && l2.torn, "{tag}: not torn");
            }
        }
    }
}

#[test]
fn faults_on_either_master_stay_layer_invariant_under_contention() {
    let db = shared_db();
    let ms = contention_scenario(31, ArbitrationPolicy::RoundRobin, BurstLen::B4, 40, 8);
    // A transient slave error on a CPU op and a stall on a DMA
    // descriptor, both retried/absorbed under contention.
    let cases: [(&str, Vec<MasterFaults>); 3] = [
        (
            "cpu-error",
            vec![MasterFaults {
                master: 0,
                plan: FaultPlan::new().with_fault(3, OpFault::once(FaultKind::SlaveError)),
                policy: RetryPolicy::retries(3),
            }],
        ),
        (
            "dma-stall",
            vec![MasterFaults {
                master: 1,
                plan: FaultPlan::new().with_fault(2, OpFault::always(FaultKind::Stall(5))),
                policy: RetryPolicy::NONE,
            }],
        ),
        (
            "both",
            vec![
                MasterFaults {
                    master: 0,
                    plan: FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError)),
                    policy: RetryPolicy::retries(2),
                },
                MasterFaults {
                    master: 1,
                    plan: FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(3))),
                    policy: RetryPolicy::NONE,
                },
            ],
        ),
    ];
    for (tag, faults) in &cases {
        let (rtl, l1, l2) = all_layers(&ms, &db, faults);
        assert_agreement(tag, &rtl, &l1, &l2);
        let injected: u64 = rtl.masters.iter().map(|m| m.fault.injected).sum();
        assert!(injected > 0, "{tag}: no fault fired");
    }
}

#[test]
fn multi_master_campaign_byte_identical_across_worker_counts() {
    use hierbus_campaign::{CampaignOptions, Matrix};

    let db = shared_db();
    let bursts = [BurstLen::Single, BurstLen::B4];
    // DMA/CPU traffic ratio axis: (cpu ops, dma descriptors).
    let ratios: [(usize, usize); 2] = [(60, 6), (20, 18)];
    let matrix = Matrix::new()
        .axis(
            "policy",
            ArbitrationPolicy::ALL.iter().map(|p| p.name().to_string()),
        )
        .axis("dma_burst", bursts.iter().map(|b| format!("{b:?}")))
        .axis(
            "ratio",
            ratios.iter().map(|(c, d)| format!("cpu{c}-dma{d}")),
        );

    let run_at = |workers: usize| {
        hierbus_campaign::run(
            &matrix,
            &CampaignOptions::with_workers("arbitration-axis", workers),
            |point| {
                let policy = ArbitrationPolicy::ALL[point.coords[0]];
                let burst = bursts[point.coords[1]];
                let (cpu_count, descriptors) = ratios[point.coords[2]];
                let ms = contention_scenario(99, policy, burst, cpu_count, descriptors);
                let run = run_layer1(&ms, &db, &[]);
                format!(
                    "cycles={} energy={:?} grants={} stats={:?} ledger={:?}",
                    run.cycles,
                    run.energy_pj,
                    run.grants.len(),
                    run.stats,
                    run.ledger.master_totals(),
                )
            },
        )
        .unwrap()
        .completed()
        .map(|(p, c)| format!("## {:?}\n{c}\n", p.coords))
        .collect::<String>()
    };

    let sequential = run_at(1);
    assert_eq!(run_at(2), sequential, "2 workers diverge from sequential");
    assert_eq!(run_at(4), sequential, "4 workers diverge from sequential");
}
