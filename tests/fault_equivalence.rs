//! Differential fault-injection tests: the same [`FaultPlan`] replayed
//! at every abstraction level must produce the same per-transaction
//! outcomes and the same committed memory, a card tear must never leave
//! the layers disagreeing about what was written, and the fault-axis
//! campaign must be byte-identical for any worker count.
//!
//! [`FaultPlan`]: hierbus::ec::FaultPlan

use hierbus::ec::sequences::{self, MasterOp, MixParams, Scenario};
use hierbus::ec::{
    ArbitrationPolicy, BusError, DmaParams, DmaProgram, FaultKind, FaultPlan, MultiScenario,
    OpFault, RetryPolicy, TxnOutcome, WaitProfile,
};
use hierbus::harness::shared_db;
use hierbus::power::{Capture, CharacterizationDb, Layer, MasterFaults, Outcome, RunSpec, Session};
use hierbus::sim::SplitMix64;

/// `scenario` at `layer` under one fault plan, full capture.
fn faulted(
    layer: Layer,
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Outcome {
    let faults = vec![MasterFaults::new(0, plan.clone(), policy)];
    let spec = RunSpec::new(layer, Capture::Full).with_faults(faults);
    Session::new(db).run(&spec, &scenario.clone().into())
}

/// The gate-level reference on the ideal netlist, so the energy number
/// is the deterministic settled-transition cost.
fn run_reference(scenario: &Scenario, plan: &FaultPlan, policy: RetryPolicy) -> Outcome {
    let db = CharacterizationDb::uniform();
    faulted(Layer::Rtl { glitches: false }, scenario, &db, plan, policy)
}

fn run_layer1(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Outcome {
    faulted(Layer::L1, scenario, db, plan, policy)
}

fn run_layer2(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Outcome {
    faulted(Layer::L2 { correlation: false }, scenario, db, plan, policy)
}

/// Three single-beat writes — single-beat so the block-atomic layer-2
/// transfer commits at the same cycle as the beat-level models and the
/// tear sweep can demand *exact* memory agreement at every offset.
fn three_writes() -> Scenario {
    Scenario {
        name: "fault-three-writes",
        ops: vec![
            MasterOp::write(0x100, 0x1111_1111),
            MasterOp::write(0x104, 0x2222_2222).after_idle(1),
            MasterOp::write(0x108, 0x3333_3333).after_idle(2),
        ]
        .into(),
        waits: WaitProfile::new(1, 2, 2),
    }
}

/// Layer 3, the untimed message bus, under the same plan.
fn run_layer3(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Outcome {
    faulted(Layer::L3, scenario, db, plan, policy)
}

fn all_layers(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> (Outcome, Outcome, Outcome) {
    (
        run_reference(scenario, plan, policy),
        run_layer1(scenario, db, plan, policy),
        run_layer2(scenario, db, plan, policy),
    )
}

/// Asserts the layer-invariant fault contract for one plan: identical
/// final outcomes, identical fault counters, identical committed
/// memory, layer 1 cycle-exact against the reference.
fn assert_agreement(tag: &str, rtl: &Outcome, l1: &Outcome, l2: &Outcome) {
    assert_l1_matches_reference(tag, rtl, l1);
    assert_eq!(l1.outcomes, l2.outcomes, "{tag}: l1 vs l2 outcomes");
    assert_eq!(l1.counters, l2.counters, "{tag}: l1 vs l2 counters");
    assert_eq!(l1.memory, l2.memory, "{tag}: l1 vs l2 memory");
    assert!(
        l2.cycles >= l1.cycles,
        "{tag}: layer 2 optimistic ({} < {})",
        l2.cycles,
        l1.cycles
    );
}

/// The untimed half of the contract: layer 3 takes no time, so only
/// what does not depend on timing — final outcomes, fault counters and
/// committed memory — must match layer 1.
fn assert_l3_matches_layer1(tag: &str, l1: &Outcome, l3: &Outcome) {
    assert_eq!(l1.outcomes, l3.outcomes, "{tag}: l1 vs l3 outcomes");
    assert_eq!(l1.counters, l3.counters, "{tag}: l1 vs l3 counters");
    assert_eq!(l1.memory, l3.memory, "{tag}: l1 vs l3 memory");
}

/// The layer-1 half of the contract, which holds for any plan and
/// policy: layer 1 is cycle-exact, so even timing-dependent decisions
/// (a timeout) come out as at the reference.
fn assert_l1_matches_reference(tag: &str, rtl: &Outcome, l1: &Outcome) {
    assert_eq!(rtl.outcomes, l1.outcomes, "{tag}: rtl vs l1 outcomes");
    assert_eq!(rtl.counters, l1.counters, "{tag}: rtl vs l1 counters");
    assert_eq!(rtl.memory, l1.memory, "{tag}: rtl vs l1 memory");
    assert_eq!(rtl.cycles, l1.cycles, "{tag}: layer 1 not cycle-exact");
    assert_eq!(rtl.records, l1.records, "{tag}: rtl vs l1 records");
}

#[test]
fn tear_at_every_cycle_commits_identical_memory() {
    let db = shared_db();
    let scenario = three_writes();
    let full = run_reference(&scenario, &FaultPlan::new(), RetryPolicy::NONE);
    assert!(full.torn_at.is_none());
    // Sweep the tear over every cycle offset, past the natural end.
    for t in 0..=full.cycles + 2 {
        let plan = FaultPlan::new().with_tear(t);
        let (rtl, l1, l2) = all_layers(&scenario, &db, &plan, RetryPolicy::NONE);
        assert_agreement(&format!("tear@{t}"), &rtl, &l1, &l2);
        if t < full.cycles {
            assert!(rtl.torn_at.is_some(), "tear@{t}: reference not torn");
            assert!(
                l1.torn_at.is_some() && l2.torn_at.is_some(),
                "tear@{t}: tlm not torn"
            );
        }
    }
    // Tear past completion changes nothing.
    let plan = FaultPlan::new().with_tear(full.cycles + 100);
    let late = run_reference(&scenario, &plan, RetryPolicy::NONE);
    assert!(late.torn_at.is_none());
    assert_eq!(late.memory, full.memory);
    assert_eq!(late.outcomes, full.outcomes);
}

#[test]
fn reference_energy_is_monotone_in_tear_time() {
    let scenario = three_writes();
    let full = run_reference(&scenario, &FaultPlan::new(), RetryPolicy::NONE);
    let mut last = 0.0f64;
    for t in 0..=full.cycles + 1 {
        let plan = FaultPlan::new().with_tear(t);
        let run = run_reference(&scenario, &plan, RetryPolicy::NONE);
        assert!(
            run.energy_pj >= last,
            "tear@{t}: energy decreased ({} < {last})",
            run.energy_pj
        );
        last = run.energy_pj;
    }
    // The untorn run is the ceiling of the sweep.
    assert!(full.energy_pj >= last);
}

#[test]
fn transient_error_retries_to_success_at_every_layer() {
    let db = shared_db();
    let scenario = three_writes();
    let plan = FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError));
    let (rtl, l1, l2) = all_layers(&scenario, &db, &plan, RetryPolicy::retries(3));
    assert_agreement("retry", &rtl, &l1, &l2);
    let l3 = run_layer3(&scenario, &db, &plan, RetryPolicy::retries(3));
    assert_l3_matches_layer1("retry", &l1, &l3);
    assert!(rtl.outcomes.iter().all(|o| o.is_ok()), "{:?}", rtl.outcomes);
    assert_eq!(rtl.counters.injected, 1);
    assert_eq!(rtl.counters.retried, 1);
    assert_eq!(rtl.counters.aborted, 0);
    // One extra attempt record for the reissue.
    assert_eq!(rtl.records.len(), scenario.ops.len() + 1);
    // The retried write still committed.
    assert!(rtl.memory.contains(&(0x104 / 4, 0x2222_2222)));
    // The faulted run costs cycles and energy over the clean one.
    let clean = run_reference(&scenario, &FaultPlan::new(), RetryPolicy::NONE);
    assert!(rtl.cycles > clean.cycles);
    assert!(rtl.energy_pj > clean.energy_pj);
}

#[test]
fn exhausted_retries_surface_the_error_at_every_layer() {
    let db = shared_db();
    let scenario = three_writes();
    let plan = FaultPlan::new().with_fault(1, OpFault::always(FaultKind::SlaveError));
    let (rtl, l1, l2) = all_layers(&scenario, &db, &plan, RetryPolicy::retries(2));
    assert_agreement("exhausted", &rtl, &l1, &l2);
    let l3 = run_layer3(&scenario, &db, &plan, RetryPolicy::retries(2));
    assert_l3_matches_layer1("exhausted", &l1, &l3);
    assert!(matches!(
        rtl.outcomes[1],
        TxnOutcome::Error(BusError::SlaveError(_))
    ));
    assert!(rtl.outcomes[0].is_ok() && rtl.outcomes[2].is_ok());
    assert_eq!(rtl.counters.injected, 3, "initial attempt + 2 retries");
    assert_eq!(rtl.counters.retried, 2);
    // The erroring write never committed; its neighbours did.
    assert!(!rtl.memory.iter().any(|&(w, _)| w == 0x104 / 4));
    assert!(rtl.memory.contains(&(0x100 / 4, 0x1111_1111)));
    assert!(rtl.memory.contains(&(0x108 / 4, 0x3333_3333)));
}

#[test]
fn timeout_aborts_but_the_bus_drains_to_idle() {
    let db = shared_db();
    // A 40-cycle stall on op 0 against a 10-cycle timeout: the master
    // abandons the attempt, the bus drains it naturally, and later ops
    // (idle-gapped past the drain — an op *queued* behind the stall
    // would time out too, since its clock starts at issue) complete
    // normally: the FSM is back in a defined idle state.
    let scenario = Scenario {
        name: "fault-timeout",
        ops: vec![
            MasterOp::write(0x100, 0x1111_1111),
            MasterOp::write(0x104, 0x2222_2222).after_idle(60),
            MasterOp::write(0x108, 0x3333_3333).after_idle(2),
        ]
        .into(),
        waits: WaitProfile::new(1, 2, 2),
    };
    let plan = FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(40)));
    let policy = RetryPolicy {
        timeout: Some(10),
        ..RetryPolicy::NONE
    };
    let (rtl, l1, l2) = all_layers(&scenario, &db, &plan, policy);
    assert_agreement("timeout", &rtl, &l1, &l2);
    assert_eq!(rtl.outcomes[0], TxnOutcome::Aborted);
    assert!(rtl.outcomes[1].is_ok() && rtl.outcomes[2].is_ok());
    assert_eq!(rtl.counters.aborted, 1);
    // The abandoned write's data still landed when the stalled beat
    // finally completed (the master ignores it, the slave saw it) —
    // what matters is that all layers agree on that memory state,
    // which assert_agreement checked above.
    assert!(rtl.torn_at.is_none());

    // Seeded mixes under the same policy shape: stalls that may outlive
    // a 9-cycle timeout, once and always slave errors, two retries.
    // Layer 1 agrees with the reference record for record, abandoned
    // attempts included. Layer 2 is left out: its data phases are not
    // cycle-exact, so a timeout may expire on a different attempt.
    let policy = RetryPolicy {
        timeout: Some(9),
        ..RetryPolicy::retries(2)
    };
    let (mut aborted, mut retried) = (0, 0);
    for seed in 0..8u64 {
        let params = MixParams {
            count: 60,
            burst_pct: 30,
            ..MixParams::default()
        };
        let scenario = sequences::random_mix(0x71E0 + seed, params);
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for op in 0..scenario.ops.len() {
            let fault = match rng.next_u64() % 12 {
                0 => OpFault::always(FaultKind::Stall(1 + (rng.next_u64() % 12) as u32)),
                1 => OpFault::once(FaultKind::SlaveError),
                2 => OpFault::always(FaultKind::SlaveError),
                _ => continue,
            };
            plan = plan.with_fault(op, fault);
        }
        let rtl = run_reference(&scenario, &plan, policy);
        let l1 = run_layer1(&scenario, &db, &plan, policy);
        assert_l1_matches_reference(&format!("timeout-mix{seed}"), &rtl, &l1);
        aborted += rtl.counters.aborted;
        retried += rtl.counters.retried;
    }
    assert!(
        aborted > 0 && retried > 0,
        "no seeded mix timed out and retried"
    );
}

#[test]
fn stall_fault_stretches_all_layers_identically() {
    let db = shared_db();
    let scenario = three_writes();
    let clean = run_reference(&scenario, &FaultPlan::new(), RetryPolicy::NONE);
    let plan = FaultPlan::new().with_fault(2, OpFault::always(FaultKind::Stall(5)));
    let (rtl, l1, l2) = all_layers(&scenario, &db, &plan, RetryPolicy::NONE);
    assert_agreement("stall", &rtl, &l1, &l2);
    let l3 = run_layer3(&scenario, &db, &plan, RetryPolicy::NONE);
    assert_l3_matches_layer1("stall", &l1, &l3);
    assert!(rtl.outcomes.iter().all(|o| o.is_ok()));
    assert_eq!(rtl.cycles, clean.cycles + 5, "stall adds exactly 5 cycles");
    assert_eq!(rtl.counters.injected, 1);
}

/// Two tears on the CPU+DMA pair at layer 2, one per master: the system
/// tears at the earlier one, and the phases it cut short are flushed at
/// that cycle whichever order the spec lists the plans in.
#[test]
fn layer2_tear_flush_is_independent_of_spec_order() {
    let db = shared_db();
    let cpu = sequences::random_mix(
        0x7EA2,
        MixParams {
            count: 100,
            burst_pct: 40,
            ..MixParams::default()
        },
    );
    let dma = DmaProgram::seeded(0x7EA2 ^ 0xD31A, DmaParams::default());
    let ms = MultiScenario::new("tear-order", cpu, &dma, ArbitrationPolicy::RoundRobin).into();
    let tear =
        |master, at| MasterFaults::new(master, FaultPlan::new().with_tear(at), RetryPolicy::NONE);
    let run = |faults| {
        let spec =
            RunSpec::new(Layer::L2 { correlation: false }, Capture::Full).with_faults(faults);
        Session::new(&db).run(&spec, &ms)
    };
    let booked = |o: &Outcome| -> Vec<(u64, u64)> {
        o.bookings.iter().map(|&(c, e)| (c, e.to_bits())).collect()
    };
    for t in (0..26).map(|i| 10 + 7 * i) {
        let early_first = run(vec![tear(0, t), tear(1, t + 150)]);
        let late_first = run(vec![tear(1, t + 150), tear(0, t)]);
        let tag = format!("tear@{t}");
        assert_eq!(early_first.torn_at, Some(t), "{tag}: not torn");
        assert_eq!(
            late_first.torn_at,
            Some(t),
            "{tag}: not torn at the earlier tear"
        );
        assert!(
            early_first.bookings.iter().all(|&(c, _)| c <= t),
            "{tag}: a phase booked after the tear"
        );
        let (a, b) = (&early_first, &late_first);
        assert_eq!(
            a.energy_pj.to_bits(),
            b.energy_pj.to_bits(),
            "{tag}: energy"
        );
        assert_eq!(booked(a), booked(b), "{tag}: bookings");
        assert_eq!(a.ledger, b.ledger, "{tag}: ledger");
        assert_eq!(a.cycles, b.cycles, "{tag}: cycles");
        assert_eq!(a.records, b.records, "{tag}: records");
        assert_eq!(a.outcomes, b.outcomes, "{tag}: outcomes");
        assert_eq!(a.counters, b.counters, "{tag}: counters");
        assert_eq!(a.masters, b.masters, "{tag}: masters");
        assert_eq!(a.grants, b.grants, "{tag}: grants");
        assert_eq!(a.memory, b.memory, "{tag}: memory");
        assert_eq!(a.obs.spans(), b.obs.spans(), "{tag}: spans");
    }
}

#[test]
fn fault_campaign_byte_identical_across_worker_counts() {
    use hierbus_campaign::{CampaignOptions, Matrix};

    let db = shared_db();
    let scenario = three_writes();
    let presets: [(&str, FaultPlan, RetryPolicy); 5] = [
        ("none", FaultPlan::new(), RetryPolicy::NONE),
        (
            "error-once",
            FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError)),
            RetryPolicy::retries(3),
        ),
        (
            "error-always",
            FaultPlan::new().with_fault(1, OpFault::always(FaultKind::SlaveError)),
            RetryPolicy::retries(2),
        ),
        (
            "stall",
            FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(6))),
            RetryPolicy::NONE,
        ),
        ("tear", FaultPlan::new().with_tear(9), RetryPolicy::NONE),
    ];
    let matrix = Matrix::new()
        .axis(
            "layer",
            ["rtl", "tlm1", "tlm2"].iter().map(|s| s.to_string()),
        )
        .axis("fault", presets.iter().map(|(n, _, _)| n.to_string()));

    let run_at = |workers: usize| {
        hierbus_campaign::run(
            &matrix,
            &CampaignOptions::with_workers("fault-axis", workers),
            |point| {
                let (_, plan, policy) = &presets[point.coords[1]];
                let run = match point.coords[0] {
                    0 => run_reference(&scenario, plan, *policy),
                    1 => run_layer1(&scenario, &db, plan, *policy),
                    _ => run_layer2(&scenario, &db, plan, *policy),
                };
                format!(
                    "outcomes={:?} counters={:?} cycles={} energy={:?} mem={:?}",
                    run.outcomes, run.counters, run.cycles, run.energy_pj, run.memory
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
    assert!(sequential.contains("outcomes=[Ok, Ok, Ok]"));
}
