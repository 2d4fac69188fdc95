//! Randomized tests of the cross-model invariants: for *arbitrary*
//! traffic and wait-state configurations, layer 1 is cycle-exact against
//! the RTL reference, layer 2 is never optimistic, data results agree
//! everywhere, and the energy models respect their orderings.
//!
//! Formerly `proptest` properties; now deterministic seeded loops over
//! the same generator so the suite runs with no registry access and
//! every failure reproduces from its printed seed.

use hierbus::core::{MemSlave, Tlm1Bus, Tlm2Bus, TlmSystem};
use hierbus::ec::record::first_divergence;
use hierbus::ec::sequences::{MasterOp, Scenario};
use hierbus::ec::{
    AccessKind, AccessRights, Address, AddressRange, BurstLen, DataWidth, SlaveConfig, WaitProfile,
};
use hierbus::rtl::{GlitchConfig, PowerConfig, RtlSystem, SimpleMem};
use hierbus::sim::SplitMix64;

const CASES: u64 = 48;

fn slave_config(waits: WaitProfile) -> SlaveConfig {
    SlaveConfig::new(
        AddressRange::new(Address::new(0), 0x1_0000),
        waits,
        AccessRights::RWX,
    )
}

/// A legal random master op inside the slave window (the old proptest
/// strategy, driven by an explicit generator).
fn arb_op(rng: &mut SplitMix64) -> MasterOp {
    let idle = rng.range_u32(0, 3);
    let kind_sel = rng.range_u32(0, 4);
    let word = rng.range_u64(0, 0x3f00);
    let burst = match rng.range_u32(0, 4) {
        0 => BurstLen::Single,
        1 => BurstLen::B2,
        2 => BurstLen::B4,
        _ => BurstLen::B8,
    };
    let raw_data: Vec<u32> = (0..8).map(|_| rng.next_u32()).collect();
    let width_sel = rng.range_u32(0, 3);
    let offset = rng.range_u64(0, 4);
    let kind = match kind_sel {
        0 => AccessKind::InstrFetch,
        1 | 2 => AccessKind::DataRead,
        _ => AccessKind::DataWrite,
    };
    let (width, addr) = if burst.is_burst() {
        (DataWidth::W32, word * 4)
    } else {
        match width_sel {
            0 => (DataWidth::W8, word * 4 + offset),
            1 => (DataWidth::W16, word * 4 + (offset & 2)),
            _ => (DataWidth::W32, word * 4),
        }
    };
    let data: Vec<u32> = if kind == AccessKind::DataWrite {
        raw_data
            .into_iter()
            .take(burst.beats() as usize)
            .map(|w| w & width.value_mask())
            .collect()
    } else {
        Vec::new()
    };
    MasterOp {
        idle_before: idle,
        kind,
        addr: Address::new(addr),
        width,
        burst,
        data: data.into(),
    }
}

fn arb_ops(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<MasterOp> {
    let n = rng.range_u64(lo as u64, hi as u64) as usize;
    (0..n).map(|_| arb_op(rng)).collect()
}

fn arb_waits(rng: &mut SplitMix64) -> WaitProfile {
    WaitProfile::new(
        rng.range_u32(0, 3),
        rng.range_u32(0, 4),
        rng.range_u32(0, 4),
    )
}

fn run_rtl(scenario: &Scenario) -> hierbus::rtl::RunReport {
    let mem = SimpleMem::new(slave_config(scenario.waits));
    let mut sys = RtlSystem::new(
        scenario.ops.clone(),
        vec![Box::new(mem)],
        PowerConfig::default(),
        GlitchConfig::off(),
    );
    sys.run(1_000_000)
}

fn run_l1(scenario: &Scenario) -> hierbus::core::TlmReport {
    let mem = MemSlave::new(slave_config(scenario.waits));
    let mut sys = TlmSystem::new(Tlm1Bus::new(vec![Box::new(mem)]), scenario.ops.clone());
    sys.run(1_000_000, |_| {})
}

fn run_l2(scenario: &Scenario) -> hierbus::core::TlmReport {
    let mem = MemSlave::new(slave_config(scenario.waits));
    let mut sys = TlmSystem::new(Tlm2Bus::new(vec![Box::new(mem)]), scenario.ops.clone());
    sys.run(1_000_000, |_| {})
}

#[test]
fn layer1_cycle_exact_under_arbitrary_traffic() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1A7E_0000 + case);
        let scenario = Scenario {
            name: "prop",
            ops: arb_ops(&mut rng, 1, 40).into(),
            waits: arb_waits(&mut rng),
        };
        let rtl = run_rtl(&scenario);
        let l1 = run_l1(&scenario);
        assert_eq!(rtl.cycles, l1.cycles, "case {case}");
        if let Some((i, r, c)) = first_divergence(&rtl.records, &l1.records) {
            panic!("case {case}: record {i} diverges\n  rtl: {r:?}\n  tlm1: {c:?}");
        }
    }
}

#[test]
fn layer2_pessimistic_but_bounded() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x2B0B_0000 + case);
        let scenario = Scenario {
            name: "prop",
            ops: arb_ops(&mut rng, 1, 40).into(),
            waits: arb_waits(&mut rng),
        };
        let l1 = run_l1(&scenario);
        let l2 = run_l2(&scenario);
        assert!(
            l2.cycles >= l1.cycles,
            "case {case}: layer 2 optimistic: {} < {}",
            l2.cycles,
            l1.cycles
        );
        // Bound: at most one extra cycle per transaction (the burst
        // handoff approximation).
        let bound = l1.cycles + scenario.ops.len() as u64;
        assert!(
            l2.cycles <= bound,
            "case {case}: layer 2 too slow: {} > {}",
            l2.cycles,
            bound
        );
        // Errors always agree; beat data agreement holds only for
        // race-free traffic (concurrent overlapping read/write bursts
        // are a data race whose interleaving the block-atomic layer-2
        // transfer legitimately resolves differently — see the tlm2
        // module docs), so it is checked by the dedicated race-free
        // test below.
        assert_eq!(l1.records.len(), l2.records.len(), "case {case}");
        for (a, b) in l1.records.iter().zip(&l2.records) {
            assert_eq!(a.error, b.error, "case {case}");
        }
    }
}

#[test]
fn serialized_traffic_data_agrees_across_all_models() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x3E1A_0000 + case);
        // Force every transaction to complete before the next issues:
        // race-free by construction, so beat data must agree everywhere.
        let ops: Vec<MasterOp> = arb_ops(&mut rng, 1, 20)
            .into_iter()
            .map(|op| op.after_idle(48))
            .collect();
        let scenario = Scenario {
            name: "serial",
            ops: ops.into(),
            waits: arb_waits(&mut rng),
        };
        let rtl = run_rtl(&scenario);
        let l1 = run_l1(&scenario);
        let l2 = run_l2(&scenario);
        for (a, b) in rtl.records.iter().zip(&l1.records) {
            assert_eq!(&a.data, &b.data, "case {case}");
        }
        for (a, b) in l1.records.iter().zip(&l2.records) {
            assert_eq!(&a.data, &b.data, "case {case}");
            assert_eq!(a.error, b.error, "case {case}");
        }
    }
}

#[test]
fn write_then_read_returns_written_data() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x4F0D_0000 + case);
        let addr = rng.range_u64(0, 0x100) * 4;
        let value = rng.next_u32();
        // The idle gap must outlast the write's worst-case latency, or
        // the read legitimately overtakes it on the independent read
        // channel and returns the old value.
        let scenario = Scenario {
            name: "wrr",
            ops: vec![
                MasterOp::write(addr, value),
                MasterOp::read(addr).after_idle(16),
            ]
            .into(),
            waits: arb_waits(&mut rng),
        };
        for records in [
            run_rtl(&scenario).records,
            run_l1(&scenario).records,
            run_l2(&scenario).records,
        ] {
            assert_eq!(records[1].data[0], value, "case {case}");
        }
    }
}

#[test]
fn energy_accumulates_monotonically() {
    use hierbus::power::{CharacterizationDb, Layer1EnergyModel};
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5E4E_0000 + case);
        let scenario = Scenario {
            name: "prop",
            ops: arb_ops(&mut rng, 1, 30).into(),
            waits: WaitProfile::ZERO,
        };
        let mem = MemSlave::new(slave_config(scenario.waits));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops);
        let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
        let mut last_total = 0.0f64;
        sys.run(1_000_000, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
            assert!(model.total_energy() >= last_total, "energy decreased");
            assert!(model.energy_last_cycle() >= 0.0);
            last_total = model.total_energy();
        });
        assert!(last_total >= 0.0, "case {case}");
    }
}

#[test]
fn reset_reused_model_replays_bit_exact() {
    // A reset() model replaying the same stimulus must agree with a
    // fresh model to the last bit of every energy query — the contract
    // that lets campaign workers keep one model across scenarios.
    use hierbus::power::{CharacterizationDb, Layer1EnergyModel};
    let mut reused = Layer1EnergyModel::new(CharacterizationDb::uniform());
    reused.enable_trace();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xAE5E_0000 + case);
        let scenario = Scenario {
            name: "reset-prop",
            ops: arb_ops(&mut rng, 1, 30).into(),
            waits: arb_waits(&mut rng),
        };
        reused.reset();
        let mut fresh = Layer1EnergyModel::new(CharacterizationDb::uniform());
        fresh.enable_trace();
        let run_one = |model: &mut Layer1EnergyModel| {
            let mem = MemSlave::new(slave_config(scenario.waits));
            let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
            bus.enable_frames();
            let mut sys = TlmSystem::new(bus, scenario.ops.clone());
            sys.run(1_000_000, |bus: &mut Tlm1Bus| {
                model.on_frame(bus.last_frame());
            });
        };
        run_one(&mut reused);
        run_one(&mut fresh);
        assert_eq!(
            fresh.total_energy().to_bits(),
            reused.total_energy().to_bits(),
            "case {case}: total_energy"
        );
        assert_eq!(
            fresh.energy_last_cycle().to_bits(),
            reused.energy_last_cycle().to_bits(),
            "case {case}: energy_last_cycle"
        );
        assert_eq!(
            fresh.energy_since_last_call().to_bits(),
            reused.energy_since_last_call().to_bits(),
            "case {case}: energy_since_last_call"
        );
        assert_eq!(fresh.toggles(), reused.toggles(), "case {case}: toggles");
        assert_eq!(fresh.trace(), reused.trace(), "case {case}: traces");
    }
}

#[test]
fn reset_reused_session_replays_scenarios_bit_exact() {
    // The same contract one level up: harness::Layer1Session reuse
    // versus a fresh run_layer1 per scenario.
    let db = hierbus::harness::shared_db();
    let mut session = hierbus::harness::Layer1Session::new(&db);
    for case in 0..8 {
        let mut rng = SplitMix64::new(0xBE55_0000 + case);
        let scenario = Scenario {
            name: "session-prop",
            ops: arb_ops(&mut rng, 1, 30).into(),
            waits: arb_waits(&mut rng),
        };
        let reused = session.run(&scenario);
        let fresh = hierbus::harness::run_layer1(&scenario, &db);
        assert_eq!(
            fresh.energy_pj.to_bits(),
            reused.energy_pj.to_bits(),
            "case {case}: energy"
        );
        assert_eq!(fresh.cycles, reused.cycles, "case {case}: cycles");
        assert_eq!(fresh.records, reused.records, "case {case}: records");
        assert_eq!(fresh.trace, reused.trace, "case {case}: trace");
    }
}

#[test]
fn lean_session_matches_full_runner_bit_exact() {
    // The throughput-mode session drops records and the per-cycle trace
    // — pure observers — so its scalar outcome must still equal the
    // full-fidelity runner's bit for bit, across reset-reuse.
    let db = hierbus::harness::shared_db();
    let mut session = hierbus::harness::Layer1LeanSession::new(&db);
    for case in 0..8 {
        let mut rng = SplitMix64::new(0x1EA4_0000 + case);
        let scenario = Scenario {
            name: "lean-prop",
            ops: arb_ops(&mut rng, 1, 30).into(),
            waits: arb_waits(&mut rng),
        };
        let lean = session.run(&scenario);
        let full = hierbus::harness::run_layer1(&scenario, &db);
        assert_eq!(
            full.energy_pj.to_bits(),
            lean.energy_pj.to_bits(),
            "case {case}: energy"
        );
        assert_eq!(full.cycles, lean.cycles, "case {case}: cycles");
    }
}

/// Ops forced to single beats: the block-atomic layer-2 transfer then
/// commits at the same cycle as the beat-level models, so a card tear
/// may demand exact memory agreement (see `tests/fault_equivalence.rs`
/// for the exhaustive fixed-scenario sweep).
fn arb_single_ops(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<MasterOp> {
    arb_ops(rng, lo, hi)
        .into_iter()
        .map(|mut op| {
            if op.burst.is_burst() {
                op.burst = BurstLen::Single;
                op.data = op.data.iter().copied().take(1).collect();
            }
            op
        })
        .collect()
}

#[test]
fn fault_outcomes_agree_across_all_layers_under_random_plans() {
    use hierbus::ec::{FaultParams, FaultPlan, RetryPolicy};
    use hierbus::harness::fault::{run_layer1, run_layer2, run_reference};
    let db = hierbus::harness::shared_db();
    for case in 0..CASES {
        let seed = 0x7FA0_0000 + case;
        let mut rng = SplitMix64::new(seed);
        let scenario = Scenario {
            name: "fault-prop",
            ops: arb_ops(&mut rng, 1, 30).into(),
            waits: arb_waits(&mut rng),
        };
        let plan = FaultPlan::random(seed, scenario.ops.len(), FaultParams::default());
        let policy = RetryPolicy::retries(2);
        let rtl = run_reference(&scenario, &plan, policy);
        let l1 = run_layer1(&scenario, &db, &plan, policy);
        let l2 = run_layer2(&scenario, &db, &plan, policy);
        // Same final verdict for every stimulus op, at every layer.
        assert_eq!(rtl.outcomes, l1.outcomes, "seed {seed:#x}: rtl vs l1");
        assert_eq!(l1.outcomes, l2.outcomes, "seed {seed:#x}: l1 vs l2");
        assert_eq!(rtl.counters, l1.counters, "seed {seed:#x}: counters");
        assert_eq!(l1.counters, l2.counters, "seed {seed:#x}: counters");
        // Layer 1 stays cycle-exact under injection, retries included.
        assert_eq!(rtl.cycles, l1.cycles, "seed {seed:#x}: l1 not cycle-exact");
        if let Some((i, r, c)) = first_divergence(&rtl.records, &l1.records) {
            panic!("seed {seed:#x}: record {i} diverges\n  rtl: {r:?}\n  tlm1: {c:?}");
        }
        // Layer 2 is never optimistic. (No upper bound here: an
        // error-truncated burst legitimately saves layer 1 more beats
        // than the layer-2 handoff approximation accounts for.)
        assert!(
            l2.cycles >= l1.cycles,
            "seed {seed:#x}: layer 2 optimistic: {} < {}",
            l2.cycles,
            l1.cycles
        );
        // And every layer committed the same memory.
        assert_eq!(rtl.memory, l1.memory, "seed {seed:#x}: memory");
        assert_eq!(l1.memory, l2.memory, "seed {seed:#x}: memory");
    }
}

#[test]
fn random_tears_commit_identical_memory_on_single_beat_traffic() {
    use hierbus::ec::{FaultPlan, RetryPolicy};
    use hierbus::harness::fault::{run_layer1, run_layer2, run_reference};
    let db = hierbus::harness::shared_db();
    for case in 0..CASES {
        let seed = 0x8EA2_0000 + case;
        let mut rng = SplitMix64::new(seed);
        let scenario = Scenario {
            name: "tear-prop",
            ops: arb_single_ops(&mut rng, 1, 12).into(),
            waits: arb_waits(&mut rng),
        };
        let tear = rng.range_u64(0, 80);
        let plan = FaultPlan::new().with_tear(tear);
        let rtl = run_reference(&scenario, &plan, RetryPolicy::NONE);
        let l1 = run_layer1(&scenario, &db, &plan, RetryPolicy::NONE);
        let l2 = run_layer2(&scenario, &db, &plan, RetryPolicy::NONE);
        assert_eq!(rtl.outcomes, l1.outcomes, "seed {seed:#x} tear@{tear}");
        assert_eq!(l1.outcomes, l2.outcomes, "seed {seed:#x} tear@{tear}");
        assert_eq!(rtl.memory, l1.memory, "seed {seed:#x} tear@{tear}");
        assert_eq!(l1.memory, l2.memory, "seed {seed:#x} tear@{tear}");
    }
}

#[test]
fn faulted_runs_reproduce_from_their_seed() {
    use hierbus::ec::{FaultParams, FaultPlan, RetryPolicy};
    use hierbus::harness::fault::run_layer1;
    let db = hierbus::harness::shared_db();
    let seed = 0x9D0C_0005u64;
    let mk = || {
        let mut rng = SplitMix64::new(seed);
        Scenario {
            name: "repro",
            ops: arb_ops(&mut rng, 5, 25).into(),
            waits: arb_waits(&mut rng),
        }
    };
    let (a, b) = (mk(), mk());
    let plan_a = FaultPlan::random(seed, a.ops.len(), FaultParams::default());
    let plan_b = FaultPlan::random(seed, b.ops.len(), FaultParams::default());
    assert_eq!(plan_a, plan_b, "plan generation must be seed-deterministic");
    let ra = run_layer1(&a, &db, &plan_a, RetryPolicy::retries(2));
    let rb = run_layer1(&b, &db, &plan_b, RetryPolicy::retries(2));
    assert_eq!(ra.outcomes, rb.outcomes);
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.memory, rb.memory);
    assert_eq!(ra.energy_pj.to_bits(), rb.energy_pj.to_bits());
}

#[test]
fn glitchless_reference_transitions_equal_layer1_toggles() {
    use hierbus::power::{CharacterizationDb, Layer1EnergyModel};
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x6700_0000 + case);
        let scenario = Scenario {
            name: "prop",
            ops: arb_ops(&mut rng, 1, 25).into(),
            waits: arb_waits(&mut rng),
        };
        let rtl = run_rtl(&scenario); // glitches off
        let mem = MemSlave::new(slave_config(scenario.waits));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops);
        let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
        sys.run(1_000_000, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame())
        });
        // With hazards disabled, the reference's wire transitions are the
        // layer-1 frame-diff toggles exactly — the TLM-to-RTL adapter
        // sees the same signal activity.
        assert_eq!(
            rtl.transitions,
            model.toggles().total() as u64,
            "case {case}"
        );
    }
}

#[test]
fn scalar_engine_matches_bitloop_under_random_traffic() {
    // For random stimulus and random wait profiles, the scalar
    // per-frame engine and the bit-loop reference engine agree on
    // energy, per-class transition counts and the per-cycle trace — to
    // the last bit. The seed is in every assert message.
    use hierbus::power::{CharacterizationDb, Layer1EnergyModel};
    for case in 0..CASES {
        let seed = 0x9ACD_0000 + case;
        let mut rng = SplitMix64::new(seed);
        let scenario = Scenario {
            name: "scalar-prop",
            ops: arb_ops(&mut rng, 1, 40).into(),
            waits: arb_waits(&mut rng),
        };
        let mut scalar = Layer1EnergyModel::new(CharacterizationDb::uniform());
        scalar.enable_trace();
        let mut bitloop = Layer1EnergyModel::new(CharacterizationDb::uniform());
        bitloop.enable_trace();
        let mem = MemSlave::new(slave_config(scenario.waits));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops);
        sys.run(1_000_000, |bus: &mut Tlm1Bus| {
            let frame = *bus.last_frame();
            scalar.on_frame(&frame);
            bitloop.on_frame_reference(&frame);
        });
        assert_eq!(
            scalar.total_energy().to_bits(),
            bitloop.total_energy().to_bits(),
            "seed {seed:#x}: scalar vs bit-loop"
        );
        assert_eq!(scalar.toggles(), bitloop.toggles(), "seed {seed:#x}");
        assert_eq!(scalar.trace(), bitloop.trace(), "seed {seed:#x}");
    }
}

#[test]
fn attribution_ledger_matches_bitloop_buckets() {
    // Attribution rides on the per-cycle trace, so the production path
    // must reproduce the bit-loop reference's EnergyLedger bucket by
    // bucket — spans, per-slave splits and residual included.
    use hierbus::power::Layer1EnergyModel;
    let db = hierbus::harness::shared_db();
    for case in 0..8u64 {
        let seed = 0x1ED6_0000 + case;
        let mut rng = SplitMix64::new(seed);
        let scenario = Scenario {
            name: "ledger-prop",
            ops: arb_ops(&mut rng, 4, 30).into(),
            waits: arb_waits(&mut rng),
        };
        // Production path with spans + trace + ledger.
        let packed = hierbus::harness::fault::run_layer1_attributed(
            &scenario,
            &db,
            &hierbus::ec::FaultPlan::new(),
            hierbus::ec::RetryPolicy::NONE,
        );
        // Bit-loop path through the same observed bus wiring.
        let mem = MemSlave::new(slave_config(scenario.waits));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_obs();
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        let mut model = Layer1EnergyModel::new((*db).clone());
        model.enable_trace();
        sys.run(1_000_000, |bus: &mut Tlm1Bus| {
            model.on_frame_reference(bus.last_frame());
        });
        let spans = sys.bus().obs().spans().to_vec();
        let ledger = model
            .ledger(&spans, &hierbus::harness::scenario_slave_map())
            .expect("trace enabled");
        assert_eq!(packed.ledger, ledger, "seed {seed:#x}: ledger buckets");
        assert_eq!(
            packed.run.energy_pj.to_bits(),
            model.total_energy().to_bits(),
            "seed {seed:#x}: total energy"
        );
        assert_eq!(
            packed.trace,
            model.trace().unwrap_or(&[]).to_vec(),
            "seed {seed:#x}: cycle trace"
        );
    }
}
