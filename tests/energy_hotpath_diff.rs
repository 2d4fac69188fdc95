//! Differential tests for the layer-1 per-cycle hot path: the
//! word-packed `SignalFrame::diff` (XOR + `count_ones` per class, cached
//! per-class weights) must agree *exactly* — per-class toggle counts and
//! `f64::to_bits` energies — with the bit-loop `diff_reference` path it
//! replaced, over seeded-random frame soups, the layer-1 doctest frames,
//! the frames a faulted / torn bus actually drives and the
//! arbiter-merged CPU+DMA stream — and, one level up, every layer-1
//! consumer (full, faulted and multi-master session runs, reused
//! sessions, the serve runner and campaign merges) must match fresh
//! bit-loop reference runs.

use hierbus::campaign::{CampaignOptions, Matrix};
use hierbus::core::HasSlaves;
use hierbus::ec::sequences::{random_mix, MasterOp, MixParams, Scenario};
use hierbus::ec::{
    AccessKind, ArbitrationPolicy, BurstLen, DataWidth, DmaParams, DmaProgram, FaultKind,
    FaultPlan, MultiScenario, OpFault, RetryPolicy, SignalFrame, SlaveId, WaitProfile,
};
use hierbus::harness;
use hierbus::power::run::{scenario_slave, MAX_CYCLES};
use hierbus::power::{
    Capture, CharacterizationDb, Layer, Layer1EnergyModel, MasterFaults, Outcome, RunSpec, Session,
};
use hierbus::sim::SplitMix64;
use hierbus_core::{MemSlave, Tlm1Bus, TlmSystem};

/// A fully randomized frame: every field, including bits outside the
/// architectural widths (the packed path must reproduce the reference's
/// behaviour on out-of-range `a_addr` bits, which the public field
/// permits).
fn random_frame(rng: &mut SplitMix64) -> SignalFrame {
    let bits = rng.next_u64();
    SignalFrame {
        a_valid: bits & 1 != 0,
        a_addr: rng.next_u64(),
        a_kind: rng.next_u32() as u8,
        a_width: rng.next_u32() as u8,
        a_burst: rng.next_u32() as u8,
        a_ready: bits & 2 != 0,
        a_error: bits & 4 != 0,
        r_valid: bits & 8 != 0,
        r_data: rng.next_u32(),
        r_id: rng.next_u32() as u8,
        r_ready: bits & 16 != 0,
        r_error: bits & 32 != 0,
        w_valid: bits & 64 != 0,
        w_data: rng.next_u32(),
        w_ben: rng.next_u32() as u8,
        w_id: rng.next_u32() as u8,
        w_ready: bits & 128 != 0,
        w_error: bits & 256 != 0,
    }
}

/// A seeded-random stream of settled bus frames mixing address, read,
/// write and idle cycles — the shapes a real bus drives, at a denser
/// toggle rate than any real schedule, so every class column is
/// stressed.
fn random_frames(seed: u64, n: usize) -> Vec<SignalFrame> {
    let mut rng = SplitMix64::new(seed);
    let mut frames = Vec::with_capacity(n);
    let mut f = SignalFrame::default();
    for _ in 0..n {
        f = f.to_idle();
        match rng.next_u64() % 5 {
            0 => f.drive_address(
                rng.next_u64(),
                AccessKind::DataRead,
                DataWidth::W32,
                BurstLen::B4,
                true,
                false,
            ),
            1 => {
                let addr = rng.next_u64();
                let ready = rng.next_u64().is_multiple_of(2);
                f.drive_address(
                    addr,
                    AccessKind::InstrFetch,
                    DataWidth::W16,
                    BurstLen::Single,
                    ready,
                    false,
                )
            }
            2 => {
                let data = rng.next_u32();
                f.drive_read(data, (rng.next_u64() % 8) as u8, true, false)
            }
            3 => {
                let data = rng.next_u32();
                f.drive_write(data, 0xF, (rng.next_u64() % 8) as u8, true, false)
            }
            _ => {}
        }
        frames.push(f);
    }
    frames
}

/// Replays `frames` through both hot paths and asserts bit-exact
/// agreement of every per-cycle diff and every energy query.
fn assert_paths_agree(frames: &[SignalFrame], context: &str) {
    let db = harness::shared_db();
    let mut fast = Layer1EnergyModel::new((*db).clone());
    let mut slow = Layer1EnergyModel::new((*db).clone());
    fast.enable_trace();
    slow.enable_trace();
    let mut prev = SignalFrame::default();
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            frame.diff(&prev),
            frame.diff_reference(&prev),
            "{context}: diff mismatch at frame {i}"
        );
        fast.on_frame(frame);
        slow.on_frame_reference(frame);
        assert_eq!(
            fast.energy_last_cycle().to_bits(),
            slow.energy_last_cycle().to_bits(),
            "{context}: per-cycle energy diverges at frame {i}"
        );
        prev = *frame;
    }
    assert_eq!(fast.toggles(), slow.toggles(), "{context}: toggle totals");
    assert_eq!(
        fast.total_energy().to_bits(),
        slow.total_energy().to_bits(),
        "{context}: total energy"
    );
    assert_eq!(
        fast.energy_since_last_call().to_bits(),
        slow.energy_since_last_call().to_bits(),
        "{context}: interval energy"
    );
    assert_eq!(fast.trace(), slow.trace(), "{context}: traces");
}

#[test]
fn packed_diff_matches_reference_on_seeded_random_frames() {
    for seed in [0xD1FF_0001u64, 0x5EED_BEEF, 0x0BAD_CAFE, 0x1234_5678] {
        println!("energy_hotpath_diff seed = {seed:#x}");
        let mut rng = SplitMix64::new(seed);
        let frames: Vec<SignalFrame> = (0..512).map(|_| random_frame(&mut rng)).collect();
        assert_paths_agree(&frames, &format!("seed {seed:#x}"));
    }
}

#[test]
fn packed_diff_matches_reference_on_doctest_frames() {
    // The frames the layer-1 doctest and unit tests drive.
    let doc = SignalFrame {
        a_addr: 0xFF,
        ..SignalFrame::default()
    };
    let mut driven = SignalFrame::default();
    driven.drive_address(
        0xF_FFFF_FFFF,
        hierbus::ec::AccessKind::DataWrite,
        hierbus::ec::DataWidth::W32,
        hierbus::ec::BurstLen::B4,
        true,
        false,
    );
    driven.drive_write(0xDEAD_BEEF, 0xF, 3, true, false);
    let frames = [
        doc,
        SignalFrame::default(),
        driven,
        driven.to_idle(),
        SignalFrame::default(),
    ];
    assert_paths_agree(&frames, "doctest frames");
}

/// The `PackedFrame` XOR+popcount counts must equal the wire-by-wire
/// [`SignalFrame::diff_reference`] walk on the same frame pair, for
/// every seed and every frame position.
#[test]
fn kernel_counts_equal_wire_by_wire_reference() {
    for seed in [0x1u64, 0xDEAD_BEEF, 0xA5A5_5A5A] {
        let mut prev = SignalFrame::default();
        for (i, f) in random_frames(seed, 257).iter().enumerate() {
            assert_eq!(
                f.packed().diff(&prev.packed()),
                f.diff_reference(&prev),
                "frame {i} seed {seed:#x}"
            );
            prev = *f;
        }
    }
}

/// Seeded-random bus-shaped traces at bulk lengths.
#[test]
fn random_traces_bit_exact() {
    for seed in [0x5EEDu64, 0xBE9C, 0xF00D_CAFE] {
        assert_paths_agree(&random_frames(seed, 1041), &format!("seed {seed:#x}"));
    }
}

/// Degenerate streams: the empty trace, a single frame and every short
/// length, plus a few odd bulk lengths.
#[test]
fn degenerate_lengths_bit_exact() {
    assert_paths_agree(&[], "empty");
    for n in (1..=9).chain([63, 64, 65, 127, 129]) {
        assert_paths_agree(&random_frames(0x7A11 ^ n as u64, n), &format!("len {n}"));
    }
}

#[test]
fn packed_diff_matches_reference_on_fault_and_tear_frames() {
    let scenario = random_mix(
        0xFA57,
        MixParams {
            count: 120,
            read_pct: 50,
            burst_pct: 40,
            ..MixParams::default()
        },
    );
    let plans = [
        (
            "slave error with retries",
            FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError)),
            RetryPolicy::retries(3),
        ),
        (
            "persistent stall",
            FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(17))),
            RetryPolicy::NONE,
        ),
        (
            "card tear mid-run",
            FaultPlan::new().with_tear(200),
            RetryPolicy::NONE,
        ),
    ];
    for (name, plan, policy) in plans {
        let mem = MemSlave::new(scenario_slave(&scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
        let mut frames = Vec::new();
        sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            frames.push(*bus.last_frame());
        });
        assert!(!frames.is_empty(), "{name}: no frames captured");
        assert_paths_agree(&frames, name);
    }
}

/// A CPU+DMA workload: seeded CPU mix plus a seeded descriptor program
/// behind one arbiter.
fn probe_multi(seed: u64, policy: ArbitrationPolicy) -> MultiScenario {
    let cpu = probe_scenario(seed, 64);
    let dma = DmaProgram::seeded(
        seed ^ 0xD31A,
        DmaParams {
            descriptors: 12,
            ..DmaParams::default()
        },
    );
    MultiScenario::new("hotpath-multi", cpu, &dma, policy)
}

#[test]
fn packed_diff_matches_reference_on_arbiter_merged_frames() {
    // Back-to-back issues from alternating masters and DMA bursts
    // splicing into CPU traffic: a stream shaped unlike any
    // single-master schedule, under both arbitration policies.
    for policy in ArbitrationPolicy::ALL {
        for seed in [0x3A5Au64, 0xC0DE] {
            let ms = probe_multi(seed, policy);
            let mem = MemSlave::new(scenario_slave(&ms.cpu));
            let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
            bus.enable_frames();
            let mut sys = TlmSystem::for_multi(bus, &ms);
            let mut frames = Vec::new();
            sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
                frames.push(*bus.last_frame());
            });
            assert!(frames.len() > 64, "merged stream too short");
            assert_paths_agree(&frames, &format!("{}/seed {seed:#x}", policy.name()));
        }
    }
}

fn probe_scenario(seed: u64, count: usize) -> Scenario {
    random_mix(
        seed,
        MixParams {
            count,
            read_pct: 50,
            burst_pct: 40,
            fetch_pct: 30,
            max_idle: 2,
            ..MixParams::default()
        },
    )
}

/// `run_layer1` (the production path) against `reference::run_layer1`
/// (a fresh model, the bit-loop diff and per-toggle lookups): cycles,
/// records, energy bits and trace bits.
#[test]
fn full_runs_match_reference_runs() {
    let db = harness::shared_db();
    for seed in [0x11u64, 0x2222, 0xBE9C] {
        let scenario = probe_scenario(seed, 400);
        let fast = harness::run_layer1(&scenario, &db);
        let reference = harness::reference::run_layer1(&scenario, &db, Capture::Full);
        assert_eq!(fast.cycles, reference.cycles, "seed {seed:#x}");
        assert_eq!(fast.records, reference.records, "seed {seed:#x}");
        assert_eq!(
            fast.energy_pj.to_bits(),
            reference.energy_pj.to_bits(),
            "seed {seed:#x}: energy"
        );
        assert_eq!(fast.trace, reference.trace, "seed {seed:#x}: trace");
    }
}

/// A session's layer-1 run under one fault plan, full capture.
fn faulted_run(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Outcome {
    let faults = vec![MasterFaults::new(0, plan.clone(), policy)];
    let spec = RunSpec::new(Layer::L1, Capture::Full).with_faults(faults);
    Session::new(db).run(&spec, &scenario.clone().into())
}

/// A faulted layer-1 replay through the bit-loop reference path — the
/// same wiring as [`faulted_run`], with `on_frame_reference` in place of
/// `on_frame` — plus its per-cycle trace.
fn faulted_bitloop_run(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> (Outcome, Vec<f64>) {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
    let mut model = Layer1EnergyModel::new(db.clone());
    model.enable_trace();
    let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame_reference(bus.last_frame());
    });
    let memory = sys
        .bus()
        .slave_as::<MemSlave>(SlaveId(0))
        .expect("scenario slave is a MemSlave")
        .snapshot();
    let run = Outcome {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        records: report.records,
        outcomes: report.outcomes,
        counters: report.fault,
        memory,
        torn_at: sys.torn_at(),
        ..Outcome::default()
    };
    (run, model.trace().unwrap_or(&[]).to_vec())
}

fn assert_fault_runs_agree(fast: &Outcome, reference: &Outcome, context: &str) {
    assert_eq!(
        fast.energy_pj.to_bits(),
        reference.energy_pj.to_bits(),
        "{context}: energy"
    );
    assert_eq!(fast.cycles, reference.cycles, "{context}: cycles");
    assert_eq!(fast.records, reference.records, "{context}: records");
    assert_eq!(fast.outcomes, reference.outcomes, "{context}: outcomes");
    assert_eq!(fast.counters, reference.counters, "{context}: counters");
    assert_eq!(fast.memory, reference.memory, "{context}: memory");
    assert_eq!(fast.torn_at, reference.torn_at, "{context}: torn");
}

/// A short fixed scenario whose whole run a tear sweep can cover.
fn fault_probe_scenario() -> Scenario {
    Scenario {
        name: "hotpath-fault-probe",
        ops: vec![
            MasterOp::write(0x100, 0xAAAA_5555),
            MasterOp::read(0x100).after_idle(1),
            MasterOp::write(0x104, 0x0F0F_F0F0),
            MasterOp::write(0x108, 0x1234_5678).after_idle(2),
            MasterOp::read(0x104),
            MasterOp::write(0x10C, 0xFFFF_0000),
        ]
        .into(),
        waits: WaitProfile::new(1, 2, 2),
    }
}

/// With an empty plan the faulted runner is the clean runner: same
/// cycles, records and energy bits as `reference::run_layer1`.
#[test]
fn fault_free_fault_runs_match_reference_runs() {
    let db = harness::shared_db();
    for seed in [0x33u64, 0xF1F0] {
        let scenario = probe_scenario(seed, 200);
        let fast = faulted_run(&scenario, &db, &FaultPlan::new(), RetryPolicy::NONE);
        let reference = harness::reference::run_layer1(&scenario, &db, Capture::Full);
        assert_eq!(fast.cycles, reference.cycles, "seed {seed:#x}");
        assert_eq!(fast.records, reference.records, "seed {seed:#x}");
        assert_eq!(
            fast.energy_pj.to_bits(),
            reference.energy_pj.to_bits(),
            "seed {seed:#x}: energy"
        );
        assert!(fast.torn_at.is_none(), "seed {seed:#x}: clean run torn");
    }
}

/// Fault and tear replays: a plan mixing transient slave errors, stalls
/// and retries, then a card tear at every cycle of the clean run and
/// past its end — a session's faulted layer-1 run must charge *exactly*
/// the bit-loop reference's energy, torn frames included, and commit
/// the same memory.
#[test]
fn fault_and_tear_replays_bit_exact() {
    let db = harness::shared_db();
    let scenario = fault_probe_scenario();
    let clean = faulted_run(&scenario, &db, &FaultPlan::new(), RetryPolicy::NONE);
    let mut plans = vec![FaultPlan::new()
        .with_fault(1, OpFault::once(FaultKind::SlaveError))
        .with_fault(3, OpFault::always(FaultKind::Stall(2)))];
    for t in 0..=clean.cycles + 1 {
        plans.push(FaultPlan::new().with_tear(t));
    }
    let policy = RetryPolicy::retries(2);
    for (pi, plan) in plans.iter().enumerate() {
        let fast = faulted_run(&scenario, &db, plan, policy);
        let (reference, _) = faulted_bitloop_run(&scenario, &db, plan, policy);
        assert_fault_runs_agree(&fast, &reference, &format!("plan {pi}"));
    }
}

/// A faulted run and the per-cycle trace its attribution ledger is
/// built from.
struct Attributed {
    run: Outcome,
    trace: Vec<f64>,
}

/// The attributed faulted runner: its run equals the bit-loop replay
/// and its per-cycle trace (what the ledger is built from) is the
/// bit-loop trace, bit for bit.
#[test]
fn attributed_fault_runs_match_bitloop_replays() {
    let db = harness::shared_db();
    let scenario = probe_scenario(0xA77B, 80);
    let plans = [
        FaultPlan::new(),
        FaultPlan::new().with_fault(2, OpFault::once(FaultKind::SlaveError)),
        FaultPlan::new().with_tear(150),
    ];
    let policy = RetryPolicy::retries(2);
    for (pi, plan) in plans.iter().enumerate() {
        let run = faulted_run(&scenario, &db, plan, policy);
        let attributed = Attributed {
            trace: run.trace.clone(),
            run,
        };
        let (reference, trace) = faulted_bitloop_run(&scenario, &db, plan, policy);
        assert_fault_runs_agree(&attributed.run, &reference, &format!("plan {pi}"));
        assert_eq!(attributed.trace, trace, "plan {pi}: trace");
    }
}

/// A CPU+DMA layer-1 replay through the bit-loop reference path — the
/// wiring of a session's multi-master layer-1 run with
/// `on_frame_reference` — returning cycles and energy.
fn multi_bitloop_run(ms: &MultiScenario, db: &CharacterizationDb) -> (u64, f64) {
    let mem = MemSlave::new(scenario_slave(&ms.cpu));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    let mut sys = TlmSystem::for_multi(bus, ms);
    let mut model = Layer1EnergyModel::new(db.clone());
    let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame_reference(bus.last_frame());
    });
    (report.cycles, model.total_energy())
}

/// A session's multi-master layer-1 run against the bit-loop replay of
/// the same arbiter-merged stream, under both policies.
#[test]
fn multi_master_layer1_runs_match_bitloop_replays() {
    let db = harness::shared_db();
    for policy in ArbitrationPolicy::ALL {
        for seed in [0x3A5Au64, 0xC0DE] {
            let ms = probe_multi(seed, policy);
            let fast =
                Session::new(&db).run(&RunSpec::new(Layer::L1, Capture::Full), &ms.clone().into());
            let (cycles, energy) = multi_bitloop_run(&ms, &db);
            let context = format!("{}/seed {seed:#x}", policy.name());
            assert_eq!(fast.cycles, cycles, "{context}: cycles");
            assert_eq!(
                fast.energy_pj.to_bits(),
                energy.to_bits(),
                "{context}: energy"
            );
        }
    }
}

/// A full multi-master reference run prices the settled RTL frame log
/// through the layer-1 model; that number must equal a bit-loop replay
/// of the same log.
#[test]
fn multi_reference_frame_log_energy_matches_bitloop_replay() {
    use hierbus::rtl::{GlitchConfig, RtlBus};
    let db = harness::shared_db();
    for policy in ArbitrationPolicy::ALL {
        let ms = probe_multi(0x5E77, policy);
        let fast = Session::new(&db)
            .run(
                &RunSpec::new(Layer::Rtl { glitches: false }, Capture::Full),
                &ms.clone().into(),
            )
            .l1_frames_energy_pj
            .expect("reference runs price their frame log");
        let mut bus = RtlBus::for_scenario(&ms.cpu);
        bus.set_glitch(GlitchConfig::off());
        bus.enable_frame_log();
        let mut sys = TlmSystem::for_multi(bus, &ms);
        sys.run(MAX_CYCLES, |_| {});
        let mut model = Layer1EnergyModel::new((*db).clone());
        for frame in sys.bus().frames().expect("frame log enabled above") {
            model.on_frame_reference(frame);
        }
        assert_eq!(
            fast.to_bits(),
            model.total_energy().to_bits(),
            "{}: frame-log energy",
            policy.name()
        );
    }
}

/// Scenarios for the session-reuse pins: distinct seeds, then a repeat
/// of the first, so a reset that leaks state into the next run shows.
fn reuse_scenarios() -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = [0x51u64, 0x5152, 0x5153_5455]
        .iter()
        .map(|&s| probe_scenario(s, 150))
        .collect();
    scenarios.push(scenarios[0].clone());
    scenarios
}

/// One reset-reused `Session` running full layer-1 runs against a fresh
/// bit-loop reference run per scenario: cycles, records, energy bits
/// and trace.
#[test]
fn layer1_session_reuse_matches_reference_runs() {
    let db = harness::shared_db();
    let mut session = Session::new(&db);
    let full = RunSpec::new(Layer::L1, Capture::Full);
    for (i, scenario) in reuse_scenarios().iter().enumerate() {
        let reused = session.run(&full, &scenario.clone().into());
        let reference = harness::reference::run_layer1(scenario, &db, Capture::Full);
        assert_eq!(reused.cycles, reference.cycles, "run {i}");
        assert_eq!(reused.records, reference.records, "run {i}");
        assert_eq!(
            reused.energy_pj.to_bits(),
            reference.energy_pj.to_bits(),
            "run {i}: energy"
        );
        assert_eq!(reused.trace, reference.trace, "run {i}: trace");
    }
}

/// One reset-reused `Session` running lean layer-1 runs against a fresh
/// bit-loop reference run per scenario: cycles and energy bits.
#[test]
fn lean_session_reuse_matches_reference_runs() {
    let db = harness::shared_db();
    let mut session = Session::new(&db);
    let lean_spec = RunSpec::new(Layer::L1, Capture::Lean);
    for (i, scenario) in reuse_scenarios().iter().enumerate() {
        let lean = session.run(&lean_spec, &scenario.clone().into());
        let reference = harness::reference::run_layer1(scenario, &db, Capture::Full);
        assert_eq!(lean.cycles, reference.cycles, "run {i}");
        assert_eq!(
            lean.energy_pj.to_bits(),
            reference.energy_pj.to_bits(),
            "run {i}: energy"
        );
    }
}

/// The daemon's `ServeSession`, reset-reused across alternating single-
/// and multi-master workloads, against fresh bit-loop replays of each.
#[test]
fn serve_session_reuse_matches_reference_runs() {
    let db = harness::shared_db();
    let mut session = hierbus::serve::ServeSession::new(&db);
    for (i, scenario) in reuse_scenarios().iter().enumerate() {
        let served = session.run_materialized(&scenario.clone().into());
        let reference = harness::reference::run_layer1(scenario, &db, Capture::Full);
        assert_eq!(served.cycles, reference.cycles, "single {i}");
        assert_eq!(
            served.energy_pj.to_bits(),
            reference.energy_pj.to_bits(),
            "single {i}: energy"
        );
        let policy = ArbitrationPolicy::ALL[i % ArbitrationPolicy::ALL.len()];
        let ms = probe_multi(0x7E57 + i as u64, policy);
        let served = session.run_materialized(&ms.clone().into());
        let (cycles, energy) = multi_bitloop_run(&ms, &db);
        assert_eq!(served.cycles, cycles, "multi {i}");
        assert_eq!(
            served.energy_pj.to_bits(),
            energy.to_bits(),
            "multi {i}: energy"
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    cycles: u64,
    energy_pj: f64,
}

/// Bit-precise rendering: energies as raw u64 bit patterns, so a
/// sub-ulp divergence cannot hide behind decimal formatting.
fn render(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|c| format!("{} {:#018x}\n", c.cycles, c.energy_pj.to_bits()))
        .collect()
}

/// Campaign merges through reset-reused sessions running lean layer-1
/// runs must be byte-identical at 1, 2, 4 and 8 workers — 16 scenarios
/// claim chunks of 4, 2, 1 and 1 — and every cell must equal a fresh
/// `run_layer1` *and* a fresh bit-loop reference run on that scenario,
/// bit for bit.
#[test]
fn lean_campaign_merges_match_reference_at_every_worker_count() {
    let db = harness::shared_db();
    let seeds: Vec<u64> = (0..16).map(|i| 0x9C00 + i as u64).collect();
    let scenarios: Vec<Scenario> = seeds.iter().map(|&s| probe_scenario(s, 120)).collect();
    let lean = RunSpec::new(Layer::L1, Capture::Lean);
    let matrix = Matrix::new().axis("seed", seeds.iter().map(|s| format!("{s:#x}")));

    let mut outputs = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let report = hierbus::campaign::run_with(
            &matrix,
            &CampaignOptions::with_workers("hotpath-differential", workers),
            || Session::new(&db),
            |session, point| {
                let run = session.run(&lean, &scenarios[point.coords[0]].clone().into());
                Cell {
                    cycles: run.cycles,
                    energy_pj: run.energy_pj,
                }
            },
        )
        .unwrap();
        let cells: Vec<Cell> = report.results.into_iter().flatten().collect();
        assert_eq!(cells.len(), scenarios.len(), "w{workers}");
        outputs.push((workers, render(&cells)));
    }
    let base = &outputs[0].1;
    for (workers, rendered) in &outputs[1..] {
        assert_eq!(rendered, base, "merged cells differ at {workers} workers");
    }

    let anchored: Vec<Cell> = scenarios
        .iter()
        .map(|s| {
            let full = harness::run_layer1(s, &db);
            let reference = harness::reference::run_layer1(s, &db, Capture::Full);
            assert_eq!(full.energy_pj.to_bits(), reference.energy_pj.to_bits());
            assert_eq!(full.cycles, reference.cycles);
            Cell {
                cycles: full.cycles,
                energy_pj: full.energy_pj,
            }
        })
        .collect();
    assert_eq!(&render(&anchored), base, "campaign cells vs fresh runs");
}
