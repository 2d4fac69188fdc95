//! The layer-2 discard path: a run with records disabled (which tells
//! the bus it may drop read data) must match a run that keeps records in
//! everything but the records themselves — cycles, completions, the
//! phase-event stream, energy bits, outcomes, fault counters and
//! committed memory. Covered: the §4.1 suite, a random mix, injected
//! slave errors with retries, injected stalls, and a card tear at every
//! cycle offset, on single-beat, burst and sub-word reads and writes.

use hierbus::core::{HasSlaves, MemSlave, PhaseEvent, Tlm2Bus, TlmSystem};
use hierbus::ec::sequences::{self, MasterOp, MixParams, Scenario};
use hierbus::ec::{
    AccessKind, Address, BurstLen, DataWidth, FaultCounters, FaultKind, FaultPlan, OpFault,
    RetryPolicy, SlaveId, TxnOutcome, WaitProfile,
};
use hierbus::harness::shared_db;
use hierbus::power::run::{tlm2_bus, MAX_CYCLES};
use hierbus::power::Layer2EnergyModel;

#[derive(Debug, PartialEq)]
struct Run {
    cycles: u64,
    completed: u64,
    torn: bool,
    events: Vec<PhaseEvent>,
    energy_bits: u64,
    outcomes: Vec<TxnOutcome>,
    counters: FaultCounters,
    memory: Vec<(u64, u32)>,
}

/// `s` on layer 2 with events on, keeping records or not; a torn run's
/// partial phases are flushed and charged like the production runner's.
fn run(s: &Scenario, plan: &FaultPlan, policy: RetryPolicy, keep_records: bool) -> Run {
    let mut bus = tlm2_bus(s);
    bus.enable_events();
    let mut sys = TlmSystem::new(bus, s.ops.clone()).with_faults(plan.clone(), policy);
    if !keep_records {
        sys.disable_records();
    }
    let mut model = Layer2EnergyModel::new((*shared_db()).clone());
    let mut events = Vec::new();
    let mut book = |ev: PhaseEvent| {
        model.on_event(&ev);
        events.push(ev);
    };
    let report = sys.run(MAX_CYCLES, |b: &mut Tlm2Bus| {
        b.drain_events().for_each(&mut book)
    });
    if sys.torn() {
        let at = plan.tear_cycle.expect("torn runs come from a tear plan");
        sys.bus_mut().flush_partial_phases(at);
        sys.bus_mut().drain_events().for_each(&mut book);
    }
    assert!(keep_records || report.records.is_empty());
    let memory = sys
        .bus()
        .slave_as::<MemSlave>(SlaveId(0))
        .expect("scenario memory")
        .snapshot();
    Run {
        cycles: report.cycles,
        completed: sys.completed(),
        torn: sys.torn(),
        events,
        energy_bits: model.total_energy().to_bits(),
        outcomes: report.outcomes,
        counters: report.fault,
        memory,
    }
}

/// Asserts the lean run matches the record-keeping one and returns it.
fn assert_discard_matches(tag: &str, s: &Scenario, plan: &FaultPlan, policy: RetryPolicy) -> Run {
    let kept = run(s, plan, policy, true);
    let lean = run(s, plan, policy, false);
    assert_eq!(lean, kept, "{tag}: discard path diverged");
    lean
}

/// Every data-path branch of the layer-2 completion: single, burst and
/// sub-word reads and writes, and a fetch burst.
fn mixed() -> Scenario {
    let sub_word = |kind, addr, width, data: Vec<u32>| MasterOp {
        idle_before: 0,
        kind,
        addr: Address::new(addr),
        width,
        burst: BurstLen::Single,
        data: data.into(),
    };
    Scenario {
        name: "discard-mixed",
        ops: vec![
            MasterOp::read(0x100),
            MasterOp::burst_write(0x200, vec![1, 2, 3, 4]),
            MasterOp::burst_read(0x300, BurstLen::B8),
            sub_word(AccessKind::DataWrite, 0x401, DataWidth::W8, vec![0xEE]),
            sub_word(AccessKind::DataRead, 0x402, DataWidth::W16, Vec::new()),
            MasterOp::write(0x500, 0xDEAD_BEEF).after_idle(1),
            MasterOp::fetch(0x600, BurstLen::B4),
        ]
        .into(),
        waits: WaitProfile::new(1, 1, 2),
    }
}

#[test]
fn clean_runs_discard_matches_records() {
    let mix = sequences::random_mix(
        5,
        MixParams {
            count: 500,
            ..MixParams::default()
        },
    );
    let mut scenarios = sequences::all_scenarios();
    scenarios.extend([mixed(), mix]);
    for s in &scenarios {
        let r = assert_discard_matches(s.name, s, &FaultPlan::new(), RetryPolicy::NONE);
        assert_eq!(r.completed, s.ops.len() as u64, "{}", s.name);
        assert!(!r.events.is_empty(), "{}: no phase events", s.name);
    }
}

#[test]
fn fault_plans_discard_matches_records() {
    let s = mixed();
    let errors = FaultPlan::new()
        .with_fault(1, OpFault::once(FaultKind::SlaveError))
        .with_fault(2, OpFault::always(FaultKind::SlaveError))
        .with_fault(4, OpFault::once(FaultKind::SlaveError));
    let r = assert_discard_matches("slave errors", &s, &errors, RetryPolicy::retries(2));
    assert!(r.counters.retried > 0 && r.counters.injected > 0);
    let stalls = FaultPlan::new()
        .with_fault(2, OpFault::always(FaultKind::Stall(3)))
        .with_fault(3, OpFault::always(FaultKind::Stall(5)));
    let clean = run(&s, &FaultPlan::new(), RetryPolicy::NONE, false);
    let r = assert_discard_matches("stalls", &s, &stalls, RetryPolicy::NONE);
    assert!(r.cycles > clean.cycles, "stalls must stretch the run");
}

#[test]
fn tear_sweep_discard_matches_records() {
    let s = mixed();
    let full = run(&s, &FaultPlan::new(), RetryPolicy::NONE, true);
    for t in 0..=full.cycles + 2 {
        let plan = FaultPlan::new().with_tear(t);
        let r = assert_discard_matches(&format!("tear@{t}"), &s, &plan, RetryPolicy::NONE);
        assert!(r.torn || t >= full.cycles, "tear@{t}: not torn");
    }
}
