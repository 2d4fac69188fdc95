//! Cross-layer observability: the span stream every model layer emits
//! must describe the *same* protocol activity. For each scenario of the
//! §4.1 verification suite the cycle-true reference and both TLM layers
//! must produce identical span counts, per-phase and per-access-class,
//! with no span left open. A golden file pins the Perfetto exporter's
//! byte-exact output for a scripted three-transaction scenario.
//!
//! Regenerate the golden after an intentional format change with
//! `BLESS=1 cargo test --test obs_cross_layer`.

use hierbus::core::{MemSlave, Tlm1Bus, Tlm2Bus, TlmSystem};
use hierbus::ec::sequences::{self, SCENARIO_BASE};
use hierbus::ec::{
    BurstLen, FaultKind, FaultPlan, MasterOp, OpFault, RetryPolicy, Scenario, WaitProfile,
};
use hierbus::obs::{Phase, TraceCollector};
use hierbus::power::run::{scenario_slave, MAX_CYCLES};
use hierbus::rtl::{GlitchConfig, PowerConfig, RtlBus};

fn rtl_spans(scenario: &Scenario) -> TraceCollector {
    let mut rtl = TlmSystem::new(rtl_bus(scenario), scenario.ops.clone());
    rtl.run(MAX_CYCLES, |_| {});
    rtl.bus().obs().clone()
}

fn rtl_bus(scenario: &Scenario) -> RtlBus {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = RtlBus::new(
        vec![Box::new(mem)],
        PowerConfig::default(),
        GlitchConfig::default(),
    );
    bus.enable_obs();
    bus
}

fn tlm1_spans(scenario: &Scenario) -> TraceCollector {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_obs();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    sys.run(MAX_CYCLES, |_| {});
    sys.bus().obs().clone()
}

fn tlm2_spans(scenario: &Scenario) -> TraceCollector {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm2Bus::new(vec![Box::new(mem)]);
    bus.enable_obs();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    sys.run(MAX_CYCLES, |_| {});
    sys.bus().obs().clone()
}

/// Spans per protocol phase, in `Phase::ALL` order.
fn phase_counts(c: &TraceCollector) -> Vec<usize> {
    Phase::ALL
        .iter()
        .map(|p| c.spans().iter().filter(|s| s.phase == *p).count())
        .collect()
}

#[test]
fn span_counts_agree_across_layers_on_verification_suite() {
    for scenario in sequences::all_scenarios() {
        let layers = [
            rtl_spans(&scenario),
            tlm1_spans(&scenario),
            tlm2_spans(&scenario),
        ];
        for c in &layers {
            assert_eq!(
                c.open_count(),
                0,
                "{}: layer {} left spans open",
                scenario.name,
                c.layer()
            );
            // Every suite transaction succeeds: request + address + one
            // data phase each.
            assert_eq!(
                c.span_count(),
                3 * scenario.len(),
                "{}: layer {} span count",
                scenario.name,
                c.layer()
            );
            assert!(
                c.spans().iter().all(|s| !s.error),
                "{}: layer {} reported a bus error",
                scenario.name,
                c.layer()
            );
        }
        let reference = phase_counts(&layers[0]);
        for c in &layers[1..] {
            assert_eq!(
                phase_counts(c),
                reference,
                "{}: per-phase span counts diverge between rtl and {}",
                scenario.name,
                c.layer()
            );
        }
    }
}

#[test]
fn trace_ids_pair_up_across_layers() {
    let scenario = sequences::write_after_read();
    let l1 = tlm1_spans(&scenario);
    let l2 = tlm2_spans(&scenario);
    let ids = |c: &TraceCollector| {
        let mut v: Vec<u64> = c.spans().iter().map(|s| s.trace_id).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    assert_eq!(ids(&l1), ids(&l2));
    assert_eq!(ids(&l1).len(), scenario.len());
}

fn three_txn_scenario() -> Scenario {
    Scenario {
        name: "three_txn",
        ops: vec![
            MasterOp::read(SCENARIO_BASE),
            MasterOp::write(SCENARIO_BASE + 4, 0xDEAD_BEEF),
            MasterOp::burst_read(SCENARIO_BASE, BurstLen::B4),
        ]
        .into(),
        waits: WaitProfile::ZERO,
    }
}

#[test]
fn perfetto_export_matches_golden_file() {
    let scenario = three_txn_scenario();
    let collectors = [
        rtl_spans(&scenario),
        tlm1_spans(&scenario),
        tlm2_spans(&scenario),
    ];
    let json = hierbus::obs::perfetto::export(&collectors);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/three_txn.trace.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).expect("bless golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        json, golden,
        "Perfetto export drifted from the golden file; if the change is \
         intentional, regenerate with BLESS=1 cargo test --test obs_cross_layer"
    );
}

fn rtl_fault_spans(scenario: &Scenario, plan: &FaultPlan, policy: RetryPolicy) -> TraceCollector {
    let mut rtl =
        TlmSystem::new(rtl_bus(scenario), scenario.ops.clone()).with_faults(plan.clone(), policy);
    rtl.run(MAX_CYCLES, |_| {});
    rtl.bus().obs().clone()
}

fn tlm1_fault_spans(scenario: &Scenario, plan: &FaultPlan, policy: RetryPolicy) -> TraceCollector {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_obs();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
    sys.run(MAX_CYCLES, |_| {});
    sys.bus().obs().clone()
}

fn tlm2_fault_spans(scenario: &Scenario, plan: &FaultPlan, policy: RetryPolicy) -> TraceCollector {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm2Bus::new(vec![Box::new(mem)]);
    bus.enable_obs();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
    sys.run(MAX_CYCLES, |_| {});
    sys.bus().obs().clone()
}

/// The golden fault scenario: the write answers its first attempt with
/// a slave error and the master retries it once, successfully. The
/// trace therefore carries an errored span set, the reissued spans, and
/// the `fault.injected` / `fault.retried` counter tracks.
#[test]
fn perfetto_export_of_faulted_run_matches_golden_file() {
    let scenario = three_txn_scenario();
    let plan = FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError));
    let policy = RetryPolicy::retries(3);
    let collectors = [
        rtl_fault_spans(&scenario, &plan, policy),
        tlm1_fault_spans(&scenario, &plan, policy),
        tlm2_fault_spans(&scenario, &plan, policy),
    ];
    for c in &collectors {
        assert_eq!(c.open_count(), 0, "layer {} left spans open", c.layer());
        assert!(
            c.spans().iter().any(|s| s.error),
            "layer {} shows no errored span",
            c.layer()
        );
        let tracks: Vec<&str> = c.counters().iter().map(|t| t.name.as_str()).collect();
        assert!(tracks.contains(&"fault.injected"), "tracks: {tracks:?}");
        assert!(tracks.contains(&"fault.retried"), "tracks: {tracks:?}");
    }
    let json = hierbus::obs::perfetto::export(&collectors);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fault_retry.trace.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).expect("bless golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        json, golden,
        "Perfetto export of the faulted run drifted from the golden file; \
         if the change is intentional, regenerate with \
         BLESS=1 cargo test --test obs_cross_layer"
    );
}
