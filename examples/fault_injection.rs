//! Fault injection: replay the same adversarial schedule — a transient
//! slave error, a stall, and a card tear — at every abstraction level,
//! and watch the layers agree on outcomes, committed memory, and what
//! the robustness policy cost.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```

use hierbus::ec::sequences::{MasterOp, Scenario};
use hierbus::ec::{FaultKind, FaultPlan, OpFault, RetryPolicy, WaitProfile};
use hierbus::harness;
use hierbus::power::{Capture, Layer, MasterFaults, Outcome, RunSpec, Session};

fn main() {
    println!("characterizing...");
    let db = harness::standard_db();

    // A small scripted workload: three single-beat writes.
    let scenario = Scenario {
        name: "fault-demo",
        ops: vec![
            MasterOp::write(0x100, 0x1111_1111),
            MasterOp::write(0x104, 0x2222_2222).after_idle(1),
            MasterOp::write(0x108, 0x3333_3333).after_idle(2),
        ]
        .into(),
        waits: WaitProfile::new(1, 2, 2),
    };

    // The adversarial schedule: op 1 answers its first attempt with a
    // slave error (a retry succeeds), op 2 stalls 4 extra cycles. Plans
    // key on the op's position in the stimulus, so the identical plan
    // replays at every layer.
    let plan = FaultPlan::new()
        .with_fault(1, OpFault::once(FaultKind::SlaveError))
        .with_fault(2, OpFault::always(FaultKind::Stall(4)));
    // Master-side robustness: up to 3 retries, 2/4/8-cycle backoff.
    let policy = RetryPolicy::retries(3);

    // One session replays the scenario at any layer under any plan. The
    // gate level runs on the ideal netlist, so its energy is the
    // deterministic settled-transition cost.
    let mut session = Session::new(&db);
    let stimulus = scenario.into();
    let mut run = |layer, plan: &FaultPlan| -> Outcome {
        let faults = vec![MasterFaults::new(0, plan.clone(), policy)];
        let spec = RunSpec::new(layer, Capture::Full).with_faults(faults);
        session.run(&spec, &stimulus)
    };
    let gate_level = Layer::Rtl { glitches: false };

    println!("plan: {plan}\n");
    let gate = run(gate_level, &plan);
    let l1 = run(Layer::L1, &plan);
    let l2 = run(Layer::L2 { correlation: false }, &plan);

    for (name, run) in [("gate", &gate), ("layer1", &l1), ("layer2", &l2)] {
        println!(
            "{name:>6}: {:>3} cycles  {:>7.1} pJ  outcomes {:?}  retried {}",
            run.cycles,
            run.energy_pj,
            run.outcomes
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>(),
            run.counters.retried,
        );
    }
    // The differential contract: identical outcomes and memory.
    assert_eq!(gate.outcomes, l1.outcomes);
    assert_eq!(l1.outcomes, l2.outcomes);
    assert_eq!(gate.memory, l1.memory);
    assert_eq!(l1.memory, l2.memory);
    assert_eq!(gate.cycles, l1.cycles, "layer 1 is cycle-exact");

    // Card tear: stop the clock mid-run. Unfinished ops abort, and all
    // layers still agree on what reached memory.
    let torn = FaultPlan::new().with_tear(gate.cycles / 2);
    let t_gate = run(gate_level, &torn);
    let t_l1 = run(Layer::L1, &torn);
    println!(
        "\ntear@{}: outcomes {:?}, {} words committed ({} in the full run)",
        gate.cycles / 2,
        t_gate
            .outcomes
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>(),
        t_gate.memory.len(),
        gate.memory.len(),
    );
    assert_eq!(t_gate.memory, t_l1.memory);
    assert!(t_gate.energy_pj <= gate.energy_pj, "a torn run costs less");
}
