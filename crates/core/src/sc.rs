//! Kernel-driven execution — the SystemC process structure of the paper.
//!
//! The direct cycle loop of [`TlmSystem`](crate::master::TlmSystem) is
//! the fast path; this module provides the *faithful* path for one
//! master: master and bus as processes on the [`hierbus_sim`]
//! discrete-event kernel, the master statically sensitive to the
//! **rising** clock edge and the bus process to the **falling** edge,
//! exactly as §3.1 describes. The layer-2 model's dynamic sensitivity
//! ("to avoid calls to processes when they are not necessary") is
//! realised with the kernel's `next_trigger`: the bus process
//! desensitises itself while the bus is idle, and the master notifies
//! the wake event — timed to the falling edge — when it issues into an
//! idle bus.
//!
//! Both paths must agree cycle-for-cycle; `kernel_runs_match_loop_runs`
//! in the tests pins that down. They also assemble their
//! [`TlmReport`] the same way, so the two reports compare field by
//! field.

use crate::master::{CycleBus, TlmMaster, TlmReport};
use hierbus_ec::{Arbiter, ArbitrationPolicy, MasterOp};
use hierbus_sim::{Edge, Kernel};

/// Clock period in kernel ticks (rising at even multiples, falling at
/// odd half-periods). One full period = one bus cycle.
pub const CLOCK_PERIOD: u64 = 10;

/// The world owned by the kernel: master, bus and cycle bookkeeping.
struct ScWorld<B> {
    master: TlmMaster,
    bus: B,
    bus_activations: u64,
    /// Set while the bus process has desensitised itself.
    parked: bool,
    /// The master finished; the bus process stops the kernel after its
    /// final (return-to-idle) activation.
    finishing: bool,
}

/// Runs `ops` against `bus` under the simulation kernel. `hook` runs
/// after every bus-process activation (energy models attach here).
///
/// Returns the usual [`TlmReport`]; process-activation savings from the
/// dynamic sensitivity are visible by comparing the report's
/// `bus_activations` with its `cycles`.
///
/// # Panics
///
/// Panics if the stimulus does not complete within `max_cycles`.
pub fn run_on_kernel<B>(
    bus: B,
    ops: impl Into<std::sync::Arc<[MasterOp]>>,
    max_cycles: u64,
    hook: impl FnMut(&mut B) + 'static,
) -> TlmReport
where
    B: CycleBus + 'static,
{
    let mut kernel = Kernel::new(ScWorld {
        master: TlmMaster::new(ops),
        bus,
        bus_activations: 0,
        parked: false,
        finishing: false,
    });
    let clk = kernel.add_clock(CLOCK_PERIOD);
    let wake = kernel.add_event("bus_wake");

    // Master process: rising edge. Issues/polls, and wakes the parked
    // bus process (timed to this cycle's falling edge) when work arrives.
    kernel
        .register("master", move |w: &mut ScWorld<B>, api| {
            let cycle = api.time().ticks() / CLOCK_PERIOD;
            w.master.rising_edge(&mut w.bus, cycle);
            if w.master.is_finished() {
                if w.parked || (w.bus.is_idle() && !w.bus.wants_every_cycle()) {
                    api.stop();
                } else {
                    // Let the bus process settle (and emit the
                    // return-to-idle frame) before stopping.
                    w.finishing = true;
                }
                return;
            }
            if w.parked && !w.bus.is_idle() {
                api.notify(wake, CLOCK_PERIOD / 2);
                w.parked = false;
            }
        })
        .sensitive_to_clock(clk, Edge::Rising);

    // Bus process: falling edge, desensitising itself while idle (the
    // paper's dynamic-sensitivity optimisation). While parked it is not
    // activated at all — the kernel skips it.
    let mut hook = hook;
    kernel
        .register("bus_process", move |w: &mut ScWorld<B>, api| {
            let cycle = api.time().ticks() / CLOCK_PERIOD;
            w.parked = false;
            if w.bus.is_idle() && !w.bus.wants_every_cycle() && !w.finishing {
                api.next_trigger(wake);
                w.parked = true;
            } else {
                w.bus.bus_process(cycle);
                w.bus_activations += 1;
                hook(&mut w.bus);
            }
            if w.finishing {
                api.stop();
            }
        })
        .sensitive_to_clock(clk, Edge::Falling);

    kernel.run_until(max_cycles.saturating_mul(CLOCK_PERIOD));

    let mut world = kernel.into_world();
    assert!(
        world.master.is_finished(),
        "stimulus did not complete within {max_cycles} cycles"
    );
    // A lone master is never arbitrated: its arbiter stays untouched,
    // exactly as in the cycle loop.
    TlmReport::assemble(
        std::slice::from_mut(&mut world.master),
        world.bus_activations,
        &Arbiter::new(ArbitrationPolicy::FixedPriority, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TlmSystem;
    use crate::slave::MemSlave;
    use crate::tlm1::Tlm1Bus;
    use crate::tlm2::Tlm2Bus;
    use hierbus_ec::record::first_divergence;
    use hierbus_ec::sequences::{self, MixParams};
    use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig, WaitProfile};

    fn mem(waits: WaitProfile) -> MemSlave {
        MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            waits,
            AccessRights::RWX,
        ))
    }

    #[test]
    fn kernel_runs_match_loop_runs_layer1() {
        for scenario in sequences::all_scenarios() {
            let loop_report = {
                let bus = Tlm1Bus::new(vec![Box::new(mem(scenario.waits))]);
                let mut sys = TlmSystem::new(bus, scenario.ops.clone());
                sys.run(100_000, |_| {})
            };
            let kernel_report = run_on_kernel(
                Tlm1Bus::new(vec![Box::new(mem(scenario.waits))]),
                scenario.ops.clone(),
                100_000,
                |_| {},
            );
            assert_eq!(
                loop_report.cycles, kernel_report.cycles,
                "{}",
                scenario.name
            );
            assert!(
                first_divergence(&loop_report.records, &kernel_report.records).is_none(),
                "{}",
                scenario.name
            );
        }
    }

    #[test]
    fn kernel_runs_match_loop_runs_layer2() {
        let scenario = sequences::random_mix(
            0x5C,
            MixParams {
                count: 300,
                ..MixParams::default()
            },
        );
        let loop_report = {
            let bus = Tlm2Bus::new(vec![Box::new(mem(scenario.waits))]);
            let mut sys = TlmSystem::new(bus, scenario.ops.clone());
            sys.run(1_000_000, |_| {})
        };
        let kernel_report = run_on_kernel(
            Tlm2Bus::new(vec![Box::new(mem(scenario.waits))]),
            scenario.ops,
            1_000_000,
            |_| {},
        );
        assert_eq!(loop_report.cycles, kernel_report.cycles);
        assert!(first_divergence(&loop_report.records, &kernel_report.records).is_none());
    }

    #[test]
    fn dynamic_sensitivity_skips_idle_activations() {
        // Long idle gaps: the bus process must be desensitised, not run.
        let ops = vec![
            hierbus_ec::MasterOp::read(0x100),
            hierbus_ec::MasterOp::read(0x200).after_idle(50),
        ];
        let report = run_on_kernel(
            Tlm2Bus::new(vec![Box::new(mem(WaitProfile::ZERO))]),
            ops,
            100_000,
            |_| {},
        );
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[1].done_cycle, Some(51));
        assert!(
            report.bus_activations < 10,
            "bus ran {} times across a 50-cycle idle gap",
            report.bus_activations
        );
    }

    #[test]
    fn frames_flow_through_the_kernel_hook() {
        let mut bus = Tlm1Bus::new(vec![Box::new(mem(WaitProfile::ZERO))]);
        bus.enable_frames();
        let frames = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = std::rc::Rc::clone(&frames);
        let report = run_on_kernel(
            bus,
            vec![hierbus_ec::MasterOp::read(0x100)],
            1_000,
            move |b: &mut Tlm1Bus| sink.borrow_mut().push(*b.last_frame()),
        );
        assert_eq!(report.cycles, 1);
        assert!(frames.borrow().len() >= 2); // active + return-to-idle
        assert!(frames.borrow()[0].a_valid);
    }
}
