//! End-to-end experiment harness: characterize once at the gate level,
//! then run any scenario through the reference and both TLM layers with
//! energy estimation attached — the workflow behind every table and
//! figure of the paper.

use hierbus_core::{MemSlave, Tlm1Bus, Tlm2Bus, TlmSystem};
use hierbus_ec::record::TxnRecord;
use hierbus_ec::sequences::{self, MixParams, Scenario};
use hierbus_ec::{AccessKind, AccessRights, Address, AddressRange, SignalClass, SlaveConfig};
use hierbus_power::{
    CharacterizationDb, Layer1EnergyModel, Layer2EnergyModel, PhaseCounts, PowerTrace,
};
use hierbus_rtl::{GlitchConfig, PowerConfig, RtlSystem, SimpleMem};

/// Cycle ceiling for harness runs; hitting it is a deadlock bug.
pub const MAX_CYCLES: u64 = 50_000_000;

/// The slave window every harness scenario runs against.
pub fn scenario_slave(scenario: &Scenario) -> SlaveConfig {
    SlaveConfig::new(
        AddressRange::new(Address::new(0), 0x2_0000),
        scenario.waits,
        AccessRights::RWX,
    )
}

/// The attribution slave map matching [`scenario_slave`]: every harness
/// scenario talks to one memory window, named `mem` in ledgers.
pub fn scenario_slave_map() -> hierbus_obs::SlaveMap {
    let mut map = hierbus_obs::SlaveMap::new();
    map.add(0, 0x2_0000, "mem");
    map
}

/// Result of a gate-level reference run.
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    /// Bus cycles used.
    pub cycles: u64,
    /// Gate-level energy in pJ.
    pub energy_pj: f64,
    /// Total wire transitions (including glitches).
    pub transitions: u64,
    /// Glitch transitions alone.
    pub glitch_transitions: u64,
    /// Transaction records.
    pub records: Vec<TxnRecord>,
    /// Per-cycle energy trace.
    pub trace: PowerTrace,
}

/// Result of a TLM run with an attached energy model.
#[derive(Debug, Clone)]
pub struct TlmRun {
    /// Bus cycles used.
    pub cycles: u64,
    /// Estimated energy in pJ.
    pub energy_pj: f64,
    /// Transaction records.
    pub records: Vec<TxnRecord>,
    /// Bus-process activations that actually ran.
    pub bus_activations: u64,
    /// Per-cycle energy trace (layer 1 only; empty for layer 2, which
    /// cannot profile cycle-accurately).
    pub trace: PowerTrace,
}

/// Runs a scenario on the cycle-true reference with the gate-level
/// estimator (glitches on unless `ideal_netlist`).
pub fn run_reference(scenario: &Scenario, ideal_netlist: bool) -> ReferenceRun {
    let mem = SimpleMem::new(scenario_slave(scenario));
    let mut sys = RtlSystem::new(
        scenario.ops.clone(),
        vec![Box::new(mem)],
        PowerConfig::default(),
        if ideal_netlist {
            GlitchConfig::off()
        } else {
            GlitchConfig::default()
        },
    );
    sys.enable_power_trace();
    let report = sys.run(MAX_CYCLES);
    let trace = PowerTrace::from_samples(sys.estimator().trace().unwrap_or(&[]).to_vec());
    ReferenceRun {
        cycles: report.cycles,
        energy_pj: report.energy_pj,
        transitions: report.transitions,
        glitch_transitions: report.glitch_transitions,
        records: report.records,
        trace,
    }
}

/// Runs a scenario on the layer-1 bus with the layer-1 energy model.
pub fn run_layer1(scenario: &Scenario, db: &CharacterizationDb) -> TlmRun {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let mut model = Layer1EnergyModel::new(db.clone());
    model.enable_trace();
    let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame(bus.last_frame());
    });
    TlmRun {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        records: report.records,
        bus_activations: report.bus_activations,
        trace: PowerTrace::from_samples(model.trace().unwrap_or(&[]).to_vec()),
    }
}

/// [`run_layer1`] through the pre-optimization hot path: a fresh model
/// per call, the bit-loop reference diff and per-toggle database
/// lookups. Kept so benchmarks and differential tests can compare the
/// old and new code paths on identical stimulus; must stay
/// observationally identical to [`run_layer1`].
pub fn run_layer1_reference(scenario: &Scenario, db: &CharacterizationDb) -> TlmRun {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let mut model = Layer1EnergyModel::new(db.clone());
    model.enable_trace();
    let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame_reference(bus.last_frame());
    });
    TlmRun {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        records: report.records,
        bus_activations: report.bus_activations,
        trace: PowerTrace::from_samples(model.trace().unwrap_or(&[]).to_vec()),
    }
}

/// A reusable layer-1 runner: the energy model (its per-class weight
/// cache, characterization clone and trace allocation) is built once
/// and [`reset`] between scenarios instead of per run. One session
/// replaying a sequence of scenarios produces bit-identical [`TlmRun`]s
/// to calling [`run_layer1`] per scenario — campaign workers hold one
/// session for their whole share of the matrix.
///
/// [`reset`]: Layer1EnergyModel::reset
#[derive(Debug, Clone)]
pub struct Layer1Session {
    model: Layer1EnergyModel,
}

impl Layer1Session {
    /// Builds a session over a characterization database.
    pub fn new(db: &CharacterizationDb) -> Self {
        hierbus_obs::profiling::record_db_access();
        let mut model = Layer1EnergyModel::new(db.clone());
        model.enable_trace();
        Layer1Session { model }
    }

    /// Runs a scenario; equivalent to [`run_layer1`].
    pub fn run(&mut self, scenario: &Scenario) -> TlmRun {
        self.model.reset();
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        let model = &mut self.model;
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        TlmRun {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
            records: report.records,
            bus_activations: report.bus_activations,
            trace: PowerTrace::from_samples(model.trace().unwrap_or(&[]).to_vec()),
        }
    }
}

/// A single lean (throughput-mode) layer-1 result: the scalar outcome a
/// campaign payload keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeanRun {
    /// Bus cycles used.
    pub cycles: u64,
    /// Estimated energy in pJ.
    pub energy_pj: f64,
}

/// Throughput-mode sibling of [`Layer1Session`]: the reused model keeps
/// no per-cycle trace and the replay keeps no per-transaction records,
/// because a campaign whose payload is only `(cycles, energy)` would
/// build and immediately drop both. Cycles and total energy are
/// bit-identical to [`run_layer1`] on the same scenario — records and
/// tracing are pure observers of the simulation.
#[derive(Debug, Clone)]
pub struct Layer1LeanSession {
    model: Layer1EnergyModel,
}

impl Layer1LeanSession {
    /// Builds a lean session over a characterization database.
    pub fn new(db: &CharacterizationDb) -> Self {
        hierbus_obs::profiling::record_db_access();
        Layer1LeanSession {
            model: Layer1EnergyModel::new(db.clone()),
        }
    }

    /// Runs a scenario; cycles and energy equal [`run_layer1`]'s.
    pub fn run(&mut self, scenario: &Scenario) -> LeanRun {
        self.model.reset();
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        let model = &mut self.model;
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        LeanRun {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
        }
    }
}

/// Runs a scenario on the layer-1 bus *without* energy estimation
/// (the Table 3 "without estimation" configuration).
pub fn run_layer1_timing_only(scenario: &Scenario) -> TlmRun {
    let mem = MemSlave::new(scenario_slave(scenario));
    let bus = Tlm1Bus::new(vec![Box::new(mem)]);
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let report = sys.run(MAX_CYCLES, |_| {});
    TlmRun {
        cycles: report.cycles,
        energy_pj: 0.0,
        records: report.records,
        bus_activations: report.bus_activations,
        trace: PowerTrace::new(),
    }
}

/// Runs a scenario on the layer-2 bus with the layer-2 energy model.
pub fn run_layer2(
    scenario: &Scenario,
    db: &CharacterizationDb,
    correlation_correction: bool,
) -> TlmRun {
    let mem = MemSlave::new(scenario_slave(scenario));
    let mut bus = Tlm2Bus::new(vec![Box::new(mem)]);
    bus.enable_events();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let mut model = Layer2EnergyModel::new(db.clone());
    if correlation_correction {
        model.enable_correlation_correction();
    }
    let report = sys.run(MAX_CYCLES, |bus: &mut Tlm2Bus| {
        for ev in bus.drain_events() {
            model.on_event(&ev);
        }
    });
    TlmRun {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        records: report.records,
        bus_activations: report.bus_activations,
        trace: PowerTrace::new(),
    }
}

/// Runs a scenario on the layer-2 bus without energy estimation.
pub fn run_layer2_timing_only(scenario: &Scenario) -> TlmRun {
    let mem = MemSlave::new(scenario_slave(scenario));
    let bus = Tlm2Bus::new(vec![Box::new(mem)]);
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let report = sys.run(MAX_CYCLES, |_| {});
    TlmRun {
        cycles: report.cycles,
        energy_pj: 0.0,
        records: report.records,
        bus_activations: report.bus_activations,
        trace: PowerTrace::new(),
    }
}

/// Throughput-mode runners: no per-transaction records, returning the
/// number of transactions completed. These isolate the *bus model* cost
/// that Table 3 measures from the replay harness's bookkeeping.
pub mod perf {
    use super::*;

    /// Layer 1 with the layer-1 energy model attached.
    pub fn layer1(scenario: &Scenario, db: &CharacterizationDb) -> u64 {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        let mut model = Layer1EnergyModel::new(db.clone());
        sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        sys.completed()
    }

    /// Layer 1 with the energy model driven through the bit-loop
    /// reference diff and per-toggle database lookups — the
    /// pre-optimization hot path, kept so the benchmarks can report the
    /// old-vs-new uplift on identical stimulus.
    pub fn layer1_reference(scenario: &Scenario, db: &CharacterizationDb) -> u64 {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        let mut model = Layer1EnergyModel::new(db.clone());
        sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame_reference(bus.last_frame());
        });
        sys.completed()
    }

    /// Layer 1 with the energy model *and* span observability enabled —
    /// the worst case for instrumentation overhead.
    pub fn layer1_observed(scenario: &Scenario, db: &CharacterizationDb) -> u64 {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        bus.enable_obs();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        let mut model = Layer1EnergyModel::new(db.clone());
        sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        sys.completed()
    }

    /// Layer 1 timing only.
    pub fn layer1_timing(scenario: &Scenario) -> u64 {
        let mem = MemSlave::new(scenario_slave(scenario));
        let bus = Tlm1Bus::new(vec![Box::new(mem)]);
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        sys.run(MAX_CYCLES, |_| {});
        sys.completed()
    }

    /// Layer 2 with the layer-2 energy model attached.
    pub fn layer2(scenario: &Scenario, db: &CharacterizationDb) -> u64 {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm2Bus::new(vec![Box::new(mem)]);
        bus.enable_events();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        let mut model = Layer2EnergyModel::new(db.clone());
        sys.run(MAX_CYCLES, |bus: &mut Tlm2Bus| {
            for ev in bus.drain_events() {
                model.on_event(&ev);
            }
        });
        sys.completed()
    }

    /// Layer 2 timing only.
    pub fn layer2_timing(scenario: &Scenario) -> u64 {
        let mem = MemSlave::new(scenario_slave(scenario));
        let bus = Tlm2Bus::new(vec![Box::new(mem)]);
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        sys.run(MAX_CYCLES, |_| {});
        sys.completed()
    }

    /// Layer 3 (untimed message layer) through the cycle bridge.
    pub fn layer3(scenario: &Scenario) -> u64 {
        use hierbus_core::Tlm3Bus;
        let mem = MemSlave::new(scenario_slave(scenario));
        let bus = Tlm3Bus::new(vec![Box::new(mem)]);
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        sys.run(MAX_CYCLES, |_| {});
        sys.completed()
    }
}

/// Fault-injection runners: the same scenario + [`FaultPlan`] +
/// [`RetryPolicy`] replayed at every abstraction level, with energy
/// attached and the committed memory captured — the differential
/// robustness harness.
///
/// [`FaultPlan`]: hierbus_ec::FaultPlan
/// [`RetryPolicy`]: hierbus_ec::RetryPolicy
pub mod fault {
    use super::*;
    use hierbus_core::HasSlaves;
    use hierbus_ec::{FaultCounters, FaultPlan, RetryPolicy, SlaveId, TxnOutcome};

    /// Result of a faulted run at any layer.
    #[derive(Debug, Clone)]
    pub struct FaultRun {
        /// Bus cycles from cycle 0 through the last completion.
        pub cycles: u64,
        /// Estimated (or gate-level, for the reference) energy in pJ.
        pub energy_pj: f64,
        /// Per-attempt records (one per retry reissue too).
        pub records: Vec<TxnRecord>,
        /// Final per-stimulus-op outcomes.
        pub outcomes: Vec<TxnOutcome>,
        /// Fault/robustness counters.
        pub counters: FaultCounters,
        /// Committed memory: explicitly written `(word_offset, value)`
        /// pairs, sorted.
        pub memory: Vec<(u64, u32)>,
        /// The run ended in a card tear.
        pub torn: bool,
    }

    /// The gate-level reference under a fault plan (glitches off so the
    /// energy number is the deterministic settled-transition cost).
    pub fn run_reference(scenario: &Scenario, plan: &FaultPlan, policy: RetryPolicy) -> FaultRun {
        let mem = SimpleMem::new(scenario_slave(scenario));
        let mut sys = RtlSystem::new(
            scenario.ops.clone(),
            vec![Box::new(mem)],
            PowerConfig::default(),
            GlitchConfig::off(),
        )
        .with_faults(plan.clone(), policy);
        let report = sys.run(MAX_CYCLES);
        let memory = sys
            .slave_as::<SimpleMem>(0)
            .expect("scenario slave is a SimpleMem")
            .snapshot();
        FaultRun {
            cycles: report.cycles,
            energy_pj: report.energy_pj,
            records: report.records,
            outcomes: report.outcomes,
            counters: report.fault,
            memory,
            torn: sys.torn(),
        }
    }

    /// Layer 1 under a fault plan, with the layer-1 energy model: torn
    /// and aborted transactions charge exactly the transitions their
    /// frames actually drove.
    pub fn run_layer1(
        scenario: &Scenario,
        db: &CharacterizationDb,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> FaultRun {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
        let mut model = Layer1EnergyModel::new(db.clone());
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        let memory = sys
            .bus()
            .slave_as::<MemSlave>(SlaveId(0))
            .expect("scenario slave is a MemSlave")
            .snapshot();
        FaultRun {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
            records: report.records,
            outcomes: report.outcomes,
            counters: report.fault,
            memory,
            torn: sys.torn(),
        }
    }

    /// Layer 2 under a fault plan, with the layer-2 energy model: a
    /// phase truncated by the tear is flushed as a partial event and
    /// charged its per-phase average pro-rata.
    pub fn run_layer2(
        scenario: &Scenario,
        db: &CharacterizationDb,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> FaultRun {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm2Bus::new(vec![Box::new(mem)]);
        bus.enable_events();
        let tear_cycle = plan.tear_cycle;
        let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
        let mut model = Layer2EnergyModel::new(db.clone());
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm2Bus| {
            for ev in bus.drain_events() {
                model.on_event(&ev);
            }
        });
        if sys.torn() {
            let at = tear_cycle.expect("torn runs come from a tear plan");
            sys.bus_mut().flush_partial_phases(at);
            for ev in sys.bus_mut().drain_events() {
                model.on_event(&ev);
            }
        }
        let memory = sys
            .bus()
            .slave_as::<MemSlave>(SlaveId(0))
            .expect("scenario slave is a MemSlave")
            .snapshot();
        FaultRun {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
            records: report.records,
            outcomes: report.outcomes,
            counters: report.fault,
            memory,
            torn: sys.torn(),
        }
    }

    /// Final per-transaction statuses, the layer-invariant contract: the
    /// same plan must produce the same list at every abstraction level.
    pub fn statuses(run: &FaultRun) -> Vec<TxnOutcome> {
        run.outcomes.clone()
    }

    /// A layer-1 faulted run with attribution attached: the energy
    /// ledger, the per-cycle trace and the span record, so a clean and
    /// a faulted replay of the same scenario can be fed to the
    /// divergence auditor (ledger-level and cycle-level).
    #[derive(Debug, Clone)]
    pub struct AttributedL1Run {
        pub run: FaultRun,
        pub ledger: hierbus_obs::EnergyLedger,
        pub trace: Vec<f64>,
        pub spans: Vec<hierbus_obs::SpanEvent>,
    }

    /// [`run_layer1`](self::run_layer1) with spans, per-cycle trace and
    /// the attribution ledger collected. An empty [`FaultPlan`] gives
    /// the clean baseline.
    pub fn run_layer1_attributed(
        scenario: &Scenario,
        db: &CharacterizationDb,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> AttributedL1Run {
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_obs();
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
        let mut model = Layer1EnergyModel::new(db.clone());
        model.enable_trace();
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        let memory = sys
            .bus()
            .slave_as::<MemSlave>(SlaveId(0))
            .expect("scenario slave is a MemSlave")
            .snapshot();
        let spans = sys.bus().obs().spans().to_vec();
        let ledger = model
            .ledger(&spans, &scenario_slave_map())
            .expect("trace enabled above");
        AttributedL1Run {
            run: FaultRun {
                cycles: report.cycles,
                energy_pj: model.total_energy(),
                records: report.records,
                outcomes: report.outcomes,
                counters: report.fault,
                memory,
                torn: sys.torn(),
            },
            ledger,
            trace: model.trace().unwrap_or(&[]).to_vec(),
            spans,
        }
    }
}

/// Multi-master runners: a CPU scenario and a DMA descriptor program
/// behind one arbiter, replayed at every abstraction level with
/// master-tagged energy attribution — the workhorse behind the
/// arbitration-equivalence suite and multi-master campaigns.
pub mod multi {
    use super::*;
    use hierbus_core::{HasSlaves, MultiMasterSystem};
    use hierbus_ec::dma::master_of_trace;
    use hierbus_ec::{
        ArbiterStats, FaultCounters, FaultPlan, MultiScenario, RetryPolicy, SlaveId, TxnOutcome,
    };
    use hierbus_obs::EnergyLedger;

    /// Trace-id → master-name resolution for CPU+DMA scenarios.
    fn master_of(id: u64) -> Option<&'static str> {
        Some(master_of_trace(id))
    }

    /// Per-master fault attachment for a multi-master run.
    #[derive(Debug, Clone)]
    pub struct MasterFaults {
        /// Master index (0 = CPU, 1 = DMA).
        pub master: usize,
        pub plan: FaultPlan,
        pub policy: RetryPolicy,
    }

    /// Per-master slice of a multi-master run, layer-agnostic so the
    /// equivalence suite compares slices across layers directly.
    #[derive(Debug, Clone)]
    pub struct MasterSlice {
        /// Per-attempt records, in issue order.
        pub records: Vec<TxnRecord>,
        /// Final per-stimulus-op outcomes.
        pub outcomes: Vec<TxnOutcome>,
        /// Fault counters for this master alone.
        pub fault: FaultCounters,
    }

    /// Result of a multi-master run at any layer.
    #[derive(Debug, Clone)]
    pub struct MultiRun {
        /// Bus cycles from cycle 0 through the last completion.
        pub cycles: u64,
        /// The layer's own energy number: gate-level for the
        /// reference, the characterized model's total for the TLM
        /// layers.
        pub energy_pj: f64,
        /// Reference runs only: the layer-1 characterized model's
        /// total over the settled RTL frame log — the number a layer-1
        /// run of the same scenario must reproduce.
        pub l1_frames_energy_pj: Option<f64>,
        /// One slice per master, in master order.
        pub masters: Vec<MasterSlice>,
        /// Grant lines `(cycle, master)` in cycle order.
        pub grants: Vec<(u64, usize)>,
        /// Arbitration statistics.
        pub stats: ArbiterStats,
        /// Committed memory: `(word_offset, value)` pairs, sorted.
        pub memory: Vec<(u64, u32)>,
        /// The run ended in a card tear.
        pub torn: bool,
        /// Master-tagged energy ledger; its untagged + per-master
        /// slices sum to the layer's attributed total.
        pub ledger: EnergyLedger,
    }

    impl MultiRun {
        /// Outcome lists per master — the layer-invariant contract.
        pub fn outcomes(&self) -> Vec<Vec<TxnOutcome>> {
            self.masters.iter().map(|m| m.outcomes.clone()).collect()
        }
    }

    /// The gate-level reference over a CPU+DMA scenario (glitches off,
    /// like the fault harness, so energy is the deterministic settled
    /// cost). The settled frame log is replayed through the layer-1
    /// characterized model for the cross-layer energy pin, and the
    /// span record is attributed per master.
    pub fn run_reference(
        ms: &MultiScenario,
        db: &CharacterizationDb,
        faults: &[MasterFaults],
    ) -> MultiRun {
        let mut sys = RtlSystem::for_multi_scenario(ms);
        sys.set_glitch(GlitchConfig::off());
        sys.enable_frame_log();
        sys.enable_obs();
        for f in faults {
            sys.set_master_faults(f.master, f.plan.clone(), f.policy);
        }
        let report = sys.run(MAX_CYCLES);
        let mut model = Layer1EnergyModel::new(db.clone());
        model.enable_trace();
        for frame in sys.frames().expect("frame log enabled above") {
            model.on_frame(frame);
        }
        let spans = sys.obs().spans().to_vec();
        let ledger = hierbus_obs::attribute_cycles_by_master(
            "rtl",
            &spans,
            model.trace().unwrap_or(&[]),
            &scenario_slave_map(),
            master_of,
        );
        let memory = sys
            .slave_as::<SimpleMem>(0)
            .expect("scenario slave is a SimpleMem")
            .snapshot();
        MultiRun {
            cycles: report.cycles,
            energy_pj: report.energy_pj,
            l1_frames_energy_pj: Some(model.total_energy()),
            masters: report
                .masters
                .iter()
                .map(|m| MasterSlice {
                    records: m.records.clone(),
                    outcomes: m.outcomes.clone(),
                    fault: m.fault,
                })
                .collect(),
            grants: report.grants,
            stats: report.stats,
            memory,
            torn: sys.torn(),
            ledger,
        }
    }

    /// Layer 1 over a CPU+DMA scenario: per-cycle arbitration in front
    /// of the cycle-accurate bus, energy through the layer-1 model,
    /// spans attributed per master.
    pub fn run_layer1(
        ms: &MultiScenario,
        db: &CharacterizationDb,
        faults: &[MasterFaults],
    ) -> MultiRun {
        let mem = MemSlave::new(scenario_slave(&ms.cpu));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        bus.enable_obs();
        let mut sys = MultiMasterSystem::for_multi(bus, ms);
        for f in faults {
            sys.set_master_faults(f.master, f.plan.clone(), f.policy);
        }
        let mut model = Layer1EnergyModel::new(db.clone());
        model.enable_trace();
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        let spans = sys.bus().obs().spans().to_vec();
        let ledger = hierbus_obs::attribute_cycles_by_master(
            "tlm1",
            &spans,
            model.trace().unwrap_or(&[]),
            &scenario_slave_map(),
            master_of,
        );
        let memory = sys
            .bus()
            .slave_as::<MemSlave>(SlaveId(0))
            .expect("scenario slave is a MemSlave")
            .snapshot();
        MultiRun {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
            l1_frames_energy_pj: None,
            masters: slices(&report.masters),
            grants: report.grants,
            stats: report.stats,
            memory,
            torn: sys.torn(),
            ledger,
        }
    }

    /// Layer 2 over a CPU+DMA scenario: the same per-cycle arbitration
    /// discipline in front of the event-level bus, so contention is
    /// priced at event granularity; every event is booked into the
    /// master-tagged ledger.
    pub fn run_layer2(
        ms: &MultiScenario,
        db: &CharacterizationDb,
        faults: &[MasterFaults],
    ) -> MultiRun {
        let mem = MemSlave::new(scenario_slave(&ms.cpu));
        let mut bus = Tlm2Bus::new(vec![Box::new(mem)]);
        bus.enable_events();
        let mut sys = MultiMasterSystem::for_multi(bus, ms);
        let mut tear_cycle = None;
        for f in faults {
            tear_cycle = tear_cycle.or(f.plan.tear_cycle);
            sys.set_master_faults(f.master, f.plan.clone(), f.policy);
        }
        let mut model = Layer2EnergyModel::new(db.clone());
        let mut ledger = EnergyLedger::new("tlm2");
        let map = scenario_slave_map();
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm2Bus| {
            for ev in bus.drain_events() {
                model.on_event_ledger_by_master(&ev, &mut ledger, &map, master_of);
            }
        });
        if sys.torn() {
            let at = tear_cycle.expect("torn runs come from a tear plan");
            sys.bus_mut().flush_partial_phases(at);
            for ev in sys.bus_mut().drain_events() {
                model.on_event_ledger_by_master(&ev, &mut ledger, &map, master_of);
            }
        }
        ledger.set_cycles(report.cycles);
        let memory = sys
            .bus()
            .slave_as::<MemSlave>(SlaveId(0))
            .expect("scenario slave is a MemSlave")
            .snapshot();
        MultiRun {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
            l1_frames_energy_pj: None,
            masters: slices(&report.masters),
            grants: report.grants,
            stats: report.stats,
            memory,
            torn: sys.torn(),
            ledger,
        }
    }

    fn slices(masters: &[hierbus_core::MasterReport]) -> Vec<MasterSlice> {
        masters
            .iter()
            .map(|m| MasterSlice {
                records: m.records.clone(),
                outcomes: m.outcomes.clone(),
                fault: m.fault,
            })
            .collect()
    }
}

/// Counts phases/beats from a record set (characterization input).
pub fn phase_counts(records: &[TxnRecord]) -> PhaseCounts {
    let mut counts = PhaseCounts::default();
    for r in records {
        counts.addr_phases += 1;
        if r.error.is_some() {
            continue;
        }
        match r.kind {
            AccessKind::DataWrite => counts.write_beats += r.burst.beats() as u64,
            _ => counts.read_beats += r.burst.beats() as u64,
        }
    }
    counts
}

/// Characterizes the TLM energy models against the gate-level estimator
/// on the given training scenarios: one accumulated per-class
/// energy/transition table plus phase counts.
pub fn characterize(training: &[Scenario]) -> CharacterizationDb {
    let mut energy = [0.0f64; 6];
    let mut transitions = [0u64; 6];
    let mut counts = PhaseCounts::default();
    for scenario in training {
        let mem = SimpleMem::new(scenario_slave(scenario));
        let mut sys = RtlSystem::new(
            scenario.ops.clone(),
            vec![Box::new(mem)],
            PowerConfig::default(),
            GlitchConfig::default(),
        );
        let report = sys.run(MAX_CYCLES);
        for (class, e, t) in sys.estimator().class_stats() {
            energy[class.index()] += e;
            transitions[class.index()] += t;
        }
        let c = phase_counts(&report.records);
        counts.addr_phases += c.addr_phases;
        counts.read_beats += c.read_beats;
        counts.write_beats += c.write_beats;
    }
    let stats: Vec<(SignalClass, f64, u64)> = SignalClass::ALL
        .iter()
        .map(|&c| (c, energy[c.index()], transitions[c.index()]))
        .collect();
    CharacterizationDb::from_class_stats(&stats, counts)
}

/// The standard training set: the spec's training scenarios plus a
/// low-locality random mix, so every signal class is exercised and the
/// averages reflect mixed (weakly correlated) traffic.
pub fn standard_training() -> Vec<Scenario> {
    let mut set = sequences::training_scenarios();
    set.push(sequences::random_mix(
        0xC0FFEE,
        MixParams {
            count: 2_000,
            sequential_pct: 30,
            ..MixParams::default()
        },
    ));
    set
}

/// Characterization over [`standard_training`] — the database the
/// experiments use.
pub fn standard_db() -> CharacterizationDb {
    characterize(&standard_training())
}

/// [`standard_db`], characterized once per process and shared behind an
/// `Arc` — the read-only database campaign workers clone a handle to
/// instead of re-running the gate-level training per scenario.
pub fn shared_db() -> std::sync::Arc<CharacterizationDb> {
    static DB: std::sync::OnceLock<std::sync::Arc<CharacterizationDb>> = std::sync::OnceLock::new();
    std::sync::Arc::clone(DB.get_or_init(|| std::sync::Arc::new(standard_db())))
}

/// Accuracy comparison of both TLM layers against the reference over a
/// scenario set (the Tables 1 & 2 computation).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccuracySummary {
    /// Reference cycles, summed.
    pub ref_cycles: u64,
    /// Layer-1 cycles, summed.
    pub l1_cycles: u64,
    /// Layer-2 cycles, summed.
    pub l2_cycles: u64,
    /// Gate-level energy, summed (pJ).
    pub ref_energy: f64,
    /// Layer-1 estimated energy, summed (pJ).
    pub l1_energy: f64,
    /// Layer-2 estimated energy, summed (pJ).
    pub l2_energy: f64,
}

impl AccuracySummary {
    /// Relative layer-1 timing error (0 expected).
    pub fn l1_cycle_error(&self) -> f64 {
        (self.l1_cycles as f64 - self.ref_cycles as f64) / self.ref_cycles as f64
    }

    /// Relative layer-2 timing error (small positive expected).
    pub fn l2_cycle_error(&self) -> f64 {
        (self.l2_cycles as f64 - self.ref_cycles as f64) / self.ref_cycles as f64
    }

    /// Relative layer-1 energy error (negative expected).
    pub fn l1_energy_error(&self) -> f64 {
        (self.l1_energy - self.ref_energy) / self.ref_energy
    }

    /// Relative layer-2 energy error (positive expected).
    pub fn l2_energy_error(&self) -> f64 {
        (self.l2_energy - self.ref_energy) / self.ref_energy
    }
}

/// Runs all three models over `scenarios` and accumulates the accuracy
/// summary.
pub fn accuracy_summary(scenarios: &[Scenario], db: &CharacterizationDb) -> AccuracySummary {
    let mut s = AccuracySummary::default();
    for scenario in scenarios {
        let r = run_reference(scenario, false);
        let l1 = run_layer1(scenario, db);
        let l2 = run_layer2(scenario, db, false);
        s.ref_cycles += r.cycles;
        s.l1_cycles += l1.cycles;
        s.l2_cycles += l2.cycles;
        s.ref_energy += r.energy_pj;
        s.l1_energy += l1.energy_pj;
        s.l2_energy += l2.energy_pj;
    }
    s
}

/// The evaluation set for the accuracy tables: the full verification
/// suite plus an address-sequential, small-value-data mix — the traffic
/// shape a fetching, stack-juggling smart-card core produces, as opposed
/// to the uniform-random characterization stimulus.
pub fn evaluation_scenarios() -> Vec<Scenario> {
    use hierbus_ec::sequences::DataProfile;
    let mut set = sequences::all_scenarios();
    set.push(sequences::random_mix(
        0xE7A1,
        MixParams {
            count: 2_000,
            read_pct: 55,
            sequential_pct: 85,
            data_profile: DataProfile::SmallValues,
            ..MixParams::default()
        },
    ));
    set
}
