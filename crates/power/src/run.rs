//! One run description and one reusable session for every scenario run.
//!
//! The paper's bus is one model with the abstraction level as a
//! parameter: the same stimulus replays on the cycle-true reference and
//! on transaction layers 1, 2 and 3. A [`RunSpec`] names that level and
//! the rest of a run's shape — energy estimation on or off, how much to
//! capture, optional per-master faults — and a [`Session`] replays any
//! [`Materialized`] stimulus under any spec. The memory → bus → system →
//! energy model → per-cycle hook wiring therefore exists once per bus
//! kind, here; the harness, the observed exports, the serve daemon and
//! the benches all run their scenarios through a session.
//!
//! A session is reset-reusable: its layer-1 energy model (weight cache,
//! characterization clone, trace allocation) is built once and reset
//! between runs, so every outcome is bit-identical to a fresh session's
//! whatever ran before it. Capture never changes results — records,
//! traces and spans are pure observers.
//!
//! ```
//! use hierbus_ec::sequences;
//! use hierbus_power::run::{Capture, Layer, RunSpec, Session};
//! use hierbus_power::CharacterizationDb;
//!
//! let mut session = Session::new(&CharacterizationDb::uniform());
//! let stimulus = sequences::burst_reads().into();
//! let full = session.run(&RunSpec::new(Layer::L1, Capture::Full), &stimulus);
//! let lean = session.run(&RunSpec::new(Layer::L1, Capture::Lean), &stimulus);
//! assert_eq!(full.cycles, lean.cycles);
//! assert_eq!(full.energy_pj.to_bits(), lean.energy_pj.to_bits());
//! assert!(lean.records.is_empty() && !full.records.is_empty());
//! ```

use crate::{CharacterizationDb, Layer1EnergyModel, Layer2EnergyModel};
use hierbus_core::{
    CycleBus, HasSlaves, MasterReport, MemSlave, PhaseEvent, Tlm1Bus, Tlm2Bus, Tlm3Bus, TlmSystem,
};
use hierbus_ec::dma::master_of_trace;
use hierbus_ec::record::TxnRecord;
use hierbus_ec::{
    AccessRights, Address, AddressRange, ArbiterStats, FaultCounters, FaultPlan, MultiScenario,
    RetryPolicy, Scenario, SignalClass, SlaveConfig, SlaveId, TxnOutcome,
};
use hierbus_obs::{attribute_cycles_by_master, EnergyLedger, SlaveMap, TraceCollector};
use hierbus_rtl::{GlitchConfig, RtlBus};

/// Cycle ceiling for every run; hitting it is a deadlock bug.
pub const MAX_CYCLES: u64 = 50_000_000;

/// The slave window every scenario runs against: one memory over
/// `[0, 0x2_0000)` with the scenario's wait states.
pub fn scenario_slave(scenario: &Scenario) -> SlaveConfig {
    SlaveConfig::new(
        AddressRange::new(Address::new(0), 0x2_0000),
        scenario.waits,
        AccessRights::RWX,
    )
}

/// The attribution slave map matching [`scenario_slave`]: the one
/// memory window, named `mem` in ledgers.
pub fn scenario_slave_map() -> SlaveMap {
    let mut map = SlaveMap::new();
    map.add(0, 0x2_0000, "mem");
    map
}

/// The layer-1 bus every layer-1 run uses: one memory over
/// [`scenario_slave`]. Public for code that steps a bus by hand (the
/// bit-loop reference, the Fig. 6 sampling walkthrough).
pub fn tlm1_bus(scenario: &Scenario) -> Tlm1Bus {
    Tlm1Bus::new(vec![Box::new(MemSlave::new(scenario_slave(scenario)))])
}

/// [`tlm1_bus`] for layer 2.
pub fn tlm2_bus(scenario: &Scenario) -> Tlm2Bus {
    Tlm2Bus::new(vec![Box::new(MemSlave::new(scenario_slave(scenario)))])
}

/// A workload ready to run: one master, or a CPU+DMA pair behind an
/// arbiter.
#[derive(Debug, Clone)]
pub enum Materialized {
    Single(Scenario),
    Multi(MultiScenario),
}

impl From<Scenario> for Materialized {
    fn from(scenario: Scenario) -> Self {
        Materialized::Single(scenario)
    }
}

impl From<MultiScenario> for Materialized {
    fn from(scenario: MultiScenario) -> Self {
        Materialized::Multi(scenario)
    }
}

impl Materialized {
    /// The scenario whose wait profile configures the shared memory.
    fn memory(&self) -> &Scenario {
        match self {
            Materialized::Single(s) => s,
            Materialized::Multi(ms) => &ms.cpu,
        }
    }

    /// Trace id → master name for ledgers: untagged for one master,
    /// `cpu`/`dma` for an arbitrated pair.
    fn master_of(&self) -> fn(u64) -> Option<&'static str> {
        match self {
            Materialized::Single(_) => |_| None,
            Materialized::Multi(_) => |id| Some(master_of_trace(id)),
        }
    }
}

/// The abstraction level a run replays on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The cycle-true reference with the gate-level estimator;
    /// `glitches: false` prices the ideal netlist.
    Rtl { glitches: bool },
    /// The cycle-accurate bus with the frame-diff energy model.
    L1,
    /// The timed bus with the per-phase energy model; `correlation`
    /// turns on the correlation-correction ablation.
    L2 { correlation: bool },
    /// The untimed message bus through the cycle bridge (no energy
    /// model).
    L3,
}

/// How much of a run to keep beyond its cycles and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// Nothing (throughput mode); the reference keeps its records
    /// regardless.
    Lean,
    /// The bus span collector only.
    Spans,
    /// Records, spans, the per-cycle trace, the attribution ledger and
    /// the committed memory.
    Full,
}

/// A fault plan and robustness policy attached to one master.
#[derive(Debug, Clone)]
pub struct MasterFaults {
    /// Master index (0 = CPU or the only master, 1 = DMA).
    pub master: usize,
    pub plan: FaultPlan,
    pub policy: RetryPolicy,
}

impl MasterFaults {
    pub fn new(master: usize, plan: FaultPlan, policy: RetryPolicy) -> Self {
        MasterFaults {
            master,
            plan,
            policy,
        }
    }
}

/// The description of one run; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub layer: Layer,
    /// Energy estimation attached.
    pub energy: bool,
    pub capture: Capture,
    /// Per-master faults; a single-master scenario takes master 0 only.
    pub faults: Vec<MasterFaults>,
}

impl RunSpec {
    /// A clean run with energy estimation on.
    pub fn new(layer: Layer, capture: Capture) -> Self {
        RunSpec {
            layer,
            energy: true,
            capture,
            faults: Vec::new(),
        }
    }

    /// The same run without energy estimation.
    pub fn timing_only(mut self) -> Self {
        self.energy = false;
        self
    }

    /// The same run under fault injection.
    pub fn with_faults(mut self, faults: Vec<MasterFaults>) -> Self {
        self.faults = faults;
        self
    }
}

/// The result of one run at any layer; what the spec does not ask for
/// stays empty.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Bus cycles from cycle 0 through the last completion.
    pub cycles: u64,
    /// The cycles the system stepped; the others it skipped
    /// ([`TlmReport::cycles_stepped`](hierbus_core::TlmReport::cycles_stepped)).
    pub cycles_stepped: u64,
    /// Falling edges whose bus process ran.
    pub bus_activations: u64,
    /// Gate-level energy at the reference, the characterized model's
    /// total at layers 1 and 2, in pJ; 0 without estimation.
    pub energy_pj: f64,
    /// Per-attempt records in master order (full capture; always at
    /// the reference).
    pub records: Vec<TxnRecord>,
    /// Final per-stimulus-op outcomes, in master order.
    pub outcomes: Vec<TxnOutcome>,
    /// Fault counters summed over masters.
    pub counters: FaultCounters,
    /// Multi-master runs: one report per master.
    pub masters: Vec<MasterReport>,
    /// Multi-master runs: grant lines `(cycle, master)` (dropped by the
    /// TLM layers unless capture is full).
    pub grants: Vec<(u64, usize)>,
    /// Multi-master runs: arbitration statistics.
    pub stats: ArbiterStats,
    /// Full capture: committed `(word_offset, value)` pairs, sorted.
    pub memory: Vec<(u64, u32)>,
    /// The run ended in a card tear.
    pub torn: bool,
    /// Full capture, reference and layer 1: per-cycle energy in pJ.
    pub trace: Vec<f64>,
    /// Full capture, layer 2: `(cycle, total pJ)` after each booked
    /// phase — the timeline of a layer with no per-cycle trace.
    pub bookings: Vec<(u64, f64)>,
    /// The bus span collector (spans and full capture).
    pub obs: TraceCollector,
    /// Full capture: the master-tagged attribution ledger, partitioning
    /// `energy_pj` — at the reference, `l1_frames_energy_pj`.
    pub ledger: EnergyLedger,
    /// Reference, full capture: the layer-1 characterized model's total
    /// over the settled frames, which layer 1 must reproduce.
    pub l1_frames_energy_pj: Option<f64>,
    /// Reference: gate-level `(class, pJ, transitions)` per signal
    /// class, the characterization input.
    pub class_stats: Vec<(SignalClass, f64, u64)>,
}

impl Outcome {
    /// Outcome lists per master — the layer-invariant multi-master
    /// contract.
    pub fn outcomes(&self) -> Vec<Vec<TxnOutcome>> {
        self.masters.iter().map(|m| m.outcomes.clone()).collect()
    }
}

/// A reset-reusable runner for any [`RunSpec`] on any [`Materialized`]
/// stimulus; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Session {
    /// Layer 1's model, which also prices the reference's frames.
    l1: Layer1EnergyModel,
}

impl Session {
    /// Builds a session over a characterization database (the reference
    /// reads it only to price its frames).
    pub fn new(db: &CharacterizationDb) -> Self {
        Session {
            l1: Layer1EnergyModel::new(db.clone()),
        }
    }

    /// Runs `stimulus` as `spec` describes.
    ///
    /// # Panics
    ///
    /// Panics on a deadlock (no completion within [`MAX_CYCLES`]) and on
    /// faults for a master a single-master scenario lacks.
    pub fn run(&mut self, spec: &RunSpec, stimulus: &Materialized) -> Outcome {
        match spec.layer {
            Layer::Rtl { glitches } => self.run_rtl(glitches, spec, stimulus),
            Layer::L1 => self.run_l1(spec, stimulus),
            Layer::L2 { correlation } => self.run_l2(correlation, spec, stimulus),
            Layer::L3 => {
                let slave = MemSlave::new(scenario_slave(stimulus.memory()));
                let mut sys = tlm_system(Tlm3Bus::new(vec![Box::new(slave)]), spec, stimulus);
                run_tlm(&mut sys, spec, stimulus, |_| {})
            }
        }
    }

    /// The reset layer-1 model, tracing exactly when `trace` is set.
    fn l1_model(&mut self, trace: bool) -> &mut Layer1EnergyModel {
        self.l1.reset();
        if !trace {
            self.l1.disable_trace();
        } else if self.l1.trace().is_none() {
            self.l1.enable_trace();
        }
        &mut self.l1
    }

    fn run_rtl(&mut self, glitches: bool, spec: &RunSpec, stimulus: &Materialized) -> Outcome {
        // One memory over the scenario window, default wire capacitances.
        let mut bus = RtlBus::for_scenario(stimulus.memory());
        if !glitches {
            bus.set_glitch(GlitchConfig::off());
        }
        if !spec.energy {
            bus.disable_estimation();
        }
        if spec.capture != Capture::Lean {
            bus.enable_obs();
        }
        if spec.capture == Capture::Full && spec.energy {
            bus.enable_power_trace();
            bus.enable_frame_log();
        }
        let mut sys = tlm_system(bus, spec, stimulus);
        let mut out = run_tlm(&mut sys, spec, stimulus, |_| {});
        let bus = sys.bus_mut();
        out.energy_pj = bus.estimator().total_energy();
        out.obs = std::mem::take(bus.obs_mut());
        if spec.energy {
            out.class_stats = bus.estimator().class_stats();
        }
        if let Some(frames) = bus.frames() {
            out.trace = bus.estimator().trace().unwrap_or(&[]).to_vec();
            let model = self.l1_model(true);
            for frame in frames {
                model.on_frame(frame);
            }
            out.l1_frames_energy_pj = Some(model.total_energy());
            out.ledger = attribute_cycles_by_master(
                "rtl",
                out.obs.spans(),
                model.trace().unwrap_or(&[]),
                &scenario_slave_map(),
                stimulus.master_of(),
            );
        }
        out
    }

    fn run_l1(&mut self, spec: &RunSpec, stimulus: &Materialized) -> Outcome {
        let full = spec.capture == Capture::Full;
        let mut bus = tlm1_bus(stimulus.memory());
        if spec.capture != Capture::Lean {
            bus.enable_obs();
        }
        if spec.energy {
            bus.enable_frames();
        }
        let mut sys = tlm_system(bus, spec, stimulus);
        let mut out = if spec.energy {
            let model = self.l1_model(full);
            run_tlm(&mut sys, spec, stimulus, |bus: &mut Tlm1Bus| {
                model.on_frame(bus.last_frame())
            })
        } else {
            run_tlm(&mut sys, spec, stimulus, |_| {})
        };
        out.obs = std::mem::take(sys.bus_mut().obs_mut());
        if spec.energy {
            out.energy_pj = self.l1.total_energy();
            if full {
                out.trace = self.l1.trace().unwrap_or(&[]).to_vec();
                out.ledger = attribute_cycles_by_master(
                    "tlm1",
                    out.obs.spans(),
                    &out.trace,
                    &scenario_slave_map(),
                    stimulus.master_of(),
                );
            }
        }
        out
    }

    fn run_l2(&mut self, correlation: bool, spec: &RunSpec, stimulus: &Materialized) -> Outcome {
        let full = spec.capture == Capture::Full;
        let mut bus = tlm2_bus(stimulus.memory());
        if spec.capture != Capture::Lean {
            bus.enable_obs();
        }
        if spec.energy {
            bus.enable_events();
        }
        let mut sys = tlm_system(bus, spec, stimulus);
        let mut model = Layer2EnergyModel::new(self.l1.db().clone());
        if correlation {
            model.enable_correlation_correction();
        }
        let (map, master_of) = (scenario_slave_map(), stimulus.master_of());
        let mut ledger = EnergyLedger::new("tlm2");
        let mut bookings = Vec::new();
        let mut book = |ev: &PhaseEvent| {
            if full {
                model.on_event_ledger(ev, &mut ledger, &map, master_of);
                bookings.push((ev.at_cycle, model.total_energy()));
            } else {
                model.on_event(ev);
            }
        };
        let mut out = if spec.energy {
            run_tlm(&mut sys, spec, stimulus, |bus: &mut Tlm2Bus| {
                bus.drain_events().for_each(|ev| book(&ev))
            })
        } else {
            run_tlm(&mut sys, spec, stimulus, |_| {})
        };
        if let Some(at) = sys.torn_at().filter(|_| spec.energy) {
            // Phases the tear cut short are flushed as partial events
            // and charged pro-rata, at the cycle the system tore.
            sys.bus_mut().flush_partial_phases(at);
            sys.bus_mut().drain_events().for_each(|ev| book(&ev));
        }
        out.obs = std::mem::take(sys.bus_mut().obs_mut());
        if spec.energy {
            out.energy_pj = model.total_energy();
            if full {
                ledger.set_cycles(out.cycles);
                out.ledger = ledger;
                out.bookings = bookings;
            }
        }
        out
    }
}

/// The system `spec` describes over `bus`, at any layer: one master, or
/// the arbitrated CPU+DMA pair, with the spec's faults attached.
fn tlm_system<B: CycleBus>(bus: B, spec: &RunSpec, stimulus: &Materialized) -> TlmSystem<B> {
    let mut sys = match stimulus {
        Materialized::Single(s) => TlmSystem::new(bus, s.ops.clone()),
        Materialized::Multi(ms) => TlmSystem::for_multi(bus, ms),
    };
    for f in &spec.faults {
        sys.set_master_faults(f.master, f.plan.clone(), f.policy);
    }
    // The reference keeps its records under every capture: the
    // characterization counts phases from them.
    if spec.capture != Capture::Full && !matches!(spec.layer, Layer::Rtl { .. }) {
        sys.disable_records();
    }
    sys
}

/// The committed memory of the scenario slave, at any layer.
fn tlm_memory<B: HasSlaves>(bus: &B) -> Vec<(u64, u32)> {
    let mem = bus.slave_as::<MemSlave>(SlaveId(0));
    mem.expect("scenario slave is a MemSlave").snapshot()
}

/// Runs `sys` to completion (or the tear), calling `hook` after every
/// bus-process activation. The per-master slices and the arbitration
/// record are kept for the CPU+DMA pair only; under full capture the
/// outcome carries the committed memory.
fn run_tlm<B: CycleBus + HasSlaves>(
    sys: &mut TlmSystem<B>,
    spec: &RunSpec,
    stimulus: &Materialized,
    hook: impl FnMut(&mut B),
) -> Outcome {
    let report = sys.run(MAX_CYCLES, hook);
    let mut out = Outcome {
        cycles: report.cycles,
        cycles_stepped: report.cycles_stepped,
        bus_activations: report.bus_activations,
        records: report.records,
        outcomes: report.outcomes,
        counters: report.fault,
        torn: sys.torn(),
        ..Outcome::default()
    };
    if let Materialized::Multi(_) = stimulus {
        out.masters = report.masters;
        out.grants = report.grants;
        out.stats = report.stats;
    }
    if spec.capture == Capture::Full {
        out.memory = tlm_memory(sys.bus());
    }
    out
}
