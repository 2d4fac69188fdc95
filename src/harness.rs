//! End-to-end experiment harness: characterize once at the gate level,
//! then run any scenario through the reference and the TLM layers with
//! energy estimation attached — the workflow behind every table and
//! figure of the paper.
//!
//! Every run goes through a [`Session`]; the runners here are the
//! one-expression entry points the tables and the benchmark call, with
//! full capture. Build a [`RunSpec`] for anything else (lean throughput
//! runs, timing only, faults, CPU+DMA workloads).

use hierbus_ec::record::TxnRecord;
use hierbus_ec::sequences::{self, MixParams, Scenario};
use hierbus_ec::{AccessKind, SignalClass};
use hierbus_power::{Capture, CharacterizationDb, Layer, Outcome, PhaseCounts, RunSpec, Session};

/// One full-capture run of `scenario` at `layer` on a fresh session.
fn full_run(db: &CharacterizationDb, layer: Layer, scenario: &Scenario) -> Outcome {
    Session::new(db).run(
        &RunSpec::new(layer, Capture::Full),
        &scenario.clone().into(),
    )
}

/// Runs a scenario on the cycle-true reference with the gate-level
/// estimator (glitches on unless `ideal_netlist`). Gate-level energy
/// needs no characterization; the uniform one prices only the layer-1
/// view of the reference's frames.
pub fn run_reference(scenario: &Scenario, ideal_netlist: bool) -> Outcome {
    let layer = Layer::Rtl {
        glitches: !ideal_netlist,
    };
    full_run(&CharacterizationDb::uniform(), layer, scenario)
}

/// Runs a scenario on the layer-1 bus with the layer-1 energy model.
pub fn run_layer1(scenario: &Scenario, db: &CharacterizationDb) -> Outcome {
    full_run(db, Layer::L1, scenario)
}

/// Runs a scenario on the layer-2 bus with the layer-2 energy model.
pub fn run_layer2(scenario: &Scenario, db: &CharacterizationDb, correlation: bool) -> Outcome {
    full_run(db, Layer::L2 { correlation }, scenario)
}

/// Test and bench support, not product API: layer 1 through the
/// pre-optimization hot path — a fresh model per call, the bit-loop
/// diff and per-toggle database lookups. It is the differential oracle
/// the session's layer-1 runs are pinned against, and the baseline arm
/// of the hot-path speedup gate.
pub mod reference {
    use hierbus_core::{Tlm1Bus, TlmSystem};
    use hierbus_ec::sequences::Scenario;
    use hierbus_power::run::{self, Capture, Outcome};
    use hierbus_power::{CharacterizationDb, Layer1EnergyModel};

    /// Layer 1 with energy through
    /// [`Layer1EnergyModel::on_frame_reference`], keeping records and the
    /// per-cycle trace under full capture (and no spans). Its outcome
    /// equals a session's `Layer::L1` run of the same capture.
    pub fn run_layer1(scenario: &Scenario, db: &CharacterizationDb, capture: Capture) -> Outcome {
        let full = capture == Capture::Full;
        let mut bus = run::tlm1_bus(scenario);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        if !full {
            sys.disable_records();
        }
        let mut model = Layer1EnergyModel::new(db.clone());
        if full {
            model.enable_trace();
        }
        let report = sys.run(run::MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame_reference(bus.last_frame());
        });
        Outcome {
            cycles: report.cycles,
            energy_pj: model.total_energy(),
            records: report.records,
            outcomes: report.outcomes,
            counters: report.fault,
            trace: model.trace().unwrap_or(&[]).to_vec(),
            ..Outcome::default()
        }
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
    // Lean: the reference keeps its records, nothing else.
    let mut session = Session::new(&CharacterizationDb::uniform());
    let spec = RunSpec::new(Layer::Rtl { glitches: true }, Capture::Lean);
    for scenario in training {
        let run = session.run(&spec, &scenario.clone().into());
        for (class, e, t) in run.class_stats {
            energy[class.index()] += e;
            transitions[class.index()] += t;
        }
        let c = phase_counts(&run.records);
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
fn standard_training() -> Vec<Scenario> {
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

/// Characterization over the standard training set (the spec's
/// training scenarios plus a low-locality random mix) — the database
/// the experiments use.
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
