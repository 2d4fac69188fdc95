//! `table3_mix`: the paper's Table 3 stimulus replayed through the five
//! layer configurations, calling the bus models (`core`) and the energy
//! models (`power`) directly — no pool, no JSON, no cache, and the
//! scalar `on_frame` path rather than any batched engine.

use crate::report::Outcome;
use crate::run::{
    alternating, end_to_end, ms_since, repeated_setup, timed_loop, RunConfig, TracedLoop,
};
use crate::trace::Tracer;
use hierbus::core::{MemSlave, Tlm1Bus, Tlm2Bus, Tlm3Bus, TlmSystem};
use hierbus::ec::sequences::{random_mix, MixParams, Scenario};
use hierbus::ec::{AccessRights, Address, AddressRange, SlaveConfig};
use hierbus::harness;
use hierbus::power::{CharacterizationDb, Layer1EnergyModel, Layer2EnergyModel};
use std::sync::Arc;
use std::time::Instant;

/// Transactions in the Table 3 stimulus.
pub const TXNS: usize = 600_000;
/// Held-out prefix the accuracy pass replays on the RTL reference.
pub const ACCURACY_TXNS: usize = 20_000;
/// Cycle ceiling of one replay; reaching it is a deadlock.
pub const MAX_CYCLES: u64 = 100_000_000;

/// The Table 3 mix: 50 % reads, 40 % bursts, 30 % of reads fetches,
/// back to back.
pub fn params(count: usize) -> MixParams {
    MixParams {
        count,
        read_pct: 50,
        burst_pct: 40,
        fetch_pct: 30,
        max_idle: 0,
        ..MixParams::default()
    }
}

/// The memory window every replay runs against.
pub fn slave(s: &Scenario) -> SlaveConfig {
    SlaveConfig::new(
        AddressRange::new(Address::new(0), 0x2_0000),
        s.waits,
        AccessRights::RWX,
    )
}

/// The first `n` operations of a scenario.
pub fn prefix(s: &Scenario, n: usize) -> Scenario {
    Scenario {
        name: s.name,
        ops: s.ops[..n.min(s.ops.len())].into(),
        waits: s.waits,
    }
}

/// One Table 3 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    L1Est,
    L1,
    L2Est,
    L2,
    L3,
}

impl Arm {
    /// Interleaving order within a round.
    pub const ALL: [Arm; 5] = [Arm::L1Est, Arm::L1, Arm::L2Est, Arm::L2, Arm::L3];

    pub fn span(self) -> &'static str {
        match self {
            Arm::L1Est => "table3.l1_est",
            Arm::L1 => "table3.l1",
            Arm::L2Est => "table3.l2_est",
            Arm::L2 => "table3.l2",
            Arm::L3 => "table3.l3",
        }
    }

    fn run_span(self) -> &'static str {
        match self {
            Arm::L1Est | Arm::L1 => "core.tlm1.run",
            Arm::L2Est | Arm::L2 => "core.tlm2.run",
            Arm::L3 => "core.tlm3.run",
        }
    }
}

/// What an arm's replay must reproduce exactly on every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub cycles: u64,
    pub energy_bits: u64,
    pub completed: u64,
}

/// Where a replay records its spans, if it is traced.
pub type SpanCtx<'a> = Option<(&'a Tracer, usize, u64)>;

/// Times `f` as a child span of the context's parent, if traced.
fn timed<R>(ctx: SpanCtx, name: &'static str, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some((t, parent, req)) => t.time(name, 0, Some(parent), req, f),
        None => f(),
    }
}

/// Replays the scenario through one arm.
pub fn run_arm(arm: Arm, s: &Scenario, db: &CharacterizationDb, ctx: SpanCtx) -> Digest {
    let mem = || Box::new(MemSlave::new(slave(s)));
    let name = arm.run_span();
    match arm {
        Arm::L1Est | Arm::L1 => {
            let mut bus = Tlm1Bus::new(vec![mem()]);
            let mut model = (arm == Arm::L1Est).then(|| {
                bus.enable_frames();
                Layer1EnergyModel::new(db.clone())
            });
            let mut sys = TlmSystem::new(bus, s.ops.clone());
            sys.disable_records();
            let r = timed(ctx, name, || match &mut model {
                Some(m) => sys.run(MAX_CYCLES, |b: &mut Tlm1Bus| m.on_frame(b.last_frame())),
                None => sys.run(MAX_CYCLES, |_| {}),
            });
            Digest {
                cycles: r.cycles,
                energy_bits: model.map_or(0, |m| m.total_energy().to_bits()),
                completed: sys.completed(),
            }
        }
        Arm::L2Est | Arm::L2 => {
            let mut bus = Tlm2Bus::new(vec![mem()]);
            let mut model = (arm == Arm::L2Est).then(|| {
                bus.enable_events();
                Layer2EnergyModel::new(db.clone())
            });
            let mut sys = TlmSystem::new(bus, s.ops.clone());
            sys.disable_records();
            let r = timed(ctx, name, || match &mut model {
                Some(m) => sys.run(MAX_CYCLES, |b: &mut Tlm2Bus| {
                    for ev in b.drain_events() {
                        m.on_event(&ev);
                    }
                }),
                None => sys.run(MAX_CYCLES, |_| {}),
            });
            Digest {
                cycles: r.cycles,
                energy_bits: model.map_or(0, |m| m.total_energy().to_bits()),
                completed: sys.completed(),
            }
        }
        Arm::L3 => {
            let mut sys = TlmSystem::new(Tlm3Bus::new(vec![mem()]), s.ops.clone());
            sys.disable_records();
            let r = timed(ctx, name, || sys.run(MAX_CYCLES, |_| {}));
            Digest {
                cycles: r.cycles,
                energy_bits: 0,
                completed: sys.completed(),
            }
        }
    }
}

/// Model accuracy on a held-out stimulus, against the RTL reference.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub l1_energy_err_pct: f64,
    pub l2_energy_err_pct: f64,
    pub l2_cycle_err_pct: f64,
    /// Layer 1 must be cycle-exact.
    pub l1_cycles_match: bool,
}

/// Runs `s` on the RTL reference and both TLM layers.
pub fn accuracy(s: &Scenario, db: &CharacterizationDb) -> Accuracy {
    let r = harness::run_reference(s, false);
    let l1 = harness::run_layer1(s, db);
    let l2 = harness::run_layer2(s, db, false);
    let pct = |model: f64, reference: f64| 100.0 * (model - reference).abs() / reference;
    Accuracy {
        l1_energy_err_pct: pct(l1.energy_pj, r.energy_pj),
        l2_energy_err_pct: pct(l2.energy_pj, r.energy_pj),
        l2_cycle_err_pct: pct(l2.cycles as f64, r.cycles as f64),
        l1_cycles_match: l1.cycles == r.cycles,
    }
}

struct State {
    db: Arc<CharacterizationDb>,
    stimulus: Scenario,
    /// Each arm's digest from the warm-up round.
    expected: Vec<Digest>,
}

fn setup(cfg: &RunConfig) -> State {
    let db = harness::shared_db();
    let count = if cfg.smoke { TXNS / 20 } else { TXNS };
    let stimulus = random_mix(cfg.seed, params(count));
    let expected = Arm::ALL
        .iter()
        .map(|&arm| run_arm(arm, &stimulus, &db, None))
        .collect();
    State {
        db,
        stimulus,
        expected,
    }
}

/// One arm pass of the loop: op `i` runs arm `i mod 5`, so arms
/// interleave round by round and share any drift of the host.
fn arm_pass(st: &State, i: u64, tracer: Option<&Tracer>) -> Result<f64, String> {
    let arm = Arm::ALL[i as usize % Arm::ALL.len()];
    let start = Instant::now();
    let digest = match tracer {
        Some(t) => {
            let root = t.open(arm.span(), 0, None, i);
            let d = run_arm(arm, &st.stimulus, &st.db, Some((t, root, i)));
            t.finish(root);
            d
        }
        None => run_arm(arm, &st.stimulus, &st.db, None),
    };
    let ms = ms_since(start);
    let want = st.expected[i as usize % Arm::ALL.len()];
    if digest != want || digest.completed != st.stimulus.ops.len() as u64 {
        return Err(format!(
            "{:?} replay gave {digest:?}, expected {want:?}",
            arm
        ));
    }
    Ok(ms)
}

/// The untraced run: end-to-end metrics plus the output oracle.
pub fn run(cfg: &RunConfig, out: &mut Outcome) {
    let (st, setup_s) = repeated_setup(|| setup(cfg));
    let timed = timed_loop(cfg.seconds, Arm::ALL.len() as u64, |i| {
        arm_pass(&st, i, None)
    });
    end_to_end(&timed, &setup_s, out);
    let acc = accuracy(&prefix(&st.stimulus, ACCURACY_TXNS), &st.db);
    out.correct = timed.failed == 0 && acc.l1_cycles_match;
    if !acc.l1_cycles_match {
        eprintln!("layer 1 is not cycle-exact against the RTL reference");
    }
}

/// The traced run's own loop.
pub fn traced(cfg: &RunConfig) -> TracedLoop {
    let st = setup(cfg);
    let tracer = Tracer::new();
    let (plain, traced) = alternating(cfg.seconds, Arm::ALL.len() as u64, |i, on| {
        arm_pass(&st, i, on.then_some(&tracer))
    });
    TracedLoop {
        plain,
        traced,
        spans: tracer.into_spans(),
    }
}
