//! Per-layer probes of the traced run. Each times one layer's public
//! functions on the input this workload feeds that layer, with short
//! repeated calls and medians; calls that run once per bus cycle are
//! timed over a captured stream, never per call, because a timer costs
//! as much as the call.

use crate::explore;
use crate::report::Outcome;
use crate::stats::median;
use crate::table3::{self, Arm, MAX_CYCLES};
use hierbus::campaign::{self, CampaignOptions, CampaignPayload, Json, Matrix};
use hierbus::core::{MemSlave, PhaseEvent, Tlm1Bus, Tlm2Bus, TlmSystem};
use hierbus::ec::sequences::Scenario;
use hierbus::ec::SignalFrame;
use hierbus::jcvm::ExploreSession;
use hierbus::power::{CharacterizationDb, Layer1EnergyModel, Layer2EnergyModel};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each bus-probe timing (medians are reported).
const BUS_REPS: usize = 5;
/// Repetitions of each microsecond-scale call.
const CALL_REPS: usize = 200;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Layer 1 with frames on but no model attached, or with the span
/// collector on and the model attached: the two configurations that
/// isolate frame building and span recording.
fn l1_variant(s: &Scenario, db: &CharacterizationDb, obs: bool) -> u64 {
    let mut bus = Tlm1Bus::new(vec![Box::new(MemSlave::new(table3::slave(s)))]);
    bus.enable_frames();
    if obs {
        bus.enable_obs();
    }
    let mut sys = TlmSystem::new(bus, s.ops.clone());
    sys.disable_records();
    if obs {
        let mut m = Layer1EnergyModel::new(db.clone());
        sys.run(MAX_CYCLES, |b: &mut Tlm1Bus| m.on_frame(b.last_frame()));
        black_box(m.total_energy());
    } else {
        sys.run(MAX_CYCLES, |b: &mut Tlm1Bus| {
            black_box(b.last_frame());
        });
    }
    sys.completed()
}

/// The layer-1 frame stream and the layer-2 event stream of `s`.
fn capture(s: &Scenario) -> (Vec<SignalFrame>, Vec<PhaseEvent>) {
    let mut bus = Tlm1Bus::new(vec![Box::new(MemSlave::new(table3::slave(s)))]);
    bus.enable_frames();
    let mut sys = TlmSystem::new(bus, s.ops.clone());
    sys.disable_records();
    let mut frames = Vec::new();
    sys.run(MAX_CYCLES, |b: &mut Tlm1Bus| frames.push(*b.last_frame()));
    let mut bus = Tlm2Bus::new(vec![Box::new(MemSlave::new(table3::slave(s)))]);
    bus.enable_events();
    let mut sys = TlmSystem::new(bus, s.ops.clone());
    sys.disable_records();
    let mut events = Vec::new();
    sys.run(MAX_CYCLES, |b: &mut Tlm2Bus| {
        events.extend(b.drain_events())
    });
    (frames, events)
}

/// The bus and energy-model probes over stimulus `s`, and the stimulus
/// generator's cost: `generate` builds a comparable stimulus and
/// returns its transaction count. Returns whether every replay
/// reproduced its arm's cycles and energy exactly, and the L1+est
/// arm's split into bus, frames, model and residual (ms).
pub fn bus(
    s: &Scenario,
    db: &CharacterizationDb,
    generate: impl Fn() -> usize,
    out: &mut Outcome,
) -> (bool, Vec<(&'static str, f64)>) {
    let txns = s.ops.len() as f64;
    let digests: Vec<table3::Digest> = Arm::ALL
        .iter()
        .map(|&a| table3::run_arm(a, s, db, None))
        .collect();
    let (frames, events) = capture(s);
    let mut t: [Vec<f64>; 10] = Default::default();
    let mut exact = true;
    let mut gen_txns = 0;
    for _ in 0..BUS_REPS {
        for (i, &arm) in Arm::ALL.iter().enumerate() {
            t[i].push(secs(|| {
                exact &= table3::run_arm(arm, s, db, None) == digests[i];
            }));
        }
        t[5].push(secs(|| {
            black_box(l1_variant(s, db, false));
        }));
        t[6].push(secs(|| {
            black_box(l1_variant(s, db, true));
        }));
        t[7].push(secs(|| {
            let mut m = Layer1EnergyModel::new(db.clone());
            for f in &frames {
                m.on_frame(f);
            }
            exact &= m.total_energy().to_bits() == digests[0].energy_bits;
        }));
        t[8].push(secs(|| {
            let mut m = Layer2EnergyModel::new(db.clone());
            for ev in &events {
                m.on_event(ev);
            }
            exact &= m.total_energy().to_bits() == digests[2].energy_bits;
        }));
        t[9].push(secs(|| gen_txns = black_box(generate())));
    }
    let [l1e, l1, l2e, l2, l3, l1f, l1o, m1, m2, gen] = t.map(|v| median(&v));
    let (c1, c2) = (digests[1].cycles as f64, digests[3].cycles as f64);
    let ktps = |secs: f64| txns / secs / 1e3;
    out.set("table3.l1_ktps", ktps(l1e));
    out.set("table3.l1_noest_ktps", ktps(l1));
    out.set("table3.l2_ktps", ktps(l2e));
    out.set("table3.l2_noest_ktps", ktps(l2));
    out.set("table3.l3_ktps", ktps(l3));
    out.set("table3.residual_frac", (l1e - l1f - m1) / l1e);
    out.set("ec.mix_gen_ns_per_txn", gen * 1e9 / gen_txns as f64);
    out.set("core.tlm1.ns_per_cycle", l1 * 1e9 / c1);
    out.set("core.tlm1.frame_ns_per_cycle", (l1f - l1) * 1e9 / c1);
    out.set("core.tlm2.ns_per_cycle", l2 * 1e9 / c2);
    out.set("core.tlm3.ns_per_txn", l3 * 1e9 / txns);
    out.set("core.tlm1.cycles_per_txn", c1 / txns);
    out.set("core.tlm2.events_per_txn", events.len() as f64 / txns);
    out.set("power.l1.ns_per_frame", m1 * 1e9 / frames.len() as f64);
    out.set("power.l2.ns_per_event", m2 * 1e9 / events.len() as f64);
    out.set("power.l1.share", m1 / l1e);
    out.set("power.l2.share", m2 / l2e);
    out.set("obs.tlm1.span_ns_per_txn", (l1o - l1e) * 1e9 / txns);
    let ms = |v: f64| v * 1e3;
    let split = vec![
        ("arm", ms(l1e)),
        ("bus", ms(l1)),
        ("frames", ms(l1f - l1)),
        ("model", ms(m1)),
        ("residual", ms(l1e - l1f - m1)),
    ];
    (exact, split)
}

/// Model accuracy on the held-out prefix of `s`; false when layer 1 is
/// not cycle-exact against the RTL reference.
pub fn accuracy(s: &Scenario, db: &CharacterizationDb, out: &mut Outcome) -> bool {
    let acc = table3::accuracy(&table3::prefix(s, table3::ACCURACY_TXNS), db);
    out.set("power.l1.energy_err_pct", acc.l1_energy_err_pct);
    out.set("power.l2.energy_err_pct", acc.l2_energy_err_pct);
    out.set("core.tlm2.cycle_err_pct", acc.l2_cycle_err_pct);
    acc.l1_cycles_match
}

/// A payload that carries nothing: the campaign engine's fixed cost.
struct Nothing;

impl CampaignPayload for Nothing {
    fn to_json(&self) -> Json {
        Json::Null
    }

    fn from_json(_: &Json) -> Option<Self> {
        Some(Nothing)
    }
}

/// The JCVM and campaign probes: one reused `ExploreSession` over the
/// matrix on one thread, session construction, and a two-point
/// campaign of no-op scenarios at the workload's worker count.
pub fn jcvm_and_campaign(st: &explore::State, out: &mut Outcome) {
    let mut session = ExploreSession::new(&st.db);
    let (mut us, mut txns, mut cycles) = (Vec::new(), 0u64, 0u64);
    for _ in 0..2 {
        for c in &st.configs {
            for w in &st.workloads {
                let t = Instant::now();
                let row = session.run(*c, w).expect("exploration scenario runs");
                us.push(t.elapsed().as_secs_f64() * 1e6);
                txns += row.transactions;
                cycles += row.cycles;
            }
        }
    }
    let n = us.len() as f64;
    out.set("jcvm.scenario_us", median(&us));
    out.set("jcvm.txns_per_scenario", txns as f64 / n);
    out.set("jcvm.cycles_per_scenario", cycles as f64 / n);

    let new_us: Vec<f64> = (0..CALL_REPS)
        .map(|_| secs(|| drop(black_box(ExploreSession::new(&st.db)))) * 1e6)
        .collect();
    out.set("campaign.session_new_us", median(&new_us));

    let matrix = Matrix::new().axis("point", ["a", "b"]);
    let opts = CampaignOptions::with_workers("fixed", explore::WORKERS);
    let fixed_us: Vec<f64> = (0..CALL_REPS)
        .map(|_| {
            secs(|| {
                campaign::run_with(&matrix, &opts, || (), |(), _| Nothing)
                    .expect("manifest-less campaign does no I/O");
            }) * 1e6
        })
        .collect();
    out.set("campaign.fixed_us", median(&fixed_us));
}
