//! Micro-benchmarks behind Table 3: bus-model throughput in
//! transactions per second, with and without energy estimation, plus the
//! RTL reference for the §4.2 acceleration context — and the
//! campaign-engine scaling of a bus-level scenario sweep (1/2/4/N
//! workers), appended to `BENCH_throughput.json`.
//!
//! Plain `std::time` timers (best-of-N) instead of criterion so the
//! workspace builds with no registry access. Run with
//! `cargo bench -p hierbus-bench --bench bus_throughput`.

use hierbus::harness;
use hierbus_bench::{grouped, throughput, time_best, TextTable, THROUGHPUT_JSON};
use hierbus_campaign::{CampaignPayload, ClaimStrategy, Json, Matrix};
use hierbus_ec::sequences::{random_mix, MixParams};
use hierbus_ec::SignalFrame;
use hierbus_power::{
    Capture, CharacterizationDb, Layer, Layer1EnergyModel, Materialized, RunSpec, Session,
};

const TXNS: usize = 4_000;
const REPS: usize = 5;

fn mix(count: usize) -> hierbus_ec::Scenario {
    random_mix(
        0xBE9C,
        MixParams {
            count,
            read_pct: 50,
            burst_pct: 40,
            fetch_pct: 30,
            max_idle: 0,
            ..MixParams::default()
        },
    )
}

/// One cell of the bus-level campaign: a seeded random mix through the
/// estimating layer-1 model.
struct MixCell {
    cycles: u64,
    energy_pj: f64,
}

impl CampaignPayload for MixCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".to_owned(), Json::Num(self.cycles as f64)),
            ("energy_pj".to_owned(), Json::Num(self.energy_pj)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(MixCell {
            cycles: json.get("cycles")?.as_u64()?,
            energy_pj: json.get("energy_pj")?.as_f64()?,
        })
    }
}

fn main() {
    let scenario = mix(TXNS);
    let db = harness::standard_db();
    let mut table = TextTable::new(["benchmark", "best time", "txns/s"]);
    let mut bench = |name: &str, txns: u64, f: &mut dyn FnMut() -> usize| {
        let dt = time_best(REPS, &mut *f);
        table.row([
            name.to_owned(),
            format!("{dt:.2?}"),
            grouped(throughput(txns, dt) as u64),
        ]);
    };

    bench("tlm1/with_estimation", TXNS as u64, &mut || {
        harness::run_layer1(&scenario, &db).records.len()
    });
    let stimulus: Materialized = scenario.clone().into();
    let mut session = Session::new(&db);
    let mut timing_only = |layer| {
        let spec = RunSpec::new(layer, Capture::Full).timing_only();
        session.run(&spec, &stimulus).records.len()
    };
    bench("tlm1/without_estimation", TXNS as u64, &mut || {
        timing_only(Layer::L1)
    });
    bench("tlm2/with_estimation", TXNS as u64, &mut || {
        harness::run_layer2(&scenario, &db, false).records.len()
    });
    bench("tlm2/without_estimation", TXNS as u64, &mut || {
        timing_only(Layer::L2 { correlation: false })
    });

    let rtl_scenario = mix(1_000);
    bench("rtl/glitches_on", 1_000, &mut || {
        harness::run_reference(&rtl_scenario, false).records.len()
    });
    bench("rtl/ideal_netlist", 1_000, &mut || {
        harness::run_reference(&rtl_scenario, true).records.len()
    });

    let frames: u64 = 10_000;
    bench("energy_model/layer1_frame_diff", frames, &mut || {
        let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
        let mut frame = SignalFrame::default();
        for i in 0..frames {
            frame.a_addr = i.wrapping_mul(0x9E37_79B9);
            frame.r_data = (i as u32).rotate_left(7);
            model.on_frame(&frame);
        }
        model.total_energy() as usize
    });
    // The same frame stream through the pre-optimization bit-loop
    // reference: the scalar-vs-bit-loop pair on the pure model path (no
    // bus), without simulation cost diluting the ratio.
    bench("energy_model/layer1_bitloop_reference", frames, &mut || {
        let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
        let mut frame = SignalFrame::default();
        for i in 0..frames {
            frame.a_addr = i.wrapping_mul(0x9E37_79B9);
            frame.r_data = (i as u32).rotate_left(7);
            model.on_frame_reference(&frame);
        }
        model.total_energy() as usize
    });

    println!("bus_throughput micro-benchmarks (best of {REPS}):\n");
    println!("{}", table.render());

    // Campaign scaling at the bus level: 16 independently seeded mixes
    // through the estimating layer-1 model, fanned out on the campaign
    // worker pool. Unlike the single-simulation rows above, this is the
    // batch shape a characterization or regression sweep has.
    let seeds: Vec<u64> = (0..16).map(|i| 0xBE9C + 0x101 * i).collect();
    let matrix = Matrix::new().axis("seed", seeds.iter().map(|s| format!("{s:#06x}")));
    let scenarios: Vec<_> = seeds
        .iter()
        .map(|&s| {
            random_mix(
                s,
                MixParams {
                    count: 1_000,
                    read_pct: 50,
                    burst_pct: 40,
                    fetch_pct: 30,
                    max_idle: 0,
                    ..MixParams::default()
                },
            )
        })
        .collect();
    let mut worker_counts = vec![1, 2, 4];
    if let Ok(n) = std::thread::available_parallelism() {
        worker_counts.push(n.get());
    }
    worker_counts.sort_unstable();
    worker_counts.dedup();
    // Old engine arm: per-scenario atomic claiming, a fresh model per
    // scenario and the bit-loop reference diff — the code path the
    // committed baseline was measured on.
    let old_scaling = hierbus_campaign::measure_scaling_with::<(), MixCell, _, _>(
        &matrix,
        "bus_throughput_campaign_old",
        &worker_counts,
        ClaimStrategy::PerScenario,
        || (),
        |(), point| {
            let run =
                harness::reference::run_layer1(&scenarios[point.coords[0]], &db, Capture::Full);
            MixCell {
                cycles: run.cycles,
                energy_pj: run.energy_pj,
            }
        },
    );
    // New engine arm: chunked claiming and one reset-reused session per
    // worker over the word-packed diff, capture lean — no
    // per-transaction records and no per-cycle trace, because the
    // payload keeps neither. Cycles and energy stay bit-identical to the
    // old arm's (`proptest_invariants::lean_session_matches_full_runner_bit_exact`).
    let lean = RunSpec::new(Layer::L1, Capture::Lean);
    let scaling = hierbus_campaign::measure_scaling_with::<Session, MixCell, _, _>(
        &matrix,
        "bus_throughput_campaign",
        &worker_counts,
        ClaimStrategy::Chunked,
        || Session::new(&db),
        |session, point| {
            let run = session.run(&lean, &scenarios[point.coords[0]].clone().into());
            MixCell {
                cycles: run.cycles,
                energy_pj: run.energy_pj,
            }
        },
    );
    let base = scaling[0].scenarios_per_sec;
    let mut scale_table = TextTable::new([
        "workers",
        "wall",
        "scenarios/s",
        "old scen/s",
        "speedup (new/old)",
        "scaling (vs 1w)",
        "busy",
    ]);
    for (p, old) in scaling.iter().zip(&old_scaling) {
        scale_table.row([
            p.workers.to_string(),
            format!("{:.2?}", p.wall),
            format!("{:.1}", p.scenarios_per_sec),
            format!("{:.1}", old.scenarios_per_sec),
            format!("{:.2}x", p.scenarios_per_sec / old.scenarios_per_sec),
            format!("{:.2}x", p.scenarios_per_sec / base),
            format!("{:.0}%", p.busy_frac * 100.0),
        ]);
    }
    println!(
        "campaign scaling ({} bus scenarios per run):\n",
        seeds.len()
    );
    println!("{}", scale_table.render());

    let fields = vec![
        ("scenarios".to_owned(), Json::Num(seeds.len() as f64)),
        (
            "workers".to_owned(),
            Json::Arr(
                scaling
                    .iter()
                    .zip(&old_scaling)
                    .map(|(p, old)| {
                        Json::Obj(vec![
                            ("workers".to_owned(), Json::Num(p.workers as f64)),
                            ("scenarios_per_s".to_owned(), Json::Num(p.scenarios_per_sec)),
                            (
                                "old_scenarios_per_s".to_owned(),
                                Json::Num(old.scenarios_per_sec),
                            ),
                            (
                                "speedup".to_owned(),
                                Json::Num(p.scenarios_per_sec / old.scenarios_per_sec),
                            ),
                            ("scaling".to_owned(), Json::Num(p.scenarios_per_sec / base)),
                            ("busy_frac".to_owned(), Json::Num(p.busy_frac)),
                            ("utilization".to_owned(), Json::Num(p.utilization)),
                            ("idle_workers".to_owned(), Json::Num(p.idle_workers as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    match hierbus_bench::write_throughput_section(
        hierbus_bench::throughput_json_path(),
        "campaign_bus",
        fields,
    ) {
        Ok(()) => println!("campaign scaling appended to {THROUGHPUT_JSON}"),
        Err(e) => eprintln!("warning: could not write {THROUGHPUT_JSON}: {e}"),
    }
}
