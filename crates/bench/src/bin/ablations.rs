//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. layer-1 energy with characterized vs uniform per-class energies,
//! 2. layer-2 with vs without the inter-transaction correlation
//!    correction,
//! 3. glitch modeling on vs off in the gate-level reference,
//! 4. outstanding-transaction depth vs throughput.
//!
//! 5. instruction cache vs bus traffic,
//! 6. robustness under injected faults: what retries, stalls and card
//!    tears cost in cycles and energy, at every model layer.
//!
//! Ablations 1–3 need one energy number per `scenario × model` cell, so
//! the cells run as a campaign on the `hierbus-campaign` engine (every
//! cell is an independent simulation; `CAMPAIGN_WORKERS=N` parallelises
//! them) and the aggregate statistics are folded from the merged cells
//! in matrix order — the printed numbers are identical for any worker
//! count. Ablation 6 runs as a second campaign over the
//! `fault-preset × layer` matrix. Run with
//! `cargo run --release -p hierbus-bench --bin ablations`.

use hierbus::harness;
use hierbus_bench::{pct, TextTable};
use hierbus_campaign::{CampaignOptions, CampaignPayload, Json, Matrix};
use hierbus_core::{Tlm1Bus, TlmSystem};
use hierbus_ec::sequences::{random_mix, MixParams};
use hierbus_ec::OutstandingLimits;
use hierbus_power::run::{tlm1_bus, MAX_CYCLES};
use hierbus_power::CharacterizationDb;

/// The model axis of the ablation campaign.
const MODELS: [&str; 6] = [
    "gate",
    "ideal_netlist",
    "layer1",
    "layer1_uniform",
    "layer2_plain",
    "layer2_corrected",
];

/// One campaign cell: the energy one model estimates for one scenario.
struct EnergyCell {
    energy_pj: f64,
}

impl CampaignPayload for EnergyCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("energy_pj".to_owned(), Json::Num(self.energy_pj))])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(EnergyCell {
            energy_pj: json.get("energy_pj")?.as_f64()?,
        })
    }
}

fn main() {
    let db = harness::shared_db();
    let scenarios = harness::evaluation_scenarios();

    // ---- the scenario × model energy matrix (ablations 1–3) -------------
    let matrix = Matrix::new()
        .axis("scenario", scenarios.iter().map(|s| s.name))
        .axis("model", MODELS);
    let workers = hierbus_campaign::worker_count(None);
    let runner_db = std::sync::Arc::clone(&db);
    let report = hierbus_campaign::run(
        &matrix,
        &CampaignOptions::with_workers("ablations", workers),
        move |point| {
            let s = &scenarios[point.coords[0]];
            let energy_pj = match MODELS[point.coords[1]] {
                "gate" => harness::run_reference(s, false).energy_pj,
                "ideal_netlist" => harness::run_reference(s, true).energy_pj,
                "layer1" => harness::run_layer1(s, &runner_db).energy_pj,
                // The scale-free uniform database (1 pJ/toggle).
                "layer1_uniform" => {
                    harness::run_layer1(s, &CharacterizationDb::uniform()).energy_pj
                }
                "layer2_plain" => harness::run_layer2(s, &runner_db, false).energy_pj,
                "layer2_corrected" => harness::run_layer2(s, &runner_db, true).energy_pj,
                other => unreachable!("unknown model {other}"),
            };
            EnergyCell { energy_pj }
        },
    )
    .expect("manifest-less campaign cannot fail on I/O");
    eprintln!("campaign: {}", report.stats);
    // cells[scenario][model], merged in matrix order.
    let cell = |scenario: usize, model: &str| -> f64 {
        let m = MODELS.iter().position(|&x| x == model).expect("model");
        report.results[scenario * MODELS.len() + m]
            .as_ref()
            .expect("complete campaign")
            .energy_pj
    };
    let n_scen = report.stats.total / MODELS.len();

    // ---- 1. characterization value --------------------------------------
    let mut gate = 0.0;
    let mut l1_unif = 0.0;
    for s in 0..n_scen {
        gate += cell(s, "gate");
        // Uniform db: 1 pJ/toggle everywhere — scale-free, so compare the
        // per-scenario *distribution* by normalising totals to gate.
        l1_unif += cell(s, "layer1_uniform");
    }
    // Scale the uniform model to match total gate energy, then compare
    // per-scenario errors — characterization should win on distribution.
    let unif_scale = gate / l1_unif;
    let mut char_sq = 0.0;
    let mut unif_sq = 0.0;
    for s in 0..n_scen {
        let g = cell(s, "gate");
        let c = cell(s, "layer1");
        let u = cell(s, "layer1_uniform") * unif_scale;
        char_sq += ((c - g) / g).powi(2);
        unif_sq += ((u - g) / g).powi(2);
    }
    let n = n_scen as f64;
    println!("Ablation 1 — value of per-class characterization (layer 1):");
    println!(
        "  rms per-scenario error: characterized {:.1}% vs oracle-rescaled uniform {:.1}%",
        (char_sq / n).sqrt() * 100.0,
        (unif_sq / n).sqrt() * 100.0
    );
    println!(
        "  (the uniform column needs the gate-level total as a scaling oracle:\n\
         \x20  characterization's value is the absolute pJ calibration, which\n\
         \x20  no rescale is available for in real use)\n"
    );

    // ---- 2. layer-2 correlation correction ------------------------------
    let mut plain = 0.0;
    let mut corrected = 0.0;
    for s in 0..n_scen {
        plain += cell(s, "layer2_plain");
        corrected += cell(s, "layer2_corrected");
    }
    println!("Ablation 2 — layer-2 inter-transaction correlation:");
    println!(
        "  plain layer 2: {} vs gate; with correction: {} vs gate",
        pct((plain - gate) / gate),
        pct((corrected - gate) / gate)
    );
    println!(
        "  -> {:.1} percentage points of the overestimate are correlation blindness\n",
        (plain - corrected) / gate * 100.0
    );

    // ---- 3. glitch modeling ----------------------------------------------
    let mut ideal = 0.0;
    let mut l1 = 0.0;
    for s in 0..n_scen {
        ideal += cell(s, "ideal_netlist");
        l1 += cell(s, "layer1");
    }
    println!("Ablation 3 — glitch modeling in the reference:");
    println!(
        "  gate energy with glitches: {gate:.0} pJ; ideal netlist: {ideal:.0} pJ ({} of energy is hazards)",
        pct((gate - ideal) / gate)
    );
    println!(
        "  layer-1 error vs glitchy gate: {}; vs ideal netlist: {}\n",
        pct((l1 - gate) / gate),
        pct((l1 - ideal) / ideal)
    );

    // ---- 4. outstanding-transaction depth --------------------------------
    let mix = random_mix(
        0xD0A1,
        MixParams {
            count: 5_000,
            max_idle: 0,
            burst_pct: 40,
            ..MixParams::default()
        },
    );
    let mut table = TextTable::new(["outstanding limit", "cycles", "speedup"]);
    let mut base_cycles = 0u64;
    for limit in [1u32, 2, 4] {
        let limits = OutstandingLimits {
            instr_reads: limit,
            data_reads: limit,
            writes: limit,
        };
        let mut sys = TlmSystem::new(tlm1_bus(&mix), mix.ops.clone());
        sys.set_master_limits(0, limits);
        let cycles = sys.run(MAX_CYCLES, |_| {}).cycles;
        if limit == 1 {
            base_cycles = cycles;
        }
        table.row([
            limit.to_string(),
            cycles.to_string(),
            format!("{:.3}x", base_cycles as f64 / cycles as f64),
        ]);
    }
    println!("Ablation 4 — outstanding-transaction depth vs throughput:\n");
    println!("{}", table.render());

    // ---- 5. instruction cache vs bus traffic -----------------------------
    use hierbus_power::Layer1EnergyModel as L1Model;
    use hierbus_soc::{CpuSystem, Platform, PlatformMap, Program, Reg};
    let program = {
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, 500);
        p.li(Reg::T1, 0);
        p.label("loop");
        p.addu(Reg::T1, Reg::T1, Reg::T0);
        p.addiu(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, "loop");
        p.halt();
        p.assemble().expect("loop assembles")
    };
    let run_core = |cache_lines: Option<usize>| {
        let mut platform = Platform::new();
        platform.load_boot_program(&program);
        let mut bus = platform.into_tlm1();
        bus.enable_frames();
        let mut sys = match cache_lines {
            Some(n) => CpuSystem::with_icache(bus, PlatformMap::RESET_PC, n),
            None => CpuSystem::new(bus, PlatformMap::RESET_PC),
        };
        let mut model = L1Model::new((*db).clone());
        let report = sys.run_until_halt(10_000_000, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        (report.cycles, report.cpi(), model.total_energy())
    };
    let (cyc_off, cpi_off, e_off) = run_core(None);
    let (cyc_on, cpi_on, e_on) = run_core(Some(16));
    println!("Ablation 5 — instruction cache (16 lines) on a tight loop:");
    println!("  uncached: {cyc_off} cycles (CPI {cpi_off:.2}), {e_off:.0} pJ of bus energy");
    println!(
        "  cached:   {cyc_on} cycles (CPI {cpi_on:.2}), {e_on:.0} pJ ({:.1}% of the bus energy)",
        100.0 * e_on / e_off
    );
    println!();

    // ---- 6. robustness under injected faults -----------------------------
    fault_ablation(&db);
}

/// One cell of the fault-sweep campaign.
struct FaultCell {
    cycles: f64,
    energy_pj: f64,
    ok: f64,
    errors: f64,
    aborted: f64,
    retried: f64,
}

impl CampaignPayload for FaultCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".to_owned(), Json::Num(self.cycles)),
            ("energy_pj".to_owned(), Json::Num(self.energy_pj)),
            ("ok".to_owned(), Json::Num(self.ok)),
            ("errors".to_owned(), Json::Num(self.errors)),
            ("aborted".to_owned(), Json::Num(self.aborted)),
            ("retried".to_owned(), Json::Num(self.retried)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(FaultCell {
            cycles: json.get("cycles")?.as_f64()?,
            energy_pj: json.get("energy_pj")?.as_f64()?,
            ok: json.get("ok")?.as_f64()?,
            errors: json.get("errors")?.as_f64()?,
            aborted: json.get("aborted")?.as_f64()?,
            retried: json.get("retried")?.as_f64()?,
        })
    }
}

/// The fault-preset × layer sweep: the same seeded [`FaultPlan`]s
/// replayed at every abstraction level, reporting what robustness costs.
///
/// [`FaultPlan`]: hierbus_ec::FaultPlan
fn fault_ablation(db: &std::sync::Arc<CharacterizationDb>) {
    use hierbus_ec::{FaultParams, FaultPlan, RetryPolicy, TxnOutcome};
    use hierbus_power::{Capture, Layer, MasterFaults, Outcome, RunSpec, Session};

    /// `scenario` at `layer` under one fault plan, full capture.
    fn faulted(
        db: &CharacterizationDb,
        layer: Layer,
        scenario: &hierbus_ec::Scenario,
        plan: &FaultPlan,
        policy: RetryPolicy,
    ) -> Outcome {
        let faults = vec![MasterFaults::new(0, plan.clone(), policy)];
        let spec = RunSpec::new(layer, Capture::Full).with_faults(faults);
        Session::new(db).run(&spec, &scenario.clone().into())
    }
    // The gate level runs on the ideal netlist, so its energy is the
    // deterministic settled-transition cost.
    let gate = Layer::Rtl { glitches: false };

    const PRESETS: [&str; 5] = [
        "clean",
        "errors+retry",
        "errors_no_retry",
        "stalls",
        "tear@50%",
    ];
    const LAYERS: [&str; 3] = ["gate", "layer1", "layer2"];
    const SEED: u64 = 0xFA57;

    let mix = random_mix(
        SEED,
        MixParams {
            count: 400,
            ..MixParams::default()
        },
    );
    // Transient errors (recoverable inside a 3-retry budget) and pure
    // stall plans, both reproducible from the printed seed.
    let error_plan = FaultPlan::random(
        SEED,
        mix.ops.len(),
        FaultParams {
            fault_pct: 20,
            error_pct: 100,
            ..FaultParams::default()
        },
    );
    let stall_plan = FaultPlan::random(
        SEED,
        mix.ops.len(),
        FaultParams {
            fault_pct: 20,
            error_pct: 0,
            ..FaultParams::default()
        },
    );
    let clean_cycles = faulted(db, gate, &mix, &FaultPlan::new(), RetryPolicy::NONE).cycles;
    let tear_plan = FaultPlan::new().with_tear(clean_cycles / 2);
    let setup = |preset: &str| -> (FaultPlan, RetryPolicy) {
        match preset {
            "clean" => (FaultPlan::new(), RetryPolicy::NONE),
            "errors+retry" => (error_plan.clone(), RetryPolicy::retries(3)),
            "errors_no_retry" => (error_plan.clone(), RetryPolicy::NONE),
            "stalls" => (stall_plan.clone(), RetryPolicy::NONE),
            "tear@50%" => (tear_plan.clone(), RetryPolicy::NONE),
            other => unreachable!("unknown preset {other}"),
        }
    };

    // Captured before the campaign closure takes `setup` and `mix`.
    let attr_mix = mix.clone();
    let attr_setups: Vec<(FaultPlan, RetryPolicy)> = PRESETS.iter().map(|p| setup(p)).collect();

    let matrix = Matrix::new().axis("fault", PRESETS).axis("layer", LAYERS);
    let workers = hierbus_campaign::worker_count(None);
    let runner_db = std::sync::Arc::clone(db);
    let report = hierbus_campaign::run(
        &matrix,
        &CampaignOptions::with_workers("fault-ablation", workers),
        move |point| {
            let (plan, policy) = setup(PRESETS[point.coords[0]]);
            let layer = match LAYERS[point.coords[1]] {
                "gate" => gate,
                "layer1" => Layer::L1,
                "layer2" => Layer::L2 { correlation: false },
                other => unreachable!("unknown layer {other}"),
            };
            let run = faulted(&runner_db, layer, &mix, &plan, policy);
            let count = |f: &dyn Fn(&TxnOutcome) -> bool| {
                run.outcomes.iter().filter(|o| f(o)).count() as f64
            };
            FaultCell {
                cycles: run.cycles as f64,
                energy_pj: run.energy_pj,
                ok: count(&|o| o.is_ok()),
                errors: count(&|o| matches!(o, TxnOutcome::Error(_))),
                aborted: count(&|o| matches!(o, TxnOutcome::Aborted)),
                retried: run.counters.retried as f64,
            }
        },
    )
    .expect("manifest-less campaign cannot fail on I/O");
    eprintln!("fault campaign: {}", report.stats);
    let cell = |preset: usize, layer: usize| -> &FaultCell {
        report.results[preset * LAYERS.len() + layer]
            .as_ref()
            .expect("complete campaign")
    };

    let mut table = TextTable::new([
        "fault preset",
        "layer",
        "cycles",
        "energy pJ",
        "ok/err/abort",
        "retries",
    ]);
    for (p, preset) in PRESETS.iter().enumerate() {
        for (l, layer) in LAYERS.iter().enumerate() {
            let c = cell(p, l);
            table.row([
                if l == 0 {
                    preset.to_string()
                } else {
                    String::new()
                },
                layer.to_string(),
                format!("{:.0}", c.cycles),
                format!("{:.0}", c.energy_pj),
                format!("{:.0}/{:.0}/{:.0}", c.ok, c.errors, c.aborted),
                format!("{:.0}", c.retried),
            ]);
        }
    }
    println!("Ablation 6 — robustness under injected faults (seed {SEED:#x}):\n");
    println!("{}", table.render());
    let clean = cell(0, 0);
    let retry = cell(1, 0);
    println!(
        "  recovering all {} transient errors cost {} extra cycles and {} of the\n\
         \x20 clean run's energy (gate level, retry budget 3, backoff 2/4/8)",
        retry.retried,
        retry.cycles - clean.cycles,
        pct((retry.energy_pj - clean.energy_pj) / clean.energy_pj)
    );

    // Where the fault overhead lands: the layer-1 attribution ledger
    // splits each preset's energy by bus phase, so retries (replayed
    // address+data phases) and stalls (wait-state idle) separate.
    let mut attr = TextTable::new([
        "fault preset",
        "energy pJ",
        "address",
        "read",
        "write",
        "idle",
    ]);
    for (preset, (plan, policy)) in PRESETS.iter().zip(&attr_setups) {
        let run = faulted(db, Layer::L1, &attr_mix, plan, *policy);
        let total = run.ledger.total_pj();
        let mut row = vec![preset.to_string(), format!("{total:.0}")];
        for (_, pj) in run.ledger.phase_totals() {
            row.push(format!("{:.1}%", 100.0 * pj / total));
        }
        attr.row(row);
    }
    println!("\n  Layer-1 energy attribution by bus phase per preset:\n");
    println!("{}", attr.render());
}
