//! **Table 1** — timing error of the transaction-level models against
//! the (gate-level-equivalent) cycle-true reference.
//!
//! Paper values: gate level 100 %, layer 1 100 % (0 % error), layer 2
//! 100.5 % (+0.5 % error). Run with
//! `cargo run -p hierbus-bench --bin table1_timing`.

use hierbus::harness;
use hierbus::power::{Capture, CharacterizationDb, Layer, RunSpec, Session};
use hierbus_bench::{pct, TextTable};

fn main() {
    let mut per_scenario = TextTable::new(["scenario", "ref cy", "L1 cy", "L2 cy", "L2 err"]);
    let mut total = (0u64, 0u64, 0u64);
    // Timing only: no run here reads the characterization.
    let mut session = Session::new(&CharacterizationDb::uniform());
    let reference = RunSpec::new(Layer::Rtl { glitches: true }, Capture::Lean);
    let timing = |layer| RunSpec::new(layer, Capture::Lean).timing_only();
    for scenario in harness::evaluation_scenarios() {
        let stimulus = scenario.clone().into();
        let r = session.run(&reference, &stimulus);
        let l1 = session.run(&timing(Layer::L1), &stimulus);
        let l2 = session.run(&timing(Layer::L2 { correlation: false }), &stimulus);
        per_scenario.row([
            scenario.name.to_owned(),
            r.cycles.to_string(),
            l1.cycles.to_string(),
            l2.cycles.to_string(),
            pct((l2.cycles as f64 - r.cycles as f64) / r.cycles as f64),
        ]);
        total.0 += r.cycles;
        total.1 += l1.cycles;
        total.2 += l2.cycles;
    }

    println!("Per-scenario timing (verification suite + sequential mix):\n");
    println!("{}", per_scenario.render());

    let (r, l1, l2) = total;
    let mut table1 = TextTable::new(["abstraction level", "cycles", "error"]);
    table1.row([
        "gate-level model".to_owned(),
        "100%".to_owned(),
        "-".to_owned(),
    ]);
    table1.row([
        "layer one model".to_owned(),
        format!("{:.2}%", 100.0 * l1 as f64 / r as f64),
        pct((l1 as f64 - r as f64) / r as f64),
    ]);
    table1.row([
        "layer two model".to_owned(),
        format!("{:.2}%", 100.0 * l2 as f64 / r as f64),
        pct((l2 as f64 - r as f64) / r as f64),
    ]);
    println!("Table 1 — timing error (paper: 100% / 100%+0% / 100.5%+0.5%):\n");
    println!("{}", table1.render());

    // Export one observed run so the per-phase timing behind the table
    // can be inspected span-by-span across layers in Perfetto. A uniform
    // characterization keeps this bin training-free; the energy counter
    // tracks are indicative only (see table2_energy for calibrated ones).
    let db = CharacterizationDb::uniform();
    let scenario = hierbus::ec::sequences::burst_reads();
    let mut run = hierbus::observe::run_observed(&scenario, &db);
    run.name = "table1_timing".to_owned();
    match hierbus::observe::export(&run, &hierbus::observe::default_dir()) {
        Ok((trace, csv)) => println!(
            "Observability artifacts:\n  {}\n  {}",
            trace.display(),
            csv.display()
        ),
        Err(e) => eprintln!("warning: could not write results/obs artifacts: {e}"),
    }
}
