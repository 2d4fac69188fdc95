//! **Figure 6** — the layer-2 energy sampling semantics.
//!
//! The layer-2 power interface has a single method returning the energy
//! consumed since the last call, booked at *phase completion*: a sample
//! taken at t1 contains the address phases of requests 1 and 2; a sample
//! at t2 contains the address phase of request 3 plus the read phase of
//! request 1 and the write phase of request 2 — but not the read phase
//! of request 3, which has not completed yet. The layer-1 model, by
//! contrast, can profile every single cycle. Run with
//! `cargo run -p hierbus-bench --bin fig6_sampling`.

use hierbus_core::{Tlm2Bus, TlmSystem};
use hierbus_ec::sequences::MasterOp;
use hierbus_ec::{BurstLen, Scenario, WaitProfile};
use hierbus_power::run::tlm2_bus;
use hierbus_power::{Capture, CharacterizationDb, Layer, Layer2EnergyModel, RunSpec, Session};

/// The three-request scenario of the figure: two waited transactions
/// back to back, then a third — their address and data phases interleave.
fn fig6_scenario() -> Scenario {
    Scenario {
        name: "fig6",
        ops: vec![
            MasterOp::read(0x100),                          // request 1 (read)
            MasterOp::burst_write(0x200, vec![0xAA, 0x55]), // request 2 (write)
            MasterOp::burst_read(0x300, BurstLen::B2),      // request 3 (read)
        ]
        .into(),
        waits: WaitProfile::new(1, 2, 2),
    }
}

fn main() {
    let db = CharacterizationDb::uniform();
    let scenario = fig6_scenario();

    // ---- layer 2: phase-granular sampling -------------------------------
    // Stepped by hand: the figure is about *when* a sample is taken.
    let mut bus = tlm2_bus(&scenario);
    bus.enable_events();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let mut model = Layer2EnergyModel::new(db.clone());
    let mut timeline: Vec<(u64, String)> = Vec::new();

    let mut cycle = 0u64;
    let mut samples: Vec<(u64, f64, Vec<String>)> = Vec::new();
    let mut pending_labels: Vec<String> = Vec::new();
    // Sample times bracketing the figure's t1 and t2 (plus a final one).
    let sample_at = [3u64, 10, 14];
    while !sys.is_finished() {
        sys.step_cycle(&mut |bus: &mut Tlm2Bus| {
            for ev in bus.drain_events() {
                let label = format!("{:?}-phase @cycle {}", ev.kind, ev.at_cycle);
                timeline.push((ev.at_cycle, label.clone()));
                pending_labels.push(label);
                model.on_event(&ev);
            }
        });
        cycle += 1;
        if sample_at.contains(&cycle) {
            let e = model.energy_since_last_call();
            samples.push((cycle, e, std::mem::take(&mut pending_labels)));
        }
    }
    let leftover = model.energy_since_last_call();

    println!("Figure 6 — layer-2 energy sampling (phase completions):\n");
    println!("phase completion timeline:");
    for (at, label) in &timeline {
        println!("  cycle {at:>2}: {label}");
    }
    println!();
    for (i, (cycle, energy, phases)) in samples.iter().enumerate() {
        println!(
            "sample t{} (cycle {cycle:>2}): {energy:7.1} pJ  <- {}",
            i + 1,
            if phases.is_empty() {
                "no phase completed in this interval".to_owned()
            } else {
                phases.join(", ")
            }
        );
    }
    if leftover > 0.0 {
        println!("after the run:    {leftover:7.1} pJ still unsampled (phases completing late)");
    }

    // ---- layer 1: cycle-accurate profile for contrast --------------------
    let l1 = Session::new(&db).run(&RunSpec::new(Layer::L1, Capture::Full), &scenario.into());
    println!("\nLayer-1 contrast — per-cycle energy profile (pJ):");
    for (i, e) in l1.trace.iter().enumerate() {
        let bar = "#".repeat((e / 4.0).round() as usize);
        println!("  cycle {i:>2}: {e:6.1}  {bar}");
    }
    println!(
        "\nThe layer-2 interface cannot produce the per-cycle profile above —\n\
         its samples aggregate whole phases, as the figure shows."
    );
}
