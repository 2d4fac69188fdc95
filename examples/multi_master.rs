//! Multi-master estimation: a CPU instruction mix and a DMA descriptor
//! program contend for one bus behind an arbiter, replayed at every
//! abstraction level — and the layers agree on outcomes, memory, grant
//! lines, and where every joule went, per master.
//!
//! ```sh
//! cargo run --example multi_master
//! ```

use hierbus::ec::sequences::{self, MixParams};
use hierbus::ec::{ArbitrationPolicy, DmaParams, DmaProgram, MultiScenario};
use hierbus::harness;
use hierbus::power::{Capture, Layer, RunSpec, Session};

fn main() {
    println!("characterizing...");
    let db = harness::standard_db();

    // Master 0: a seeded CPU access mix in the low address window.
    let cpu = sequences::random_mix(
        0xCAFE,
        MixParams {
            count: 32,
            ..MixParams::default()
        },
    );
    // Master 1: a seeded DMA descriptor program. Its window sits above
    // the CPU's, so contention changes timing, never final memory.
    let dma = DmaProgram::seeded(
        0xD31A,
        DmaParams {
            descriptors: 10,
            ..DmaParams::default()
        },
    );
    println!(
        "cpu: {} ops; dma: {} descriptors, {} beats\n",
        cpu.ops.len(),
        dma.descriptors.len(),
        dma.total_beats()
    );

    let mut session = Session::new(&db);
    for policy in ArbitrationPolicy::ALL {
        let ms = MultiScenario::new("multi-demo", cpu.clone(), &dma, policy).into();
        let mut full = |layer| session.run(&RunSpec::new(layer, Capture::Full), &ms);
        // The gate level runs on the ideal netlist (settled transitions).
        let gate = full(Layer::Rtl { glitches: false });
        let l1 = full(Layer::L1);
        let l2 = full(Layer::L2 { correlation: false });

        println!("policy {}:", policy.name());
        for (name, run) in [("gate", &gate), ("layer1", &l1), ("layer2", &l2)] {
            println!(
                "  {name:>6}: {:>3} cycles  {:>8.1} pJ  grants {:?}  contended {}",
                run.cycles, run.energy_pj, run.stats.grants, run.stats.contended_cycles,
            );
        }

        // The cross-layer contract (the full version lives in
        // tests/arbitration_equivalence.rs): identical per-master
        // outcomes and memory everywhere, layer 1 cycle- and
        // grant-exact against the gate-level reference.
        assert_eq!(gate.outcomes(), l1.outcomes());
        assert_eq!(l1.outcomes(), l2.outcomes());
        assert_eq!(gate.memory, l1.memory);
        assert_eq!(l1.memory, l2.memory);
        assert_eq!(gate.cycles, l1.cycles, "layer 1 is cycle-exact");
        assert_eq!(gate.grants, l1.grants, "grant lines match the RTL");

        // Every joule is attributed to the master that owned the
        // cycle; idle cycles stay untagged.
        print!("  layer-1 energy by master:");
        for (master, pj) in l1.ledger.master_totals() {
            print!("  {} {:.1} pJ", master.as_deref().unwrap_or("(idle)"), pj);
        }
        println!("\n");
    }
    println!("all layers agree under both policies");
}
