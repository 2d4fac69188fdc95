//! Quickstart: run bus traffic through both TLM layers with energy
//! estimation and compare against the gate-level reference.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hierbus::ec::sequences;
use hierbus::harness;

fn main() {
    // 1. Characterize the energy models once, at the gate level, on the
    //    training sequences (paper §3.3). In a real flow this table would
    //    come from a tool like Diesel; here it comes from the synthetic
    //    layer-0 reference.
    println!("characterizing...");
    let db = harness::standard_db();

    // 2. Pick a workload: one of the EC-spec verification scenarios.
    let scenario = sequences::burst_reads();
    println!("scenario: {scenario}\n");

    // 3. Run it at every abstraction level.
    let gate = harness::run_reference(&scenario, false);
    let l1 = harness::run_layer1(&scenario, &db);
    let l2 = harness::run_layer2(&scenario, &db, false);

    println!(
        "gate-level reference: {:>4} cycles  {:>8.1} pJ",
        gate.cycles, gate.energy_pj
    );
    println!(
        "TLM layer 1:          {:>4} cycles  {:>8.1} pJ  ({:+.1}% energy)",
        l1.cycles,
        l1.energy_pj,
        (l1.energy_pj - gate.energy_pj) / gate.energy_pj * 100.0
    );
    println!(
        "TLM layer 2:          {:>4} cycles  {:>8.1} pJ  ({:+.1}% energy)",
        l2.cycles,
        l2.energy_pj,
        (l2.energy_pj - gate.energy_pj) / gate.energy_pj * 100.0
    );

    // 4. Layer 1 supports cycle-accurate profiling: print the profile.
    println!("\nlayer-1 per-cycle energy profile (pJ):");
    for (i, e) in l1.trace.iter().enumerate() {
        println!(
            "  cycle {i:>2}: {e:7.2}  {}",
            "#".repeat((e / 3.0) as usize)
        );
    }

    // 5. The transaction records agree between the models.
    assert_eq!(gate.records.len(), l1.records.len());
    for (a, b) in gate.records.iter().zip(&l1.records) {
        assert_eq!(a, b, "layer 1 must be cycle-exact");
    }
    println!("\nlayer 1 is cycle-exact against the reference on this scenario.");
}
