//! One `Session` across layers: a session replaying an interleaved
//! sequence of runs — every layer, every capture, faults and an
//! arbitrated CPU+DMA workload — must produce outcomes `to_bits`-
//! identical to a fresh session per run, so no state leaks across a
//! reset from one layer into the next. Also pins that capture never
//! changes cycles or energy, and that full-capture ledgers partition
//! the energy they attribute.

use hierbus::ec::sequences::{self, MixParams, Scenario};
use hierbus::ec::{
    ArbitrationPolicy, DmaParams, DmaProgram, FaultPlan, MultiScenario, RetryPolicy, SignalClass,
};
use hierbus::power::{
    Capture, CharacterizationDb, Layer, MasterFaults, Materialized, Outcome, PhaseCounts, RunSpec,
    Session,
};

/// A characterization with a distinct weight per class, so a leaked
/// toggle in any class shows in the energy bits.
fn db() -> CharacterizationDb {
    let stats: Vec<(SignalClass, f64, u64)> = SignalClass::ALL
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, 1.25 + 0.37 * i as f64, 1))
        .collect();
    CharacterizationDb::from_class_stats(
        &stats,
        PhaseCounts {
            addr_phases: 3,
            read_beats: 5,
            write_beats: 7,
        },
    )
}

fn mix(seed: u64, count: usize) -> Scenario {
    sequences::random_mix(
        seed,
        MixParams {
            count,
            burst_pct: 40,
            ..MixParams::default()
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every field of two outcomes agrees, floats to the bit.
fn assert_same(a: &Outcome, b: &Outcome, context: &str) {
    assert_eq!(a.cycles, b.cycles, "{context}: cycles");
    assert_eq!(
        a.energy_pj.to_bits(),
        b.energy_pj.to_bits(),
        "{context}: energy"
    );
    assert_eq!(a.records, b.records, "{context}: records");
    assert_eq!(a.outcomes, b.outcomes, "{context}: outcomes");
    assert_eq!(a.counters, b.counters, "{context}: counters");
    assert_eq!(a.masters, b.masters, "{context}: masters");
    assert_eq!(a.grants, b.grants, "{context}: grants");
    assert_eq!(a.stats, b.stats, "{context}: stats");
    assert_eq!(a.memory, b.memory, "{context}: memory");
    assert_eq!(a.torn, b.torn, "{context}: torn");
    assert_eq!(bits(&a.trace), bits(&b.trace), "{context}: trace");
    let booked = |o: &Outcome| -> Vec<(u64, u64)> {
        o.bookings.iter().map(|&(c, e)| (c, e.to_bits())).collect()
    };
    assert_eq!(booked(a), booked(b), "{context}: bookings");
    assert_eq!(a.obs.spans(), b.obs.spans(), "{context}: spans");
    assert_eq!(a.obs.counters(), b.obs.counters(), "{context}: tracks");
    assert_eq!(a.ledger, b.ledger, "{context}: ledger");
    assert_eq!(
        a.l1_frames_energy_pj.map(f64::to_bits),
        b.l1_frames_energy_pj.map(f64::to_bits),
        "{context}: frame-log energy"
    );
    let classes = |o: &Outcome| -> Vec<(SignalClass, u64, u64)> {
        o.class_stats
            .iter()
            .map(|&(c, e, t)| (c, e.to_bits(), t))
            .collect()
    };
    assert_eq!(classes(a), classes(b), "{context}: class stats");
}

#[test]
fn one_session_across_layers_matches_fresh_sessions() {
    let db = db();
    let single: Materialized = mix(0x5E55, 120).into();
    let dma = DmaProgram::seeded(
        0xD3A ^ 0xD31A,
        DmaParams {
            descriptors: 10,
            ..DmaParams::default()
        },
    );
    let multi: Materialized =
        MultiScenario::new("reuse", mix(0xD3A, 60), &dma, ArbitrationPolicy::RoundRobin).into();
    let tear = MasterFaults::new(0, FaultPlan::new().with_tear(90), RetryPolicy::NONE);
    let sequence = [
        (RunSpec::new(Layer::L1, Capture::Lean), &single),
        (
            RunSpec::new(Layer::L2 { correlation: false }, Capture::Full),
            &single,
        ),
        (
            RunSpec::new(Layer::Rtl { glitches: true }, Capture::Full),
            &single,
        ),
        (
            RunSpec::new(Layer::L1, Capture::Full).with_faults(vec![tear]),
            &single,
        ),
        (RunSpec::new(Layer::L1, Capture::Full), &multi),
        (RunSpec::new(Layer::L3, Capture::Full), &single),
        // Back where the sequence started, after every layer ran.
        (RunSpec::new(Layer::L1, Capture::Lean), &single),
    ];
    let mut session = Session::new(&db);
    for (i, (spec, stimulus)) in sequence.iter().enumerate() {
        let reused = session.run(spec, stimulus);
        let fresh = Session::new(&db).run(spec, stimulus);
        assert_same(&reused, &fresh, &format!("run {i} ({:?})", spec.layer));
    }
    // The sequence exercised what it claims: a tear and contention.
    assert!(session.run(&sequence[3].0, &single).torn);
    let arbitrated = session.run(&sequence[4].0, &multi);
    assert_eq!(arbitrated.masters.len(), 2);
    assert!(arbitrated.stats.contended_cycles > 0);
}

#[test]
fn capture_never_changes_cycles_or_energy() {
    let mut session = Session::new(&db());
    let stimulus: Materialized = mix(0xCA97, 80).into();
    for layer in [
        Layer::Rtl { glitches: false },
        Layer::L1,
        Layer::L2 { correlation: true },
        Layer::L3,
    ] {
        let full = session.run(&RunSpec::new(layer, Capture::Full), &stimulus);
        for capture in [Capture::Lean, Capture::Spans] {
            let run = session.run(&RunSpec::new(layer, capture), &stimulus);
            let context = format!("{layer:?} {capture:?}");
            assert_eq!(run.cycles, full.cycles, "{context}");
            assert_eq!(
                run.energy_pj.to_bits(),
                full.energy_pj.to_bits(),
                "{context}"
            );
            let spans = capture == Capture::Spans && layer != Layer::L3;
            assert_eq!(run.obs.span_count() > 0, spans, "{context}");
        }
        let timing = session.run(&RunSpec::new(layer, Capture::Lean).timing_only(), &stimulus);
        assert_eq!(timing.cycles, full.cycles, "{layer:?} timing only");
        assert_eq!(timing.energy_pj, 0.0, "{layer:?} timing only");
    }
}

#[test]
fn full_ledgers_partition_the_attributed_energy() {
    let mut session = Session::new(&db());
    let stimulus: Materialized = mix(0x1ED6, 60).into();
    for layer in [
        Layer::Rtl { glitches: true },
        Layer::L1,
        Layer::L2 { correlation: false },
    ] {
        let run = session.run(&RunSpec::new(layer, Capture::Full), &stimulus);
        let attributed = run.l1_frames_energy_pj.unwrap_or(run.energy_pj);
        let err = (run.ledger.total_pj() - attributed).abs();
        assert!(
            err <= 1e-9 * attributed,
            "{layer:?}: ledger {} vs {attributed}",
            run.ledger.total_pj()
        );
    }
}
