//! Cross-layer energy attribution: every layer's ledger must be a
//! *decomposition* of that layer's reported energy (never a re-pricing),
//! the divergence auditor must localize a seeded discrepancy to the
//! right phase bucket, and a golden file pins the folded-stack exporter
//! byte-exactly.
//!
//! Regenerate the golden after an intentional format change with
//! `BLESS=1 cargo test --test attribution_cross_layer`.

use hierbus::ec::sequences::SCENARIO_BASE;
use hierbus::ec::{
    BurstLen, FaultKind, FaultPlan, MasterOp, OpFault, RetryPolicy, Scenario, WaitProfile,
};
use hierbus::harness;
use hierbus::obs::{DivergenceAuditor, EnergyLedger, LedgerPhase, Phase, SpanEvent};
use hierbus::observe;
use hierbus::power::{Capture, CharacterizationDb, Layer, MasterFaults, Outcome, RunSpec, Session};

/// Relative decomposition tolerance: the ledger re-groups the same f64
/// additions the model performs, so only summation-order error remains.
const REL: f64 = 1e-9;

#[test]
fn ledger_totals_match_model_totals_on_evaluation_set() {
    let db = harness::standard_db();
    for scenario in &harness::evaluation_scenarios() {
        let run = observe::run_observed(scenario, &db);
        for (ledger, &model_total) in run.ledgers.iter().zip(&run.energy_pj) {
            let total = ledger.total_pj();
            assert!(
                (total - model_total).abs() <= REL * model_total.abs().max(1.0),
                "{}: {} ledger sums to {total} but the model reports {model_total}",
                scenario.name,
                ledger.layer()
            );
            assert!(ledger.cycles() > 0, "{}: empty ledger", scenario.name);
        }
    }
}

fn faulted_write_scenario() -> Scenario {
    Scenario {
        name: "attr_fault",
        ops: vec![
            MasterOp::read(SCENARIO_BASE),
            MasterOp::write(SCENARIO_BASE + 4, 0xDEAD_BEEF),
            MasterOp::burst_read(SCENARIO_BASE, BurstLen::B4),
        ]
        .into(),
        waits: WaitProfile::ZERO,
    }
}

/// A layer-1 run with the attribution pieces the auditor reads split
/// out: the ledger, the per-cycle trace and the span record.
struct Attributed {
    run: Outcome,
    ledger: EnergyLedger,
    trace: Vec<f64>,
    spans: Vec<SpanEvent>,
}

/// A full layer-1 run under `plan`; an empty plan gives the clean
/// baseline.
fn attributed(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> Attributed {
    let faults = vec![MasterFaults::new(0, plan.clone(), policy)];
    let spec = RunSpec::new(Layer::L1, Capture::Full).with_faults(faults);
    let mut run = Session::new(db).run(&spec, &scenario.clone().into());
    Attributed {
        ledger: std::mem::take(&mut run.ledger),
        trace: std::mem::take(&mut run.trace),
        spans: run.obs.spans().to_vec(),
        run,
    }
}

/// A once-errored, once-retried write re-runs its address + write-data
/// phases: against the clean baseline the auditor must (a) call the
/// write-data bucket the worst divergence and (b) localize the first
/// divergent cycle inside the faulted write's span activity.
#[test]
fn auditor_localizes_a_seeded_fault_to_the_write_phase() {
    let db = harness::standard_db();
    let scenario = faulted_write_scenario();
    let clean = attributed(&scenario, &db, &FaultPlan::new(), RetryPolicy::NONE);
    let plan = FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError));
    let faulted = attributed(&scenario, &db, &plan, RetryPolicy::retries(3));
    assert!(
        faulted.run.energy_pj > clean.run.energy_pj,
        "the retry must cost energy"
    );

    let auditor = DivergenceAuditor::new(1e-6, 1e-9);
    let audit = auditor.audit_ledgers(&clean.ledger, &faulted.ledger);
    assert!(!audit.is_clean(), "the seeded fault must diverge");
    let worst = audit.worst.expect("divergent buckets have a worst");
    assert_eq!(
        worst.key.phase,
        LedgerPhase::WriteData,
        "worst bucket should be the retried write's data phase, got {}",
        worst.key.folded_key()
    );
    assert!(worst.b_pj > worst.a_pj, "the faulted run books more");

    // Per-cycle localization: the first divergent cycle must fall inside
    // the faulted write's span activity (its context window contains a
    // write span of the faulted trace).
    let div = auditor
        .audit_traces(&clean.trace, &faulted.trace, &faulted.spans, 4)
        .expect("traces diverge");
    assert!(
        div.context
            .iter()
            .any(|s| s.phase == Phase::WriteData || s.phase == Phase::Address),
        "context window at cycle {} has no write activity: {:?}",
        div.cycle,
        div.context
    );
}

#[test]
fn folded_stack_export_matches_golden_file() {
    let db = harness::standard_db();
    let run = observe::run_observed(&hierbus::ec::sequences::write_after_read(), &db);
    let folded: String = run.ledgers.iter().map(|l| l.folded()).collect();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/write_after_read.folded"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &folded).expect("bless golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        folded, golden,
        "folded-stack export drifted from the golden file; if the change \
         is intentional, regenerate with \
         BLESS=1 cargo test --test attribution_cross_layer"
    );
}

#[test]
fn ledger_json_escapes_slave_and_master_names() {
    use hierbus::campaign::Json;
    use hierbus::obs::BucketKey;
    let slave = "ram \"bank\" \\0\u{1}";
    let master = "dma\\\"1\"\n\u{1f}";
    let mut ledger = EnergyLedger::new("tlm1");
    ledger.book(
        BucketKey::new(slave, LedgerPhase::Address, None).with_master(Some(master)),
        1.5,
    );
    let json = Json::parse(&ledger.to_json()).expect("ledger JSON parses");
    let buckets = json.get("buckets").and_then(Json::as_arr).unwrap();
    assert_eq!(buckets.len(), 1);
    assert_eq!(buckets[0].get("slave").and_then(Json::as_str), Some(slave));
    assert_eq!(
        buckets[0].get("master").and_then(Json::as_str),
        Some(master)
    );
}
