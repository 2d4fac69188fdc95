//! The serve-side scenario runner: a reusable lean layer-1 session.
//!
//! The daemon serves `(cycles, energy)` scalars, so it runs layer 1 with
//! energy on and capture lean — no per-transaction records, no
//! per-cycle trace — on one reset-reused [`Session`] per worker. The
//! root crate's `served_results_match_the_batch_harness_bit_exactly`
//! test pins this runner bit-exact against `harness::run_layer1`: the
//! daemon must never drift from the batch tools it replaces.

use crate::proto::Materialized;
use hierbus_campaign::{CampaignPayload, Fingerprint, Json};
use hierbus_ec::SignalClass;
use hierbus_obs::TraceCollector;
use hierbus_power::{Capture, CharacterizationDb, Layer, RunSpec, Session};

/// The scalar outcome of one served scenario — the unit the protocol
/// streams and the cache stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeanResult {
    /// Bus cycles used.
    pub cycles: u64,
    /// Estimated energy in pJ.
    pub energy_pj: f64,
}

impl CampaignPayload for LeanResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".to_owned(), Json::Num(self.cycles as f64)),
            ("energy_pj".to_owned(), Json::Num(self.energy_pj)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(LeanResult {
            cycles: json.get("cycles")?.as_u64()?,
            energy_pj: json.get("energy_pj")?.as_f64()?,
        })
    }
}

/// A reusable layer-1 runner for daemon workers, built once per worker.
/// Cycles and energy are bit-identical to a fresh `harness::run_layer1`
/// on the same scenario (and to the multi-master layer-1 run of a
/// CPU+DMA workload).
#[derive(Debug, Clone)]
pub struct ServeSession {
    session: Session,
}

impl ServeSession {
    /// Builds a session over a characterization database.
    pub fn new(db: &CharacterizationDb) -> Self {
        ServeSession {
            session: Session::new(db),
        }
    }

    /// Runs either shape of materialized workload in throughput mode.
    pub fn run_materialized(&mut self, m: &Materialized) -> LeanResult {
        self.run(m, Capture::Lean).0
    }

    /// Like [`run_materialized`](Self::run_materialized) but with the
    /// bus span collector enabled, returning the model-layer phase
    /// spans alongside the result. Span collection is observational —
    /// cycles and energy are bit-identical to the unobserved run (the
    /// daemon's tracing tests pin this), so traced results are safe to
    /// cache and replay interchangeably with untraced ones.
    pub fn run_observed(&mut self, m: &Materialized) -> (LeanResult, TraceCollector) {
        self.run(m, Capture::Spans)
    }

    fn run(&mut self, m: &Materialized, capture: Capture) -> (LeanResult, TraceCollector) {
        let out = self.session.run(&RunSpec::new(Layer::L1, capture), m);
        let result = LeanResult {
            cycles: out.cycles,
            energy_pj: out.energy_pj,
        };
        (result, out.obs)
    }
}

/// A bit-exact fingerprint of a characterization database: the raw
/// IEEE-754 bits of every per-class energy weight and per-phase
/// average. Cache keys include it, so a persisted cache index built
/// against one characterization is never replayed against another.
pub fn db_fingerprint(db: &CharacterizationDb) -> String {
    let mut fp = Fingerprint::new();
    for class in SignalClass::ALL {
        fp.eat_f64(db.energy_per_toggle(class));
    }
    fp.eat_f64(db.avg_addr_bus_toggles());
    fp.eat_f64(db.avg_addr_ctl_toggles());
    let (data, ctl) = db.avg_read_beat_toggles();
    fp.eat_f64(data);
    fp.eat_f64(ctl);
    let (data, ctl) = db.avg_write_beat_toggles();
    fp.eat_f64(data);
    fp.eat_f64(ctl);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::sequences;

    #[test]
    fn session_reuse_is_deterministic() {
        let db = CharacterizationDb::uniform();
        let scenarios: Vec<Materialized> = sequences::all_scenarios()
            .into_iter()
            .map(Materialized::from)
            .collect();
        let mut session = ServeSession::new(&db);
        let mut run_all = || -> Vec<LeanResult> {
            scenarios
                .iter()
                .map(|s| session.run_materialized(s))
                .collect()
        };
        let first = run_all();
        assert_eq!(first, run_all());
        // A fresh session agrees with a reused one.
        let fresh: Vec<LeanResult> = scenarios
            .iter()
            .map(|s| ServeSession::new(&db).run_materialized(s))
            .collect();
        assert_eq!(first, fresh);
    }

    #[test]
    fn observed_runs_are_bit_identical_and_collect_spans() {
        let db = CharacterizationDb::uniform();
        let mut session = ServeSession::new(&db);
        for scenario in sequences::all_scenarios().into_iter().take(3) {
            let m = Materialized::Single(scenario.clone());
            let plain = session.run_materialized(&m);
            let (observed, collector) = session.run_observed(&m);
            assert_eq!(
                plain, observed,
                "{}: observation changed the result",
                scenario.name
            );
            assert!(collector.span_count() > 0, "{}: no spans", scenario.name);
            assert_eq!(
                collector.open_count(),
                0,
                "{}: dangling spans",
                scenario.name
            );
        }
        // The unobserved path keeps its collector disabled (no buffers).
        let first = Materialized::Single(sequences::all_scenarios()[0].clone());
        let (_, collector) = session.run(&first, Capture::Lean);
        assert_eq!(collector.span_count(), 0);
    }

    #[test]
    fn lean_result_roundtrips_json() {
        let r = LeanResult {
            cycles: 12_345,
            energy_pj: 6789.0625,
        };
        let back = LeanResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn db_fingerprint_tracks_the_characterization() {
        let uniform = db_fingerprint(&CharacterizationDb::uniform());
        assert_eq!(uniform, db_fingerprint(&CharacterizationDb::uniform()));
        assert_eq!(uniform.len(), 16);
        let other = CharacterizationDb::from_class_stats(
            &[(SignalClass::AddrBus, 10.0, 7)],
            hierbus_power::PhaseCounts {
                addr_phases: 7,
                read_beats: 1,
                write_beats: 1,
            },
        );
        assert_ne!(uniform, db_fingerprint(&other));
    }
}
