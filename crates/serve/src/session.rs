//! The serve-side scenario runner: a reusable lean layer-1 session.
//!
//! The daemon serves `(cycles, energy)` scalars, so it runs the same
//! throughput-mode configuration as the root harness's lean session:
//! no per-transaction records, no per-cycle trace, one energy model
//! reset-reused across scenarios. The root crate's
//! `serve_matches_harness` test pins this runner bit-exact against
//! `harness::run_layer1` — the daemon must never drift from the batch
//! tools it replaces.

use crate::proto::Materialized;
use hierbus_campaign::{CampaignPayload, Fingerprint, Json};
use hierbus_core::{MemSlave, MultiMasterSystem, Tlm1Bus, TlmSystem};
use hierbus_ec::sequences::Scenario;
use hierbus_ec::{AccessRights, Address, AddressRange, MultiScenario, SignalClass, SlaveConfig};
use hierbus_obs::TraceCollector;
use hierbus_power::{CharacterizationDb, Layer1EnergyModel};

/// Cycle ceiling for served scenarios; hitting it is a deadlock bug.
pub const MAX_CYCLES: u64 = 50_000_000;

/// The slave window every served scenario runs against (the harness's
/// standard window).
fn scenario_slave(scenario: &Scenario) -> SlaveConfig {
    SlaveConfig::new(
        AddressRange::new(Address::new(0), 0x2_0000),
        scenario.waits,
        AccessRights::RWX,
    )
}

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

/// A reusable layer-1 runner for daemon workers: the energy model is
/// built once per worker and reset between scenarios. Cycles and
/// energy are bit-identical to a fresh `harness::run_layer1` on the
/// same scenario.
#[derive(Debug, Clone)]
pub struct ServeSession {
    model: Layer1EnergyModel,
}

impl ServeSession {
    /// Builds a session over a characterization database.
    pub fn new(db: &CharacterizationDb) -> Self {
        hierbus_obs::profiling::record_db_access();
        ServeSession {
            model: Layer1EnergyModel::new(db.clone()),
        }
    }

    /// Runs one scenario in throughput mode.
    pub fn run(&mut self, scenario: &Scenario) -> LeanResult {
        self.run_single(scenario, false).0
    }

    fn run_single(&mut self, scenario: &Scenario, observe: bool) -> (LeanResult, TraceCollector) {
        self.model.reset();
        let mem = MemSlave::new(scenario_slave(scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        if observe {
            bus.enable_obs();
        }
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        sys.disable_records();
        let model = &mut self.model;
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        (
            LeanResult {
                cycles: report.cycles,
                energy_pj: model.total_energy(),
            },
            sys.bus().obs().clone(),
        )
    }

    /// Runs one CPU+DMA workload in the same throughput mode: the
    /// arbiter-merged frame stream through the layer-1 model, records
    /// off. Cycles and energy are bit-identical to the multi-master
    /// harness's layer-1 run of the same workload.
    pub fn run_multi(&mut self, ms: &MultiScenario) -> LeanResult {
        self.run_multi_inner(ms, false).0
    }

    fn run_multi_inner(
        &mut self,
        ms: &MultiScenario,
        observe: bool,
    ) -> (LeanResult, TraceCollector) {
        self.model.reset();
        let mem = MemSlave::new(scenario_slave(&ms.cpu));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        if observe {
            bus.enable_obs();
        }
        let mut sys = MultiMasterSystem::for_multi(bus, ms);
        sys.disable_records();
        let model = &mut self.model;
        let report = sys.run(MAX_CYCLES, |bus: &mut Tlm1Bus| {
            model.on_frame(bus.last_frame());
        });
        (
            LeanResult {
                cycles: report.cycles,
                energy_pj: model.total_energy(),
            },
            sys.bus().obs().clone(),
        )
    }

    /// Runs either shape of materialized workload.
    pub fn run_materialized(&mut self, m: &Materialized) -> LeanResult {
        match m {
            Materialized::Single(s) => self.run(s),
            Materialized::Multi(ms) => self.run_multi(ms),
        }
    }

    /// Like [`run_materialized`](Self::run_materialized) but with the
    /// bus span collector enabled, returning the model-layer phase
    /// spans alongside the result. Span collection is observational —
    /// cycles and energy are bit-identical to the unobserved run (the
    /// daemon's tracing tests pin this), so traced results are safe to
    /// cache and replay interchangeably with untraced ones.
    pub fn run_observed(&mut self, m: &Materialized) -> (LeanResult, TraceCollector) {
        match m {
            Materialized::Single(s) => self.run_single(s, true),
            Materialized::Multi(ms) => self.run_multi_inner(ms, true),
        }
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
        let scenarios = sequences::all_scenarios();
        let mut session = ServeSession::new(&db);
        let first: Vec<LeanResult> = scenarios.iter().map(|s| session.run(s)).collect();
        let second: Vec<LeanResult> = scenarios.iter().map(|s| session.run(s)).collect();
        assert_eq!(first, second);
        // A fresh session agrees with a reused one.
        let fresh: Vec<LeanResult> = scenarios
            .iter()
            .map(|s| ServeSession::new(&db).run(s))
            .collect();
        assert_eq!(first, fresh);
    }

    #[test]
    fn observed_runs_are_bit_identical_and_collect_spans() {
        let db = CharacterizationDb::uniform();
        let mut session = ServeSession::new(&db);
        for scenario in sequences::all_scenarios().iter().take(3) {
            let plain = session.run(scenario);
            let (observed, collector) =
                session.run_observed(&Materialized::Single(scenario.clone()));
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
        let (_, collector) = session.run_single(&sequences::all_scenarios()[0], false);
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
