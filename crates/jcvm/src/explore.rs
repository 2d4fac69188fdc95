//! The HW/SW interface exploration driver (§4.3, Fig. 7b).
//!
//! For every interface configuration × workload, build the refined
//! model — interpreter → master adapter → layer-1 TLM bus → hardware
//! stack — run it, verify the result against the workload's reference,
//! and record cycles, transactions and layer-1 energy. The output is the
//! exploration table a designer would rank interfaces by.

use crate::adapter::{BusStack, IfaceConfig};
use crate::error::JcvmError;
use crate::hwstack::HwStackSlave;
use crate::interp::Interpreter;
use crate::workloads::Workload;
use hierbus_campaign::{CampaignOptions, CampaignPayload, CampaignStats, Json, Matrix};
use hierbus_core::Tlm1Bus;
use hierbus_ec::{Address, AddressRange, SignalFrame};
use hierbus_obs::{BucketKey, EnergyLedger, SlaveMap};
use hierbus_power::{CharacterizationDb, Layer1EnergyModel};
use std::sync::Arc;

/// One measured design point.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationRow {
    /// Interface identifier (see [`IfaceConfig::label`]).
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Bus cycles the workload's stack traffic consumed.
    pub cycles: u64,
    /// Bus transactions issued by the master adapter.
    pub transactions: u64,
    /// Layer-1 estimated energy in pJ.
    pub energy_pj: f64,
    /// The workload's (verified) result.
    pub result: i32,
    /// Energy attribution: `(folded bucket key, pJ)` pairs in sorted
    /// key order (see [`BucketKey::folded_key`]) — the decomposition of
    /// [`energy_pj`](Self::energy_pj) along `slave;phase;class`.
    pub attribution: Vec<(String, f64)>,
}

impl ExplorationRow {
    /// Energy per bus cycle in pJ (a quick efficiency indicator).
    pub fn energy_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.energy_pj / self.cycles as f64
        }
    }

    /// Fraction of the row's energy attributed to `phase` (a
    /// [`hierbus_obs::LedgerPhase`] name, e.g. `"address"` or
    /// `"idle"`); 0 when the row has no energy.
    pub fn phase_share(&self, phase: &str) -> f64 {
        let total: f64 = self.attribution.iter().map(|(_, v)| v).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let matching: f64 = self
            .attribution
            .iter()
            .filter(|(k, _)| BucketKey::from_folded_key(k).is_some_and(|b| b.phase.name() == phase))
            .map(|(_, v)| v)
            .sum::<f64>()
            + 0.0; // empty sums are -0.0; normalize the sign
        matching / total
    }
}

/// The attribution slave map for one interface configuration: the
/// hardware stack's register window.
fn hwstack_map(config: &IfaceConfig) -> SlaveMap {
    let mut map = SlaveMap::new();
    map.add(config.base, config.base + 0x100, "hwstack");
    map
}

/// Folds a ledger into the row representation: `(folded key, pJ)` in
/// sorted key order.
fn attribution_entries(ledger: &EnergyLedger) -> Vec<(String, f64)> {
    ledger.entries().map(|(k, v)| (k.folded_key(), v)).collect()
}

/// Builds and runs one design point — interpreter → master adapter →
/// layer-1 TLM bus → hardware stack — with `price` booking every bus
/// activation's frame into `model`, then books the row and its
/// attribution ledger.
fn run_point(
    model: &mut Layer1EnergyModel,
    price: impl Fn(&mut Layer1EnergyModel, &SignalFrame),
    config: IfaceConfig,
    workload: &Workload,
) -> Result<ExplorationRow, JcvmError> {
    let slave = HwStackSlave::new(
        AddressRange::new(Address::new(config.base), 0x100),
        config.width,
        config.capacity,
        config.waits(),
    );
    let mut bus = Tlm1Bus::new(vec![Box::new(slave)]);
    bus.enable_obs();
    bus.enable_frames();
    let mut stack = BusStack::with_tap(bus, config, |bus: &mut Tlm1Bus| {
        price(model, bus.last_frame());
    });

    let mut vm = Interpreter::new();
    let (entry, args) = (workload.build)(&mut vm);
    let result = vm
        .run(entry, &args, &mut stack, 50_000_000)?
        .ok_or(JcvmError::FrameUnderflow)?;
    assert_eq!(
        result,
        workload.expected,
        "{} produced a wrong result on {}",
        workload.name,
        config.label()
    );

    let (cycles, transactions) = (stack.cycles(), stack.transactions());
    let bus = stack.into_bus();
    let ledger = model
        .ledger(bus.obs().spans(), &hwstack_map(&config))
        .expect("the point's model traces");
    Ok(ExplorationRow {
        config: config.label(),
        workload: workload.name.to_owned(),
        cycles,
        transactions,
        energy_pj: model.total_energy(),
        result,
        attribution: attribution_entries(&ledger),
    })
}

/// A reusable exploration runner: the layer-1 energy model (its weight
/// cache and characterization clone) is built once and [`reset`] between
/// design points instead of per run. One session replaying a sequence of
/// points produces bit-identical rows to building a fresh session per
/// point — the campaign engine hands each worker one session for its
/// whole share of the matrix.
///
/// [`reset`]: Layer1EnergyModel::reset
pub struct ExploreSession {
    model: Layer1EnergyModel,
}

impl ExploreSession {
    /// Builds a session over a characterization database.
    pub fn new(db: &CharacterizationDb) -> Self {
        let mut model = Layer1EnergyModel::new(db.clone());
        // Per-cycle trace feeds the row's attribution ledger; reset()
        // keeps the allocation across design points.
        model.enable_trace();
        ExploreSession { model }
    }

    /// Runs one workload on one interface configuration.
    ///
    /// # Errors
    ///
    /// Propagates any [`JcvmError`] the applet raises (the standard
    /// workloads raise none on capacities ≥ their stack needs).
    pub fn run(
        &mut self,
        config: IfaceConfig,
        workload: &Workload,
    ) -> Result<ExplorationRow, JcvmError> {
        self.model.reset();
        run_point(
            &mut self.model,
            Layer1EnergyModel::on_frame,
            config,
            workload,
        )
    }
}

impl CampaignPayload for ExplorationRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("config".to_owned(), Json::Str(self.config.clone())),
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("cycles".to_owned(), Json::Num(self.cycles as f64)),
            (
                "transactions".to_owned(),
                Json::Num(self.transactions as f64),
            ),
            ("energy_pj".to_owned(), Json::Num(self.energy_pj)),
            ("result".to_owned(), Json::Num(self.result as f64)),
            (
                "attribution".to_owned(),
                Json::Obj(
                    self.attribution
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        let attribution = match json.get("attribution")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(ExplorationRow {
            config: json.get("config")?.as_str()?.to_owned(),
            workload: json.get("workload")?.as_str()?.to_owned(),
            cycles: json.get("cycles")?.as_u64()?,
            transactions: json.get("transactions")?.as_u64()?,
            energy_pj: json.get("energy_pj")?.as_f64()?,
            result: json.get("result")?.as_f64()? as i32,
            attribution,
        })
    }
}

/// The campaign matrix of a sweep: `interface × workload`, in the same
/// row-major order the classic sequential loop used (configurations
/// outermost).
pub fn explore_matrix(configs: &[IfaceConfig], workloads: &[Workload]) -> Matrix {
    Matrix::new()
        .axis("iface", configs.iter().map(IfaceConfig::label))
        .axis("workload", workloads.iter().map(|w| w.name))
}

/// The full sweep as a campaign: every configuration × every workload,
/// executed per `opts` (name, worker count) with results merged
/// in matrix order. One worker reproduces [`explore`] exactly.
///
/// # Errors
///
/// None: the error type is [`Infallible`](std::convert::Infallible),
/// as for [`hierbus_campaign::run`]. The `Result` stays so the frozen
/// benchmark package's `.expect(..)` and `.map_err(..)?` keep compiling.
///
/// # Panics
///
/// Panics if any workload produces a wrong result on any configuration —
/// the refinement must never change functional behaviour.
pub fn explore_campaign(
    configs: &[IfaceConfig],
    workloads: &[Workload],
    db: &Arc<CharacterizationDb>,
    opts: &CampaignOptions,
) -> Result<(Vec<ExplorationRow>, CampaignStats), std::convert::Infallible> {
    let matrix = explore_matrix(configs, workloads);
    // Workers share the read-only characterization DB; each worker
    // builds one session (energy model) and resets it between points,
    // while the interpreter + bus + hardware stack are rebuilt inside
    // the runner, so nothing mutable crosses threads.
    let db = Arc::clone(db);
    let Ok(report) = hierbus_campaign::run_with(
        &matrix,
        opts,
        || ExploreSession::new(&db),
        move |session, point| {
            let config = configs[point.coords[0]];
            let workload = &workloads[point.coords[1]];
            session
                .run(config, workload)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name, config.label()))
        },
    );
    let stats = report.stats.clone();
    Ok((report.results.into_iter().flatten().collect(), stats))
}

/// The full sweep: every configuration × every workload, sequentially.
///
/// # Panics
///
/// Panics if any workload produces a wrong result on any configuration —
/// the refinement must never change functional behaviour.
pub fn explore(
    configs: &[IfaceConfig],
    workloads: &[Workload],
    db: &CharacterizationDb,
) -> Vec<ExplorationRow> {
    let db = Arc::new(db.clone());
    let Ok((rows, _)) = explore_campaign(
        configs,
        workloads,
        &db,
        &CampaignOptions::sequential("explore_jcvm"),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{RegOrganization, StatusPolicy};
    use crate::workloads::standard_workloads;
    use hierbus_ec::DataWidth;

    const BASE: u64 = 0x8000;

    impl ExplorationRow {
        /// Reconstructs the row's [`EnergyLedger`] (layer `tlm1`,
        /// software dimension = the interface config label), e.g. for
        /// merging a campaign's rows into one sweep-wide ledger.
        ///
        /// # Panics
        ///
        /// Panics on a malformed attribution key — rows only carry keys
        /// produced by [`BucketKey::folded_key`].
        fn to_ledger(&self) -> EnergyLedger {
            let mut ledger = EnergyLedger::new("tlm1").with_software(self.config.clone());
            ledger.set_cycles(self.cycles);
            for (key, pj) in &self.attribution {
                let key = BucketKey::from_folded_key(key)
                    .unwrap_or_else(|| panic!("malformed attribution key {key:?}"));
                ledger.book(key, *pj);
            }
            ledger
        }
    }

    /// One design point through the pre-optimization hot path: a fresh
    /// energy model per point driving the bit-loop reference diff and
    /// per-toggle database lookups — the differential oracle the
    /// optimized session must match bit for bit.
    fn run_config_reference(
        config: IfaceConfig,
        workload: &Workload,
        db: &CharacterizationDb,
    ) -> Result<ExplorationRow, JcvmError> {
        let mut model = Layer1EnergyModel::new(db.clone());
        model.enable_trace();
        run_point(
            &mut model,
            Layer1EnergyModel::on_frame_reference,
            config,
            workload,
        )
    }

    #[test]
    fn refined_model_matches_functional_results() {
        let db = CharacterizationDb::uniform();
        let w = standard_workloads();
        let row = ExploreSession::new(&db)
            .run(IfaceConfig::baseline(BASE), &w[0])
            .unwrap();
        assert_eq!(row.result, w[0].expected);
        assert!(row.cycles > 0);
        assert!(row.energy_pj > 0.0);
        assert!(row.transactions > 0);
    }

    #[test]
    fn narrower_interface_costs_more() {
        let db = CharacterizationDb::uniform();
        let w = &standard_workloads()[0];
        let wide = ExploreSession::new(&db)
            .run(IfaceConfig::baseline(BASE), w)
            .unwrap();
        let narrow = ExploreSession::new(&db)
            .run(
                IfaceConfig {
                    width: DataWidth::W8,
                    ..IfaceConfig::baseline(BASE)
                },
                w,
            )
            .unwrap();
        assert!(narrow.cycles > wide.cycles);
        assert!(narrow.transactions > wide.transactions);
        assert!(narrow.energy_pj > wide.energy_pj);
    }

    #[test]
    fn polling_costs_transactions() {
        let db = CharacterizationDb::uniform();
        let w = &standard_workloads()[0];
        let silent = ExploreSession::new(&db)
            .run(IfaceConfig::baseline(BASE), w)
            .unwrap();
        let polled = ExploreSession::new(&db)
            .run(
                IfaceConfig {
                    status_policy: StatusPolicy::EveryPush,
                    ..IfaceConfig::baseline(BASE)
                },
                w,
            )
            .unwrap();
        assert!(polled.transactions > silent.transactions);
    }

    #[test]
    fn single_register_organization_pays_for_peeks() {
        let db = CharacterizationDb::uniform();
        // fib peeks via Dup-free code, but arith_loop uses no peek at
        // all; bit_mix does not either — use a workload with Dup.
        // The interpreter implements Dup via peek+push, so arith-free
        // Dup users show the single-reg penalty. fib_rec has no Dup, so
        // compare on array_checksum (no Dup either) — fall back to
        // measuring that single-reg is never *cheaper*.
        let w = &standard_workloads()[0];
        let sep = ExploreSession::new(&db)
            .run(IfaceConfig::baseline(BASE), w)
            .unwrap();
        let single = ExploreSession::new(&db)
            .run(
                IfaceConfig {
                    organization: RegOrganization::SingleDataReg,
                    ..IfaceConfig::baseline(BASE)
                },
                w,
            )
            .unwrap();
        assert!(single.transactions >= sep.transactions);
    }

    #[test]
    fn campaign_workers_match_sequential_sweep() {
        let db = CharacterizationDb::uniform();
        let configs = [
            IfaceConfig::baseline(BASE),
            IfaceConfig {
                width: DataWidth::W8,
                ..IfaceConfig::baseline(BASE)
            },
        ];
        let workloads = &standard_workloads()[..2];
        let sequential = explore(&configs, workloads, &db);
        let shared = Arc::new(db);
        let (parallel, stats) = explore_campaign(
            &configs,
            workloads,
            &shared,
            &CampaignOptions::with_workers("test", 3),
        )
        .unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(stats.total, configs.len() * workloads.len());
    }

    #[test]
    fn reference_path_matches_optimized_path_bit_exact() {
        let db = CharacterizationDb::uniform();
        let configs = [
            IfaceConfig::baseline(BASE),
            IfaceConfig {
                width: DataWidth::W8,
                ..IfaceConfig::baseline(BASE)
            },
        ];
        let workloads = &standard_workloads()[..2];
        for config in configs {
            for w in workloads {
                let fast = ExploreSession::new(&db).run(config, w).unwrap();
                let slow = run_config_reference(config, w, &db).unwrap();
                assert_eq!(fast, slow);
                assert_eq!(fast.energy_pj.to_bits(), slow.energy_pj.to_bits());
            }
        }
    }

    #[test]
    fn reused_session_matches_fresh_sessions_bit_exact() {
        let db = CharacterizationDb::uniform();
        let configs = [
            IfaceConfig::baseline(BASE),
            IfaceConfig {
                width: DataWidth::W8,
                ..IfaceConfig::baseline(BASE)
            },
        ];
        let workloads = &standard_workloads()[..2];
        let mut session = ExploreSession::new(&db);
        for config in configs {
            for w in workloads {
                let reused = session.run(config, w).unwrap();
                let fresh = ExploreSession::new(&db).run(config, w).unwrap();
                assert_eq!(reused, fresh);
                assert_eq!(reused.energy_pj.to_bits(), fresh.energy_pj.to_bits());
            }
        }
    }

    #[test]
    fn attribution_decomposes_row_energy_and_round_trips() {
        let db = CharacterizationDb::uniform();
        let w = &standard_workloads()[0];
        let row = ExploreSession::new(&db)
            .run(IfaceConfig::baseline(BASE), w)
            .unwrap();
        assert!(!row.attribution.is_empty());
        let total: f64 = row.attribution.iter().map(|(_, v)| v).sum();
        assert!(
            (total - row.energy_pj).abs() <= 1e-9 * row.energy_pj,
            "attribution sums to the row energy: {total} vs {}",
            row.energy_pj
        );
        // The stack bus is fully pipelined: address cycles overlap data
        // spans, which outrank them, so only data phases carry energy.
        assert!(row.phase_share("read-data") > 0.0);
        assert!(row.phase_share("write-data") > 0.0);
        // Phase shares partition.
        let sum: f64 = ["address", "read-data", "write-data", "idle"]
            .iter()
            .map(|p| row.phase_share(p))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The JSON payload round-trips the attribution exactly.
        let back = ExplorationRow::from_json(&row.to_json()).unwrap();
        assert_eq!(back, row);
        // And the ledger reconstruction keeps the software dimension.
        let ledger = row.to_ledger();
        assert_eq!(ledger.software(), Some(row.config.as_str()));
        assert_eq!(ledger.cycles(), row.cycles);
        assert_eq!(ledger.total_pj(), total);
    }

    #[test]
    fn payload_without_attribution_does_not_parse() {
        let db = CharacterizationDb::uniform();
        let w = &standard_workloads()[0];
        let row = ExploreSession::new(&db)
            .run(IfaceConfig::baseline(BASE), w)
            .unwrap();
        let mut json = row.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "attribution");
        }
        assert!(ExplorationRow::from_json(&json).is_none());
    }

    #[test]
    fn merged_campaign_ledger_is_byte_identical_at_any_worker_count() {
        let db = CharacterizationDb::uniform();
        let configs = [
            IfaceConfig::baseline(BASE),
            IfaceConfig {
                width: DataWidth::W8,
                ..IfaceConfig::baseline(BASE)
            },
        ];
        let workloads = &standard_workloads()[..2];
        let shared = Arc::new(db);
        let mut folded = Vec::new();
        for workers in [1, 2, 4] {
            let (rows, _) = explore_campaign(
                &configs,
                workloads,
                &shared,
                &CampaignOptions::with_workers("merge-test", workers),
            )
            .unwrap();
            // Merge every row's ledger in matrix (index) order.
            let mut merged = EnergyLedger::new("tlm1");
            for row in &rows {
                merged.merge(&row.to_ledger());
            }
            folded.push(merged.folded());
        }
        assert_eq!(folded[0], folded[1], "2 workers changed the merge");
        assert_eq!(folded[0], folded[2], "4 workers changed the merge");
        assert!(!folded[0].is_empty());
    }

    #[test]
    fn full_sweep_is_consistent() {
        let db = CharacterizationDb::uniform();
        let configs = [
            IfaceConfig::baseline(BASE),
            IfaceConfig {
                width: DataWidth::W16,
                ..IfaceConfig::baseline(BASE)
            },
        ];
        let workloads = standard_workloads();
        let rows = explore(&configs, &workloads, &db);
        assert_eq!(rows.len(), configs.len() * workloads.len());
        for row in &rows {
            assert!(row.cycles > 0, "{} {}", row.config, row.workload);
            assert!(row.energy_per_cycle() > 0.0);
        }
    }
}
