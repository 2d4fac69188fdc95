//! Observed experiment runs: every model layer with span collection,
//! cumulative-energy counter tracks, and a metrics registry, exported
//! as a Perfetto/Chrome trace plus a metrics CSV under `results/obs/`.
//!
//! The exported trace lays the same scenario's transactions side by
//! side: one process per layer (`rtl`, `tlm1`, `tlm2`), one thread per
//! protocol phase, and an `energy_pj` counter track per layer fed from
//! the gate-level estimator (RTL), the layer-1 energy model, and the
//! layer-2 phase-event model respectively.
//!
//! Metric names written to the CSV (per layer `L` in `rtl`, `tlm1`,
//! `tlm2`):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `L.txns` | counter | transactions completed |
//! | `L.errors` | counter | transactions completed with a bus error |
//! | `L.cycles` | counter | bus cycles used |
//! | `L.energy_pj` | counter | estimated energy, rounded to whole pJ |
//! | `L.txn_latency_cycles` | histogram | issue→done latency per transaction |

use hierbus_ec::sequences::Scenario;
use hierbus_obs::{DivergenceAuditor, EnergyLedger, MetricsRegistry, TraceCollector};
use hierbus_power::run::scenario_slave_map;
use hierbus_power::{Capture, CharacterizationDb, Layer, Outcome, RunSpec, Session};
use std::path::{Path, PathBuf};

/// Latency histogram bucket bounds (cycles, inclusive upper edges).
const LATENCY_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Name of the per-layer cumulative energy counter track.
const ENERGY_TRACK: &str = "energy_pj";

/// One scenario observed across all three model layers.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Scenario name (used for output file names).
    pub name: String,
    /// Span collectors in layer order: `rtl`, `tlm1`, `tlm2`.
    pub collectors: Vec<TraceCollector>,
    /// Cross-layer metrics (see the module docs for the name table).
    pub metrics: MetricsRegistry,
    /// Energy-attribution ledgers in layer order: `rtl`, `tlm1`,
    /// `tlm2`. Each decomposes (never re-prices) the matching entry of
    /// [`energy_pj`](Self::energy_pj).
    pub ledgers: Vec<EnergyLedger>,
    /// Per-cycle power traces for the cycle-resolved layers `rtl` and
    /// `tlm1` (layer 2 prices whole phases and has none).
    pub power_traces: [Vec<f64>; 2],
    /// Exact model energy totals in layer order: `rtl`, `tlm1`, `tlm2`.
    pub energy_pj: [f64; 3],
}

fn record_layer_metrics(reg: &mut MetricsRegistry, layer: &str, run: &Outcome) {
    let txns = reg.counter(&format!("{layer}.txns"));
    reg.add(txns, run.records.len() as u64);
    let errors = reg.counter(&format!("{layer}.errors"));
    reg.add(
        errors,
        run.records.iter().filter(|r| r.error.is_some()).count() as u64,
    );
    let cyc = reg.counter(&format!("{layer}.cycles"));
    reg.add(cyc, run.cycles);
    let energy = reg.counter(&format!("{layer}.energy_pj"));
    reg.add(energy, run.energy_pj.round().max(0.0) as u64);
    let lat = reg.histogram(&format!("{layer}.txn_latency_cycles"), &LATENCY_BOUNDS);
    for r in &run.records {
        if let Some(done) = r.done_cycle {
            reg.observe(lat, done - r.issue_cycle + 1);
        }
    }
}

/// `obs` with the layer's cumulative energy counter track appended.
fn with_energy_track(
    mut obs: TraceCollector,
    totals: impl IntoIterator<Item = (u64, f64)>,
) -> TraceCollector {
    for (cycle, total) in totals {
        obs.counter_sample(ENERGY_TRACK, cycle, total);
    }
    obs
}

/// Running totals of a per-cycle energy trace, one per cycle.
fn cumulative(per_cycle_pj: &[f64]) -> impl Iterator<Item = (u64, f64)> + '_ {
    per_cycle_pj
        .iter()
        .enumerate()
        .scan(0.0, |total, (cycle, e)| {
            *total += e;
            Some((cycle as u64, *total))
        })
}

/// Runs `scenario` on the RTL reference and both TLM layers with
/// observability on: spans from every layer, energy counter tracks, and
/// the metrics table.
pub fn run_observed(scenario: &Scenario, db: &CharacterizationDb) -> ObservedRun {
    let mut session = Session::new(db);
    let stimulus = scenario.clone().into();
    let mut full = |layer| session.run(&RunSpec::new(layer, Capture::Full), &stimulus);
    let rtl = full(Layer::Rtl { glitches: true });
    let l1 = full(Layer::L1);
    let l2 = full(Layer::L2 { correlation: false });
    let mut metrics = MetricsRegistry::new();
    for (layer, run) in [("rtl", &rtl), ("tlm1", &l1), ("tlm2", &l2)] {
        record_layer_metrics(&mut metrics, layer, run);
    }
    // The reference is attributed along its own gate-level trace.
    let rtl_ledger =
        hierbus_obs::attribute_cycles("rtl", rtl.obs.spans(), &rtl.trace, &scenario_slave_map());
    ObservedRun {
        name: scenario.name.to_string(),
        // Layer 2 has no per-cycle trace: its energy is sampled at each
        // phase completion.
        collectors: vec![
            with_energy_track(rtl.obs, cumulative(&rtl.trace)),
            with_energy_track(l1.obs, cumulative(&l1.trace)),
            with_energy_track(l2.obs, l2.bookings),
        ],
        metrics,
        ledgers: vec![rtl_ledger, l1.ledger, l2.ledger],
        power_traces: [rtl.trace, l1.trace],
        energy_pj: [rtl.energy_pj, l1.energy_pj, l2.energy_pj],
    }
}

/// File-system-safe version of a scenario name.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Writes `<dir>/<name>.trace.json` (Perfetto/Chrome trace-event JSON),
/// `<dir>/<name>.metrics.csv`, and `<dir>/<name>.metrics.prom` (the
/// same snapshot in the Prometheus text exposition format the serve
/// daemon's `--metrics-file` uses), creating `dir` as needed. Returns
/// the trace and CSV paths.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing the files.
pub fn export(run: &ObservedRun, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let base = slug(&run.name);
    let trace_path = dir.join(format!("{base}.trace.json"));
    hierbus_obs::perfetto::save(&trace_path, &run.collectors)?;
    let snapshot = run.metrics.snapshot();
    let csv_path = dir.join(format!("{base}.metrics.csv"));
    hierbus_obs::save_csv(&csv_path, &snapshot)?;
    let prom_path = dir.join(format!("{base}.metrics.prom"));
    std::fs::write(&prom_path, hierbus_obs::prometheus_text(&snapshot))?;
    Ok((trace_path, csv_path))
}

/// The conventional output directory for observability artifacts.
pub fn default_dir() -> PathBuf {
    PathBuf::from("results/obs")
}

fn delta_json(d: &Option<hierbus_obs::attribution::BucketDelta>) -> String {
    match d {
        None => "null".to_owned(),
        Some(d) => format!(
            r#"{{"slave":"{}","phase":"{}","class":"{}","a_pj":{},"b_pj":{}}}"#,
            d.key.slave,
            d.key.phase.name(),
            d.key.class_name(),
            d.a_pj,
            d.b_pj
        ),
    }
}

fn trace_div_json(d: &Option<hierbus_obs::TraceDivergence>) -> String {
    match d {
        None => "null".to_owned(),
        Some(d) => {
            let spans: Vec<String> = d
                .context
                .iter()
                .map(|s| {
                    format!(
                        r#"{{"trace_id":{},"phase":"{}","class":"{}","begin":{},"end":{}}}"#,
                        s.trace_id,
                        s.phase.name(),
                        s.class.name(),
                        s.begin,
                        s.end
                    )
                })
                .collect();
            format!(
                r#"{{"cycle":{},"a_pj":{},"b_pj":{},"context_spans":[{}]}}"#,
                d.cycle,
                d.a_pj,
                d.b_pj,
                spans.join(",")
            )
        }
    }
}

fn audit_json(
    auditor: &DivergenceAuditor,
    a: &EnergyLedger,
    b: &EnergyLedger,
    traces: Option<(&[f64], &[f64], &[hierbus_obs::SpanEvent])>,
) -> String {
    let audit = auditor.audit_ledgers(a, b);
    let trace = traces.and_then(|(ta, tb, spans)| auditor.audit_traces(ta, tb, spans, 8));
    format!(
        r#"{{"checked":{},"divergent":{},"first":{},"worst":{},"trace":{}}}"#,
        audit.checked,
        audit.divergent,
        delta_json(&audit.first),
        delta_json(&audit.worst),
        trace_div_json(&trace)
    )
}

/// Writes `<dir>/attribution_<name>.json` (structured attribution +
/// divergence report) and `<dir>/attribution_<name>.folded`
/// (folded-stack "energy flamegraph" lines for all three layers),
/// creating `dir` as needed. Returns the two paths.
///
/// The divergence section audits RTL↔TLM1 at both the bucket and the
/// per-cycle level (first divergent cycle with a ±8-cycle span context
/// window, using the TLM1 span record) and TLM1↔TLM2 at the bucket
/// level. `auditor` sets the tolerance: the layers differ by design
/// (that is Table 2's point), so pick one matched to the question —
/// tight to localize any modeling gap, loose to flag only regressions.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing the files.
pub fn export_attribution(
    run: &ObservedRun,
    dir: &Path,
    auditor: &DivergenceAuditor,
) -> std::io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let base = slug(&run.name);
    let [rtl, tlm1, tlm2] = [&run.ledgers[0], &run.ledgers[1], &run.ledgers[2]];
    let folded_path = dir.join(format!("attribution_{base}.folded"));
    let folded: String = run.ledgers.iter().map(EnergyLedger::folded).collect();
    std::fs::write(&folded_path, folded)?;
    let json_path = dir.join(format!("attribution_{base}.json"));
    let layers: Vec<String> = run.ledgers.iter().map(EnergyLedger::to_json).collect();
    let rtl_tlm1 = audit_json(
        auditor,
        rtl,
        tlm1,
        Some((
            &run.power_traces[0],
            &run.power_traces[1],
            run.collectors[1].spans(),
        )),
    );
    let tlm1_tlm2 = audit_json(auditor, tlm1, tlm2, None);
    let json = format!(
        "{{\"schema_version\":1,\"scenario\":\"{}\",\"layers\":[{}],\
         \"divergence\":{{\"rtl_tlm1\":{},\"tlm1_tlm2\":{}}}}}\n",
        base,
        layers.join(","),
        rtl_tlm1,
        tlm1_tlm2
    );
    std::fs::write(&json_path, json)?;
    Ok((json_path, folded_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use hierbus_ec::sequences;

    #[test]
    fn observed_run_collects_all_layers() {
        let db = harness::standard_db();
        let run = run_observed(&sequences::single_read(false), &db);
        assert_eq!(run.collectors.len(), 3);
        for obs in &run.collectors {
            assert!(obs.span_count() > 0, "layer {} has spans", obs.layer());
            assert_eq!(obs.open_count(), 0, "layer {} leaks spans", obs.layer());
        }
        // One successful transaction = request + address + data on every
        // layer.
        assert_eq!(run.collectors[0].span_count(), 3);
        assert_eq!(run.collectors[1].span_count(), 3);
        assert_eq!(run.collectors[2].span_count(), 3);
        // Energy tracks exist for every layer.
        for obs in &run.collectors {
            assert!(
                obs.counters().iter().any(|t| t.name == ENERGY_TRACK),
                "layer {} has an energy track",
                obs.layer()
            );
        }
        let snap = run.metrics.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "rtl.txns" && *v == 1));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "tlm1.txn_latency_cycles" && h.count == 1));
    }

    #[test]
    fn ledgers_decompose_each_layers_total() {
        let db = harness::standard_db();
        let run = run_observed(&sequences::write_after_read(), &db);
        for (i, ledger) in run.ledgers.iter().enumerate() {
            let total = run.energy_pj[i];
            let err = (ledger.total_pj() - total).abs();
            assert!(
                err <= 1e-9 * total.abs().max(1.0),
                "layer {} ledger {} vs model {}",
                ledger.layer(),
                ledger.total_pj(),
                total
            );
            assert!(ledger.bucket_count() > 0);
        }
        assert_eq!(run.ledgers[0].layer(), "rtl");
        assert_eq!(run.ledgers[2].layer(), "tlm2");
        // Cycle-resolved layers carry their traces for the auditor.
        assert_eq!(run.power_traces[1].len() as u64, run.ledgers[1].cycles());
    }

    #[test]
    fn export_attribution_writes_json_and_folded() {
        let db = harness::standard_db();
        let run = run_observed(&sequences::single_read(false), &db);
        let dir = std::env::temp_dir().join("hierbus_attr_test");
        let auditor = DivergenceAuditor::default();
        let (json_path, folded_path) =
            export_attribution(&run, &dir, &auditor).expect("export writes");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.starts_with("{\"schema_version\":1,\"scenario\":\"single_read\""));
        assert!(json.contains("\"divergence\":{\"rtl_tlm1\":"));
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        // One folded block per layer, every line `stack value`.
        assert!(folded.lines().any(|l| l.starts_with("rtl;")));
        assert!(folded.lines().any(|l| l.starts_with("tlm1;")));
        assert!(folded.lines().any(|l| l.starts_with("tlm2;")));
        for line in folded.lines() {
            assert_eq!(line.split(' ').count(), 2, "folded line: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_writes_trace_and_csv() {
        let db = harness::standard_db();
        let run = run_observed(&sequences::back_to_back_reads(), &db);
        let dir = std::env::temp_dir().join("hierbus_obs_test");
        let (trace, csv) = export(&run, &dir).expect("export writes");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"C\""));
        let metrics = std::fs::read_to_string(&csv).unwrap();
        assert!(metrics.starts_with("kind,name,field,value\n"));
        assert!(metrics.contains("counter,rtl.txns,count,4\n"));
        // The Prometheus exposition rides alongside, sanitized to the
        // exposition charset.
        let prom = std::fs::read_to_string(csv.with_extension("prom")).unwrap();
        assert!(prom.contains("# TYPE rtl_txns counter\nrtl_txns 4\n"));
        assert!(prom.contains("# TYPE tlm1_txn_latency_cycles histogram\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
