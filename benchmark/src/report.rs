//! The metric catalogue, the result line every run ends with, and the
//! provenance line that precedes it.

use hierbus::campaign::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric as `BENCHMARK.json` declares it. `bound` is the share of
/// the baseline median a metric may worsen by before a change counts
/// as a regression; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of each workload sees, measured with tracing off. Every
/// workload reports every one of these; README.md defines the
/// operation each workload counts.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p90_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics of the traced run. Every traced run measures all
/// of them, each layer on the input this workload feeds it (README.md,
/// "Per-layer metrics").
pub const PER_LAYER: &[MetricDef] = &[
    layer("host.calibration_ms", "ms", Lower),
    layer("trace_overhead_frac", "frac", Lower),
    layer("trace.glue_frac", "frac", Lower),
    layer("client.tail_ms", "ms", Lower),
    layer("client.tail_pct", "%", Higher),
    layer("client.samples", "count", Higher),
    layer("table3.l1_ktps", "kT/s", Higher),
    layer("table3.l1_noest_ktps", "kT/s", Higher),
    layer("table3.l2_ktps", "kT/s", Higher),
    layer("table3.l2_noest_ktps", "kT/s", Higher),
    layer("table3.l3_ktps", "kT/s", Higher),
    layer("table3.residual_frac", "frac", Lower),
    layer("ec.mix_gen_ns_per_txn", "ns", Lower),
    layer("core.tlm1.ns_per_cycle", "ns", Lower),
    layer("core.tlm1.frame_ns_per_cycle", "ns", Lower),
    layer("core.tlm2.ns_per_cycle", "ns", Lower),
    layer("core.tlm3.ns_per_txn", "ns", Lower),
    layer("core.tlm1.cycles_per_txn", "count", Lower),
    layer("core.tlm2.events_per_txn", "count", Lower),
    layer("core.tlm2.cycle_err_pct", "%", Lower),
    layer("power.l1.ns_per_frame", "ns", Lower),
    layer("power.l2.ns_per_event", "ns", Lower),
    layer("power.l1.share", "frac", Lower),
    layer("power.l2.share", "frac", Lower),
    layer("power.l1.energy_err_pct", "%", Lower),
    layer("power.l2.energy_err_pct", "%", Lower),
    layer("obs.tlm1.span_ns_per_txn", "ns", Lower),
    layer("jcvm.scenario_us", "us", Lower),
    layer("jcvm.txns_per_scenario", "count", Lower),
    layer("jcvm.cycles_per_scenario", "count", Lower),
    layer("campaign.fixed_us", "us", Lower),
    layer("campaign.session_new_us", "us", Lower),
    layer("campaign.busy_frac", "frac", Higher),
    layer("campaign.imbalance", "x", Lower),
    layer("campaign.claim_retries", "count", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.materialize_us", "us", Lower),
    layer("serve.fingerprint_us", "us", Lower),
    layer("serve.cache.get_us", "us", Lower),
    layer("serve.cache.insert_us", "us", Lower),
    layer("serve.result_codec_us", "us", Lower),
    layer("serve.session_new_us", "us", Lower),
    layer("serve.exec_single_us", "us", Lower),
    layer("serve.exec_multi_us", "us", Lower),
    layer("serve.cache.hit_ratio", "frac", Higher),
    layer("serve.cache.evictions", "count", Lower),
    layer("serve.daemon.queue_p50_us", "us", Lower),
    layer("serve.daemon.total_p50_us", "us", Lower),
];

/// Looks a metric up in both catalogues.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run measured: operations attempted and failed in its
/// timed loop, whether every output check passed, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Printed as `name value unit` lines but not part of the result:
    /// the measured values behind normalized metrics.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }
}

/// The machine-readable last line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in catalogue order.
///
/// # Errors
///
/// Names the first catalogue metric the outcome lacks or holds as a
/// non-finite number — a benchmark bug, never a property of the
/// system under test.
pub fn result_line(o: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let value = o
            .get(d.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        metrics.push((
            d.name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str(d.unit.to_owned())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(o.correct)),
        ("attempted".to_owned(), Json::Num(o.attempted as f64)),
        ("failed".to_owned(), Json::Num(o.failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
    .to_string_compact())
}

/// Parses a result line back into an [`Outcome`] (metric names must be
/// in the catalogue).
///
/// # Errors
///
/// Describes the first structural problem: not JSON, a missing or
/// mistyped key, an extra key, or an unknown metric.
pub fn parse_result_line(line: &str) -> Result<Outcome, String> {
    let json = Json::parse(line.trim())?;
    let fields = json.as_obj().ok_or("result line is not an object")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("{key} is not a whole number"))
    };
    let mut outcome = Outcome {
        correct: json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("correct is not a bool")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        ..Outcome::default()
    };
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    for (name, m) in metrics {
        let def = metric_def(name).ok_or(format!("unknown metric {name}"))?;
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("{name} has no numeric value"))?;
        if m.get("unit").and_then(Json::as_str) != Some(def.unit) {
            return Err(format!("{name} does not carry unit {}", def.unit));
        }
        outcome.metrics.push((def.name, value));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(defs: &[MetricDef]) -> Outcome {
        let mut o = Outcome {
            correct: true,
            attempted: 1000,
            ..Outcome::default()
        };
        for (i, d) in defs.iter().enumerate() {
            o.set(d.name, 1.0 + i as f64 / 7.0);
        }
        o
    }

    #[test]
    fn result_line_round_trips() {
        for defs in [END_TO_END, PER_LAYER] {
            let o = full(defs);
            let line = result_line(&o, defs).unwrap();
            assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,"));
            let back = parse_result_line(&line).unwrap();
            assert_eq!(back.metrics, o.metrics);
            assert_eq!((back.attempted, back.failed, back.correct), (1000, 0, true));
        }
    }

    #[test]
    fn result_line_rejects_missing_or_non_finite_metrics() {
        let mut o = full(END_TO_END);
        o.metrics.pop();
        assert!(result_line(&o, END_TO_END).is_err());
        let mut o = full(END_TO_END);
        o.set("p50_ms", f64::NAN);
        assert!(result_line(&o, END_TO_END).unwrap_err().contains("p50_ms"));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line(r#"{"correct":true,"attempted":1,"failed":0}"#).is_err());
        assert!(
            parse_result_line(r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#)
                .is_err()
        );
        assert!(parse_result_line(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"nope":{"value":1,"unit":"s"}}}"#
        )
        .is_err());
        assert!(parse_result_line(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"p50_ms":{"value":1,"unit":"s"}}}"#
        )
        .is_err());
        let ok = parse_result_line(
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"}}}"#,
        )
        .unwrap();
        assert_eq!(ok.get("p50_ms"), Some(1.25));
        assert!(!ok.correct);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(largest <= 0.25);
    }

    /// `BENCHMARK.json` at the repository root must describe exactly
    /// this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).unwrap();
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = json.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better.name())
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
