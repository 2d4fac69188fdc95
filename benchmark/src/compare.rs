//! `compare <dirA> <dirB>`: two sets of saved runs, side by side. For
//! every metric × workload it prints each side's median and quartiles
//! and, for end-to-end metrics, a verdict against the metric's bound:
//! `within`, `worse` (B's median worse than A's by more than the
//! bound), or `unresolved` (a side's quartile spread is wider than the
//! bound and B does not beat A on every run). `setup_s` is judged on
//! its medians alone: a set-up of tens of milliseconds is not steady
//! enough for its spread to be held to a bound.

use crate::report::{metric_def, parse_result_line, Better, Outcome, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::Workload;
use hierbus::campaign::Json;
use std::fmt::Write;
use std::path::Path;

/// One saved run: its stdout, as `run` prints it.
#[derive(Debug)]
pub struct SavedRun {
    pub workload: String,
    pub trace: bool,
    pub outcome: Outcome,
}

/// Parses a saved run: the `provenance` line names the workload, the
/// last line is the result.
pub fn parse_saved(text: &str) -> Result<SavedRun, String> {
    let prov = text
        .lines()
        .find_map(|l| l.strip_prefix("provenance "))
        .ok_or("no provenance line")?;
    let prov = Json::parse(prov)?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    Ok(SavedRun {
        workload: prov
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("provenance names no workload")?
            .to_owned(),
        trace: prov.get("trace").and_then(Json::as_bool).unwrap_or(false),
        outcome: parse_result_line(last)?,
    })
}

fn load(dir: &Path) -> Result<Vec<SavedRun>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        match parse_saved(&text) {
            Ok(run) => runs.push(run),
            Err(e) => eprintln!("skipping {}: {e}", p.display()),
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no saved runs", dir.display()));
    }
    Ok(runs)
}

/// The verdict on one end-to-end metric × workload; `check_spread`
/// off judges the medians alone.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    check_spread: bool,
) -> &'static str {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let spread = |q1: f64, m: f64, q3: f64| (q3 - q1).abs() / m.abs();
    let worse_by = match better {
        Better::Lower => (bm - am) / am.abs(),
        Better::Higher => (am - bm) / am.abs(),
    };
    let b_beats_every_a = match better {
        Better::Lower => b.iter().all(|&x| a.iter().all(|&y| x < y)),
        Better::Higher => b.iter().all(|&x| a.iter().all(|&y| x > y)),
    };
    if check_spread && (spread(a1, am, a3) > bound || spread(b1, bm, b3) > bound) {
        if b_beats_every_a {
            "within"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else {
        "within"
    }
}

/// The outcomes of one workload's traced or untraced runs.
fn pick(runs: &[SavedRun], w: Workload, trace: bool) -> Vec<&Outcome> {
    runs.iter()
        .filter(|r| r.workload == w.name() && r.trace == trace)
        .map(|r| &r.outcome)
        .collect()
}

/// Compares two directories of saved runs; the report, and whether any
/// end-to-end verdict is `worse` or `unresolved`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut report = String::new();
    let mut flagged = false;
    let _ = writeln!(
        report,
        "{:<13} {:<30} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A"
    );
    for w in Workload::ALL {
        for trace in [false, true] {
            let (oa, ob) = (pick(&ra, w, trace), pick(&rb, w, trace));
            if oa.is_empty() || ob.is_empty() {
                continue;
            }
            let errors = |o: &[&Outcome]| {
                let failed: u64 = o.iter().map(|x| x.failed).sum();
                let attempted: u64 = o.iter().map(|x| x.attempted).sum();
                let incorrect = o.iter().filter(|x| !x.correct).count();
                format!("{failed}/{attempted} failed, {incorrect} incorrect runs")
            };
            let _ = writeln!(
                report,
                "{:<13} {:<30} {:>36} {:>36}",
                w.name(),
                "error_rate",
                errors(&oa),
                errors(&ob)
            );
            for def in if trace { PER_LAYER } else { END_TO_END } {
                let values = |o: &[&Outcome]| -> Vec<f64> {
                    o.iter().filter_map(|x| x.get(def.name)).collect()
                };
                let (va, vb) = (values(&oa), values(&ob));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (a1, am, a3) = quartiles(&va);
                let (b1, bm, b3) = quartiles(&vb);
                let v = match metric_def(def.name).and_then(|d| d.bound) {
                    Some(bound) => verdict(&va, &vb, def.better, bound, def.name != "setup_s"),
                    None => "-",
                };
                flagged |= v == "worse" || v == "unresolved";
                let exact = va.iter().chain(&vb).all(|&x| x == va[0]);
                let _ = writeln!(
                    report,
                    "{:<13} {:<30} {:>36} {:>36} {:>+7.1}%  {}{}",
                    w.name(),
                    format!("{} ({}, {})", def.name, def.unit, def.better.name()),
                    format!("{am:.6} [{a1:.6}, {a3:.6}]"),
                    format!("{bm:.6} [{b1:.6}, {b3:.6}]"),
                    100.0 * (bm - am) / am.abs(),
                    v,
                    if exact { " (exact)" } else { "" }
                );
            }
        }
    }
    Ok((report, flagged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5 % slower with a tight spread: within a 10 % bound.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1, true), "within");
        // 20 % slower: worse.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1, true), "worse");
        // ...but 20 % more throughput is better, hence within.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1, true), "within");
        // A spread wider than the bound leaves it unresolved.
        let wide = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&a, &wide, Better::Lower, 0.1, true), "unresolved");
        // ...unless only the medians are judged.
        assert_eq!(verdict(&a, &wide, Better::Lower, 0.1, false), "within");
        // Or every B run beats every A run.
        let faster = [10.0, 30.0, 20.0, 12.0, 28.0];
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.1, true), "within");
    }

    #[test]
    fn saved_runs_parse() {
        let text = "provenance {\"workload\":\"serve_hot\",\"trace\":false}\n\
                    p50_ms 0.4 ms\n\
                    {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":0.4,\"unit\":\"ms\"}}}\n";
        let run = parse_saved(text).unwrap();
        assert_eq!(run.workload, "serve_hot");
        assert!(!run.trace);
        assert_eq!(run.outcome.get("p50_ms"), Some(0.4));
        assert!(parse_saved("p50_ms 0.4 ms\n").is_err());
    }
}
