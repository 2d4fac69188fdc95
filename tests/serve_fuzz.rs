//! Seeded fuzzing of the daemon's request surface: thousands of
//! mutated, truncated, deeply nested and out-of-range request lines go
//! through [`parse_request`] and [`ScenarioSpec::materialize`]. The
//! properties: neither call ever panics, every accepted spec respects
//! the parser's documented bounds (its worst-case cycle count
//! included), and every accepted mix or multi spec
//! materializes — in this debug test build, any arithmetic overflow in
//! the stimulus generators would panic. Deterministic: the streams come
//! from the in-repo [`SplitMix64`], so a failure reproduces exactly.

use hierbus::campaign::json::MAX_DEPTH;
use hierbus::ec::addr::ADDR_MASK;
use hierbus::power::run::MAX_CYCLES;
use hierbus::serve::proto::{MAX_SPEC_OPS, MIN_MIX_WINDOW};
use hierbus::serve::{parse_request, Materialized, Op, ScenarioSpec};
use hierbus::sim::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Well-formed requests covering every op and spec kind: the mutation
/// corpus.
const CORPUS: &[&str] = &[
    r#"{"v":2,"id":"p","op":"ping"}"#,
    r#"{"v":1,"id":"s","op":"stats"}"#,
    r#"{"v":2,"id":"h","op":"health"}"#,
    r#"{"v":2,"id":"sub","op":"subscribe","every_ms":250}"#,
    r#"{"v":2,"id":"d","op":"dump-trace"}"#,
    r#"{"v":2,"id":"q","op":"shutdown"}"#,
    r#"{"v":2,"id":"n","op":"run","scenarios":[{"kind":"named","name":"burst_reads"}]}"#,
    r#"{"v":2,"id":"m","op":"run","scenarios":[{"kind":"mix","seed":7,"count":50}]}"#,
    r#"{"v":2,"id":"w","op":"run","scenarios":[{"kind":"mix","seed":3,"count":40,"base":4096,"window":64,"read_pct":60,"burst_pct":100,"max_idle":2,"fetch_pct":40,"sequential_pct":70,"data_profile":"small_values","waits":[1,0,2]}]}"#,
    r#"{"v":2,"id":"x","op":"run","scenarios":[{"kind":"multi","seed":9,"policy":"rr","cpu_count":30,"dma_descriptors":8,"dma_burst":8,"dma_read_pct":25,"dma_gap":1}]}"#,
    r#"{"v":2,"id":"b","op":"run","scenarios":[{"kind":"named","name":"single_read"},{"kind":"mix","seed":1,"count":20},{"kind":"multi","seed":2,"cpu_count":10}]}"#,
];

/// Number spellings at and past every bound the parser checks: the
/// percentages, the 32-byte window floor, the `u32` gap fields, the op
/// cap, the 36-bit map, `u64`, `f64` and JSON's own edges.
const EDGE_NUMBERS: &[&str] = &[
    "0",
    "1",
    "-1",
    "-0",
    "0.5",
    "1e-9",
    "31",
    "32",
    "33",
    "100",
    "101",
    "4294967294",
    "4294967295",
    "4294967296",
    "1048576",
    "1048577",
    "68719476704",
    "68719476705",
    "68719476736",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e11",
    "1e308",
    "1e999",
    "-1e999",
];

/// Fragments spliced into lines: structure, escapes, literals and
/// multi-byte text.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u0000",
    "\\ud800",
    "\\uZZZZ",
    "null",
    "true",
    "NaN",
    "Infinity",
    "\u{e9}\u{1f600}",
    r#""kind":"mix""#,
    r#""kind":"multi""#,
    r#""count":1048576"#,
    r#""window":0"#,
    r#""base":68719476704"#,
    r#""waits":[0,4294967296,1]"#,
    r#""scenarios":[]"#,
];

const MIX_FIELDS: &[&str] = &[
    "seed",
    "count",
    "base",
    "window",
    "read_pct",
    "burst_pct",
    "max_idle",
    "fetch_pct",
    "sequential_pct",
    "data_profile",
    "waits",
];

const MULTI_FIELDS: &[&str] = &[
    "seed",
    "policy",
    "cpu_count",
    "dma_descriptors",
    "dma_burst",
    "dma_read_pct",
    "dma_gap",
];

/// Ops materialized per accepted spec. The generators' per-op address
/// arithmetic is the same for every op, so a capped stimulus exercises
/// the same overflow paths as the full one at a debug-build cost the
/// suite can afford; the parser's own op-count bound is checked
/// separately.
const MATERIALIZE_OPS: usize = 256;

fn pick<'a>(rng: &mut SplitMix64, items: &[&'a str]) -> &'a str {
    items[rng.range_u64(0, items.len() as u64) as usize]
}

/// A spec field value: mostly small in-range integers (so a useful share
/// of specs is accepted), else an edge number, a random `u64` or a
/// value of the wrong type.
fn field_value(rng: &mut SplitMix64, field: &str) -> String {
    match (field, rng.range_u32(0, 10)) {
        ("data_profile", 0..=6) => format!("{:?}", pick(rng, &["random", "small_values", "pink"])),
        ("policy", 0..=6) => format!("{:?}", pick(rng, &["fixed", "rr", "lifo", ""])),
        ("waits", 0..=6) => {
            let n = rng.range_u32(0, 5);
            let items: Vec<String> = (0..n).map(|_| number(rng)).collect();
            format!("[{}]", items.join(","))
        }
        ("window", 0..=4) => (32 * rng.range_u64(1, 4096)).to_string(),
        (_, 0..=4) => rng.range_u64(0, 200).to_string(),
        (_, 5..=7) => number(rng),
        (_, 8) => rng.next_u64().to_string(),
        _ => pick(rng, &["\"7\"", "null", "[]", "{}", "true", "[1,2,3]"]).to_owned(),
    }
}

fn number(rng: &mut SplitMix64) -> String {
    if rng.chance(50) {
        rng.range_u64(0, 10).to_string()
    } else {
        pick(rng, EDGE_NUMBERS).to_owned()
    }
}

/// A random spec object with a random subset of its kind's fields.
fn random_spec(rng: &mut SplitMix64) -> String {
    let kind = pick(rng, &["mix", "mix", "multi", "named", "bogus"]);
    let mut fields = vec![format!(r#""kind":"{kind}""#)];
    match kind {
        "named" => {
            let name = pick(rng, &["burst_reads", "single_read_wait", "nope", ""]);
            fields.push(format!(r#""name":"{name}""#));
        }
        _ => {
            let names = if kind == "multi" {
                MULTI_FIELDS
            } else {
                MIX_FIELDS
            };
            for &f in names {
                if rng.chance(50) {
                    fields.push(format!(r#""{f}":{}"#, field_value(rng, f)));
                }
            }
        }
    }
    format!("{{{}}}", fields.join(","))
}

/// A run request of one to three random specs.
fn random_run(rng: &mut SplitMix64, i: usize) -> String {
    let n = rng.range_u32(1, 4);
    let specs: Vec<String> = (0..n).map(|_| random_spec(rng)).collect();
    format!(
        r#"{{"v":2,"id":"f{i}","op":"run","scenarios":[{}]}}"#,
        specs.join(",")
    )
}

/// One to four byte-level mutations of `line`; the result is made valid
/// UTF-8 the way the daemon's reader would see it.
fn mutate(rng: &mut SplitMix64, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.range_u32(1, 5) {
        let len = bytes.len() as u64;
        let at = rng.range_u64(0, len + 1) as usize;
        match rng.range_u32(0, 7) {
            0 => bytes.truncate(at),
            1 => {
                let end = (at + rng.range_u64(1, 16) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let frag = pick(rng, FRAGMENTS).as_bytes();
                bytes.splice(at..at, frag.iter().copied());
            }
            3 => {
                // Replace the digit run at or after `at` with an edge number.
                let Some(start) = bytes[at..].iter().position(u8::is_ascii_digit) else {
                    continue;
                };
                let start = at + start;
                let end = bytes[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(bytes.len(), |n| start + n);
                let edge = pick(rng, EDGE_NUMBERS).as_bytes();
                bytes.splice(start..end, edge.iter().copied());
            }
            4 if at < bytes.len() => bytes[at] = rng.range_u32(0, 256) as u8,
            5 => {
                let end = (at + rng.range_u64(1, 32) as usize).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => bytes.insert(at.min(bytes.len()), b' '),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `spec` with its op counts capped at [`MATERIALIZE_OPS`].
fn capped(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut spec = spec.clone();
    match &mut spec {
        ScenarioSpec::Mix { params, .. } => params.count = params.count.min(MATERIALIZE_OPS),
        ScenarioSpec::Multi { cpu_count, dma, .. } => {
            *cpu_count = (*cpu_count).min(MATERIALIZE_OPS);
            dma.descriptors = dma.descriptors.min(MATERIALIZE_OPS);
        }
        ScenarioSpec::Named { .. } => {}
    }
    spec
}

/// Asserts an accepted spec is inside the parser's documented bounds.
fn assert_in_bounds(spec: &ScenarioSpec, line: &str) {
    let max_ops = MAX_SPEC_OPS as usize;
    match spec {
        ScenarioSpec::Mix { params: p, .. } => {
            assert!(p.count <= max_ops, "count past the cap: {line}");
            assert!(p.window >= MIN_MIX_WINDOW, "window below the floor: {line}");
            let end = p.base.checked_add(p.window);
            assert!(
                end.is_some_and(|end| end <= ADDR_MASK + 1),
                "window past the map: {line}"
            );
            for pct in [p.read_pct, p.burst_pct, p.fetch_pct, p.sequential_pct] {
                assert!(pct <= 100, "percentage out of range: {line}");
            }
            assert!(p.max_idle < u32::MAX, "max_idle overflows: {line}");
        }
        ScenarioSpec::Multi { cpu_count, dma, .. } => {
            assert!(
                *cpu_count <= max_ops && dma.descriptors <= max_ops,
                "{line}"
            );
            assert!(dma.read_pct <= 100 && dma.max_gap < u32::MAX, "{line}");
        }
        ScenarioSpec::Named { .. } => {}
    }
    let bound = spec.worst_case_cycles();
    assert!(
        bound <= MAX_CYCLES,
        "accepted spec may run {bound} cycles, above {MAX_CYCLES}: {line}"
    );
}

/// Feeds one line through the parser and every accepted spec through
/// materialization; returns how many specs were accepted.
fn check(line: &str) -> usize {
    let parsed = catch_unwind(|| parse_request(line))
        .unwrap_or_else(|_| panic!("parse_request panicked on {line:?}"));
    let Ok(request) = parsed else {
        return 0;
    };
    let Op::Run(specs) = request.op else {
        return 0;
    };
    for spec in &specs {
        assert_in_bounds(spec, line);
        let small = capped(spec);
        let built = catch_unwind(AssertUnwindSafe(|| small.materialize()))
            .unwrap_or_else(|_| panic!("materialize panicked on {spec:?} from {line:?}"));
        match (spec, built) {
            (ScenarioSpec::Named { .. }, _) => {}
            (ScenarioSpec::Mix { params, .. }, Ok(Materialized::Single(s))) => {
                assert_eq!(s.len(), params.count.min(MATERIALIZE_OPS), "{line}");
            }
            (ScenarioSpec::Multi { .. }, Ok(Materialized::Multi(_))) => {}
            (spec, other) => panic!("{spec:?} from {line:?} materialized as {other:?}"),
        }
    }
    specs.len()
}

#[test]
fn mutated_corpus_lines_never_panic() {
    let mut rng = SplitMix64::new(0x5E7F_F022);
    let mut accepted = 0;
    for _ in 0..3_000 {
        let base = pick(&mut rng, CORPUS);
        accepted += check(&mutate(&mut rng, base));
    }
    // Mutations must leave a useful share of lines parseable, or the
    // materialize property is never exercised.
    assert!(accepted > 100, "only {accepted} specs accepted");
}

#[test]
fn random_specs_parse_within_bounds_and_materialize() {
    let mut rng = SplitMix64::new(0x0B0_0DD5);
    let mut accepted = 0;
    for i in 0..3_000 {
        let line = random_run(&mut rng, i);
        accepted += check(&line);
        accepted += check(&mutate(&mut rng, &line));
    }
    assert!(accepted > 300, "only {accepted} specs accepted");
}

#[test]
fn truncations_of_every_corpus_line_never_panic() {
    for line in CORPUS {
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            check(&line[..cut]);
        }
        assert!(check(line) > 0 || !line.contains("\"run\""), "{line}");
    }
}

#[test]
fn deep_nesting_is_rejected_without_panicking() {
    let mut rng = SplitMix64::new(0xDEE9);
    let wrap = |inner: &str| format!(r#"{{"v":2,"id":"deep","op":"run","scenarios":{inner}}}"#);
    for depth in [
        MAX_DEPTH - 2,
        MAX_DEPTH - 1,
        MAX_DEPTH,
        MAX_DEPTH + 1,
        10_000,
        200_000,
    ] {
        for open in ["[", "{\"a\":"] {
            let close = if open == "[" { "]" } else { "}" };
            let closed = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            let unclosed = open.repeat(depth);
            for line in [wrap(&closed), wrap(&unclosed), closed, unclosed] {
                // Depth alone never yields a run: the innermost value is
                // not a spec, so every line is an error — but never a
                // panic or a stack overflow.
                assert!(parse_request(&line).is_err());
                check(&mutate(&mut rng, &line));
            }
        }
    }
}
