//! Seeded property coverage for the campaign [`Fingerprint`] and its
//! client derivation, serve scenario-spec fingerprints.
//!
//! The fingerprint is load-bearing in two places — the serve result
//! cache's content addresses and the characterization-database
//! identity — so these tests pin the properties those uses rely on:
//!
//! * field sequences are absorbed with an out-of-band terminator, so
//!   distinct sequences (different bytes, different boundaries,
//!   different field counts) get distinct fingerprints;
//! * `f64` absorption is bit-exact (sign of zero, NaN payloads, single
//!   ulps all distinguish);
//! * spec fingerprints are insensitive to JSON key order — the one
//!   order-insensitivity the protocol specs — and stable through a
//!   serialize/parse round trip of the wire format.
//!
//! Everything is seeded (the repo's standard SplitMix64 recurrence), so
//! a failure always reproduces.

use hierbus::campaign::{Fingerprint, Json};
use hierbus::serve::ScenarioSpec;
use hierbus_ec::{ArbitrationPolicy, BurstLen, DmaParams, MixParams, WaitProfile};

/// SplitMix64 — the repo's standard dependency-free deterministic rng.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A random field: 0..=6 chars from a pool that includes the empty
/// string, separator-looking characters and multi-byte UTF-8, so
/// boundary bugs have something to collide with.
fn random_field(s: &mut u64) -> String {
    const POOL: &[char] = &['a', 'b', '/', '=', ';', '@', ' ', 'ä', '\u{10348}', '0'];
    let len = (splitmix(s) % 7) as usize;
    (0..len)
        .map(|_| POOL[(splitmix(s) % POOL.len() as u64) as usize])
        .collect()
}

fn random_fields(s: &mut u64) -> Vec<String> {
    let n = 1 + (splitmix(s) % 6) as usize;
    (0..n).map(|_| random_field(s)).collect()
}

fn fp_of(fields: &[String]) -> String {
    let mut fp = Fingerprint::new();
    for f in fields {
        fp.eat(f);
    }
    fp.finish()
}

/// Canonical injective rendering of a field sequence, for deduping
/// generated cases (0xff is the hasher's terminator and can never
/// appear inside a `&str`, so it is a safe separator here too).
fn repr(fields: &[String]) -> String {
    fields
        .iter()
        .map(|f| format!("{}\u{fff9}", f))
        .collect::<String>()
}

#[test]
fn distinct_field_sequences_never_collide() {
    let mut s = 0x00D5EED;
    let mut seen: Vec<(String, String)> = Vec::new();
    for _ in 0..4000 {
        let fields = random_fields(&mut s);
        seen.push((repr(&fields), fp_of(&fields)));
    }
    seen.sort();
    seen.dedup_by(|a, b| a.0 == b.0);
    let mut by_fp: Vec<(&str, &str)> = seen.iter().map(|(r, f)| (f.as_str(), r.as_str())).collect();
    by_fp.sort();
    for w in by_fp.windows(2) {
        assert_ne!(
            w[0].0, w[1].0,
            "fingerprint collision between field sequences {:?} and {:?}",
            w[0].1, w[1].1
        );
    }
}

#[test]
fn random_perturbations_change_the_fingerprint() {
    let mut s = 0xA11CE;
    for case in 0..500u32 {
        let fields = random_fields(&mut s);
        let base = fp_of(&fields);
        let mut perturbed: Vec<Vec<String>> = Vec::new();
        // Drop one field.
        let mut v = fields.clone();
        v.remove((splitmix(&mut s) % fields.len() as u64) as usize);
        perturbed.push(v);
        // Duplicate one field.
        let mut v = fields.clone();
        let i = (splitmix(&mut s) % fields.len() as u64) as usize;
        v.insert(i, fields[i].clone());
        perturbed.push(v);
        // Append one random character to one field.
        let mut v = fields.clone();
        let i = (splitmix(&mut s) % fields.len() as u64) as usize;
        v[i].push('q');
        perturbed.push(v);
        // Merge two adjacent fields (boundary removal).
        if fields.len() >= 2 {
            let mut v = fields.clone();
            let merged = format!("{}{}", v[0], v[1]);
            v.splice(0..2, [merged]);
            perturbed.push(v);
        }
        // Shift the boundary: move a field's last char into the next.
        if fields.len() >= 2 && !fields[0].is_empty() {
            let mut v = fields.clone();
            let c = v[0].pop().unwrap();
            v[1].insert(0, c);
            perturbed.push(v);
        }
        // Trailing empty field.
        let mut v = fields.clone();
        v.push(String::new());
        perturbed.push(v);
        for (pi, p) in perturbed.iter().enumerate() {
            if repr(p) == repr(&fields) {
                continue; // the perturbation happened to be an identity
            }
            assert_ne!(
                fp_of(p),
                base,
                "case {case} perturbation {pi}: {fields:?} vs {p:?}"
            );
        }
    }
}

#[test]
fn field_order_is_part_of_the_identity() {
    // Raw field sequences are order-SENSITIVE by spec.
    let a = Fingerprint::new().field("alpha").field("beta").finish();
    let b = Fingerprint::new().field("beta").field("alpha").finish();
    assert_ne!(a, b);
}

#[test]
fn f64_absorption_is_bit_exact() {
    let mut pos = Fingerprint::new();
    pos.eat_f64(0.0);
    let mut neg = Fingerprint::new();
    neg.eat_f64(-0.0);
    assert_ne!(pos.finish(), neg.finish());
    // Random values: flipping any single mantissa bit changes the
    // fingerprint, and equal bits give equal fingerprints.
    let mut s = 0xF64;
    for _ in 0..200 {
        let bits = splitmix(&mut s);
        let v = f64::from_bits(bits);
        let one = |x: f64| {
            let mut fp = Fingerprint::new();
            fp.eat_f64(x);
            fp.finish()
        };
        assert_eq!(one(v), one(f64::from_bits(bits)));
        let flipped = f64::from_bits(bits ^ (1 << (splitmix(&mut s) % 63)));
        if flipped.to_bits() != bits {
            assert_ne!(one(v), one(flipped), "bits {bits:#x}");
        }
    }
}

/// Random valid serve specs across all three kinds. Seeds stay below
/// 2^52: the wire format carries numbers as f64, so only seeds in the
/// exactly-representable integer range survive a round trip (the
/// protocol's documented numeric model, not a fingerprint property).
fn random_spec(s: &mut u64) -> ScenarioSpec {
    match splitmix(s) % 3 {
        0 => ScenarioSpec::Named {
            name: format!("scenario_{}", splitmix(s) % 8),
        },
        1 => ScenarioSpec::Mix {
            seed: splitmix(s) >> 12,
            params: MixParams {
                count: 1 + (splitmix(s) % 500) as usize,
                read_pct: (splitmix(s) % 101) as u32,
                burst_pct: (splitmix(s) % 101) as u32,
                max_idle: (splitmix(s) % 5) as u32,
                ..MixParams::default()
            },
            waits: if splitmix(s).is_multiple_of(2) {
                None
            } else {
                Some(WaitProfile::new(
                    (splitmix(s) % 4) as u32,
                    (splitmix(s) % 4) as u32,
                    (splitmix(s) % 4) as u32,
                ))
            },
        },
        _ => ScenarioSpec::Multi {
            seed: splitmix(s) >> 12,
            policy: if splitmix(s).is_multiple_of(2) {
                ArbitrationPolicy::FixedPriority
            } else {
                ArbitrationPolicy::RoundRobin
            },
            cpu_count: 1 + (splitmix(s) % 300) as usize,
            dma: DmaParams {
                descriptors: 1 + (splitmix(s) % 40) as usize,
                burst: BurstLen::ALL[(splitmix(s) % 4) as usize],
                read_pct: (splitmix(s) % 101) as u32,
                max_gap: (splitmix(s) % 6) as u32,
                ..DmaParams::default()
            },
        },
    }
}

#[test]
fn spec_fingerprints_round_trip_through_the_wire_format() {
    let db = "0123456789abcdef";
    let mut s = 0x51C;
    for case in 0..300u32 {
        let spec = random_spec(&mut s);
        let line = spec.to_json().to_string_compact();
        let parsed = ScenarioSpec::from_json(&Json::parse(&line).expect("wire JSON parses"))
            .expect("wire JSON is a valid spec");
        assert_eq!(parsed, spec, "case {case}");
        assert_eq!(parsed.canonical(), spec.canonical(), "case {case}");
        assert_eq!(
            parsed.fingerprint(db),
            spec.fingerprint(db),
            "case {case}: {line}"
        );
    }
}

#[test]
fn spec_fingerprints_are_insensitive_to_json_key_order() {
    // The one order-insensitivity the protocol specs: a request object
    // means the same simulation whatever order the client writes its
    // keys in, because the fingerprint hashes the canonical form.
    let db = "0123456789abcdef";
    let mut s = 0x0DD5;
    for case in 0..200u32 {
        let spec = random_spec(&mut s);
        let Json::Obj(fields) = spec.to_json() else {
            panic!("specs serialize to objects")
        };
        let mut rotated = fields.clone();
        let by = (1 + (splitmix(&mut s) as usize) % rotated.len().max(2)) % rotated.len();
        rotated.rotate_left(by);
        let reparsed = ScenarioSpec::from_json(&Json::Obj(rotated)).expect("rotation keeps keys");
        assert_eq!(
            reparsed.fingerprint(db),
            spec.fingerprint(db),
            "case {case}: key order changed the fingerprint"
        );
    }
}

#[test]
fn distinct_specs_never_collide() {
    let db = "0123456789abcdef";
    let mut s = 0xC0111DE;
    let mut seen: Vec<(String, String)> = Vec::new();
    for _ in 0..2000 {
        let spec = random_spec(&mut s);
        seen.push((spec.canonical(), spec.fingerprint(db)));
    }
    seen.sort();
    seen.dedup_by(|a, b| a.0 == b.0);
    let mut by_fp: Vec<(&str, &str)> = seen.iter().map(|(c, f)| (f.as_str(), c.as_str())).collect();
    by_fp.sort();
    for w in by_fp.windows(2) {
        assert_ne!(
            w[0].0, w[1].0,
            "spec fingerprint collision: {:?} vs {:?}",
            w[0].1, w[1].1
        );
    }
}
