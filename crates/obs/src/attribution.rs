//! Energy attribution ledgers and the cross-layer divergence auditor.
//!
//! The energy models answer *how much*; this module answers *where it
//! went*. An [`EnergyLedger`] decomposes a model's total energy along
//! `layer → slave → phase → access class` (plus an optional software
//! dimension, e.g. a JCVM exploration config, and an optional
//! per-master dimension so multi-master runs attribute every joule to
//! CPU vs DMA), and a
//! [`DivergenceAuditor`] compares two ledgers — or two per-cycle power
//! traces — and pinpoints the first bucket/cycle where they disagree
//! beyond a tolerance.
//!
//! Attribution is *post-hoc and exact*: for per-cycle models (RTL,
//! TLM1) each cycle's energy is assigned to exactly one bucket by a
//! deterministic span-priority rule ([`attribute_cycles`]), so bucket
//! sums partition the trace sum — attribution never changes the
//! numbers, only decomposes them. Event-priced models (TLM2) book each
//! phase event's price directly. Ledgers merge bucket-wise in sorted
//! key order, so a campaign merging per-scenario ledgers in index
//! order is byte-identical at any worker count.

use crate::span::{AccessClass, Phase, SpanEvent, TraceCollector};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Phase dimension of an attribution bucket. Unlike [`Phase`] this has
/// no request phase (request queueing is master-side bookkeeping, no
/// bus activity) and adds an explicit idle bucket so the ledger still
/// partitions the whole trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LedgerPhase {
    Address,
    ReadData,
    WriteData,
    /// Cycles covered by no address/data span (bus idle, handshake
    /// fall-back, inter-transaction gaps).
    Idle,
}

impl LedgerPhase {
    pub const ALL: [LedgerPhase; 4] = [
        LedgerPhase::Address,
        LedgerPhase::ReadData,
        LedgerPhase::WriteData,
        LedgerPhase::Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LedgerPhase::Address => "address",
            LedgerPhase::ReadData => "read-data",
            LedgerPhase::WriteData => "write-data",
            LedgerPhase::Idle => "idle",
        }
    }

    /// The ledger phase corresponding to a span phase; `None` for
    /// request spans, which never own energy.
    pub fn from_span_phase(phase: Phase) -> Option<LedgerPhase> {
        match phase {
            Phase::Request => None,
            Phase::Address => Some(LedgerPhase::Address),
            Phase::ReadData => Some(LedgerPhase::ReadData),
            Phase::WriteData => Some(LedgerPhase::WriteData),
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<LedgerPhase> {
        LedgerPhase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One attribution bucket: which slave, which protocol phase, which
/// access class. The class is `None` for idle energy, which belongs to
/// no transaction. Multi-master runs additionally tag each bucket with
/// the issuing master's name (`cpu`/`dma`); single-master ledgers
/// leave it `None`, keeping their serialized forms byte-identical to
/// pre-multi-master ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    pub slave: String,
    pub phase: LedgerPhase,
    pub class: Option<AccessClass>,
    /// The per-master dimension; `None` outside multi-master runs (and
    /// for idle cycles, which no master owns). Last field so derived
    /// ordering keeps untagged ledgers in their historical sort order.
    pub master: Option<String>,
}

impl BucketKey {
    pub fn new(slave: impl Into<String>, phase: LedgerPhase, class: Option<AccessClass>) -> Self {
        BucketKey {
            slave: slave.into(),
            phase,
            class,
            master: None,
        }
    }

    /// Tags (or untags) the bucket with a master name; builder-style.
    pub fn with_master(mut self, master: Option<impl Into<String>>) -> Self {
        self.master = master.map(Into::into);
        self
    }

    /// The bucket for energy outside any transaction.
    pub fn idle() -> Self {
        BucketKey::new("-", LedgerPhase::Idle, None)
    }

    pub fn class_name(&self) -> &'static str {
        self.class.map(AccessClass::name).unwrap_or("-")
    }

    /// The bucket's folded-stack key, `slave;phase;class` — with a
    /// `@master` suffix on the class component when the bucket carries
    /// the per-master tag (`mem;read-data;read@dma`). Master names must
    /// not contain `;` or `@`.
    pub fn folded_key(&self) -> String {
        match &self.master {
            None => format!("{};{};{}", self.slave, self.phase.name(), self.class_name()),
            Some(m) => {
                debug_assert!(!m.contains([';', '@']), "master name {m:?} not foldable");
                format!(
                    "{};{};{}@{}",
                    self.slave,
                    self.phase.name(),
                    self.class_name(),
                    m
                )
            }
        }
    }

    /// Inverse of [`folded_key`](Self::folded_key); `None` on any
    /// malformed component, so stale serialized ledgers surface as
    /// parse failures instead of misattributed buckets.
    pub fn from_folded_key(key: &str) -> Option<BucketKey> {
        let mut parts = key.rsplitn(3, ';');
        let class_part = parts.next()?;
        let (class_name, master) = match class_part.split_once('@') {
            Some((c, m)) if !m.is_empty() => (c, Some(m.to_string())),
            Some(_) => return None,
            None => (class_part, None),
        };
        let class = match class_name {
            "-" => None,
            "fetch" => Some(AccessClass::Fetch),
            "read" => Some(AccessClass::Read),
            "write" => Some(AccessClass::Write),
            _ => return None,
        };
        let phase = LedgerPhase::from_name(parts.next()?)?;
        let mut key = BucketKey::new(parts.next()?, phase, class);
        key.master = master;
        Some(key)
    }
}

/// Maps bus addresses to slave names for the ledger's slave dimension.
/// Windows are `[start, end)`; unmapped addresses resolve to `"-"`.
#[derive(Debug, Clone, Default)]
pub struct SlaveMap {
    windows: Vec<(u64, u64, String)>,
}

impl SlaveMap {
    pub fn new() -> Self {
        SlaveMap::default()
    }

    /// Registers `[start, end)` as `name`. First matching window wins.
    pub fn add(&mut self, start: u64, end: u64, name: impl Into<String>) -> &mut Self {
        self.windows.push((start, end, name.into()));
        self
    }

    pub fn resolve(&self, addr: u64) -> &str {
        self.windows
            .iter()
            .find(|&&(lo, hi, _)| addr >= lo && addr < hi)
            .map(|(_, _, n)| n.as_str())
            .unwrap_or("-")
    }
}

/// A deterministic energy-attribution ledger for one model layer (or a
/// merge of several runs of the same layer).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    layer: String,
    /// Optional software dimension (JCVM bytecode region, exploration
    /// config label, …).
    software: Option<String>,
    cycles: u64,
    entries: BTreeMap<BucketKey, f64>,
}

impl EnergyLedger {
    pub fn new(layer: impl Into<String>) -> Self {
        EnergyLedger {
            layer: layer.into(),
            software: None,
            cycles: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Tags every bucket of this ledger with a software dimension.
    pub fn with_software(mut self, software: impl Into<String>) -> Self {
        self.software = Some(software.into());
        self
    }

    pub fn layer(&self) -> &str {
        &self.layer
    }

    pub fn software(&self) -> Option<&str> {
        self.software.as_deref()
    }

    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    pub fn set_cycles(&mut self, cycles: u64) {
        self.cycles = cycles;
    }

    /// Adds `pj` to a bucket (creating it at zero first).
    pub fn book(&mut self, key: BucketKey, pj: f64) {
        *self.entries.entry(key).or_insert(0.0) += pj;
    }

    /// Buckets in sorted key order.
    pub fn entries(&self) -> impl Iterator<Item = (&BucketKey, f64)> {
        self.entries.iter().map(|(k, &v)| (k, v))
    }

    pub fn bucket_count(&self) -> usize {
        self.entries.len()
    }

    pub fn get(&self, key: &BucketKey) -> f64 {
        self.entries.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of all buckets, in sorted key order (deterministic). The
    /// `+ 0.0` turns the empty-sum identity `-0.0` into plain zero so
    /// totals never render with a stray sign.
    pub fn total_pj(&self) -> f64 {
        self.entries.values().sum::<f64>() + 0.0
    }

    /// Per-phase totals in [`LedgerPhase::ALL`] order.
    pub fn phase_totals(&self) -> [(LedgerPhase, f64); 4] {
        LedgerPhase::ALL.map(|p| {
            (
                p,
                self.entries
                    .iter()
                    .filter(|(k, _)| k.phase == p)
                    .map(|(_, v)| v)
                    .sum::<f64>()
                    + 0.0,
            )
        })
    }

    /// The `n` largest buckets, ties broken by key order (stable across
    /// runs and platforms).
    pub fn top(&self, n: usize) -> Vec<(&BucketKey, f64)> {
        let mut all: Vec<(&BucketKey, f64)> = self.entries().collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(b.0)));
        all.truncate(n);
        all
    }

    /// Folds another ledger into this one: bucket-wise addition in the
    /// other ledger's sorted key order, cycles add, and the software
    /// tag survives only if both sides agree.
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (k, v) in other.entries() {
            self.book(k.clone(), v);
        }
        self.cycles += other.cycles;
        if self.software != other.software {
            self.software = None;
        }
    }

    /// Folded-stack ("energy flamegraph") text: one
    /// `layer;[software;]slave;phase;class value` line per bucket, in
    /// sorted key order. Feed to any flamegraph renderer.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.entries() {
            out.push_str(&self.layer);
            if let Some(sw) = &self.software {
                out.push(';');
                out.push_str(sw);
            }
            let _ = writeln!(out, ";{} {:.3}", k.folded_key(), v);
        }
        out
    }

    /// The ledger as a JSON object (hand-rolled; this crate is
    /// dependency-free). Floats print with `{}` — Rust's shortest
    /// round-trip formatting — so re-parsing recovers the exact values.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(r#"{{"layer":"{}","#, escape(&self.layer)));
        match &self.software {
            Some(sw) => out.push_str(&format!(r#""software":"{}","#, escape(sw))),
            None => out.push_str(r#""software":null,"#),
        }
        let _ = write!(
            out,
            r#""cycles":{},"total_pj":{},"buckets":["#,
            self.cycles,
            self.total_pj()
        );
        for (i, (k, v)) in self.entries().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // The master field is emitted only when tagged, so
            // single-master attribution artifacts stay byte-identical.
            match &k.master {
                None => {
                    let _ = write!(
                        out,
                        r#"{{"slave":"{}","phase":"{}","class":"{}","energy_pj":{}}}"#,
                        escape(&k.slave),
                        k.phase.name(),
                        k.class_name(),
                        v
                    );
                }
                Some(m) => {
                    let _ = write!(
                        out,
                        r#"{{"slave":"{}","phase":"{}","class":"{}","master":"{}","energy_pj":{}}}"#,
                        escape(&k.slave),
                        k.phase.name(),
                        k.class_name(),
                        escape(m),
                        v
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Renders the ledger as Perfetto counter tracks (one per bucket,
    /// ramping 0 → bucket energy over the run) on a [`TraceCollector`],
    /// so [`crate::perfetto::export`] can lay attribution next to the
    /// span tracks.
    pub fn to_collector(&self) -> TraceCollector {
        // TraceCollector layers are static; map the known model layers
        // and fall back to a generic label.
        let layer = match self.layer.as_str() {
            "rtl" => "rtl",
            "tlm1" => "tlm1",
            "tlm2" => "tlm2",
            _ => "ledger",
        };
        let mut c = TraceCollector::for_layer(layer);
        let end = self.cycles.max(1);
        for (k, v) in self.entries() {
            let track = format!("pJ {}", k.folded_key());
            c.counter_sample(&track, 0, 0.0);
            c.counter_sample(&track, end, v);
        }
        c
    }

    /// Totals along the per-master dimension, in sorted master order
    /// with the untagged (`None`) slice first. The slice sum equals
    /// [`total_pj`](Self::total_pj) up to f64 regrouping — every joule
    /// is attributable.
    pub fn master_totals(&self) -> Vec<(Option<String>, f64)> {
        let mut totals: BTreeMap<Option<String>, f64> = BTreeMap::new();
        for (k, v) in self.entries() {
            *totals.entry(k.master.clone()).or_insert(0.0) += v;
        }
        totals.into_iter().map(|(m, v)| (m, v + 0.0)).collect()
    }

    /// The total booked against one master tag (`None` = untagged).
    pub fn master_total(&self, master: Option<&str>) -> f64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.master.as_deref() == master)
            .map(|(_, v)| v)
            .sum::<f64>()
            + 0.0
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builds a ledger from a per-cycle energy trace plus the span record
/// of the same run, for cycle-resolved models (RTL, TLM1).
///
/// Each cycle is owned by exactly one bucket, chosen deterministically
/// among the spans covering it: a data-phase span beats an address
/// span (pipelined buses overlap the next address with the current
/// data beats, and the data lines dominate switching); at equal rank
/// the *later-issued* span wins — an older span still open is waiting
/// out wait states while the newest transfer is the one toggling the
/// lines — and lower trace id breaks remaining ties. Request spans
/// never own energy. Cycles no span covers go to the idle bucket.
/// Because the assignment is a partition, the ledger total equals the
/// trace sum up to f64 regrouping.
pub fn attribute_cycles(
    layer: &str,
    spans: &[SpanEvent],
    trace: &[f64],
    slaves: &SlaveMap,
) -> EnergyLedger {
    attribute_cycles_by_master(layer, spans, trace, slaves, |_| None)
}

/// [`attribute_cycles`] with the per-master dimension: each owned
/// cycle's bucket is additionally tagged with the issuing master's
/// name, resolved from the owning span's trace id by `master_of`
/// (multi-master runs pass `hierbus_ec::dma::master_of_trace`; this
/// crate stays dependency-free, hence the closure). Idle cycles stay
/// untagged — no master owns them. Resolving everything to `None`
/// reproduces [`attribute_cycles`] exactly.
pub fn attribute_cycles_by_master(
    layer: &str,
    spans: &[SpanEvent],
    trace: &[f64],
    slaves: &SlaveMap,
    master_of: impl Fn(u64) -> Option<&'static str>,
) -> EnergyLedger {
    let mut ledger = EnergyLedger::new(layer);
    ledger.set_cycles(trace.len() as u64);
    // owner[c] = (priority rank, span begin, trace id, span index): the
    // winning span per cycle under the rule above.
    let mut owner: Vec<Option<(u8, u64, u64, usize)>> = vec![None; trace.len()];
    for (idx, s) in spans.iter().enumerate() {
        let rank = match s.phase {
            Phase::Request => continue,
            Phase::Address => 1u8,
            Phase::ReadData | Phase::WriteData => 2u8,
        };
        let lo = s.begin.min(trace.len() as u64) as usize;
        let hi = (s.end + 1).min(trace.len() as u64) as usize;
        for slot in &mut owner[lo..hi] {
            let cand = (rank, s.begin, s.trace_id, idx);
            let better = match slot {
                None => true,
                Some((r, b, id, _)) => {
                    (rank > *r)
                        || (rank == *r && (s.begin > *b || (s.begin == *b && s.trace_id < *id)))
                }
            };
            if better {
                *slot = Some(cand);
            }
        }
    }
    for (c, &pj) in trace.iter().enumerate() {
        let key = match owner[c] {
            Some((_, _, _, idx)) => {
                let s = &spans[idx];
                let phase = LedgerPhase::from_span_phase(s.phase).unwrap();
                BucketKey::new(slaves.resolve(s.addr), phase, Some(s.class))
                    .with_master(master_of(s.trace_id))
            }
            None => BucketKey::idle(),
        };
        ledger.book(key, pj);
    }
    ledger
}

/// One bucket's worth of disagreement between two ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketDelta {
    pub key: BucketKey,
    pub a_pj: f64,
    pub b_pj: f64,
}

impl BucketDelta {
    pub fn delta(&self) -> f64 {
        self.a_pj - self.b_pj
    }
}

/// Result of auditing two ledgers bucket by bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerAudit {
    /// Buckets compared (union of both key sets).
    pub checked: usize,
    /// Buckets beyond tolerance.
    pub divergent: usize,
    /// First divergent bucket in sorted key order.
    pub first: Option<BucketDelta>,
    /// Divergent bucket with the largest |delta| (ties: first in key
    /// order).
    pub worst: Option<BucketDelta>,
}

impl LedgerAudit {
    pub fn is_clean(&self) -> bool {
        self.divergent == 0
    }
}

/// First cycle where two per-cycle traces disagree, with the spans
/// around it for context.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDivergence {
    pub cycle: u64,
    pub a_pj: f64,
    pub b_pj: f64,
    /// Spans overlapping `cycle ± window`, sorted by (begin, trace id,
    /// phase tid).
    pub context: Vec<SpanEvent>,
}

/// Streaming comparator over ledgers and per-cycle traces.
///
/// Two values diverge when `|a − b| > abs_tol + rel_tol·max(|a|,|b|)`
/// — the usual mixed tolerance, so tiny absolute noise near zero and
/// f64 regrouping on large sums are both forgiven.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceAuditor {
    pub rel_tol: f64,
    pub abs_tol: f64,
}

impl Default for DivergenceAuditor {
    /// Tolerances sized for "same numbers, different summation order":
    /// anything past 1e-6 relative is a real modeling difference.
    fn default() -> Self {
        DivergenceAuditor {
            rel_tol: 1e-6,
            abs_tol: 1e-9,
        }
    }
}

impl DivergenceAuditor {
    pub fn new(rel_tol: f64, abs_tol: f64) -> Self {
        DivergenceAuditor { rel_tol, abs_tol }
    }

    pub fn divergent(&self, a: f64, b: f64) -> bool {
        (a - b).abs() > self.abs_tol + self.rel_tol * a.abs().max(b.abs())
    }

    /// Compares two ledgers over the union of their buckets (a bucket
    /// missing on one side counts as zero).
    pub fn audit_ledgers(&self, a: &EnergyLedger, b: &EnergyLedger) -> LedgerAudit {
        let mut keys: Vec<&BucketKey> = a.entries.keys().chain(b.entries.keys()).collect();
        keys.sort();
        keys.dedup();
        let mut audit = LedgerAudit {
            checked: keys.len(),
            divergent: 0,
            first: None,
            worst: None,
        };
        for key in keys {
            let (va, vb) = (a.get(key), b.get(key));
            if !self.divergent(va, vb) {
                continue;
            }
            audit.divergent += 1;
            let delta = BucketDelta {
                key: key.clone(),
                a_pj: va,
                b_pj: vb,
            };
            if audit.first.is_none() {
                audit.first = Some(delta.clone());
            }
            let beats = audit
                .worst
                .as_ref()
                .is_none_or(|w| delta.delta().abs() > w.delta().abs());
            if beats {
                audit.worst = Some(delta);
            }
        }
        audit
    }

    /// Finds the first cycle where two per-cycle traces diverge (the
    /// shorter trace is zero-padded, so a length mismatch surfaces as a
    /// divergence in the tail) and collects the spans within `window`
    /// cycles of it.
    pub fn audit_traces(
        &self,
        a: &[f64],
        b: &[f64],
        spans: &[SpanEvent],
        window: u64,
    ) -> Option<TraceDivergence> {
        let len = a.len().max(b.len());
        for c in 0..len {
            let va = a.get(c).copied().unwrap_or(0.0);
            let vb = b.get(c).copied().unwrap_or(0.0);
            if !self.divergent(va, vb) {
                continue;
            }
            let cycle = c as u64;
            let lo = cycle.saturating_sub(window);
            let hi = cycle.saturating_add(window);
            let mut context: Vec<SpanEvent> = spans
                .iter()
                .filter(|s| s.begin <= hi && s.end >= lo)
                .cloned()
                .collect();
            context.sort_by_key(|s| (s.begin, s.trace_id, s.phase as u8));
            return Some(TraceDivergence {
                cycle,
                a_pj: va,
                b_pj: vb,
                context,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        phase: Phase,
        begin: u64,
        end: u64,
        addr: u64,
        class: AccessClass,
    ) -> SpanEvent {
        SpanEvent {
            trace_id: id,
            phase,
            begin,
            end,
            addr,
            class,
            error: false,
        }
    }

    fn mem_map() -> SlaveMap {
        let mut m = SlaveMap::new();
        m.add(0x0, 0x100, "ram").add(0x100, 0x200, "rom");
        m
    }

    #[test]
    fn slave_map_resolves_and_falls_back() {
        let m = mem_map();
        assert_eq!(m.resolve(0x10), "ram");
        assert_eq!(m.resolve(0x100), "rom");
        assert_eq!(m.resolve(0x1000), "-");
    }

    #[test]
    fn attribute_cycles_partitions_the_trace() {
        let spans = [
            span(0, Phase::Request, 0, 0, 0x10, AccessClass::Read),
            span(0, Phase::Address, 0, 1, 0x10, AccessClass::Read),
            span(0, Phase::ReadData, 2, 3, 0x10, AccessClass::Read),
        ];
        let trace = [1.0, 2.0, 4.0, 8.0, 16.0];
        let ledger = attribute_cycles("tlm1", &spans, &trace, &mem_map());
        assert_eq!(ledger.cycles(), 5);
        assert_eq!(
            ledger.get(&BucketKey::new(
                "ram",
                LedgerPhase::Address,
                Some(AccessClass::Read)
            )),
            3.0
        );
        assert_eq!(
            ledger.get(&BucketKey::new(
                "ram",
                LedgerPhase::ReadData,
                Some(AccessClass::Read)
            )),
            12.0
        );
        assert_eq!(ledger.get(&BucketKey::idle()), 16.0);
        assert_eq!(ledger.total_pj(), 31.0);
    }

    #[test]
    fn data_span_outranks_overlapping_address_span() {
        // Pipelined: txn 1's address phase overlaps txn 0's data beats.
        let spans = [
            span(0, Phase::ReadData, 2, 4, 0x10, AccessClass::Read),
            span(1, Phase::Address, 3, 4, 0x110, AccessClass::Write),
        ];
        let trace = [0.0, 0.0, 1.0, 1.0, 1.0];
        let ledger = attribute_cycles("rtl", &spans, &trace, &mem_map());
        assert_eq!(
            ledger.get(&BucketKey::new(
                "ram",
                LedgerPhase::ReadData,
                Some(AccessClass::Read)
            )),
            3.0
        );
        assert_eq!(
            ledger.get(&BucketKey::new(
                "rom",
                LedgerPhase::Address,
                Some(AccessClass::Write)
            )),
            0.0
        );
    }

    #[test]
    fn later_issued_data_span_wins_the_overlap_cycle() {
        // A read stalled in wait states is still open when a write's
        // data beat completes: the write is the one toggling the lines,
        // so it owns the shared cycle.
        let spans = [
            span(0, Phase::ReadData, 0, 2, 0x10, AccessClass::Read),
            span(1, Phase::WriteData, 1, 1, 0x110, AccessClass::Write),
        ];
        let trace = [1.0, 8.0, 2.0];
        let ledger = attribute_cycles("tlm1", &spans, &trace, &mem_map());
        assert_eq!(
            ledger.get(&BucketKey::new(
                "rom",
                LedgerPhase::WriteData,
                Some(AccessClass::Write)
            )),
            8.0
        );
        assert_eq!(
            ledger.get(&BucketKey::new(
                "ram",
                LedgerPhase::ReadData,
                Some(AccessClass::Read)
            )),
            3.0
        );
    }

    #[test]
    fn request_spans_never_own_energy() {
        let spans = [span(0, Phase::Request, 0, 2, 0x10, AccessClass::Read)];
        let trace = [5.0, 5.0, 5.0];
        let ledger = attribute_cycles("tlm1", &spans, &trace, &mem_map());
        assert_eq!(ledger.get(&BucketKey::idle()), 15.0);
    }

    #[test]
    fn spans_past_trace_end_are_clamped() {
        let spans = [span(0, Phase::Address, 1, 10, 0x10, AccessClass::Read)];
        let trace = [1.0, 2.0];
        let ledger = attribute_cycles("tlm1", &spans, &trace, &mem_map());
        assert_eq!(ledger.total_pj(), 3.0);
        assert_eq!(
            ledger.get(&BucketKey::new(
                "ram",
                LedgerPhase::Address,
                Some(AccessClass::Read)
            )),
            2.0
        );
    }

    #[test]
    fn folded_key_round_trips() {
        for key in [
            BucketKey::idle(),
            BucketKey::new("ram", LedgerPhase::Address, Some(AccessClass::Fetch)),
            BucketKey::new("a;b", LedgerPhase::WriteData, Some(AccessClass::Write)),
            BucketKey::new("ram", LedgerPhase::ReadData, Some(AccessClass::Read))
                .with_master(Some("dma")),
            BucketKey::new("ram", LedgerPhase::Address, None).with_master(Some("cpu")),
        ] {
            assert_eq!(BucketKey::from_folded_key(&key.folded_key()), Some(key));
        }
        assert_eq!(BucketKey::from_folded_key("ram;address;bogus"), None);
        assert_eq!(BucketKey::from_folded_key("ram;bogus;read"), None);
        assert_eq!(BucketKey::from_folded_key("ram;address;read@"), None);
        assert_eq!(BucketKey::from_folded_key(""), None);
    }

    #[test]
    fn master_dimension_partitions_the_trace() {
        // Two masters' spans, disjoint in time; master resolved by an
        // id threshold like the DMA id base.
        let spans = [
            span(0, Phase::Address, 0, 0, 0x10, AccessClass::Read),
            span(1 << 8, Phase::WriteData, 1, 2, 0x110, AccessClass::Write),
        ];
        let trace = [1.0, 2.0, 4.0, 8.0];
        let master_of = |id: u64| Some(if id >= 1 << 8 { "dma" } else { "cpu" });
        let ledger = attribute_cycles_by_master("tlm1", &spans, &trace, &mem_map(), master_of);
        // Untagged run over the same inputs books the same totals.
        let untagged = attribute_cycles("tlm1", &spans, &trace, &mem_map());
        assert_eq!(ledger.total_pj(), untagged.total_pj());
        assert_eq!(ledger.master_total(Some("cpu")), 1.0);
        assert_eq!(ledger.master_total(Some("dma")), 6.0);
        assert_eq!(ledger.master_total(None), 8.0); // idle stays untagged
        let totals = ledger.master_totals();
        assert_eq!(totals.len(), 3);
        assert_eq!(totals[0].0, None); // None sorts first
        let sum: f64 = totals.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, ledger.total_pj());
        // The tagged ledger's folded form carries the master suffix.
        assert!(ledger.folded().contains("write@dma"));
        // The master field shows up in JSON only on tagged buckets.
        let json = ledger.to_json();
        assert!(json.contains(r#""master":"dma""#));
        assert!(untagged.to_json().find("master").is_none());
    }

    #[test]
    fn merge_adds_buckets_and_cycles() {
        let mut a = EnergyLedger::new("tlm1");
        a.set_cycles(10);
        a.book(BucketKey::idle(), 1.0);
        let mut b = EnergyLedger::new("tlm1");
        b.set_cycles(5);
        b.book(BucketKey::idle(), 2.0);
        b.book(
            BucketKey::new("ram", LedgerPhase::Address, Some(AccessClass::Read)),
            4.0,
        );
        a.merge(&b);
        assert_eq!(a.cycles(), 15);
        assert_eq!(a.get(&BucketKey::idle()), 3.0);
        assert_eq!(a.total_pj(), 7.0);
    }

    #[test]
    fn merge_drops_disagreeing_software_tag() {
        let mut a = EnergyLedger::new("tlm1").with_software("cfg-a");
        let b = EnergyLedger::new("tlm1").with_software("cfg-b");
        a.merge(&b);
        assert_eq!(a.software(), None);
        let mut c = EnergyLedger::new("tlm1").with_software("cfg-a");
        c.merge(&EnergyLedger::new("tlm1").with_software("cfg-a"));
        assert_eq!(c.software(), Some("cfg-a"));
    }

    #[test]
    fn folded_output_is_sorted_and_tagged() {
        let mut l = EnergyLedger::new("rtl").with_software("boot");
        l.book(
            BucketKey::new("rom", LedgerPhase::ReadData, Some(AccessClass::Fetch)),
            2.5,
        );
        l.book(BucketKey::idle(), 0.125);
        let folded = l.folded();
        assert_eq!(
            folded,
            "rtl;boot;-;idle;- 0.125\nrtl;boot;rom;read-data;fetch 2.500\n"
        );
    }

    #[test]
    fn top_orders_by_energy_then_key() {
        let mut l = EnergyLedger::new("tlm1");
        l.book(
            BucketKey::new("ram", LedgerPhase::Address, Some(AccessClass::Read)),
            1.0,
        );
        l.book(
            BucketKey::new("ram", LedgerPhase::ReadData, Some(AccessClass::Read)),
            9.0,
        );
        l.book(
            BucketKey::new("rom", LedgerPhase::Address, Some(AccessClass::Fetch)),
            1.0,
        );
        let top = l.top(2);
        assert_eq!(top[0].1, 9.0);
        assert_eq!(top[1].0.slave, "ram"); // tie broken by key order
        assert_eq!(l.top(10).len(), 3);
    }

    #[test]
    fn json_shape_round_trips_floats() {
        let mut l = EnergyLedger::new("tlm2");
        l.set_cycles(7);
        l.book(
            BucketKey::new("ram", LedgerPhase::WriteData, Some(AccessClass::Write)),
            0.1 + 0.2,
        );
        let json = l.to_json();
        assert!(json.starts_with(r#"{"layer":"tlm2","software":null,"cycles":7,"#));
        assert!(json
            .contains(r#""phase":"write-data","class":"write","energy_pj":0.30000000000000004"#));
    }

    #[test]
    fn collector_renders_one_track_per_bucket() {
        let mut l = EnergyLedger::new("rtl");
        l.set_cycles(4);
        l.book(BucketKey::idle(), 1.5);
        l.book(
            BucketKey::new("ram", LedgerPhase::Address, Some(AccessClass::Read)),
            2.0,
        );
        let c = l.to_collector();
        assert_eq!(c.layer(), "rtl");
        assert_eq!(c.counters().len(), 2);
        assert_eq!(c.counters()[0].samples, vec![(0, 0.0), (4, 1.5)]);
    }

    #[test]
    fn auditor_passes_identical_ledgers() {
        let mut l = EnergyLedger::new("tlm1");
        l.book(BucketKey::idle(), 3.0);
        let audit = DivergenceAuditor::default().audit_ledgers(&l, &l.clone());
        assert!(audit.is_clean());
        assert_eq!(audit.checked, 1);
    }

    #[test]
    fn auditor_finds_first_and_worst_bucket() {
        let mut a = EnergyLedger::new("tlm1");
        let mut b = EnergyLedger::new("tlm2");
        let k_addr = BucketKey::new("ram", LedgerPhase::Address, Some(AccessClass::Read));
        let k_data = BucketKey::new("ram", LedgerPhase::ReadData, Some(AccessClass::Read));
        a.book(k_addr.clone(), 1.0);
        b.book(k_addr.clone(), 1.2);
        a.book(k_data.clone(), 10.0);
        b.book(k_data.clone(), 5.0);
        let audit = DivergenceAuditor::default().audit_ledgers(&a, &b);
        assert_eq!(audit.divergent, 2);
        assert_eq!(audit.first.as_ref().unwrap().key, k_addr);
        assert_eq!(audit.worst.as_ref().unwrap().key, k_data);
        assert!((audit.worst.unwrap().delta() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn auditor_sees_missing_bucket_as_zero() {
        let mut a = EnergyLedger::new("tlm1");
        a.book(BucketKey::idle(), 2.0);
        let b = EnergyLedger::new("tlm1");
        let audit = DivergenceAuditor::default().audit_ledgers(&a, &b);
        assert_eq!(audit.divergent, 1);
        assert_eq!(audit.first.unwrap().b_pj, 0.0);
    }

    #[test]
    fn trace_audit_reports_first_cycle_with_context() {
        let spans = [
            span(0, Phase::Address, 0, 1, 0x10, AccessClass::Read),
            span(0, Phase::ReadData, 2, 3, 0x10, AccessClass::Read),
            span(1, Phase::Address, 40, 41, 0x110, AccessClass::Write),
        ];
        let a = [1.0, 1.0, 2.0, 2.0];
        let b = [1.0, 1.0, 2.0, 9.0];
        let div = DivergenceAuditor::default()
            .audit_traces(&a, &b, &spans, 2)
            .unwrap();
        assert_eq!(div.cycle, 3);
        assert_eq!((div.a_pj, div.b_pj), (2.0, 9.0));
        // Context excludes the far-away span at cycle 40.
        assert_eq!(div.context.len(), 2);
        assert!(div.context.iter().all(|s| s.trace_id == 0));
    }

    #[test]
    fn trace_audit_flags_length_mismatch_tail() {
        let a = [1.0, 1.0, 1.0];
        let b = [1.0, 1.0];
        let div = DivergenceAuditor::default()
            .audit_traces(&a, &b, &[], 1)
            .unwrap();
        assert_eq!(div.cycle, 2);
        assert_eq!(div.b_pj, 0.0);
    }

    #[test]
    fn trace_audit_passes_within_tolerance() {
        let a = [1.0, 2.0];
        let b = [1.0, 2.0 + 1e-12];
        assert!(DivergenceAuditor::default()
            .audit_traces(&a, &b, &[], 1)
            .is_none());
    }
}
