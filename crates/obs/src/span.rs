//! Transaction spans: per-phase begin/end events keyed by the bus
//! transaction's monotonic trace id.
//!
//! Every model layer (cycle-true RTL, cycle-accurate TLM layer 1,
//! timed TLM layer 2) reports the same protocol phases — request
//! queueing, the address phase, then the read or write data phase — so
//! one burst can be laid side by side across layers in a trace viewer.

/// Protocol phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Queued at the master, waiting for the address channel.
    Request,
    /// Address phase on the bus (including wait states).
    Address,
    /// Read data phase (all beats of a burst).
    ReadData,
    /// Write data phase (all beats of a burst).
    WriteData,
}

impl Phase {
    pub const ALL: [Phase; 4] = [
        Phase::Request,
        Phase::Address,
        Phase::ReadData,
        Phase::WriteData,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::Address => "address",
            Phase::ReadData => "read-data",
            Phase::WriteData => "write-data",
        }
    }
}

/// What kind of access a transaction is (layer-agnostic mirror of the
/// bus crate's `AccessKind`; this crate is dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessClass {
    Fetch,
    Read,
    Write,
}

impl AccessClass {
    pub fn name(self) -> &'static str {
        match self {
            AccessClass::Fetch => "fetch",
            AccessClass::Read => "read",
            AccessClass::Write => "write",
        }
    }
}

/// A closed span: one protocol phase of one transaction, in cycles
/// (inclusive bounds: the phase occupied `begin..=end`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub trace_id: u64,
    pub phase: Phase,
    pub begin: u64,
    pub end: u64,
    pub addr: u64,
    pub class: AccessClass,
    pub error: bool,
}

impl SpanEvent {
    pub fn duration(&self) -> u64 {
        self.end - self.begin + 1
    }
}

/// A sampled counter track (e.g. cumulative energy over cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    pub name: String,
    /// `(cycle, value)` samples, deduplicated on unchanged values.
    pub samples: Vec<(u64, f64)>,
    /// The most recent sample fed to the track, recorded even when the
    /// dedup above skipped it, so exporters can close a plateau at its
    /// true end instead of its first cycle.
    pub last: Option<(u64, f64)>,
}

impl CounterTrack {
    /// The final sample of the track if the dedup dropped it — i.e. the
    /// track ends on a plateau whose last cycle is later than the last
    /// stored sample. Exporters append this so ramps span their full
    /// duration.
    pub(crate) fn trailing_sample(&self) -> Option<(u64, f64)> {
        match (self.samples.last(), self.last) {
            (Some(&(stored, _)), Some((cycle, value))) if cycle > stored => Some((cycle, value)),
            _ => None,
        }
    }
}

/// Per-layer span collector. Disabled collectors hold no buffers and
/// every probe is a branch on the `enabled` flag; the default one is
/// disabled and belongs to no layer.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    enabled: bool,
    layer: &'static str,
    open: Vec<(u64, Phase, u64, u64, AccessClass)>,
    spans: Vec<SpanEvent>,
    counters: Vec<CounterTrack>,
}

impl TraceCollector {
    /// A collector that records nothing until [`enable`](Self::enable)d.
    pub fn disabled(layer: &'static str) -> Self {
        TraceCollector {
            enabled: false,
            layer,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// An enabled collector for a model layer (`"rtl"`, `"tlm1"`,
    /// `"tlm2"`).
    pub fn for_layer(layer: &'static str) -> Self {
        TraceCollector {
            enabled: true,
            ..TraceCollector::disabled(layer)
        }
    }

    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub fn layer(&self) -> &'static str {
        self.layer
    }

    /// Opens a phase span for a transaction at `cycle`.
    #[inline]
    pub fn begin(
        &mut self,
        trace_id: u64,
        phase: Phase,
        cycle: u64,
        addr: u64,
        class: AccessClass,
    ) {
        if self.enabled {
            self.open.push((trace_id, phase, cycle, addr, class));
        }
    }

    /// Closes a phase span at `cycle` (inclusive). Unmatched ends are
    /// ignored so probe sites don't have to track model corner cases.
    #[inline]
    pub fn end(&mut self, trace_id: u64, phase: Phase, cycle: u64, error: bool) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self
            .open
            .iter()
            .position(|&(id, p, _, _, _)| id == trace_id && p == phase)
        {
            let (_, _, begin, addr, class) = self.open.swap_remove(i);
            self.spans.push(SpanEvent {
                trace_id,
                phase,
                begin,
                end: cycle.max(begin),
                addr,
                class,
                error,
            });
        }
    }

    /// Appends a counter-track sample, skipping repeats of the same
    /// value.
    #[inline]
    pub fn counter_sample(&mut self, track: &str, cycle: u64, value: f64) {
        if !self.enabled {
            return;
        }
        let idx = match self.counters.iter().position(|t| t.name == track) {
            Some(i) => i,
            None => {
                self.counters.push(CounterTrack {
                    name: track.to_owned(),
                    samples: Vec::new(),
                    last: None,
                });
                self.counters.len() - 1
            }
        };
        let t = &mut self.counters[idx];
        if t.samples.last().map(|&(_, v)| v) != Some(value) {
            t.samples.push((cycle, value));
        }
        t.last = Some((cycle, value));
    }

    /// All closed spans, in close order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    pub fn counters(&self) -> &[CounterTrack] {
        &self.counters
    }

    /// Number of closed spans (the cross-layer comparison metric).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of spans opened but never closed (should be 0 after a
    /// clean run).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Drops all recorded data, keeping the enabled state.
    pub fn clear(&mut self) {
        self.open.clear();
        self.spans.clear();
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_produces_closed_span() {
        let mut c = TraceCollector::for_layer("tlm1");
        c.begin(7, Phase::Address, 10, 0x100, AccessClass::Read);
        c.end(7, Phase::Address, 12, false);
        assert_eq!(c.span_count(), 1);
        let s = &c.spans()[0];
        assert_eq!((s.begin, s.end, s.duration()), (10, 12, 3));
        assert_eq!(s.class, AccessClass::Read);
        assert!(!s.error);
        assert_eq!(c.open_count(), 0);
    }

    #[test]
    fn phases_of_same_txn_are_independent() {
        let mut c = TraceCollector::for_layer("tlm1");
        c.begin(1, Phase::Request, 0, 0, AccessClass::Write);
        c.begin(1, Phase::Address, 2, 0, AccessClass::Write);
        c.end(1, Phase::Address, 3, false);
        assert_eq!(c.span_count(), 1);
        assert_eq!(c.open_count(), 1);
        c.end(1, Phase::Request, 1, false);
        assert_eq!(c.span_count(), 2);
    }

    #[test]
    fn disabled_collector_is_inert() {
        let mut c = TraceCollector::disabled("rtl");
        c.begin(1, Phase::Request, 0, 0, AccessClass::Read);
        c.end(1, Phase::Request, 5, false);
        c.counter_sample("e", 0, 1.0);
        assert_eq!(c.span_count(), 0);
        assert_eq!(c.open_count(), 0);
        assert!(c.counters().is_empty());
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let mut c = TraceCollector::for_layer("tlm2");
        c.end(99, Phase::ReadData, 4, false);
        assert_eq!(c.span_count(), 0);
    }

    #[test]
    fn counter_samples_dedupe_repeats() {
        let mut c = TraceCollector::for_layer("rtl");
        c.counter_sample("energy_pj", 0, 1.5);
        c.counter_sample("energy_pj", 1, 1.5);
        c.counter_sample("energy_pj", 2, 2.0);
        assert_eq!(c.counters()[0].samples, vec![(0, 1.5), (2, 2.0)]);
    }

    #[test]
    fn first_sample_on_empty_counters_creates_track() {
        // Regression: the first sample of the first track exercises the
        // counters-empty path, which must index the freshly pushed
        // track instead of unwrapping `last_mut`.
        let mut c = TraceCollector::for_layer("tlm1");
        assert!(c.counters().is_empty());
        c.counter_sample("energy_pj", 3, 0.5);
        assert_eq!(c.counters().len(), 1);
        assert_eq!(c.counters()[0].samples, vec![(3, 0.5)]);
        // And after clear() the same path runs again without panicking.
        c.clear();
        c.counter_sample("energy_pj", 0, 1.0);
        assert_eq!(c.counters()[0].samples, vec![(0, 1.0)]);
    }

    #[test]
    fn trailing_sample_recovers_plateau_end() {
        // Regression: dedup dropped the last sample of a plateau, so a
        // counter ramp [(0,1),(1,2),(2,2),(3,2)] exported as ending at
        // cycle 1. The track now remembers the final sample.
        let mut c = TraceCollector::for_layer("tlm1");
        c.counter_sample("e", 0, 1.0);
        c.counter_sample("e", 1, 2.0);
        c.counter_sample("e", 2, 2.0);
        c.counter_sample("e", 3, 2.0);
        let t = &c.counters()[0];
        assert_eq!(t.samples, vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(t.last, Some((3, 2.0)));
        assert_eq!(t.trailing_sample(), Some((3, 2.0)));
        // No plateau: the stored samples already end the track.
        let mut c2 = TraceCollector::for_layer("tlm1");
        c2.counter_sample("e", 0, 1.0);
        c2.counter_sample("e", 1, 2.0);
        assert_eq!(c2.counters()[0].trailing_sample(), None);
        // clear() resets the remembered sample too.
        c.clear();
        c.counter_sample("e", 5, 7.0);
        assert_eq!(c.counters()[0].trailing_sample(), None);
    }

    #[test]
    fn end_clamps_to_begin() {
        let mut c = TraceCollector::for_layer("tlm2");
        c.begin(1, Phase::Address, 5, 0, AccessClass::Read);
        c.end(1, Phase::Address, 5, false);
        assert_eq!(c.spans()[0].duration(), 1);
    }
}
