//! Named counters, gauges and fixed-bucket histograms.
//!
//! Everything is sim-time based (no wall clock), snapshots are plain
//! values, and two snapshots can be diffed with
//! [`MetricsSnapshot::since`] to measure one phase of a run. A disabled
//! registry records nothing — every mutation is a branch on the
//! `enabled` flag, and no allocation happens after registration — so
//! instrumented code can leave its probes in place permanently.

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram over `u64` samples (cycles, picojoule
/// integers, queue depths, ...).
///
/// `bounds` are inclusive upper bucket edges in ascending order; a
/// sample `v` lands in the first bucket with `v <= bound`, and samples
/// above the last bound land in an implicit overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub name: String,
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts, `bounds.len() + 1` long (last =
    /// overflow).
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    fn new(name: &str, bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?}: bounds must be strictly ascending"
        );
        Histogram {
            name: name.to_owned(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The `q`-quantile (`0 < q <= 1`) estimated from the buckets, or
    /// `None` on an empty histogram.
    ///
    /// Walks the cumulative counts to the bucket containing the
    /// rank-`ceil(q·count)` sample and reports that bucket's inclusive
    /// upper bound (the tracked `max` for the overflow bucket), clamped
    /// to the observed `[min, max]` — so the estimate is exact for
    /// point masses on bucket edges and at worst one bucket wide.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = self.bounds.get(i).copied().unwrap_or(self.max);
                return Some(edge.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (see [`percentile`](Self::percentile)).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    fn diff(&self, earlier: &Histogram) -> Histogram {
        Histogram {
            name: self.name.clone(),
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }
}

/// Point-in-time copy of every metric, diffable with
/// [`MetricsSnapshot::since`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    /// `(name, value, high-water mark)`.
    pub gauges: Vec<(String, i64, i64)>,
    pub histograms: Vec<Histogram>,
}

impl MetricsSnapshot {
    /// Fieldwise difference against an earlier snapshot of the same
    /// registry (gauge values and min/max keep their current reading).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| {
                    let e = earlier
                        .counters
                        .iter()
                        .find(|(en, _)| en == n)
                        .map_or(0, |(_, ev)| *ev);
                    (n.clone(), v.saturating_sub(e))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| {
                    earlier
                        .histograms
                        .iter()
                        .find(|eh| eh.name == h.name)
                        .map_or_else(|| h.clone(), |eh| h.diff(eh))
                })
                .collect(),
        }
    }

    /// Renders every metric as `kind,name,field,value` CSV rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},count,{v}\n"));
        }
        for (name, v, hwm) in &self.gauges {
            out.push_str(&format!("gauge,{name},value,{v}\n"));
            out.push_str(&format!("gauge,{name},hwm,{hwm}\n"));
        }
        for h in &self.histograms {
            let name = &h.name;
            out.push_str(&format!("hist,{name},count,{}\n", h.count));
            out.push_str(&format!("hist,{name},sum,{}\n", h.sum));
            if h.count > 0 {
                out.push_str(&format!("hist,{name},min,{}\n", h.min));
                out.push_str(&format!("hist,{name},max,{}\n", h.max));
            }
            for (i, c) in h.counts.iter().enumerate() {
                match h.bounds.get(i) {
                    Some(b) => out.push_str(&format!("hist,{name},le_{b},{c}\n")),
                    None => out.push_str(&format!("hist,{name},le_inf,{c}\n")),
                }
            }
        }
        out
    }
}

/// The metrics registry: register once, mutate through cheap typed ids.
///
/// ```
/// use hierbus_obs::MetricsRegistry;
/// let mut m = MetricsRegistry::new();
/// let txns = m.counter("bus.txns");
/// let lat = m.histogram("bus.latency_cycles", &[2, 4, 8, 16]);
/// m.inc(txns);
/// m.observe(lat, 5);
/// let snap = m.snapshot();
/// assert_eq!(snap.counters[0], ("bus.txns".to_owned(), 1));
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64, i64)>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A registry that accepts registrations but records nothing.
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            ..MetricsRegistry::new()
        }
    }

    /// Registers (or looks up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_owned(), 0));
        CounterId(self.counters.len() - 1)
    }

    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0].1 += n;
        }
    }

    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Registers (or looks up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_owned(), 0, 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge; the high-water mark tracks the maximum value ever
    /// set.
    pub fn set_gauge(&mut self, id: GaugeId, v: i64) {
        if self.enabled {
            let g = &mut self.gauges[id.0];
            g.1 = v;
            g.2 = g.2.max(v);
        }
    }

    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id.0].1
    }

    /// Registers (or looks up) a histogram with inclusive ascending
    /// upper bucket bounds.
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        self.histograms.push(Histogram::new(name, bounds));
        HistogramId(self.histograms.len() - 1)
    }

    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if self.enabled {
            self.histograms[id.0].observe(v);
        }
    }

    pub fn histogram_data(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0]
    }

    /// Copies every metric out for reporting or diffing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Shorthand for `snapshot().to_csv()`.
    pub fn to_csv(&self) -> String {
        self.snapshot().to_csv()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("a");
        let g = m.gauge("g");
        m.inc(c);
        m.add(c, 4);
        m.set_gauge(g, 7);
        m.set_gauge(g, 3);
        assert_eq!(m.counter_value(c), 5);
        assert_eq!(m.gauge_value(g), 3);
        assert_eq!(m.gauges[g.0].2, 7, "high-water mark");
    }

    #[test]
    fn registration_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a);
        m.inc(b);
        assert_eq!(m.counter_value(a), 2);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::disabled();
        let c = m.counter("a");
        let g = m.gauge("g");
        let h = m.histogram("h", &[1, 2]);
        m.inc(c);
        m.set_gauge(g, 9);
        m.observe(h, 1);
        assert_eq!(m.counter_value(c), 0);
        assert_eq!(m.gauges[g.0].2, 0, "high-water mark");
        assert_eq!(m.histogram_data(h).count, 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[2, 4, 8]);
        // A value equal to a bound lands in that bound's bucket; one
        // past it lands in the next.
        for v in [0, 1, 2, 3, 4, 5, 8, 9, 1000] {
            m.observe(h, v);
        }
        let d = m.histogram_data(h);
        assert_eq!(d.counts, vec![3, 2, 2, 2]);
        assert_eq!((d.count, d.min, d.max), (9, 0, 1000));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        MetricsRegistry::new().histogram("bad", &[4, 2]);
    }

    #[test]
    fn percentiles_match_a_known_uniform_distribution() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        // 1..=100 uniformly: p50 lands in the le_50 bucket, p90 in
        // le_90, p99 in le_100.
        for v in 1..=100 {
            m.observe(h, v);
        }
        let d = m.histogram_data(h);
        assert_eq!(d.p50(), Some(50));
        assert_eq!(d.p90(), Some(90));
        assert_eq!(d.p99(), Some(100));
        assert_eq!(d.percentile(0.01), Some(10));
        assert_eq!(d.percentile(1.0), Some(100));
    }

    #[test]
    fn percentiles_of_a_point_mass_are_the_point() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10, 100, 1000]);
        for _ in 0..37 {
            m.observe(h, 64);
        }
        let d = m.histogram_data(h);
        // Every quantile sits in the le_100 bucket, clamped to the
        // observed max of 64.
        assert_eq!(d.p50(), Some(64));
        assert_eq!(d.p90(), Some(64));
        assert_eq!(d.p99(), Some(64));
    }

    #[test]
    fn percentile_uses_tracked_max_for_the_overflow_bucket() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10]);
        m.observe(h, 5);
        m.observe(h, 5000);
        m.observe(h, 7000);
        let d = m.histogram_data(h);
        assert_eq!(d.p99(), Some(7000));
        // p50 is rank 2 of 3: the overflow bucket, reported as max.
        assert_eq!(d.p50(), Some(7000));
        // p33 is rank 1: the le_10 bucket, clamped up to min=5.
        assert_eq!(d.percentile(0.33), Some(10));
    }

    #[test]
    fn percentile_of_empty_or_invalid_q_is_none() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10]);
        // Empty histogram: every quantile is absent, never 0.
        assert_eq!(m.histogram_data(h).p50(), None);
        assert_eq!(m.histogram_data(h).p99(), None);
        assert_eq!(m.histogram_data(h).percentile(1.0), None);
        m.observe(h, 1);
        assert_eq!(m.histogram_data(h).percentile(1.5), None);
        assert_eq!(m.histogram_data(h).percentile(-0.1), None);
        // The documented contract is 0 < q <= 1: q = 0 names no sample.
        assert_eq!(m.histogram_data(h).percentile(0.0), None);
        assert_eq!(m.histogram_data(h).percentile(f64::NAN), None);
    }

    #[test]
    fn percentile_of_a_single_sample_is_that_sample() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10, 100]);
        m.observe(h, 42);
        let d = m.histogram_data(h);
        // One sample in the le_100 bucket: min = max = 42 clamps the
        // bucket edge to the sample itself at every quantile.
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(d.percentile(q), Some(42), "q={q}");
        }
    }

    #[test]
    fn percentile_with_all_samples_in_overflow_reports_tracked_max() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[10]);
        for v in [50, 60, 70] {
            m.observe(h, v);
        }
        let d = m.histogram_data(h);
        assert_eq!(d.counts, vec![0, 3]);
        // The overflow bucket has no upper bound: every quantile clamps
        // to the tracked max, never a fabricated edge or 0.
        assert_eq!(d.p50(), Some(70));
        assert_eq!(d.p99(), Some(70));
        assert_eq!(d.percentile(0.01), Some(70));
    }

    #[test]
    fn skewed_distribution_percentiles_are_ordered() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[1, 2, 4, 8, 16, 32, 64, 128]);
        // 90 fast samples, 9 medium, 1 slow tail.
        for _ in 0..90 {
            m.observe(h, 1);
        }
        for _ in 0..9 {
            m.observe(h, 20);
        }
        m.observe(h, 100);
        let d = m.histogram_data(h);
        assert_eq!(d.p50(), Some(1));
        assert_eq!(d.p90(), Some(1));
        assert_eq!(d.percentile(0.95), Some(32));
        assert_eq!(d.p99(), Some(32));
        // The 100th percentile hits the le_128 bucket but clamps to the
        // observed max.
        assert_eq!(d.percentile(1.0), Some(100));
        let (p50, p90, p99) = (d.p50().unwrap(), d.p90().unwrap(), d.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn snapshot_since_diffs_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("c");
        let h = m.histogram("h", &[10]);
        m.add(c, 3);
        m.observe(h, 5);
        let early = m.snapshot();
        m.add(c, 2);
        m.observe(h, 50);
        let delta = m.snapshot().since(&early);
        assert_eq!(delta.counters[0].1, 2);
        assert_eq!(delta.histograms[0].counts, vec![0, 1]);
        assert_eq!(delta.histograms[0].count, 1);
    }

    #[test]
    fn csv_has_header_and_all_kinds() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("bus.txns");
        let g = m.gauge("q.depth");
        let h = m.histogram("lat", &[4]);
        m.inc(c);
        m.set_gauge(g, 2);
        m.observe(h, 3);
        let csv = m.to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,bus.txns,count,1\n"));
        assert!(csv.contains("gauge,q.depth,hwm,2\n"));
        assert!(csv.contains("hist,lat,le_4,1\n"));
        assert!(csv.contains("hist,lat,le_inf,0\n"));
    }

    #[test]
    fn csv_histogram_emits_one_row_per_bound_plus_overflow() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat", &[2, 4, 8]);
        m.observe(h, 1); // le_2
        m.observe(h, 4); // le_4 (inclusive upper bound)
        m.observe(h, 100); // overflow
        let csv = m.to_csv();
        let rows: Vec<&str> = csv
            .lines()
            .filter(|l| l.starts_with("hist,lat,le_"))
            .collect();
        // Exactly bounds.len() bucket rows plus the implicit overflow
        // bucket, in bound order.
        assert_eq!(
            rows,
            vec![
                "hist,lat,le_2,1",
                "hist,lat,le_4,1",
                "hist,lat,le_8,0",
                "hist,lat,le_inf,1",
            ]
        );
        assert!(csv.contains("hist,lat,count,3\n"));
        assert!(csv.contains("hist,lat,sum,105\n"));
        assert!(csv.contains("hist,lat,min,1\n"));
        assert!(csv.contains("hist,lat,max,100\n"));
    }

    #[test]
    fn csv_empty_histogram_skips_min_max_but_keeps_buckets() {
        let mut m = MetricsRegistry::new();
        m.histogram("empty", &[10, 20]);
        let csv = m.to_csv();
        assert!(csv.contains("hist,empty,count,0\n"));
        assert!(csv.contains("hist,empty,sum,0\n"));
        // min/max are meaningless with no observations and are omitted.
        assert!(!csv.contains("hist,empty,min,"));
        assert!(!csv.contains("hist,empty,max,"));
        // All-zero bucket rows still render so the shape is stable.
        assert!(csv.contains("hist,empty,le_10,0\n"));
        assert!(csv.contains("hist,empty,le_20,0\n"));
        assert!(csv.contains("hist,empty,le_inf,0\n"));
    }

    #[test]
    fn snapshots_stay_consistent_under_concurrent_writers() {
        use std::sync::{Arc, Mutex};

        // The registry is shared behind a lock (as the serve daemon
        // shares it); interleaved writers must never produce a snapshot
        // where a counter regresses or a histogram's total disagrees
        // with its buckets.
        let shared = Arc::new(Mutex::new(MetricsRegistry::new()));
        let (c, h) = {
            let mut m = shared.lock().unwrap();
            (m.counter("requests"), m.histogram("lat", &[4, 16, 64]))
        };
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let mut m = shared.lock().unwrap();
                        m.inc(c);
                        m.observe(h, (w * 37 + i) % 100);
                    }
                })
            })
            .collect();
        let mut last_count = 0u64;
        let mut last_hist = 0u64;
        for _ in 0..200 {
            let snap = shared.lock().unwrap().snapshot();
            let count = snap.counters[0].1;
            let hist = &snap.histograms[0];
            assert!(
                count >= last_count,
                "counter regressed: {count} < {last_count}"
            );
            assert!(hist.count >= last_hist, "histogram total regressed");
            assert_eq!(
                hist.counts.iter().sum::<u64>(),
                hist.count,
                "bucket counts disagree with the histogram total"
            );
            last_count = count;
            last_hist = hist.count;
            std::thread::yield_now();
        }
        for t in writers {
            t.join().unwrap();
        }
        let snap = shared.lock().unwrap().snapshot();
        assert_eq!(snap.counters[0].1, 2000);
        assert_eq!(snap.histograms[0].count, 2000);
        assert_eq!(snap.histograms[0].counts.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn csv_histogram_with_no_bounds_is_a_single_overflow_bucket() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("one", &[]);
        m.observe(h, 7);
        let csv = m.to_csv();
        let rows: Vec<&str> = csv
            .lines()
            .filter(|l| l.starts_with("hist,one,le_"))
            .collect();
        assert_eq!(rows, vec!["hist,one,le_inf,1"]);
    }
}
