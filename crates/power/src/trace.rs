//! Power-profile analysis.
//!
//! Smart cards care about power over *time*, not just totals: simple
//! power analysis (SPA) reads secrets off profile peaks, differential
//! power analysis (DPA) correlates profiles with data hypotheses. The
//! paper motivates cycle-accurate energy profiling with exactly this
//! threat ("Estimation of power consumption over time is important to
//! reduce the probability of a successful power analysis attack"); this
//! module provides the analysis side: peaks, windows, and Pearson
//! correlation of a profile against per-interval data weights.

use std::fmt;

/// A per-cycle (or per-interval) energy profile in pJ.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    samples: Vec<f64>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// Wraps an existing sample vector.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        PowerTrace { samples }
    }

    /// Appends one interval's energy.
    pub fn push(&mut self, energy_pj: f64) {
        self.samples.push(energy_pj);
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of intervals recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total energy in pJ.
    pub fn total(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Mean energy per interval in pJ (zero for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total() / self.samples.len() as f64
        }
    }

    /// `(index, energy)` of the highest-energy interval, or `None` if
    /// empty.
    pub fn peak(&self) -> Option<(usize, f64)> {
        self.samples
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Sums the trace into non-overlapping windows of `width` intervals
    /// (the last window may be partial).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn windowed(&self, width: usize) -> PowerTrace {
        assert!(width > 0, "window width must be non-zero");
        PowerTrace {
            samples: self.samples.chunks(width).map(|c| c.iter().sum()).collect(),
        }
    }

    /// Pearson correlation between the trace and per-interval `weights`
    /// (e.g. Hamming weights of a secret being processed) — the core DPA
    /// statistic. Returns `None` when lengths differ, fewer than two
    /// samples exist, or either series is constant.
    pub fn correlation(&self, weights: &[f64]) -> Option<f64> {
        if self.samples.len() != weights.len() || self.samples.len() < 2 {
            return None;
        }
        let n = self.samples.len() as f64;
        let mx = self.mean();
        let my = weights.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (&x, &y) in self.samples.iter().zip(weights) {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        if vx == 0.0 || vy == 0.0 {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }
}

impl FromIterator<f64> for PowerTrace {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        PowerTrace {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for PowerTrace {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

impl fmt::Display for PowerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} intervals, total {:.2} pJ, mean {:.3} pJ",
            self.len(),
            self.total(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_mean() {
        let t = PowerTrace::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(t.total(), 6.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn peak_finds_maximum() {
        let t = PowerTrace::from_samples(vec![1.0, 5.0, 2.0]);
        assert_eq!(t.peak(), Some((1, 5.0)));
        assert_eq!(PowerTrace::new().peak(), None);
    }

    #[test]
    fn windowing_sums_chunks() {
        let t = PowerTrace::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let w = t.windowed(2);
        assert_eq!(w.samples(), &[3.0, 7.0, 5.0]);
    }

    #[test]
    fn correlation_detects_data_dependence() {
        // Energy directly proportional to the weight: correlation 1.
        let weights: Vec<f64> = (0..32).map(|i| (i % 8) as f64).collect();
        let energy: Vec<f64> = weights.iter().map(|w| 3.0 * w + 1.0).collect();
        let t = PowerTrace::from_samples(energy);
        let r = t.correlation(&weights).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_none_on_degenerate_input() {
        let t = PowerTrace::from_samples(vec![1.0, 1.0, 1.0]);
        assert_eq!(t.correlation(&[1.0, 2.0, 3.0]), None); // constant trace
        let t2 = PowerTrace::from_samples(vec![1.0, 2.0]);
        assert_eq!(t2.correlation(&[1.0]), None); // length mismatch
    }

    #[test]
    fn collects_from_iterator() {
        let t: PowerTrace = vec![1.0, 2.0].into_iter().collect();
        assert_eq!(t.len(), 2);
        let mut t2 = PowerTrace::new();
        t2.extend([3.0, 4.0]);
        assert_eq!(t2.total(), 7.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = PowerTrace::new().windowed(0);
    }
}
