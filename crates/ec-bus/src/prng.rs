//! A small deterministic PRNG (SplitMix64), replacing the external
//! `rand` crate so the workspace builds with no registry access.
//!
//! Every consumer in the workspace needs *reproducible* streams — the
//! synthetic layout database, the random traffic mixes and the
//! randomized tests all key their identity off a seed — and none needs
//! cryptographic strength. SplitMix64 (Steele, Lea & Flood, "Fast
//! Splittable Pseudorandom Number Generators", OOPSLA 2014) passes
//! BigCrush, needs eight bytes of state, and is trivially portable, so
//! the same seed yields the same "chip", the same traffic and the same
//! test cases on every host.

/// A seeded SplitMix64 generator.
///
/// ```
/// use hierbus_ec::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32-bit output (upper half of [`next_u64`](Self::next_u64)).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `lo..hi` (exclusive upper bound).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        // Multiply-shift bounded rejection-free mapping (Lemire). The
        // tiny modulo bias is irrelevant for stimulus generation.
        let span = hi - lo;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform value in `lo..hi` (exclusive upper bound).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.f64() * (hi - lo)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// True with probability `pct`/100 — the shape every traffic
    /// generator parameter uses.
    pub fn chance(&mut self, pct: u32) -> bool {
        self.range_u32(0, 100) < pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 0 from the published algorithm.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-1.5, 2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn range_hits_every_bucket() {
        let mut r = SplitMix64::new(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.range_u32(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_tracks_percentage() {
        let mut r = SplitMix64::new(3);
        let hits = (0..10_000).filter(|_| r.chance(30)).count();
        assert!((2_500..3_500).contains(&hits), "30% gave {hits}/10000");
        assert!(!(0..100).any(|_| r.chance(0)));
        assert!((0..100).all(|_| r.chance(100)));
    }

    #[test]
    fn f64_is_in_unit_interval_and_balanced() {
        let mut r = SplitMix64::new(4);
        let mean: f64 = (0..10_000).map(|_| r.f64()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).range_u64(5, 5);
    }
}
