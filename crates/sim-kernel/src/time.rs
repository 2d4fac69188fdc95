//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in ticks.
///
/// Ticks are unit-agnostic; the VCD [`trace`](crate::trace) recorder gives
/// them a unit through its timescale (the RTL waveform records one tick per
/// bus cycle). `SimTime` is a transparent `u64` newtype so arithmetic stays
/// cheap while keeping time values from mixing with cycle counts or
/// energies.
///
/// ```
/// use hierbus_sim::SimTime;
/// let t = SimTime::ZERO + 25;
/// assert_eq!(t.ticks(), 25);
/// assert!(t < SimTime::from_ticks(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a tick delta.
    #[inline]
    pub const fn saturating_add(self, delta: u64) -> Self {
        SimTime(self.0.saturating_add(delta))
    }

    /// Ticks elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    #[inline]
    pub const fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(ticks: u64) -> Self {
        SimTime(ticks)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ticks(10);
        let b = a + 5;
        assert_eq!(b.ticks(), 15);
        assert_eq!(b - a, 5);
        assert!(a < b);
        assert_eq!(b.since(a), 5);
        assert_eq!(a.since(b), 0);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX.saturating_add(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO.since(SimTime::MAX), 0);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(SimTime::from_ticks(42).to_string(), "42t");
    }
}
