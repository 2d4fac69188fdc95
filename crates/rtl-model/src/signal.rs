//! Two-phase signals with transition classification.
//!
//! Hardware signals follow SystemC `sc_signal` semantics: writes go to a
//! *next* value and become visible when [`Vector::update`] runs at the
//! update step. Every update returns the rising and falling bits of the
//! transition it performs — the raw material the gate-level power
//! estimator prices. The signal keeps no running totals; a caller that
//! wants them sums the returned [`VectorUpdate`]s.
//!
//! Calling `update` more than once between reads is allowed and is how the
//! RTL model represents combinational settling: intermediate values applied
//! and then overwritten within the same cycle register as extra (glitch)
//! transitions, exactly the activity a gate-level tool sees and a
//! cycle-boundary TLM model cannot.
//!
//! # Example
//!
//! A combinational glitch: a bus settles through an intermediate value
//! within one cycle, and both updates count as transitions.
//!
//! ```
//! use hierbus_rtl::signal::Vector;
//!
//! let mut data = Vector::new(8);
//! data.set(0x0F);
//! assert_eq!(data.value(), 0x00); // a write is not visible until update
//! let first = data.update();
//! data.set(0xF0);
//! let second = data.update();
//! assert_eq!(data.value(), 0xF0);
//! assert_eq!(first.toggles() + second.toggles(), 4 + 8);
//! ```

/// The per-bit outcome of one [`Vector::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VectorUpdate {
    /// Bit mask of 0→1 transitions.
    pub rises: u64,
    /// Bit mask of 1→0 transitions.
    pub falls: u64,
}

impl VectorUpdate {
    /// Number of bits that toggled.
    pub fn toggles(&self) -> u32 {
        (self.rises | self.falls).count_ones()
    }

    /// True if no bit changed.
    pub fn is_quiet(&self) -> bool {
        self.rises == 0 && self.falls == 0
    }
}

/// A multi-bit two-phase signal of width 1..=64 whose update reports
/// the bits it toggled.
///
/// ```
/// use hierbus_rtl::signal::Vector;
/// let mut addr = Vector::new(36);
/// addr.set(0xF000_0000);
/// let upd = addr.update();
/// assert_eq!(upd.toggles(), 4);
/// assert_eq!(upd.rises, 0xF000_0000);
/// assert_eq!(addr.value(), 0xF000_0000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vector {
    width: u32,
    mask: u64,
    cur: u64,
    next: u64,
}

impl Vector {
    /// Creates a zero-initialised vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn new(width: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "vector width {width} out of 1..=64"
        );
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Vector {
            width,
            mask,
            cur: 0,
            next: 0,
        }
    }

    /// Width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Schedules `v` (masked to the width) for the next update.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.next = v & self.mask;
    }

    /// The settled value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.cur
    }

    /// The value scheduled for the next update.
    #[inline]
    pub fn next_value(&self) -> u64 {
        self.next
    }

    /// True if an update would change the settled value.
    #[inline]
    pub fn pending(&self) -> bool {
        self.cur != self.next
    }

    /// Applies the scheduled value and returns masks of the transitions
    /// performed.
    #[inline]
    pub fn update(&mut self) -> VectorUpdate {
        let changed = self.cur ^ self.next;
        let update = VectorUpdate {
            rises: changed & self.next,
            falls: changed & self.cur,
        };
        self.cur = self.next;
        update
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_masks_to_width() {
        let mut v = Vector::new(8);
        v.set(0x1FF);
        v.update();
        assert_eq!(v.value(), 0xFF);
    }

    #[test]
    fn vector_update_classifies_rises_and_falls() {
        let mut v = Vector::new(4);
        v.set(0b1010);
        let u1 = v.update();
        assert_eq!(u1.rises, 0b1010);
        assert_eq!(u1.falls, 0);
        v.set(0b0110);
        let u2 = v.update();
        assert_eq!(u2.rises, 0b0100);
        assert_eq!(u2.falls, 0b1000);
        assert_eq!(u2.toggles(), 2);
        let rises: u32 = [u1, u2].iter().map(|u| u.rises.count_ones()).sum();
        let falls: u32 = [u1, u2].iter().map(|u| u.falls.count_ones()).sum();
        assert_eq!(rises, 3);
        assert_eq!(falls, 1);
    }

    #[test]
    fn glitch_double_update_counts_twice() {
        // Settling through an intermediate value costs extra transitions —
        // the mechanism behind the gate-level vs layer-1 energy gap.
        let mut clean = Vector::new(8);
        clean.set(0x0F);
        let clean_toggles = clean.update().toggles();

        let mut glitchy = Vector::new(8);
        glitchy.set(0xFF); // intermediate hazard value
        let mut glitchy_toggles = glitchy.update().toggles();
        glitchy.set(0x0F); // settles to the same final value
        glitchy_toggles += glitchy.update().toggles();

        assert_eq!(clean.value(), glitchy.value());
        assert!(glitchy_toggles > clean_toggles);
        assert_eq!(glitchy_toggles, 12);
    }

    #[test]
    fn width_64_mask_is_full() {
        let mut v = Vector::new(64);
        v.set(u64::MAX);
        assert_eq!(v.update().toggles(), 64);
    }

    #[test]
    #[should_panic(expected = "out of 1..=64")]
    fn zero_width_rejected() {
        let _ = Vector::new(0);
    }
}
