//! Two-phase signals with transition accounting.
//!
//! Hardware signals follow SystemC `sc_signal` semantics: writes go to a
//! *next* value and become visible when [`Vector::update`] runs at the
//! update step. Every update classifies and counts the bit
//! transitions it performs — these counters are the raw material for the
//! gate-level power estimator and the layer-1 energy model.
//!
//! Calling `update` more than once between reads is allowed and is how the
//! RTL model represents combinational settling: intermediate values applied
//! and then overwritten within the same cycle register as extra (glitch)
//! transitions, exactly the activity a gate-level tool sees and a
//! cycle-boundary TLM model cannot.

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

/// A multi-bit two-phase signal of width 1..=64 with per-bit transition
/// counters.
///
/// ```
/// use hierbus_sim::Vector;
/// let mut addr = Vector::new(36);
/// addr.set(0xF000_0000);
/// let upd = addr.update();
/// assert_eq!(upd.toggles(), 4);
/// assert_eq!(addr.value(), 0xF000_0000);
/// assert_eq!(addr.bit_toggles(28), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vector {
    width: u32,
    mask: u64,
    cur: u64,
    next: u64,
    rises: u64,
    falls: u64,
    per_bit: Vec<u64>,
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
            rises: 0,
            falls: 0,
            per_bit: vec![0; width as usize],
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

    /// Applies the scheduled value, accumulating per-bit counters, and
    /// returns masks of the transitions performed.
    pub fn update(&mut self) -> VectorUpdate {
        let changed = self.cur ^ self.next;
        if changed == 0 {
            return VectorUpdate::default();
        }
        let rises = changed & self.next;
        let falls = changed & self.cur;
        self.rises += rises.count_ones() as u64;
        self.falls += falls.count_ones() as u64;
        let mut bits = changed;
        while bits != 0 {
            let b = bits.trailing_zeros();
            self.per_bit[b as usize] += 1;
            bits &= bits - 1;
        }
        self.cur = self.next;
        VectorUpdate { rises, falls }
    }

    /// Cumulative 0→1 transitions across all bits.
    pub fn rises(&self) -> u64 {
        self.rises
    }

    /// Cumulative 1→0 transitions across all bits.
    pub fn falls(&self) -> u64 {
        self.falls
    }

    /// Cumulative transitions across all bits.
    pub fn toggles(&self) -> u64 {
        self.rises + self.falls
    }

    /// Cumulative transitions of a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width`.
    pub fn bit_toggles(&self, bit: u32) -> u64 {
        self.per_bit[bit as usize]
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
        assert_eq!(v.rises(), 3);
        assert_eq!(v.falls(), 1);
    }

    #[test]
    fn vector_per_bit_counters() {
        let mut v = Vector::new(3);
        for _ in 0..5 {
            v.set(v.value() ^ 0b001);
            v.update();
        }
        assert_eq!(v.bit_toggles(0), 5);
        assert_eq!(v.bit_toggles(1), 0);
        assert_eq!(v.bit_toggles(2), 0);
    }

    #[test]
    fn glitch_double_update_counts_twice() {
        // Settling through an intermediate value costs extra transitions —
        // the mechanism behind the gate-level vs layer-1 energy gap.
        let mut clean = Vector::new(8);
        clean.set(0x0F);
        clean.update();

        let mut glitchy = Vector::new(8);
        glitchy.set(0xFF); // intermediate hazard value
        glitchy.update();
        glitchy.set(0x0F); // settles to the same final value
        glitchy.update();

        assert_eq!(clean.value(), glitchy.value());
        assert!(glitchy.toggles() > clean.toggles());
        assert_eq!(glitchy.toggles(), 12);
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
