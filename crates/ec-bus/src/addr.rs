//! 36-bit bus addresses.

use crate::ADDR_BITS;
use std::fmt;

/// The mask of valid address bits.
pub const ADDR_MASK: u64 = (1u64 << ADDR_BITS) - 1;

/// A 36-bit physical bus address.
///
/// Constructors mask to 36 bits so an `Address` is always in range; byte
/// addresses are used throughout (a 32-bit word spans four consecutive
/// byte addresses).
///
/// ```
/// use hierbus_ec::Address;
/// let a = Address::new(0x0_4000_0013);
/// assert_eq!(a.word_offset(), 0x0_4000_0010 >> 2);
/// assert_eq!((a + 4).raw() - a.raw(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address, masking to 36 bits.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw & ADDR_MASK)
    }

    /// The raw 36-bit value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Word index from the start of the address space.
    #[inline]
    pub const fn word_offset(self) -> u64 {
        self.0 >> 2
    }

    /// Byte lane within the 32-bit word (0..=3).
    #[inline]
    pub(crate) const fn byte_in_word(self) -> u32 {
        (self.0 & 0x3) as u32
    }

    /// True if aligned to `bytes` (must be a power of two).
    #[inline]
    pub const fn is_aligned(self, bytes: u64) -> bool {
        self.0.is_multiple_of(bytes)
    }

    /// Wrapping add within the 36-bit space.
    #[inline]
    pub const fn wrapping_add(self, delta: u64) -> Address {
        Address((self.0.wrapping_add(delta)) & ADDR_MASK)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#011x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address::new(raw)
    }
}

impl std::ops::Add<u64> for Address {
    type Output = Address;
    #[inline]
    fn add(self, rhs: u64) -> Address {
        Address::new(self.0 + rhs)
    }
}

/// A half-open address range `[base, base + size)`.
///
/// ```
/// use hierbus_ec::{Address, AddressRange};
/// let rom = AddressRange::new(Address::new(0x1000), 0x100);
/// assert!(rom.contains(Address::new(0x10ff)));
/// assert!(!rom.contains(Address::new(0x1100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressRange {
    base: Address,
    size: u64,
}

impl AddressRange {
    /// Creates a range starting at `base` spanning `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the range would exceed the 36-bit space.
    pub fn new(base: Address, size: u64) -> Self {
        assert!(size > 0, "address range must be non-empty");
        assert!(
            base.raw()
                .checked_add(size)
                .is_some_and(|end| end <= ADDR_MASK + 1),
            "address range {base}+{size:#x} exceeds the 36-bit space"
        );
        AddressRange { base, size }
    }

    /// The first address in the range.
    pub fn base(&self) -> Address {
        self.base
    }

    /// The range length in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// One past the last address in the range.
    pub fn end(&self) -> u64 {
        self.base.raw() + self.size
    }

    /// True if `addr` falls inside the range.
    #[inline]
    pub fn contains(&self, addr: Address) -> bool {
        addr.raw() >= self.base.raw() && addr.raw() < self.end()
    }

    /// Byte offset of `addr` from the range base, or `None` if outside.
    pub fn offset_of(&self, addr: Address) -> Option<u64> {
        self.contains(addr).then(|| addr.raw() - self.base.raw())
    }

    /// True if the two ranges share any address.
    pub(crate) fn overlaps(&self, other: &AddressRange) -> bool {
        self.base.raw() < other.end() && other.base.raw() < self.end()
    }
}

impl fmt::Display for AddressRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {:#011x})", self.base, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_masks_to_36_bits() {
        let a = Address::new(u64::MAX);
        assert_eq!(a.raw(), ADDR_MASK);
    }

    #[test]
    fn word_and_byte_decomposition() {
        let a = Address::new(0x1007);
        assert_eq!(a.byte_in_word(), 3);
        assert!(!a.is_aligned(2));
        assert!(Address::new(0x1004).is_aligned(4));
    }

    #[test]
    fn wrapping_add_stays_in_space() {
        let a = Address::new(ADDR_MASK);
        assert_eq!(a.wrapping_add(1).raw(), 0);
    }

    #[test]
    fn range_contains_and_offset() {
        let r = AddressRange::new(Address::new(0x2000), 0x40);
        assert!(r.contains(Address::new(0x2000)));
        assert!(r.contains(Address::new(0x203f)));
        assert!(!r.contains(Address::new(0x2040)));
        assert_eq!(r.offset_of(Address::new(0x2010)), Some(0x10));
        assert_eq!(r.offset_of(Address::new(0x1fff)), None);
    }

    #[test]
    fn range_overlap_detection() {
        let a = AddressRange::new(Address::new(0x1000), 0x100);
        let b = AddressRange::new(Address::new(0x10ff), 0x10);
        let c = AddressRange::new(Address::new(0x1100), 0x10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_rejected() {
        let _ = AddressRange::new(Address::new(0), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_range_rejected() {
        let _ = AddressRange::new(Address::new(ADDR_MASK), 2);
    }
}
