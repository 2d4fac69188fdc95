//! The "true" random number generator.
//!
//! Real silicon harvests ring-oscillator jitter; a reproduction must be
//! deterministic, so this peripheral is a seeded xorshift32 presented
//! through the same register interface a TRNG block would have. The
//! substitution preserves everything the experiments need: a data
//! register whose reads produce fresh, well-mixed words and the bus
//! traffic pattern of polling crypto software.
//!
//! Register map (word offsets): 0x0 DATA (R), 0x4 STATUS (R, always
//! ready), 0x8 SEED (W).

use hierbus_core::{SlaveReply, TlmSlave};
use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig, WaitProfile};

/// The RNG peripheral.
#[derive(Debug, Clone)]
pub struct TrueRng {
    config: SlaveConfig,
    state: u32,
    words_drawn: u64,
}

impl TrueRng {
    /// Creates the RNG at the given window with a default seed.
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than 12 bytes.
    pub fn new(range: AddressRange) -> Self {
        assert!(range.size() >= 12, "rng window must hold 3 registers");
        TrueRng {
            config: SlaveConfig::new(range, WaitProfile::new(0, 1, 0), AccessRights::RW),
            state: 0x1234_5678,
            words_drawn: 0,
        }
    }

    /// Number of words read through the data register.
    pub(crate) fn words_drawn(&self) -> u64 {
        self.words_drawn
    }

    fn next(&mut self) -> u32 {
        // xorshift32 (Marsaglia); zero state is repaired to a constant.
        let mut x = if self.state == 0 {
            0x0BAD_5EED
        } else {
            self.state
        };
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        x
    }
}

impl TlmSlave for TrueRng {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        match self.config.range.offset_of(addr).map(|o| o & !0x3) {
            Some(0x0) => {
                self.words_drawn += 1;
                SlaveReply::Ok(self.next())
            }
            Some(0x4) => SlaveReply::Ok(1), // always ready
            Some(0x8) => SlaveReply::Ok(0), // seed is write-only
            _ => SlaveReply::Error,
        }
    }

    fn write_word(&mut self, addr: Address, data: u32, _ben: u8) -> SlaveReply<()> {
        match self.config.range.offset_of(addr).map(|o| o & !0x3) {
            Some(0x8) => {
                self.state = data;
                SlaveReply::Ok(())
            }
            Some(0x0) | Some(0x4) => SlaveReply::Ok(()),
            _ => SlaveReply::Error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TrueRng {
        TrueRng::new(AddressRange::new(Address::new(0xB000), 0x100))
    }

    #[test]
    fn draws_differ_and_are_deterministic() {
        let mut a = rng();
        let mut b = rng();
        let x1 = a.read_word(Address::new(0xB000));
        let x2 = a.read_word(Address::new(0xB000));
        assert_ne!(x1, x2);
        assert_eq!(b.read_word(Address::new(0xB000)), x1);
        assert_eq!(a.words_drawn(), 2);
    }

    #[test]
    fn seeding_changes_the_stream() {
        let mut a = rng();
        a.write_word(Address::new(0xB008), 99, 0b1111);
        let mut b = rng();
        assert_ne!(
            a.read_word(Address::new(0xB000)),
            b.read_word(Address::new(0xB000))
        );
    }

    #[test]
    fn zero_seed_is_repaired() {
        let mut a = rng();
        a.write_word(Address::new(0xB008), 0, 0b1111);
        let SlaveReply::Ok(w) = a.read_word(Address::new(0xB000)) else {
            panic!("data must read");
        };
        assert_ne!(w, 0);
    }

    #[test]
    fn status_is_always_ready() {
        let mut a = rng();
        assert_eq!(a.read_word(Address::new(0xB004)), SlaveReply::Ok(1));
    }

    #[test]
    fn spread_of_draws_is_reasonable() {
        let mut a = rng();
        let mut ones = 0u32;
        for _ in 0..256 {
            if let SlaveReply::Ok(w) = a.read_word(Address::new(0xB000)) {
                ones += w.count_ones();
            }
        }
        // 256 words × 32 bits: expect roughly half set.
        assert!((3000..5200).contains(&ones), "bit balance {ones}");
    }
}
