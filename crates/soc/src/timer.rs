//! The dual 16-bit timer block (T0/T1 of the target platform).
//!
//! Register map (word offsets):
//!
//! | offset | name      | access | contents |
//! |-------:|-----------|--------|----------|
//! | 0x00   | T0_CTRL   | R/W    | bit 0 enable, bit 1 auto-reload |
//! | 0x04   | T0_COUNT  | R/W    | current 16-bit down-counter |
//! | 0x08   | T0_RELOAD | R/W    | reload value |
//! | 0x0C   | T0_FLAGS  | R/W1C  | bit 0 expired (write 1 to clear) |
//! | 0x10.. | T1_*      |        | same layout for timer 1 |
//!
//! Counters decrement once per bus cycle while enabled, advanced by
//! delta catch-up ticks so idle-skipped cycles still count.

use hierbus_core::{SlaveReply, TlmSlave};
use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig, WaitProfile};

/// Control register bits.
pub mod ctrl {
    /// Counting enabled.
    pub const ENABLE: u32 = 1 << 0;
    /// Reload and continue on expiry instead of stopping at zero.
    pub const AUTO_RELOAD: u32 = 1 << 1;
}

#[derive(Debug, Clone, Copy, Default)]
struct TimerUnit {
    enable: bool,
    auto_reload: bool,
    count: u16,
    reload: u16,
    expired: bool,
    /// Expiries since reset (diagnostic and energy-model input).
    expiries: u64,
    /// Counter decrements since reset (energy-model input).
    decrements: u64,
}

impl TimerUnit {
    fn advance(&mut self, mut delta: u64) {
        while self.enable && delta > 0 {
            if self.count as u64 > delta {
                self.count -= delta as u16;
                self.decrements += delta;
                return;
            }
            delta -= self.count as u64;
            self.decrements += self.count as u64;
            self.expired = true;
            self.expiries += 1;
            if self.auto_reload && self.reload > 0 {
                self.count = self.reload;
            } else {
                self.count = 0;
                self.enable = false;
                return;
            }
        }
    }
}

/// The two-timer peripheral.
#[derive(Debug, Clone)]
pub struct DualTimer {
    config: SlaveConfig,
    units: [TimerUnit; 2],
    last_cycle: u64,
}

impl DualTimer {
    /// Creates the block at the given window (needs at least 8 words).
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than 32 bytes.
    pub fn new(range: AddressRange) -> Self {
        assert!(range.size() >= 32, "timer window must hold 8 registers");
        DualTimer {
            config: SlaveConfig::new(range, WaitProfile::new(0, 0, 0), AccessRights::RW),
            units: [TimerUnit::default(); 2],
            last_cycle: 0,
        }
    }

    /// Expiry count of a timer (0 or 1) since reset.
    ///
    /// # Panics
    ///
    /// Panics if `unit > 1`.
    pub(crate) fn expiries(&self, unit: usize) -> u64 {
        self.units[unit].expiries
    }

    /// Counter decrements of a timer (0 or 1) since reset.
    ///
    /// # Panics
    ///
    /// Panics if `unit > 1`.
    pub(crate) fn decrements(&self, unit: usize) -> u64 {
        self.units[unit].decrements
    }

    fn decode(&self, addr: Address) -> Option<(usize, u64)> {
        let off = self.config.range.offset_of(addr)? & !0x3;
        if off >= 0x20 {
            return None;
        }
        Some(((off / 0x10) as usize, off % 0x10))
    }
}

impl TlmSlave for DualTimer {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn irq(&self) -> bool {
        // Level-sensitive: asserted while any expiry flag is uncleared.
        self.units.iter().any(|u| u.expired)
    }

    fn tick(&mut self, cycle: u64) {
        let delta = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle;
        for u in &mut self.units {
            u.advance(delta);
        }
    }

    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        let Some((unit, reg)) = self.decode(addr) else {
            return SlaveReply::Error;
        };
        let t = &self.units[unit];
        match reg {
            0x0 => SlaveReply::Ok(
                (t.enable as u32) * ctrl::ENABLE + (t.auto_reload as u32) * ctrl::AUTO_RELOAD,
            ),
            0x4 => SlaveReply::Ok(t.count as u32),
            0x8 => SlaveReply::Ok(t.reload as u32),
            0xC => SlaveReply::Ok(t.expired as u32),
            _ => SlaveReply::Error,
        }
    }

    fn write_word(&mut self, addr: Address, data: u32, _ben: u8) -> SlaveReply<()> {
        let Some((unit, reg)) = self.decode(addr) else {
            return SlaveReply::Error;
        };
        let t = &mut self.units[unit];
        match reg {
            0x0 => {
                t.enable = data & ctrl::ENABLE != 0;
                t.auto_reload = data & ctrl::AUTO_RELOAD != 0;
                SlaveReply::Ok(())
            }
            0x4 => {
                t.count = data as u16;
                SlaveReply::Ok(())
            }
            0x8 => {
                t.reload = data as u16;
                SlaveReply::Ok(())
            }
            0xC => {
                if data & 1 != 0 {
                    t.expired = false;
                }
                SlaveReply::Ok(())
            }
            _ => SlaveReply::Error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0xA000;

    fn timer() -> DualTimer {
        DualTimer::new(AddressRange::new(Address::new(BASE), 0x100))
    }

    fn addr(off: u64) -> Address {
        Address::new(BASE + off)
    }

    #[test]
    fn one_shot_counts_down_and_stops() {
        let mut t = timer();
        t.write_word(addr(0x4), 10, 0b1111);
        t.write_word(addr(0x0), ctrl::ENABLE, 0b1111);
        t.tick(6);
        assert_eq!(t.read_word(addr(0x4)), SlaveReply::Ok(4));
        t.tick(20);
        assert_eq!(t.read_word(addr(0x4)), SlaveReply::Ok(0));
        assert_eq!(t.read_word(addr(0xC)), SlaveReply::Ok(1)); // expired
        assert_eq!(t.read_word(addr(0x0)), SlaveReply::Ok(0)); // disabled
        assert_eq!(t.expiries(0), 1);
    }

    #[test]
    fn auto_reload_keeps_running() {
        let mut t = timer();
        t.write_word(addr(0x8), 5, 0b1111);
        t.write_word(addr(0x4), 5, 0b1111);
        t.write_word(addr(0x0), ctrl::ENABLE | ctrl::AUTO_RELOAD, 0b1111);
        t.tick(23);
        assert_eq!(t.expiries(0), 4);
        let SlaveReply::Ok(ctrl_val) = t.read_word(addr(0x0)) else {
            panic!("ctrl must read");
        };
        assert!(ctrl_val & ctrl::ENABLE != 0);
    }

    #[test]
    fn timers_are_independent() {
        let mut t = timer();
        t.write_word(addr(0x14), 100, 0b1111); // T1 count
        t.write_word(addr(0x10), ctrl::ENABLE, 0b1111); // T1 enable
        t.tick(10);
        assert_eq!(t.read_word(addr(0x14)), SlaveReply::Ok(90));
        assert_eq!(t.read_word(addr(0x4)), SlaveReply::Ok(0)); // T0 untouched
    }

    #[test]
    fn flag_clears_on_write_one() {
        let mut t = timer();
        t.write_word(addr(0x4), 1, 0b1111);
        t.write_word(addr(0x0), ctrl::ENABLE, 0b1111);
        t.tick(2);
        assert_eq!(t.read_word(addr(0xC)), SlaveReply::Ok(1));
        t.write_word(addr(0xC), 1, 0b1111);
        assert_eq!(t.read_word(addr(0xC)), SlaveReply::Ok(0));
    }

    #[test]
    fn out_of_window_register_errors() {
        let mut t = timer();
        assert_eq!(t.read_word(addr(0x24)), SlaveReply::Error);
    }
}
