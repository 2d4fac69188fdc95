//! The hardware operand stack as a bus slave (Fig. 7b: slave adapter +
//! stack).
//!
//! Register map (word offsets from the window base):
//!
//! | offset | name   | access | contents |
//! |-------:|--------|--------|----------|
//! | 0x00   | DATA   | R/W    | single-register organization: write pushes, read pops |
//! | 0x04   | STATUS | R      | bits 0..16 depth, bit 16 overflow (sticky), bit 17 underflow (sticky) |
//! | 0x08   | CTRL   | W      | bit 0: reset (clear stack and flags) |
//! | 0x10   | PUSH   | W      | separate organization: write pushes |
//! | 0x14   | POP    | R      | separate organization: read pops |
//! | 0x18   | TOP    | R      | non-destructive top-of-stack |
//!
//! The block is built for a fixed **interface width** (8, 16 or 32 bit —
//! a hardware parameter and one of the exploration axes): sub-word
//! interfaces assemble a push from the byte lanes written to the data
//! word in increasing order, completing at the highest lane, and
//! symmetrically deliver a pop over several lane reads. Overflowing a
//! push or underflowing a pop signals a bus error and sets the sticky
//! status flag.

use hierbus_core::{SlaveReply, TlmSlave};
use hierbus_ec::{AccessRights, Address, AddressRange, DataWidth, SlaveConfig, WaitProfile};

/// Register word offsets.
pub mod regs {
    /// Combined push/pop data register.
    pub const DATA: u64 = 0x00;
    /// Depth and sticky flags.
    pub const STATUS: u64 = 0x04;
    /// Control (reset).
    pub const CTRL: u64 = 0x08;
    /// Push-only data register.
    pub const PUSH: u64 = 0x10;
    /// Pop-only data register.
    pub const POP: u64 = 0x14;
    /// Non-destructive top-of-stack.
    pub const TOP: u64 = 0x18;
    /// Start of the FIFO burst window: every word in
    /// `[WINDOW, WINDOW + WINDOW_WORDS*4)` pushes on write and pops on
    /// read, so an address-incrementing burst moves one value per beat —
    /// the "different bus transactions" axis of the exploration.
    pub const WINDOW: u64 = 0x20;
    /// Size of the burst window in words.
    pub const WINDOW_WORDS: u64 = 8;
}

/// Status register bit positions.
pub mod status {
    /// Sticky overflow flag.
    pub const OVERFLOW: u32 = 1 << 16;
    /// Sticky underflow flag.
    pub const UNDERFLOW: u32 = 1 << 17;
}

/// The hardware stack peripheral.
#[derive(Debug, Clone)]
pub struct HwStackSlave {
    config: SlaveConfig,
    width: DataWidth,
    capacity: usize,
    values: Vec<i32>,
    /// Write-side lane assembly.
    staged_in: u32,
    lanes_written: u8,
    /// Read-side lane delivery.
    staged_out: u32,
    lanes_read: u8,
    overflow: bool,
    underflow: bool,
}

impl HwStackSlave {
    /// Creates the stack at `range` with the given interface `width`,
    /// `capacity` entries and bus `waits` (the window-placement axis).
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than 0x20 bytes or capacity is
    /// zero.
    pub fn new(range: AddressRange, width: DataWidth, capacity: usize, waits: WaitProfile) -> Self {
        assert!(range.size() >= 0x20, "stack window must hold 8 registers");
        assert!(capacity > 0, "stack capacity must be non-zero");
        HwStackSlave {
            config: SlaveConfig::new(range, waits, AccessRights::RW),
            width,
            capacity,
            values: Vec::with_capacity(capacity),
            staged_in: 0,
            lanes_written: 0,
            staged_out: 0,
            lanes_read: 0,
            overflow: false,
            underflow: false,
        }
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.values.len()
    }

    /// The stored values bottom-to-top (inspection aid).
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Lane mask for an access at byte offset `lane` of this interface
    /// width.
    fn lane_mask(&self, lane: u32) -> u8 {
        match self.width {
            DataWidth::W8 => 1 << lane,
            DataWidth::W16 => 0b11 << lane,
            DataWidth::W32 => 0b1111,
        }
    }

    fn handle_push_lane(&mut self, lane: u32, data: u32) -> SlaveReply<()> {
        let mask = self.lane_mask(lane);
        let bitmask: u32 = (0..4)
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| 0xFFu32 << (8 * b))
            .sum();
        self.staged_in = (self.staged_in & !bitmask) | (data & bitmask);
        self.lanes_written |= mask;
        if self.lanes_written == 0b1111 {
            self.lanes_written = 0;
            if self.values.len() >= self.capacity {
                self.overflow = true;
                return SlaveReply::Error;
            }
            self.values.push(self.staged_in as i32);
        }
        SlaveReply::Ok(())
    }

    fn handle_pop_lane(&mut self, lane: u32) -> SlaveReply<u32> {
        if self.lanes_read == 0 {
            match self.values.last() {
                Some(&top) => self.staged_out = top as u32,
                None => {
                    self.underflow = true;
                    return SlaveReply::Error;
                }
            }
        }
        self.lanes_read |= self.lane_mask(lane);
        let out = self.staged_out;
        if self.lanes_read == 0b1111 {
            self.lanes_read = 0;
            self.values.pop();
        }
        SlaveReply::Ok(out)
    }

    fn decode(&self, addr: Address) -> Option<(u64, u32)> {
        let off = self.config.range.offset_of(addr)?;
        let limit = regs::WINDOW + 4 * regs::WINDOW_WORDS;
        if off >= limit {
            return None;
        }
        let reg = off & !0x3;
        // The whole burst window acts as one FIFO port.
        let reg = if reg >= regs::WINDOW {
            regs::WINDOW
        } else {
            reg
        };
        Some((reg, (off & 0x3) as u32))
    }

    /// Word-width FIFO-window push (burst beats are always full words).
    fn window_push(&mut self, data: u32) -> SlaveReply<()> {
        if self.values.len() >= self.capacity {
            self.overflow = true;
            return SlaveReply::Error;
        }
        self.values.push(data as i32);
        SlaveReply::Ok(())
    }

    fn window_pop(&mut self) -> SlaveReply<u32> {
        match self.values.pop() {
            Some(v) => SlaveReply::Ok(v as u32),
            None => {
                self.underflow = true;
                SlaveReply::Error
            }
        }
    }
}

impl TlmSlave for HwStackSlave {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        let Some((reg, lane)) = self.decode(addr) else {
            return SlaveReply::Error;
        };
        match reg {
            regs::WINDOW => self.window_pop(),
            regs::DATA | regs::POP => self.handle_pop_lane(lane),
            regs::STATUS => {
                let mut s = self.values.len() as u32 & 0xFFFF;
                if self.overflow {
                    s |= status::OVERFLOW;
                }
                if self.underflow {
                    s |= status::UNDERFLOW;
                }
                SlaveReply::Ok(s)
            }
            regs::TOP => match self.values.last() {
                Some(&top) => SlaveReply::Ok(top as u32),
                None => {
                    self.underflow = true;
                    SlaveReply::Error
                }
            },
            regs::CTRL | regs::PUSH => SlaveReply::Ok(0),
            _ => SlaveReply::Error,
        }
    }

    fn write_word(&mut self, addr: Address, data: u32, _ben: u8) -> SlaveReply<()> {
        let Some((reg, lane)) = self.decode(addr) else {
            return SlaveReply::Error;
        };
        match reg {
            regs::WINDOW => self.window_push(data),
            regs::DATA | regs::PUSH => self.handle_push_lane(lane, data),
            regs::CTRL => {
                if data & 1 != 0 {
                    self.values.clear();
                    self.overflow = false;
                    self.underflow = false;
                    self.lanes_written = 0;
                    self.lanes_read = 0;
                }
                SlaveReply::Ok(())
            }
            regs::STATUS | regs::POP | regs::TOP => SlaveReply::Ok(()),
            _ => SlaveReply::Error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x8000;

    fn stack(width: DataWidth) -> HwStackSlave {
        HwStackSlave::new(
            AddressRange::new(Address::new(BASE), 0x100),
            width,
            8,
            WaitProfile::ZERO,
        )
    }

    fn a(off: u64) -> Address {
        Address::new(BASE + off)
    }

    #[test]
    fn w32_push_pop_single_access() {
        let mut s = stack(DataWidth::W32);
        // Lane data arrives as the full bus word.
        assert_eq!(
            s.write_word(a(regs::DATA), 0x1234_5678, 0b1111),
            SlaveReply::Ok(())
        );
        assert_eq!(s.depth(), 1);
        assert_eq!(s.read_word(a(regs::DATA)), SlaveReply::Ok(0x1234_5678));
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn w8_push_assembles_from_four_lanes() {
        let mut s = stack(DataWidth::W8);
        // Byte k travels on lane k of the bus word (merge pattern).
        for k in 0..4u64 {
            let byte = 0x11 * (k as u32 + 1);
            let word = byte << (8 * k);
            assert_eq!(s.write_word(a(k), word, 1 << k), SlaveReply::Ok(()));
        }
        assert_eq!(s.depth(), 1);
        assert_eq!(s.values(), &[0x4433_2211]);
    }

    #[test]
    fn w8_pop_delivers_lanes_and_pops_on_last() {
        let mut s = stack(DataWidth::W8);
        s.write_word(a(regs::DATA), u32::MAX, 0b1111); // stage all lanes? no:
                                                       // width is W8, so the above only wrote lane 0 — finish the push.
        for k in 1..4u64 {
            s.write_word(a(k), u32::MAX, 1 << k);
        }
        assert_eq!(s.depth(), 1);
        for k in 0..3u64 {
            assert_eq!(s.read_word(a(k)), SlaveReply::Ok(u32::MAX));
            assert_eq!(s.depth(), 1, "must not pop before the last lane");
        }
        assert_eq!(s.read_word(a(3)), SlaveReply::Ok(u32::MAX));
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn w16_uses_two_lanes() {
        let mut s = stack(DataWidth::W16);
        s.write_word(a(0), 0x0000_BEEF, 0b0011);
        assert_eq!(s.depth(), 0);
        s.write_word(a(2), 0xDEAD_0000, 0b1100);
        assert_eq!(s.values(), &[0xDEAD_BEEFu32 as i32]);
    }

    #[test]
    fn overflow_errors_and_sets_sticky_flag() {
        let mut s = HwStackSlave::new(
            AddressRange::new(Address::new(BASE), 0x100),
            DataWidth::W32,
            1,
            WaitProfile::ZERO,
        );
        s.write_word(a(regs::DATA), 1, 0b1111);
        assert_eq!(s.write_word(a(regs::DATA), 2, 0b1111), SlaveReply::Error);
        let SlaveReply::Ok(st) = s.read_word(a(regs::STATUS)) else {
            panic!("status must read");
        };
        assert!(st & status::OVERFLOW != 0);
        assert_eq!(st & 0xFFFF, 1);
    }

    #[test]
    fn underflow_errors() {
        let mut s = stack(DataWidth::W32);
        assert_eq!(s.read_word(a(regs::DATA)), SlaveReply::Error);
        let SlaveReply::Ok(st) = s.read_word(a(regs::STATUS)) else {
            panic!("status must read");
        };
        assert!(st & status::UNDERFLOW != 0);
    }

    #[test]
    fn top_is_non_destructive() {
        let mut s = stack(DataWidth::W32);
        s.write_word(a(regs::PUSH), 7, 0b1111);
        assert_eq!(s.read_word(a(regs::TOP)), SlaveReply::Ok(7));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = stack(DataWidth::W32);
        s.write_word(a(regs::PUSH), 7, 0b1111);
        let _ = s.read_word(a(regs::POP));
        let _ = s.read_word(a(regs::POP)); // underflow
        s.write_word(a(regs::CTRL), 1, 0b1111);
        assert_eq!(s.depth(), 0);
        assert_eq!(s.read_word(a(regs::STATUS)), SlaveReply::Ok(0));
    }
}
