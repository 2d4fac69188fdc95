//! The serial interface (ISO 7816-ish UART).
//!
//! Register map (word offsets from the peripheral base):
//!
//! | offset | name   | access | contents |
//! |-------:|--------|--------|----------|
//! | 0x0    | DATA   | R/W    | write: enqueue TX byte; read: dequeue RX byte (0 if empty) |
//! | 0x4    | STATUS | R      | bit 0 TX busy, bit 1 RX ready, bit 2 TX fifo full |
//! | 0x8    | BAUD   | R/W    | bus cycles per transmitted byte |
//!
//! Transmission takes `BAUD` cycles per byte, advanced by the bus's
//! [`tick`](hierbus_core::TlmSlave::tick) notifications with delta
//! catch-up, so idle-skipped cycles still count.

use hierbus_core::{SlaveReply, TlmSlave};
use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig, WaitProfile};
use std::collections::VecDeque;

const TX_FIFO_DEPTH: usize = 8;

/// Status register bits.
pub mod status {
    /// A byte is currently shifting out.
    pub const TX_BUSY: u32 = 1 << 0;
    /// A received byte is waiting in DATA.
    pub const RX_READY: u32 = 1 << 1;
    /// The TX FIFO cannot accept another byte.
    pub const TX_FULL: u32 = 1 << 2;
}

/// The UART peripheral.
#[derive(Debug, Clone)]
pub struct Uart {
    config: SlaveConfig,
    baud_cycles: u32,
    tx_fifo: VecDeque<u8>,
    /// Cycles left on the byte currently shifting out.
    tx_left: u32,
    rx_fifo: VecDeque<u8>,
    sent: Vec<u8>,
    last_cycle: u64,
    /// Wait replies issued because the TX FIFO was full (bus stalls).
    stall_waits: u64,
    /// High-water mark of TX FIFO occupancy.
    tx_fifo_hwm: usize,
}

impl Uart {
    /// Creates a UART at the given window (needs at least 3 words).
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than 12 bytes.
    pub fn new(range: AddressRange) -> Self {
        assert!(range.size() >= 12, "uart window must hold 3 registers");
        Uart {
            config: SlaveConfig::new(range, WaitProfile::new(0, 0, 0), AccessRights::RW),
            baud_cycles: 16,
            tx_fifo: VecDeque::new(),
            tx_left: 0,
            rx_fifo: VecDeque::new(),
            sent: Vec::new(),
            last_cycle: 0,
            stall_waits: 0,
            tx_fifo_hwm: 0,
        }
    }

    /// Wait replies issued so far because the TX FIFO was full — each
    /// one is a bus cycle the master spent stalled on this peripheral.
    pub(crate) fn stall_waits(&self) -> u64 {
        self.stall_waits
    }

    /// High-water mark of TX FIFO occupancy.
    pub(crate) fn tx_fifo_hwm(&self) -> usize {
        self.tx_fifo_hwm
    }

    /// Injects a received byte (the card reader's side of the link).
    pub fn receive(&mut self, byte: u8) {
        self.rx_fifo.push_back(byte);
    }

    /// Every byte fully transmitted so far.
    pub(crate) fn sent(&self) -> &[u8] {
        &self.sent
    }

    /// True while bytes are queued or shifting out.
    fn tx_busy(&self) -> bool {
        self.tx_left > 0 || !self.tx_fifo.is_empty()
    }

    fn advance(&mut self, mut delta: u64) {
        while delta > 0 {
            if self.tx_left == 0 {
                match self.tx_fifo.pop_front() {
                    Some(byte) => {
                        self.sent.push(byte);
                        self.tx_left = self.baud_cycles;
                    }
                    None => return,
                }
            }
            let step = (self.tx_left as u64).min(delta) as u32;
            self.tx_left -= step;
            delta -= step as u64;
        }
    }

    fn reg_offset(&self, addr: Address) -> u64 {
        self.config
            .range
            .offset_of(addr)
            .expect("bus decoded the address into this window")
            & !0x3
    }
}

impl TlmSlave for Uart {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn irq(&self) -> bool {
        // Level-sensitive: a received byte is waiting.
        !self.rx_fifo.is_empty()
    }

    fn tick(&mut self, cycle: u64) {
        let delta = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle;
        self.advance(delta);
    }

    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        match self.reg_offset(addr) {
            0x0 => SlaveReply::Ok(self.rx_fifo.pop_front().map_or(0, u32::from)),
            0x4 => {
                let mut s = 0;
                if self.tx_busy() {
                    s |= status::TX_BUSY;
                }
                if !self.rx_fifo.is_empty() {
                    s |= status::RX_READY;
                }
                if self.tx_fifo.len() >= TX_FIFO_DEPTH {
                    s |= status::TX_FULL;
                }
                SlaveReply::Ok(s)
            }
            0x8 => SlaveReply::Ok(self.baud_cycles),
            _ => SlaveReply::Error,
        }
    }

    fn write_word(&mut self, addr: Address, data: u32, _ben: u8) -> SlaveReply<()> {
        match self.reg_offset(addr) {
            0x0 => {
                if self.tx_fifo.len() >= TX_FIFO_DEPTH {
                    // Back-pressure: the layer-1 bus retries next cycle.
                    self.stall_waits += 1;
                    SlaveReply::Wait
                } else {
                    self.tx_fifo.push_back(data as u8);
                    self.tx_fifo_hwm = self.tx_fifo_hwm.max(self.tx_fifo.len());
                    SlaveReply::Ok(())
                }
            }
            0x4 => SlaveReply::Ok(()), // status writes are ignored
            0x8 => {
                self.baud_cycles = data.max(1);
                SlaveReply::Ok(())
            }
            _ => SlaveReply::Error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uart() -> Uart {
        Uart::new(AddressRange::new(Address::new(0x9000), 0x100))
    }

    #[test]
    fn bytes_shift_out_at_the_baud_rate() {
        let mut u = uart();
        u.write_word(Address::new(0x9008), 4, 0b1111); // 4 cycles/byte
        u.write_word(Address::new(0x9000), 0x41, 0b1111);
        u.write_word(Address::new(0x9000), 0x42, 0b1111);
        assert!(u.tx_busy());
        u.tick(4);
        assert_eq!(u.sent(), &[0x41]);
        u.tick(8);
        assert_eq!(u.sent(), &[0x41, 0x42]);
        assert!(!u.tx_busy());
    }

    #[test]
    fn delta_catch_up_over_idle_gaps() {
        let mut u = uart();
        u.write_word(Address::new(0x9008), 16, 0b1111);
        u.write_word(Address::new(0x9000), 0x55, 0b1111);
        u.tick(1_000); // long idle gap
        assert_eq!(u.sent(), &[0x55]);
    }

    #[test]
    fn status_reflects_fifos() {
        let mut u = uart();
        assert_eq!(u.read_word(Address::new(0x9004)), SlaveReply::Ok(0));
        u.receive(0x7F);
        let SlaveReply::Ok(s) = u.read_word(Address::new(0x9004)) else {
            panic!("status must read ok");
        };
        assert!(s & status::RX_READY != 0);
        assert_eq!(u.read_word(Address::new(0x9000)), SlaveReply::Ok(0x7F));
        assert_eq!(u.read_word(Address::new(0x9000)), SlaveReply::Ok(0));
    }

    #[test]
    fn full_tx_fifo_back_pressures() {
        let mut u = uart();
        for i in 0..TX_FIFO_DEPTH {
            assert_eq!(
                u.write_word(Address::new(0x9000), i as u32, 0b1111),
                SlaveReply::Ok(())
            );
        }
        assert_eq!(
            u.write_word(Address::new(0x9000), 0xFF, 0b1111),
            SlaveReply::Wait
        );
    }

    #[test]
    fn unmapped_offset_is_a_slave_error() {
        let mut u = uart();
        assert_eq!(u.read_word(Address::new(0x9040)), SlaveReply::Error);
    }

    /// A program writes 12 bytes back to back into the 8-deep TX FIFO at
    /// a slow baud, so the UART answers `Wait` until a byte shifts out.
    /// Every layer sends all 12; the reference and layer 1 take the same
    /// cycles and layer 2 is never faster.
    #[test]
    fn back_pressure_agrees_across_layers() {
        use crate::cpu::{CpuReport, CpuSystem};
        use crate::isa::Reg;
        use crate::platform::{Platform, PlatformMap};
        use crate::program::Program;
        use hierbus_core::{CycleBus, HasSlaves};

        let bytes: Vec<u8> = (0..12).map(|i| 0x41 + i).collect();
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, PlatformMap::UART_BASE);
        p.li(Reg::T1, 20);
        p.sw(Reg::T1, Reg::T0, 0x8); // slow baud: 20 cycles per byte
        for &b in &bytes {
            p.li(Reg::T1, b as u32);
            p.sw(Reg::T1, Reg::T0, 0x0);
        }
        p.label("drain");
        p.lw(Reg::T2, Reg::T0, 0x4);
        p.andi(Reg::T2, Reg::T2, status::TX_BUSY as u16);
        p.bne(Reg::T2, Reg::ZERO, "drain");
        p.halt();
        let words = p.assemble().unwrap();
        let platform = || {
            let mut platform = Platform::new();
            platform.load_boot_program(&words);
            platform
        };
        fn run<B: CycleBus + HasSlaves>(bus: B, bytes: &[u8]) -> CpuReport {
            let mut sys = CpuSystem::new(bus, PlatformMap::RESET_PC);
            let report = sys.run_until_halt(100_000, |_| {});
            assert!(report.fault.is_none());
            let uart = sys.bus().slave_as::<Uart>(PlatformMap::UART).unwrap();
            assert_eq!(uart.sent(), bytes);
            assert!(uart.stall_waits() > 0, "the FIFO must back-pressure");
            report
        }
        let r0 = run(platform().into_rtl(), &bytes);
        let r1 = run(platform().into_tlm1(), &bytes);
        let r2 = run(platform().into_tlm2(), &bytes);
        assert_eq!(r0.cycles, r1.cycles, "layer 1 must be cycle-exact");
        assert!(r2.cycles >= r1.cycles, "layer 2 must not be optimistic");
    }
}
