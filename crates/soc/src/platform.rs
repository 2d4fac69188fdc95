//! The assembled smart-card platform (Fig. 1 of the paper).

use crate::crypto::CryptoAccel;
use crate::mem::{Eeprom, Flash, Rom, ScratchpadRam};
use crate::rng::TrueRng;
use crate::timer::DualTimer;
use crate::uart::Uart;
use hierbus_core::{Tlm1Bus, Tlm2Bus, TlmSlave};
use hierbus_ec::{Address, AddressRange, SlaveId};
use hierbus_rtl::{GlitchConfig, PowerConfig, RtlBus};

/// The platform's fixed address map and slave identities.
///
/// Slave ids follow construction order in [`Platform::into_tlm1`],
/// [`into_tlm2`](Platform::into_tlm2) and [`into_rtl`](Platform::into_rtl).
#[derive(Debug, Clone, Copy)]
pub struct PlatformMap;

impl PlatformMap {
    /// 256 kB program ROM.
    pub const ROM_BASE: u32 = 0x0000_0000;
    /// ROM size in bytes.
    pub const ROM_SIZE: u64 = 0x4_0000;
    /// 32 kB EEPROM (data & program).
    pub const EEPROM_BASE: u32 = 0x0010_0000;
    /// EEPROM size in bytes.
    pub const EEPROM_SIZE: u64 = 0x8000;
    /// 64 kB FLASH program memory.
    pub const FLASH_BASE: u32 = 0x0020_0000;
    /// FLASH size in bytes.
    pub const FLASH_SIZE: u64 = 0x1_0000;
    /// 8 kB scratchpad RAM.
    pub const RAM_BASE: u32 = 0x0030_0000;
    /// RAM size in bytes.
    pub const RAM_SIZE: u64 = 0x2000;
    /// UART register window.
    pub const UART_BASE: u32 = 0x0040_0000;
    /// Dual-timer register window.
    pub const TIMER_BASE: u32 = 0x0040_1000;
    /// RNG register window.
    pub const RNG_BASE: u32 = 0x0040_2000;
    /// Crypto coprocessor register window.
    pub const CRYPTO_BASE: u32 = 0x0040_3000;
    /// Size of each peripheral register window.
    pub const PERIPH_SIZE: u64 = 0x100;

    /// Slave id of the ROM on the assembled bus.
    pub const ROM: SlaveId = SlaveId(0);
    /// Slave id of the EEPROM.
    pub const EEPROM: SlaveId = SlaveId(1);
    /// Slave id of the FLASH.
    pub const FLASH: SlaveId = SlaveId(2);
    /// Slave id of the scratchpad RAM.
    pub const RAM: SlaveId = SlaveId(3);
    /// Slave id of the UART.
    pub const UART: SlaveId = SlaveId(4);
    /// Slave id of the timer block.
    pub const TIMER: SlaveId = SlaveId(5);
    /// Slave id of the RNG.
    pub const RNG: SlaveId = SlaveId(6);
    /// Slave id of the crypto coprocessor.
    pub const CRYPTO: SlaveId = SlaveId(7);

    /// The reset program counter (start of ROM).
    pub const RESET_PC: u32 = Self::ROM_BASE;
}

fn window(base: u32, size: u64) -> AddressRange {
    AddressRange::new(Address::new(base as u64), size)
}

/// The platform under construction: configure and pre-load peripherals,
/// then convert into a bus.
#[derive(Debug)]
pub struct Platform {
    /// Program ROM.
    pub rom: Rom,
    /// EEPROM.
    pub eeprom: Eeprom,
    /// FLASH.
    pub flash: Flash,
    /// Scratchpad RAM.
    pub ram: ScratchpadRam,
    /// Serial interface.
    pub uart: Uart,
    /// Timer block.
    pub timer: DualTimer,
    /// Random number generator.
    pub rng: TrueRng,
    /// Crypto coprocessor.
    pub crypto: CryptoAccel,
}

impl Platform {
    /// Creates the platform with empty memories.
    pub fn new() -> Self {
        Platform {
            rom: Rom::new(window(PlatformMap::ROM_BASE, PlatformMap::ROM_SIZE)),
            eeprom: Eeprom::new(window(PlatformMap::EEPROM_BASE, PlatformMap::EEPROM_SIZE)),
            flash: Flash::new(window(PlatformMap::FLASH_BASE, PlatformMap::FLASH_SIZE)),
            ram: ScratchpadRam::new(window(PlatformMap::RAM_BASE, PlatformMap::RAM_SIZE)),
            uart: Uart::new(window(PlatformMap::UART_BASE, PlatformMap::PERIPH_SIZE)),
            timer: DualTimer::new(window(PlatformMap::TIMER_BASE, PlatformMap::PERIPH_SIZE)),
            rng: TrueRng::new(window(PlatformMap::RNG_BASE, PlatformMap::PERIPH_SIZE)),
            crypto: CryptoAccel::new(window(PlatformMap::CRYPTO_BASE, PlatformMap::PERIPH_SIZE)),
        }
    }

    /// Loads machine words into ROM at the reset vector.
    pub fn load_boot_program(&mut self, words: &[u32]) -> &mut Self {
        self.rom
            .load(Address::new(PlatformMap::RESET_PC as u64), words);
        self
    }

    fn slaves(self) -> Vec<Box<dyn TlmSlave>> {
        vec![
            Box::new(self.rom),
            Box::new(self.eeprom),
            Box::new(self.flash),
            Box::new(self.ram),
            Box::new(self.uart),
            Box::new(self.timer),
            Box::new(self.rng),
            Box::new(self.crypto),
        ]
    }

    /// Assembles the platform on a cycle-accurate layer-1 bus.
    pub fn into_tlm1(self) -> Tlm1Bus {
        Tlm1Bus::new(self.slaves())
    }

    /// Assembles the platform on a timed layer-2 bus.
    pub fn into_tlm2(self) -> Tlm2Bus {
        Tlm2Bus::new(self.slaves())
    }

    /// Assembles the platform on the cycle-true reference bus, with the
    /// default wire capacitances and hazard model.
    pub fn into_rtl(self) -> RtlBus {
        RtlBus::new(
            self.slaves(),
            PowerConfig::default(),
            GlitchConfig::default(),
        )
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuSystem;
    use crate::isa::Reg;
    use crate::program::Program;
    #[test]
    fn windows_do_not_overlap() {
        // Constructing any bus validates the address map.
        let _ = Platform::new().into_tlm1();
        let _ = Platform::new().into_tlm2();
        let _ = Platform::new().into_rtl();
    }

    #[test]
    fn sum_loop_runs_on_layer1() {
        // Sum 1..=10 into $t1, store to RAM, halt.
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, 10);
        p.li(Reg::T1, 0);
        p.label("loop");
        p.addu(Reg::T1, Reg::T1, Reg::T0);
        p.addiu(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, "loop");
        p.li(Reg::T2, PlatformMap::RAM_BASE);
        p.sw(Reg::T1, Reg::T2, 0x20);
        p.halt();
        let words = p.assemble().unwrap();

        let mut platform = Platform::new();
        platform.load_boot_program(&words);
        let mut sys = CpuSystem::new(platform.into_tlm1(), PlatformMap::RESET_PC);
        let report = sys.run_until_halt(100_000, |_| {});
        assert!(report.fault.is_none());
        assert_eq!(sys.core().reg(Reg::T1), 55);

        let ram = sys.bus_mut().slave_mut(PlatformMap::RAM);
        assert_eq!(
            ram.read_word(hierbus_ec::Address::new(
                PlatformMap::RAM_BASE as u64 + 0x20
            )),
            hierbus_core::SlaveReply::Ok(55)
        );
    }

    #[test]
    fn same_program_same_results_on_layer2() {
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, 7);
        p.li(Reg::T1, 6);
        p.mul(Reg::T2, Reg::T0, Reg::T1);
        p.halt();
        let words = p.assemble().unwrap();

        let run = |tlm1: bool| {
            let mut platform = Platform::new();
            platform.load_boot_program(&words);
            if tlm1 {
                let mut sys = CpuSystem::new(platform.into_tlm1(), PlatformMap::RESET_PC);
                sys.run_until_halt(100_000, |_| {});
                sys.core().reg(Reg::T2)
            } else {
                let mut sys = CpuSystem::new(platform.into_tlm2(), PlatformMap::RESET_PC);
                sys.run_until_halt(100_000, |_| {});
                sys.core().reg(Reg::T2)
            }
        };
        assert_eq!(run(true), 42);
        assert_eq!(run(false), 42);
    }

    #[test]
    fn rom_write_faults_the_core() {
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, PlatformMap::ROM_BASE + 0x100);
        p.sw(Reg::ZERO, Reg::T0, 0);
        p.halt();
        let words = p.assemble().unwrap();
        let mut platform = Platform::new();
        platform.load_boot_program(&words);
        let mut sys = CpuSystem::new(platform.into_tlm1(), PlatformMap::RESET_PC);
        let report = sys.run_until_halt(100_000, |_| {});
        assert_eq!(report.fault, Some(crate::cpu::CpuFault::BusError));
    }
}
