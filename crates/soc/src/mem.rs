//! Memory peripherals: ROM, EEPROM, FLASH and scratchpad RAM.
//!
//! Wait-state profiles model the technologies of the target platform:
//! mask ROM reads take one wait state; EEPROM reads are slow-ish and *writes*
//! are very slow (programming pulses); FLASH reads take a wait state and
//! is read-only from the bus (programming goes through a controller not
//! modeled here); scratchpad RAM is single-cycle.

use hierbus_core::{MemSlave, SlaveReply, TlmSlave};
use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig, WaitProfile};

macro_rules! memory_peripheral {
    (
        $(#[$doc:meta])*
        $name:ident, rights: $rights:expr, waits: $waits:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            inner: MemSlave,
        }

        impl $name {
            /// The wait-state profile of this memory technology.
            pub const WAITS: WaitProfile = $waits;

            /// Creates the memory over the given address window.
            pub fn new(range: AddressRange) -> Self {
                $name {
                    inner: MemSlave::new(SlaveConfig::new(range, $waits, $rights)),
                }
            }

            /// Pre-loads consecutive words starting at `addr` (factory
            /// programming — bypasses bus rights).
            ///
            /// # Panics
            ///
            /// Panics if `addr` is not word aligned.
            pub fn load(&mut self, addr: Address, words: &[u32]) {
                self.inner.load(addr, words);
            }

            /// Reads a word without bus semantics (inspection aid).
            pub fn peek(&self, addr: Address) -> u32 {
                self.inner.peek(addr)
            }
        }

        impl TlmSlave for $name {
            fn config(&self) -> SlaveConfig {
                self.inner.config()
            }
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }
            fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
                self.inner.read_word(addr)
            }
            fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
                self.inner.write_word(addr, data, ben)
            }
        }
    };
}

memory_peripheral!(
    /// 256 kB mask ROM: program memory, read/execute; one read wait
    /// state (mask ROM sense amplifiers do not keep up with the core
    /// clock — which is what makes the instruction cache worth having).
    Rom,
    rights: AccessRights::RX,
    waits: WaitProfile::new(0, 1, 0)
);

memory_peripheral!(
    /// 32 kB EEPROM: data & program memory; reads take one wait state,
    /// writes take ten (programming pulse).
    Eeprom,
    rights: AccessRights::RWX,
    waits: WaitProfile::new(0, 1, 10)
);

memory_peripheral!(
    /// 64 kB FLASH program memory: read/execute with one wait state.
    Flash,
    rights: AccessRights::RX,
    waits: WaitProfile::new(0, 1, 1)
);

memory_peripheral!(
    /// Scratchpad RAM: single-cycle read/write/execute.
    ScratchpadRam,
    rights: AccessRights::RWX,
    waits: WaitProfile::new(0, 0, 0)
);

#[cfg(test)]
mod tests {
    use super::*;

    fn range() -> AddressRange {
        AddressRange::new(Address::new(0x1000), 0x1000)
    }

    #[test]
    fn rom_is_read_execute_only() {
        let rom = Rom::new(range());
        let cfg = rom.config();
        assert!(cfg.rights.read && cfg.rights.execute && !cfg.rights.write);
        assert_eq!(cfg.waits, WaitProfile::new(0, 1, 0));
    }

    #[test]
    fn eeprom_writes_are_slow() {
        let e = Eeprom::new(range());
        assert_eq!(e.config().waits.write, 10);
        assert_eq!(e.config().waits.read, 1);
        assert!(e.config().rights.write);
    }

    #[test]
    fn flash_has_read_wait() {
        let f = Flash::new(range());
        assert_eq!(f.config().waits.read, 1);
        assert!(!f.config().rights.write);
    }

    #[test]
    fn ram_is_single_cycle_rwx() {
        let r = ScratchpadRam::new(range());
        assert_eq!(r.config().waits, WaitProfile::ZERO);
        assert!(r.config().rights.write && r.config().rights.execute);
    }

    #[test]
    fn load_and_peek_roundtrip() {
        let mut rom = Rom::new(range());
        rom.load(Address::new(0x1000), &[0xDEAD, 0xBEEF]);
        assert_eq!(rom.peek(Address::new(0x1000)), 0xDEAD);
        assert_eq!(rom.peek(Address::new(0x1004)), 0xBEEF);
    }

    #[test]
    fn bus_reads_work_through_the_trait() {
        let mut ram = ScratchpadRam::new(range());
        ram.write_word(Address::new(0x1010), 0x42, 0b1111);
        assert_eq!(ram.read_word(Address::new(0x1010)), SlaveReply::Ok(0x42));
    }
}
