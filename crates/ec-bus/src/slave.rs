//! Slave configuration — the paper's "slave control interface".
//!
//! §3.1: *"A slave has some additional properties, which are accessible by
//! the slave control interface. These are the address range of the slave,
//! wait states for address, read, and write phases, and bits to indicate
//! the access rights like read, write, and execute."*

use crate::addr::{Address, AddressRange};
use crate::txn::AccessKind;
use std::fmt;

/// Index of a slave on the bus controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlaveId(pub usize);

impl fmt::Display for SlaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slave{}", self.0)
    }
}

/// Read/write/execute permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessRights {
    /// Data loads allowed.
    pub read: bool,
    /// Data stores allowed.
    pub write: bool,
    /// Instruction fetches allowed.
    pub execute: bool,
}

impl AccessRights {
    /// Read + write + execute (e.g. scratchpad RAM holding code).
    pub const RWX: AccessRights = AccessRights {
        read: true,
        write: true,
        execute: true,
    };
    /// Read + execute (e.g. program ROM).
    pub const RX: AccessRights = AccessRights {
        read: true,
        write: false,
        execute: true,
    };
    /// Read + write, no execute (e.g. memory-mapped peripherals).
    pub const RW: AccessRights = AccessRights {
        read: true,
        write: true,
        execute: false,
    };
    /// Read only.
    pub const RO: AccessRights = AccessRights {
        read: true,
        write: false,
        execute: false,
    };

    /// True if `kind` is permitted.
    pub(crate) const fn permits(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::InstrFetch => self.execute,
            AccessKind::DataRead => self.read,
            AccessKind::DataWrite => self.write,
        }
    }
}

impl fmt::Display for AccessRights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.execute { 'x' } else { '-' }
        )
    }
}

/// Wait states a slave inserts into each protocol phase.
///
/// `address` delays completion of the address phase; `read`/`write` delay
/// each data beat of the respective direction. Zero everywhere means the
/// phase completes in the cycle it is initiated, which the protocol allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WaitProfile {
    /// Extra cycles before the address phase completes.
    pub address: u32,
    /// Extra cycles per read data beat.
    pub read: u32,
    /// Extra cycles per write data beat.
    pub write: u32,
}

impl WaitProfile {
    /// No wait states in any phase.
    pub const ZERO: WaitProfile = WaitProfile {
        address: 0,
        read: 0,
        write: 0,
    };

    /// Creates a profile from (address, read, write) wait-state counts.
    pub const fn new(address: u32, read: u32, write: u32) -> Self {
        WaitProfile {
            address,
            read,
            write,
        }
    }

    /// Wait states for one data beat of `kind`.
    pub const fn data_wait(&self, kind: AccessKind) -> u32 {
        match kind {
            AccessKind::InstrFetch | AccessKind::DataRead => self.read,
            AccessKind::DataWrite => self.write,
        }
    }
}

impl fmt::Display for WaitProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}/r{}/w{}", self.address, self.read, self.write)
    }
}

/// Static configuration of one slave: range, wait states, rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveConfig {
    /// The address window the slave decodes.
    pub range: AddressRange,
    /// Wait states inserted per phase.
    pub waits: WaitProfile,
    /// Permitted access kinds.
    pub rights: AccessRights,
}

impl SlaveConfig {
    /// Creates a slave configuration.
    pub const fn new(range: AddressRange, waits: WaitProfile, rights: AccessRights) -> Self {
        SlaveConfig {
            range,
            waits,
            rights,
        }
    }

    /// True if the slave decodes `addr`.
    pub fn contains(&self, addr: Address) -> bool {
        self.range.contains(addr)
    }
}

impl fmt::Display for SlaveConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} waits={}", self.range, self.rights, self.waits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rights_permit_matrix() {
        assert!(AccessRights::RX.permits(AccessKind::InstrFetch));
        assert!(AccessRights::RX.permits(AccessKind::DataRead));
        assert!(!AccessRights::RX.permits(AccessKind::DataWrite));
        assert!(AccessRights::RW.permits(AccessKind::DataWrite));
        assert!(!AccessRights::RW.permits(AccessKind::InstrFetch));
        assert!(AccessRights::RWX.permits(AccessKind::InstrFetch));
        assert!(!AccessRights::RO.permits(AccessKind::DataWrite));
    }

    #[test]
    fn rights_display() {
        assert_eq!(AccessRights::RWX.to_string(), "rwx");
        assert_eq!(AccessRights::RO.to_string(), "r--");
    }

    #[test]
    fn wait_profile_per_kind() {
        let w = WaitProfile::new(1, 2, 3);
        assert_eq!(w.data_wait(AccessKind::InstrFetch), 2);
        assert_eq!(w.data_wait(AccessKind::DataRead), 2);
        assert_eq!(w.data_wait(AccessKind::DataWrite), 3);
        assert_eq!(WaitProfile::ZERO.address, 0);
    }

    #[test]
    fn config_contains() {
        let cfg = SlaveConfig::new(
            AddressRange::new(Address::new(0x8000), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RW,
        );
        assert!(cfg.contains(Address::new(0x8abc)));
        assert!(!cfg.contains(Address::new(0x9000)));
    }
}
