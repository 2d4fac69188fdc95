//! Bus error conditions.

use crate::addr::Address;
use crate::limits::TxnCategory;
use crate::txn::AccessKind;
use std::error::Error;
use std::fmt;

/// The ways a bus transaction can terminate with an error.
///
/// Both data buses carry their own error indication; every model reports
/// these conditions in the [`Completed`](crate::Completed) a master takes
/// from the bus's finish queue — the paper's `error` state — and so
/// records the cause for diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusError {
    /// No slave decodes the address.
    Decode(Address),
    /// A slave decodes the address but the access kind is not permitted.
    AccessViolation(Address, AccessKind),
    /// The master exceeded the outstanding-transaction ceiling.
    LimitExceeded(TxnCategory),
    /// The slave itself signalled an error during the data phase.
    SlaveError(Address),
    /// The access width/alignment combination is not representable.
    Misaligned(Address),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Decode(a) => write!(f, "no slave decodes address {a}"),
            BusError::AccessViolation(a, k) => {
                write!(f, "{k} access at {a} violates slave rights")
            }
            BusError::LimitExceeded(c) => {
                write!(f, "outstanding {c} transaction limit exceeded")
            }
            BusError::SlaveError(a) => write!(f, "slave signalled error at {a}"),
            BusError::Misaligned(a) => write!(f, "misaligned access at {a}"),
        }
    }
}

impl Error for BusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let msgs = [
            BusError::Decode(Address::new(0x10)).to_string(),
            BusError::AccessViolation(Address::new(0x10), AccessKind::DataWrite).to_string(),
            BusError::LimitExceeded(TxnCategory::Write).to_string(),
            BusError::SlaveError(Address::new(0x10)).to_string(),
            BusError::Misaligned(Address::new(0x11)).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn implements_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(BusError::Decode(Address::new(0)));
    }
}
