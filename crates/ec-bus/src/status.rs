//! The non-blocking interface return states.

use std::fmt;

/// Status returned by every non-blocking bus interface call.
///
/// The paper (§3.1): *"The interface returns a bus state, which can have
/// the states request, wait, ok, or error. Request means the bus request
/// has been accepted, wait means the request is in progress, error
/// indicates a bus error, ok indicates a finished bus request."* The
/// master keeps invoking the interface every clock cycle until it sees
/// [`Ok`](BusStatus::Ok) or [`Error`](BusStatus::Error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusStatus {
    /// The request has been accepted into the bus on this call.
    Request,
    /// The request is in progress; poll again next cycle.
    Wait,
    /// The request finished successfully; any read data is available.
    Ok,
    /// The request terminated with a bus error (decode failure, access
    /// violation, or a slave-signalled error).
    Error,
}

impl BusStatus {
    /// True for the terminal states [`Ok`](Self::Ok) and
    /// [`Error`](Self::Error).
    pub const fn is_done(self) -> bool {
        matches!(self, BusStatus::Ok | BusStatus::Error)
    }
}

impl fmt::Display for BusStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BusStatus::Request => "request",
            BusStatus::Wait => "wait",
            BusStatus::Ok => "ok",
            BusStatus::Error => "error",
        };
        f.write_str(s)
    }
}

// A terminal `Error` status is usable as an error value directly (e.g.
// in `?`-style test plumbing); the richer cause
// lives in [`crate::BusError`].
impl std::error::Error for BusStatus {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(BusStatus::Ok.is_done());
        assert!(BusStatus::Error.is_done());
        assert!(!BusStatus::Request.is_done());
        assert!(!BusStatus::Wait.is_done());
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(BusStatus::Request.to_string(), "request");
        assert_eq!(BusStatus::Wait.to_string(), "wait");
        assert_eq!(BusStatus::Ok.to_string(), "ok");
        assert_eq!(BusStatus::Error.to_string(), "error");
    }
}
