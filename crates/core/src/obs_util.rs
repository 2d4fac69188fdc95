//! Shared helpers for wiring the buses into `hierbus-obs`.

use hierbus_ec::AccessKind;
use hierbus_obs::AccessClass;

/// Maps a bus access kind onto the obs-local access class.
///
/// `hierbus-obs` is dependency-free, so it cannot name
/// [`AccessKind`] itself; every instrumented bus translates through
/// this function instead.
pub fn access_class(kind: AccessKind) -> AccessClass {
    match kind {
        AccessKind::InstrFetch => AccessClass::Fetch,
        AccessKind::DataRead => AccessClass::Read,
        AccessKind::DataWrite => AccessClass::Write,
    }
}
