//! The applet firewall.
//!
//! Java Card isolates applets in *contexts*: code running in one context
//! may not touch another context's objects unless they are explicitly
//! shared. The functional VM model of the paper carries a firewall
//! module; this is its reproduction, checked on every cross-context
//! method call and static-field access.

use crate::error::JcvmError;
use std::fmt;

/// A firewall context (applet identity). Context 0 is the card runtime
/// (JCRE), which may access everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Context(pub u8);

impl Context {
    /// The card runtime's privileged context.
    pub const JCRE: Context = Context(0);
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// The access checker.
#[derive(Debug, Clone, Default)]
pub struct Firewall {
    checks: u64,
}

impl Firewall {
    /// Creates a firewall with zeroed counters.
    pub fn new() -> Self {
        Firewall::default()
    }

    /// Checks an access from `current` to an object owned by `owner`.
    /// `shared` marks objects exposed as shareable interfaces.
    ///
    /// # Errors
    ///
    /// [`JcvmError::SecurityViolation`] for a cross-context access to a
    /// non-shared object from a non-JCRE context.
    pub fn check(
        &mut self,
        current: Context,
        owner: Context,
        shared: bool,
    ) -> Result<(), JcvmError> {
        self.checks += 1;
        if current == owner || current == Context::JCRE || shared {
            Ok(())
        } else {
            Err(JcvmError::SecurityViolation)
        }
    }

    /// Total checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_context_allowed() {
        let mut fw = Firewall::new();
        assert!(fw.check(Context(2), Context(2), false).is_ok());
    }

    #[test]
    fn jcre_is_privileged() {
        let mut fw = Firewall::new();
        assert!(fw.check(Context::JCRE, Context(5), false).is_ok());
    }

    #[test]
    fn cross_context_denied_unless_shared() {
        let mut fw = Firewall::new();
        assert_eq!(
            fw.check(Context(1), Context(2), false),
            Err(JcvmError::SecurityViolation)
        );
        assert!(fw.check(Context(1), Context(2), true).is_ok());
        assert_eq!(fw.checks(), 2);
    }
}
