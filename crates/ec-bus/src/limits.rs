//! Outstanding-transaction accounting.
//!
//! The modeled core (paper §1) *"limits the number of possible outstanding
//! transactions to four burst instruction reads, four burst data reads,
//! and four burst writes"*. [`OutstandingTracker`] enforces those
//! per-category ceilings for every bus model; exceeding a ceiling is a
//! master-side protocol violation, so the tracker's `try_issue` is the
//! gatekeeper each master interface calls before accepting a request.

use crate::txn::AccessKind;
use std::fmt;

/// The three independently limited transaction categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnCategory {
    /// Instruction-read transactions.
    InstrRead,
    /// Data-read transactions.
    DataRead,
    /// Write transactions.
    Write,
}

impl TxnCategory {
    /// All categories.
    pub const ALL: [TxnCategory; 3] = [
        TxnCategory::InstrRead,
        TxnCategory::DataRead,
        TxnCategory::Write,
    ];

    /// The category a given access kind is accounted under.
    pub const fn of(kind: AccessKind) -> TxnCategory {
        match kind {
            AccessKind::InstrFetch => TxnCategory::InstrRead,
            AccessKind::DataRead => TxnCategory::DataRead,
            AccessKind::DataWrite => TxnCategory::Write,
        }
    }

    const fn index(self) -> usize {
        match self {
            TxnCategory::InstrRead => 0,
            TxnCategory::DataRead => 1,
            TxnCategory::Write => 2,
        }
    }
}

impl fmt::Display for TxnCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxnCategory::InstrRead => "instruction read",
            TxnCategory::DataRead => "data read",
            TxnCategory::Write => "write",
        };
        f.write_str(s)
    }
}

/// Per-category outstanding-transaction ceilings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutstandingLimits {
    /// Maximum concurrent instruction reads.
    pub instr_reads: u32,
    /// Maximum concurrent data reads.
    pub data_reads: u32,
    /// Maximum concurrent writes.
    pub writes: u32,
}

impl OutstandingLimits {
    /// The limits of the modeled core: four of each category.
    pub const CORE_DEFAULT: OutstandingLimits = OutstandingLimits {
        instr_reads: 4,
        data_reads: 4,
        writes: 4,
    };

    /// The ceiling for `category`.
    pub const fn limit(&self, category: TxnCategory) -> u32 {
        match category {
            TxnCategory::InstrRead => self.instr_reads,
            TxnCategory::DataRead => self.data_reads,
            TxnCategory::Write => self.writes,
        }
    }
}

impl Default for OutstandingLimits {
    fn default() -> Self {
        OutstandingLimits::CORE_DEFAULT
    }
}

/// Live outstanding-transaction counters against a set of
/// [`OutstandingLimits`].
///
/// ```
/// use hierbus_ec::{OutstandingLimits, OutstandingTracker, TxnCategory};
/// let mut t = OutstandingTracker::new(OutstandingLimits::CORE_DEFAULT);
/// assert!(t.try_issue(TxnCategory::Write));
/// assert_eq!(t.in_flight(TxnCategory::Write), 1);
/// t.complete(TxnCategory::Write);
/// assert_eq!(t.in_flight(TxnCategory::Write), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutstandingTracker {
    limits: OutstandingLimits,
    counts: [u32; 3],
}

impl OutstandingTracker {
    /// Creates a tracker with the given ceilings and no transactions in
    /// flight.
    pub fn new(limits: OutstandingLimits) -> Self {
        OutstandingTracker {
            limits,
            counts: [0; 3],
        }
    }

    /// The configured ceilings.
    pub fn limits(&self) -> OutstandingLimits {
        self.limits
    }

    /// Attempts to account a new transaction; returns `false` (and changes
    /// nothing) if the category is at its ceiling.
    pub fn try_issue(&mut self, category: TxnCategory) -> bool {
        let i = category.index();
        if self.counts[i] >= self.limits.limit(category) {
            return false;
        }
        self.counts[i] += 1;
        true
    }

    /// True if a new transaction of `category` could be issued now.
    pub fn can_issue(&self, category: TxnCategory) -> bool {
        self.counts[category.index()] < self.limits.limit(category)
    }

    /// Releases one transaction of `category`.
    ///
    /// # Panics
    ///
    /// Panics if no transaction of that category is in flight — completing
    /// a transaction that was never issued is a model bug worth failing
    /// loudly on.
    pub fn complete(&mut self, category: TxnCategory) {
        let i = category.index();
        assert!(self.counts[i] > 0, "no outstanding {category} to complete");
        self.counts[i] -= 1;
    }

    /// Transactions of `category` currently in flight.
    pub fn in_flight(&self, category: TxnCategory) -> u32 {
        self.counts[category.index()]
    }
}

impl Default for OutstandingTracker {
    fn default() -> Self {
        OutstandingTracker::new(OutstandingLimits::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_mapping() {
        assert_eq!(
            TxnCategory::of(AccessKind::InstrFetch),
            TxnCategory::InstrRead
        );
        assert_eq!(TxnCategory::of(AccessKind::DataRead), TxnCategory::DataRead);
        assert_eq!(TxnCategory::of(AccessKind::DataWrite), TxnCategory::Write);
    }

    #[test]
    fn ceilings_enforced_per_category() {
        let mut t = OutstandingTracker::default();
        for _ in 0..4 {
            assert!(t.try_issue(TxnCategory::DataRead));
        }
        assert!(!t.try_issue(TxnCategory::DataRead));
        assert!(!t.can_issue(TxnCategory::DataRead));
        // Other categories are unaffected.
        assert!(t.try_issue(TxnCategory::Write));
        assert_eq!(t.in_flight(TxnCategory::DataRead), 4);
        assert_eq!(t.in_flight(TxnCategory::Write), 1);
    }

    #[test]
    fn complete_frees_a_slot() {
        let mut t = OutstandingTracker::default();
        for _ in 0..4 {
            t.try_issue(TxnCategory::Write);
        }
        t.complete(TxnCategory::Write);
        assert!(t.try_issue(TxnCategory::Write));
    }

    #[test]
    #[should_panic(expected = "no outstanding")]
    fn spurious_complete_panics() {
        let mut t = OutstandingTracker::default();
        t.complete(TxnCategory::InstrRead);
    }

    #[test]
    fn custom_limits() {
        let limits = OutstandingLimits {
            instr_reads: 1,
            data_reads: 2,
            writes: 0,
        };
        let mut t = OutstandingTracker::new(limits);
        assert!(t.try_issue(TxnCategory::InstrRead));
        assert!(!t.try_issue(TxnCategory::InstrRead));
        assert!(!t.try_issue(TxnCategory::Write));
    }
}
