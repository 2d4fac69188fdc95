//! Per-transaction lifecycle records.
//!
//! Every bus model in the workspace — the cycle-true RTL reference and
//! both TLM layers — reports transaction lifetimes in this shape, so
//! timing comparisons (Table 1) are plain record-by-record diffs.

use crate::addr::Address;
use crate::error::BusError;
use crate::fault::{FaultCounters, TxnOutcome};
use crate::merge::DataWidth;
use crate::txn::{AccessKind, BurstLen, TxnId};

/// What a model recorded about one transaction's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// The identity the master assigned.
    pub id: TxnId,
    /// Fetch, load or store.
    pub kind: AccessKind,
    /// Start address.
    pub addr: Address,
    /// Beat width.
    pub width: DataWidth,
    /// Beat count.
    pub burst: BurstLen,
    /// Cycle the master first presented the request.
    pub issue_cycle: u64,
    /// Cycle the address phase completed.
    pub addr_done_cycle: Option<u64>,
    /// Cycle the final beat completed (or the error was signalled).
    pub done_cycle: Option<u64>,
    /// Error that terminated the transaction, if any.
    pub error: Option<BusError>,
    /// Beat payloads: write data going out, or read data collected.
    pub data: Vec<u32>,
}

/// What a bus hands its master from the finish queue when a transaction
/// completes: the paper's `ok`/`error` with the timing and read data the
/// master stamps into the transaction's [`TxnRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completed {
    /// The transaction that completed.
    pub id: TxnId,
    /// Cycle the address phase completed.
    pub addr_done_cycle: Option<u64>,
    /// Cycle the transaction completed.
    pub done_cycle: u64,
    /// Error that terminated it, if any.
    pub error: Option<BusError>,
    /// Read results (lane-extracted architectural values), empty for
    /// writes.
    pub data: Vec<u32>,
}

/// One master's slice of a finished multi-master run, in the same shape
/// at every layer so slices compare across layers directly.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterReport {
    /// This master's transaction records (one per attempt), in issue
    /// order.
    pub records: Vec<TxnRecord>,
    /// Final per-stimulus-op outcomes.
    pub outcomes: Vec<TxnOutcome>,
    /// Fault counters for this master alone.
    pub fault: FaultCounters,
    /// Transactions this master completed.
    pub completed: u64,
}

impl TxnRecord {
    /// Transaction latency in cycles (issue through completion,
    /// inclusive); `None` while in flight.
    pub fn latency(&self) -> Option<u64> {
        self.done_cycle.map(|d| d - self.issue_cycle + 1)
    }
}

/// Compares two record sets transaction-by-transaction and reports the
/// first divergence, if any — the workhorse of the model-equivalence
/// integration tests.
pub fn first_divergence<'a>(
    reference: &'a [TxnRecord],
    candidate: &'a [TxnRecord],
) -> Option<(usize, &'a TxnRecord, Option<&'a TxnRecord>)> {
    for (i, r) in reference.iter().enumerate() {
        match candidate.get(i) {
            None => return Some((i, r, None)),
            Some(c) if c != r => return Some((i, r, Some(c))),
            Some(_) => {}
        }
    }
    if candidate.len() > reference.len() {
        return Some((
            reference.len(),
            candidate.last().expect("candidate longer"),
            None,
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, issue: u64, done: Option<u64>) -> TxnRecord {
        TxnRecord {
            id: TxnId(id),
            kind: AccessKind::DataRead,
            addr: Address::new(0x100),
            width: DataWidth::W32,
            burst: BurstLen::Single,
            issue_cycle: issue,
            addr_done_cycle: done,
            done_cycle: done,
            error: None,
            data: Vec::new(),
        }
    }

    #[test]
    fn latency_is_inclusive() {
        assert_eq!(rec(0, 2, Some(5)).latency(), Some(4));
        assert_eq!(rec(0, 2, None).latency(), None);
    }

    #[test]
    fn divergence_detects_first_mismatch() {
        let a = vec![rec(0, 0, Some(0)), rec(1, 1, Some(1))];
        let mut b = a.clone();
        assert!(first_divergence(&a, &b).is_none());
        b[1].done_cycle = Some(2);
        let (i, _, _) = first_divergence(&a, &b).expect("divergence");
        assert_eq!(i, 1);
    }

    #[test]
    fn divergence_detects_length_mismatch() {
        let a = vec![rec(0, 0, Some(0))];
        let b: Vec<TxnRecord> = Vec::new();
        assert!(first_divergence(&a, &b).is_some());
        assert!(first_divergence(&b, &a).is_some());
    }
}
