//! Deterministic fault injection: plans, retry policies, outcomes.
//!
//! Smart cards live with adversity — slaves answer with error replies,
//! peripherals stall, and the card can be torn from the reader mid
//! transaction. This module gives every model layer one shared,
//! deterministic description of such an adversarial run:
//!
//! * [`FaultKind`] / [`OpFault`] — a single injectable event.
//! * [`FaultPlan`] — a schedule of events keyed by *stimulus position*
//!   (the index of the [`MasterOp`](crate::sequences::MasterOp) in the
//!   scenario) plus an optional card-tear cycle. Keying on the op index
//!   rather than on cycles or transaction ids is what makes the same
//!   plan replayable at every abstraction level: layer 2 is not
//!   cycle-accurate and retries shift id assignment, but the stimulus
//!   order is identical everywhere.
//! * [`RetryPolicy`] — the master-side robustness policy: bounded
//!   exponential backoff between retries and an optional per-transaction
//!   timeout after which the master abandons the transaction.
//! * [`TxnOutcome`] — the final per-op verdict after the policy ran.
//! * [`FaultCounters`] — the `fault.injected` / `fault.retried` /
//!   `fault.aborted` observability counters.
//!
//! Plans are plain data; buses receive resolved [`FaultKind`]s through
//! `CycleBus::inject` at issue time and never see the plan itself.

use crate::error::BusError;
use hierbus_sim::SplitMix64;
use std::collections::BTreeMap;
use std::fmt;

/// One injectable fault event on a transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The slave answers the first data beat with an error reply.
    ///
    /// The error fires *before* any data is committed, at the cycle the
    /// first beat would otherwise have completed — so a faulted write
    /// never partially commits and all layers agree on memory state.
    SlaveError,
    /// The slave inserts this many extra wait states before the first
    /// data beat (a transient stall / wait-state overrun).
    Stall(u32),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SlaveError => f.write_str("slave-error"),
            FaultKind::Stall(n) => write!(f, "stall({n})"),
        }
    }
}

/// A fault attached to one stimulus position.
///
/// The fault fires on the first `attempts` issue attempts of the op; a
/// retry beyond that succeeds. `attempts == u32::MAX` makes the fault
/// permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpFault {
    /// What happens.
    pub kind: FaultKind,
    /// How many consecutive attempts it happens on (counted from 0).
    pub attempts: u32,
}

impl OpFault {
    /// A fault that fires exactly once (the first attempt succeeds on
    /// retry).
    pub const fn once(kind: FaultKind) -> Self {
        OpFault { kind, attempts: 1 }
    }

    /// A fault that fires on every attempt.
    pub const fn always(kind: FaultKind) -> Self {
        OpFault {
            kind,
            attempts: u32::MAX,
        }
    }
}

/// Parameters for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy)]
pub struct FaultParams {
    /// Percentage (0..=100) of ops that carry a fault.
    pub fault_pct: u32,
    /// Of the faulted ops, percentage that are error replies (the rest
    /// are stalls).
    pub error_pct: u32,
    /// Maximum extra wait states a stall inserts (inclusive; drawn
    /// uniformly from `1..=stall_max`).
    pub stall_max: u32,
    /// Maximum number of attempts an error persists for (inclusive;
    /// drawn uniformly from `1..=error_attempts_max`).
    pub error_attempts_max: u32,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            fault_pct: 25,
            error_pct: 50,
            stall_max: 6,
            error_attempts_max: 2,
        }
    }
}

/// A deterministic, replayable schedule of fault events.
///
/// Keys are stimulus positions (op indices); the same plan handed to the
/// RTL reference, the layer-1 bus and the layer-2 bus injects the same
/// faults into the same transactions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, OpFault>,
    /// Cycle at which the card is torn: the clock stops *before* this
    /// cycle executes, mid-transaction if one is in flight. `None`
    /// means the run completes normally.
    pub tear_cycle: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (no faults, no tear).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Attaches a fault to the op at `index`; builder-style.
    pub fn with_fault(mut self, index: usize, fault: OpFault) -> Self {
        self.faults.insert(index, fault);
        self
    }

    /// Sets the card-tear cycle; builder-style.
    pub fn with_tear(mut self, cycle: u64) -> Self {
        self.tear_cycle = Some(cycle);
        self
    }

    /// The fault to inject for issue attempt `attempt` (0-based) of the
    /// op at `index`, if any.
    pub fn resolve(&self, index: usize, attempt: u32) -> Option<FaultKind> {
        let f = self.faults.get(&index)?;
        (attempt < f.attempts).then_some(f.kind)
    }

    /// True when the plan injects nothing and never tears.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.tear_cycle.is_none()
    }

    /// Number of ops carrying a fault.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// The scheduled faults in op-index order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, OpFault)> + '_ {
        self.faults.iter().map(|(&i, &f)| (i, f))
    }

    /// A seeded random plan over `n_ops` stimulus positions. The same
    /// `(seed, n_ops, params)` always produces the same plan, so a
    /// failing differential test reproduces from its printed seed.
    pub fn random(seed: u64, n_ops: usize, params: FaultParams) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xFA01_7D15_EA5E_D001);
        let mut plan = FaultPlan::new();
        for index in 0..n_ops {
            if rng.next_u64() % 100 >= u64::from(params.fault_pct.min(100)) {
                continue;
            }
            let fault = if rng.next_u64() % 100 < u64::from(params.error_pct.min(100)) {
                OpFault {
                    kind: FaultKind::SlaveError,
                    attempts: 1
                        + (rng.next_u64() % u64::from(params.error_attempts_max.max(1))) as u32,
                }
            } else {
                OpFault::always(FaultKind::Stall(
                    1 + (rng.next_u64() % u64::from(params.stall_max.max(1))) as u32,
                ))
            };
            plan.faults.insert(index, fault);
        }
        plan
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no faults");
        }
        let mut first = true;
        for (i, fault) in &self.faults {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "op{i}:{}", fault.kind)?;
            if fault.attempts != u32::MAX {
                write!(f, "x{}", fault.attempts)?;
            }
        }
        if let Some(tc) = self.tear_cycle {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "tear@{tc}")?;
        }
        Ok(())
    }
}

/// The master-side robustness policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times a transaction that completed with a *slave* error
    /// is reissued. Decode and access-violation errors are permanent
    /// and never retried.
    pub max_retries: u32,
    /// Idle cycles inserted before retry `n` (0-based): `base << n`,
    /// saturating at `backoff_cap`.
    pub backoff_base: u32,
    /// Upper bound on the backoff gap.
    pub backoff_cap: u32,
    /// Cycles after issue at which the master gives up on an attempt
    /// and marks the op [`TxnOutcome::Aborted`]. The bus is left to
    /// drain the abandoned transaction naturally, so the FSM always
    /// returns to a defined idle state.
    pub timeout: Option<u64>,
}

impl RetryPolicy {
    /// No retries, no timeout — the pre-fault behaviour.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        backoff_base: 0,
        backoff_cap: 0,
        timeout: None,
    };

    /// A sensible default for robustness sweeps: up to 3 retries with
    /// a 2/4/8-cycle backoff, no timeout.
    pub const fn retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff_base: 2,
            backoff_cap: 8,
            timeout: None,
        }
    }

    /// The backoff gap (idle cycles) before reissuing after failed
    /// attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> u32 {
        if self.backoff_base == 0 {
            return 0;
        }
        self.backoff_base
            .saturating_shl(attempt.min(31))
            .min(self.backoff_cap.max(self.backoff_base))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::NONE
    }
}

/// Final verdict for one stimulus op after the retry policy ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Completed successfully (possibly after retries).
    Ok,
    /// Completed with a bus error that the policy did not (or could
    /// not) retry away.
    Error(BusError),
    /// Abandoned: the per-transaction timeout expired, or the card was
    /// torn before completion.
    Aborted,
}

impl TxnOutcome {
    /// True for [`TxnOutcome::Ok`].
    pub const fn is_ok(self) -> bool {
        matches!(self, TxnOutcome::Ok)
    }
}

impl fmt::Display for TxnOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnOutcome::Ok => f.write_str("ok"),
            TxnOutcome::Error(e) => write!(f, "error: {e}"),
            TxnOutcome::Aborted => f.write_str("aborted"),
        }
    }
}

/// Observability counters mirrored to the `fault.*` counter tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults actually injected into a bus (one per faulted attempt).
    pub injected: u64,
    /// Retries the master issued.
    pub retried: u64,
    /// Ops abandoned by timeout or card tear.
    pub aborted: u64,
}

impl FaultCounters {
    /// True when nothing fault-related happened.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }
}

/// Totals over masters: each counter summed.
impl std::iter::Sum for FaultCounters {
    fn sum<I: Iterator<Item = FaultCounters>>(iter: I) -> Self {
        iter.fold(FaultCounters::default(), |t, c| FaultCounters {
            injected: t.injected + c.injected,
            retried: t.retried + c.retried,
            aborted: t.aborted + c.aborted,
        })
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u32 {
    fn saturating_shl(self, n: u32) -> u32 {
        self.checked_shl(n).unwrap_or(u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_honours_attempt_budget() {
        let plan = FaultPlan::new()
            .with_fault(2, OpFault::once(FaultKind::SlaveError))
            .with_fault(5, OpFault::always(FaultKind::Stall(3)));
        assert_eq!(plan.resolve(2, 0), Some(FaultKind::SlaveError));
        assert_eq!(plan.resolve(2, 1), None);
        assert_eq!(plan.resolve(5, 0), Some(FaultKind::Stall(3)));
        assert_eq!(plan.resolve(5, 7), Some(FaultKind::Stall(3)));
        assert_eq!(plan.resolve(0, 0), None);
    }

    #[test]
    fn random_plans_reproduce_from_seed() {
        let a = FaultPlan::random(0xDEAD, 64, FaultParams::default());
        let b = FaultPlan::random(0xDEAD, 64, FaultParams::default());
        assert_eq!(a, b);
        let c = FaultPlan::random(0xBEEF, 64, FaultParams::default());
        assert_ne!(a, c, "different seeds should differ at 64 ops");
    }

    #[test]
    fn random_plan_respects_rate() {
        let none = FaultPlan::random(
            1,
            256,
            FaultParams {
                fault_pct: 0,
                ..FaultParams::default()
            },
        );
        assert!(none.is_empty());
        let all = FaultPlan::random(
            1,
            256,
            FaultParams {
                fault_pct: 100,
                ..FaultParams::default()
            },
        );
        assert_eq!(all.fault_count(), 256);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::retries(3);
        assert_eq!(p.backoff(0), 2);
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(2), 8);
        assert_eq!(p.backoff(3), 8);
        assert_eq!(RetryPolicy::NONE.backoff(0), 0);
    }

    #[test]
    fn display_is_readable() {
        let plan = FaultPlan::new()
            .with_fault(1, OpFault::once(FaultKind::SlaveError))
            .with_tear(120);
        assert_eq!(plan.to_string(), "op1:slave-errorx1, tear@120");
        assert_eq!(FaultPlan::new().to_string(), "no faults");
        assert_eq!(TxnOutcome::Ok.to_string(), "ok");
        assert_eq!(TxnOutcome::Aborted.to_string(), "aborted");
    }
}
