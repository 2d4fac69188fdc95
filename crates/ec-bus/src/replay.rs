//! Stimulus replay: the one master-side policy every bus layer runs.
//!
//! [`Replay`] decides everything a stimulus master decides; the bus side
//! stays with each model. At every layer, the RTL reference included, a
//! master takes its completions from the bus's finish queue at a rising
//! edge and reports each one with the cycle it *sees* it, so the retry
//! clock is the same at every layer.

use crate::error::BusError;
use crate::fault::{FaultCounters, FaultKind, FaultPlan, RetryPolicy, TxnOutcome};
use crate::limits::{OutstandingLimits, OutstandingTracker, TxnCategory};
use crate::record::{Completed, MasterReport, TxnRecord};
use crate::sequences::MasterOp;
use crate::txn::{AccessKind, Transaction, TxnId};
use std::sync::Arc;

/// One in-flight attempt and the bookkeeping needed to judge it.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: TxnId,
    cat: TxnCategory,
    /// Stimulus position this attempt serves.
    op: usize,
    /// 0-based attempt number (0 = first issue, 1 = first retry, ...).
    attempt: u32,
    issue_cycle: u64,
    /// Timed out: the master no longer waits for it, but the bus still
    /// drains the transaction to its defined idle state.
    abandoned: bool,
}

/// A scheduled reissue of a failed attempt.
#[derive(Debug, Clone, Copy)]
struct Retry {
    op: usize,
    attempt: u32,
    /// Earliest cycle the reissue may happen (completion seen + backoff).
    earliest: u64,
}

/// Replays a [`MasterOp`] stimulus list under the outstanding-transaction
/// ceilings and, once attached ([`set_faults`](Self::set_faults)), a
/// [`FaultPlan`] and [`RetryPolicy`]: planned faults are resolved at
/// issue, slave errors are reissued after a bounded backoff, attempts
/// that outlive the timeout are abandoned (the bus drains them), and
/// every stimulus op settles to a [`TxnOutcome`].
///
/// One cycle, in order: [`begin_cycle`](Self::begin_cycle) (the timeout
/// sweep), [`arbitration_request`](Self::arbitration_request) (the
/// request line) and, on a grant, [`issue_granted`](Self::issue_granted).
/// Completions arrive through [`complete`](Self::complete) before the
/// next `begin_cycle`.
///
/// ```
/// use hierbus_ec::{Completed, MasterOp, OutstandingLimits, Replay, TxnOutcome};
///
/// let mut m = Replay::new(vec![MasterOp::read(0x40)], OutstandingLimits::CORE_DEFAULT);
/// m.begin_cycle(0);
/// assert!(m.arbitration_request(0));
/// let (txn, fault) = m.issue_granted(0);
/// assert!(fault.is_none());
/// // The bus finishes it at cycle 2; the master sees that at cycle 3.
/// assert!(m.owns(txn.id));
/// let done = Completed {
///     id: txn.id,
///     addr_done_cycle: Some(1),
///     done_cycle: 2,
///     error: None,
///     data: vec![0],
/// };
/// m.complete(done, 3);
/// assert!(m.is_finished());
/// let report = m.take_report();
/// assert_eq!(report.outcomes, vec![TxnOutcome::Ok]);
/// assert_eq!(report.records[0].latency(), Some(3));
/// ```
#[derive(Debug)]
pub struct Replay {
    ops: Arc<[MasterOp]>,
    next_op: usize,
    idle_left: u32,
    id_base: u64,
    next_id: TxnId,
    tracker: OutstandingTracker,
    /// One record per attempt, in issue order; `records[k]` has id
    /// `id_base + k`.
    records: Vec<TxnRecord>,
    keep_records: bool,
    in_flight: Vec<InFlight>,
    retries: Vec<Retry>,
    plan: FaultPlan,
    policy: RetryPolicy,
    outcomes: Vec<Option<TxnOutcome>>,
    counters: FaultCounters,
    completed: u64,
    last_done_cycle: u64,
}

impl Replay {
    /// Creates a replay of `ops` under `limits`, with ids from 0, no
    /// faults and records kept.
    pub fn new(ops: impl Into<Arc<[MasterOp]>>, limits: OutstandingLimits) -> Self {
        let ops = ops.into();
        let idle_left = ops.first().map_or(0, |op| op.idle_before);
        let outcomes = vec![None; ops.len()];
        Replay {
            ops,
            next_op: 0,
            idle_left,
            id_base: 0,
            next_id: TxnId(0),
            tracker: OutstandingTracker::new(limits),
            records: Vec::new(),
            keep_records: true,
            in_flight: Vec::new(),
            retries: Vec::new(),
            plan: FaultPlan::new(),
            policy: RetryPolicy::NONE,
            outcomes,
            counters: FaultCounters::default(),
            completed: 0,
            last_done_cycle: 0,
        }
    }

    /// Attaches a fault plan and robustness policy. Must be called
    /// before the first cycle.
    pub fn set_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        assert_eq!(self.next_op, 0, "faults must be configured before running");
        self.plan = plan;
        self.policy = policy;
    }

    /// Replaces the outstanding-transaction ceilings. Must be called
    /// before the first cycle.
    pub fn set_limits(&mut self, limits: OutstandingLimits) {
        assert_eq!(self.next_op, 0, "limits must be configured before running");
        self.tracker = OutstandingTracker::new(limits);
    }

    /// Sets the first transaction id. Multi-master systems give each
    /// master a disjoint id window (the DMA engine counts from
    /// [`DMA_ID_BASE`](crate::DMA_ID_BASE)) so every span and phase
    /// event stays attributable to its master. Must be called before
    /// the first issue.
    pub fn set_id_base(&mut self, base: u64) {
        assert!(
            self.next_op == 0 && self.records.is_empty(),
            "id base must be configured before running"
        );
        self.id_base = base;
        self.next_id = TxnId(base);
    }

    /// Stops keeping per-attempt records (throughput measurement mode):
    /// outcomes, counters, the completion count and the last completion
    /// cycle survive.
    pub fn disable_records(&mut self) {
        self.keep_records = false;
    }

    /// Attempts completed so far (abandoned ones included).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// One past the cycle of the latest completion — the run length this
    /// master accounts for — or `None` before the first completion.
    pub fn end_cycle(&self) -> Option<u64> {
        (self.completed > 0).then(|| self.last_done_cycle + 1)
    }

    /// The `fault.*` counters so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Rising-edge bookkeeping that runs whether or not this master wins
    /// the bus: abandons in-flight attempts past their deadline. The bus
    /// is not cancelled; it drains the transaction on its own.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        if let Some(t) = self.policy.timeout {
            for f in &mut self.in_flight {
                if !f.abandoned && cycle >= f.issue_cycle + t {
                    f.abandoned = true;
                    self.outcomes[f.op] = Some(TxnOutcome::Aborted);
                    self.counters.aborted += 1;
                }
            }
        }
    }

    /// The request line for `cycle`: true when there is an attempt to
    /// issue (a due retry, or fresh stimulus whose idle gap has elapsed)
    /// *and* a free limit slot for it.
    ///
    /// Consumes exactly the state an ungranted cycle consumes: an
    /// elapsed idle cycle is counted here, so a lost arbitration costs
    /// the same idle budget as a stall would. A due retry has priority
    /// over fresh stimulus, waits head-of-line on a free slot like it,
    /// and does not advance the fresh op's idle countdown. Call once per
    /// cycle after [`begin_cycle`](Self::begin_cycle); on a grant,
    /// follow with [`issue_granted`](Self::issue_granted) in the same
    /// cycle.
    #[inline]
    pub fn arbitration_request(&mut self, cycle: u64) -> bool {
        if let Some(pos) = self.due_retry(cycle) {
            let category = TxnCategory::of(self.ops[self.retries[pos].op].kind);
            return self.tracker.can_issue(category);
        }
        if self.next_op >= self.ops.len() {
            return false;
        }
        if self.idle_left > 0 {
            self.idle_left -= 1;
            return false;
        }
        self.tracker
            .can_issue(TxnCategory::of(self.ops[self.next_op].kind))
    }

    /// Asked after the rising edge of `cycle`: the earliest later cycle
    /// at which this master's rising edge does more than count its idle
    /// gap down — an issue it could make at once, the end of the idle
    /// gap, a retry falling due or a timeout deadline — or `u64::MAX`
    /// when only a completion can unblock it. A driver that skips to a
    /// later cycle accounts for the skipped ones with
    /// [`skip`](Self::skip).
    pub fn next_wake(&self, cycle: u64) -> u64 {
        let next = cycle + 1;
        let mut wake = match self.policy.timeout {
            Some(t) => self
                .in_flight
                .iter()
                .filter(|f| !f.abandoned)
                .map(|f| f.issue_cycle + t)
                .min()
                .unwrap_or(u64::MAX),
            None => u64::MAX,
        };
        if let Some(pos) = self.due_retry(next) {
            // A due retry issues as soon as a slot is free, and fresh
            // stimulus waits behind it.
            let category = TxnCategory::of(self.ops[self.retries[pos].op].kind);
            return if self.tracker.can_issue(category) {
                next
            } else {
                wake.max(next)
            };
        }
        if let Some(r) = self.retries.iter().map(|r| r.earliest).min() {
            wake = wake.min(r);
        }
        if let Some(op) = self.ops.get(self.next_op) {
            if self.idle_left > 0 {
                wake = wake.min(next + u64::from(self.idle_left));
            } else if self.tracker.can_issue(TxnCategory::of(op.kind)) {
                return next;
            }
        }
        wake.max(next)
    }

    /// Accounts for the rising edges of cycles `from..to`, which the
    /// driver skipped because [`next_wake`](Self::next_wake) lay at or
    /// beyond `to`: each counted the idle gap down, unless a retry was
    /// due.
    pub fn skip(&mut self, from: u64, to: u64) {
        if self.next_op < self.ops.len() && self.due_retry(from).is_none() {
            let skipped = u32::try_from(to - from).unwrap_or(u32::MAX);
            self.idle_left = self.idle_left.saturating_sub(skipped);
        }
    }

    /// Issues the attempt [`arbitration_request`](Self::arbitration_request)
    /// raised its line for: returns the transaction to place on the bus
    /// and the fault the plan resolves for this attempt, if any.
    ///
    /// # Panics
    ///
    /// Panics if called without a raised request (nothing to issue or
    /// no limit slot).
    pub fn issue_granted(&mut self, cycle: u64) -> (Transaction, Option<FaultKind>) {
        let (op, attempt) = match self.due_retry(cycle) {
            Some(pos) => {
                let retry = self.retries.remove(pos);
                (retry.op, retry.attempt)
            }
            None => {
                let op = self.next_op;
                self.next_op += 1;
                self.idle_left = self.ops.get(self.next_op).map_or(0, |op| op.idle_before);
                (op, 0)
            }
        };
        let cat = TxnCategory::of(self.ops[op].kind);
        assert!(
            self.tracker.try_issue(cat),
            "granted issue without a free limit slot"
        );
        let fault = if self.plan.is_empty() {
            None
        } else {
            self.plan.resolve(op, attempt)
        };
        if fault.is_some() {
            self.counters.injected += 1;
        }
        let stim = &self.ops[op];
        let id = self.next_id;
        self.next_id = id.next();
        if self.keep_records {
            self.records.push(TxnRecord {
                id,
                kind: stim.kind,
                addr: stim.addr,
                width: stim.width,
                burst: stim.burst,
                issue_cycle: cycle,
                addr_done_cycle: None,
                done_cycle: None,
                error: None,
                data: if stim.kind == AccessKind::DataWrite {
                    stim.data.to_vec()
                } else {
                    Vec::new()
                },
            });
        }
        self.in_flight.push(InFlight {
            id,
            cat,
            op,
            attempt,
            issue_cycle: cycle,
            abandoned: false,
        });
        let txn = Transaction::new(
            id,
            stim.kind,
            stim.addr,
            stim.width,
            stim.burst,
            stim.data.clone(),
        );
        (txn, fault)
    }

    /// The due retry to issue this cycle: earliest deadline first, ties
    /// broken by op index — fully deterministic.
    fn due_retry(&self, cycle: u64) -> Option<usize> {
        self.retries
            .iter()
            .enumerate()
            .filter(|(_, r)| r.earliest <= cycle)
            .min_by_key(|(_, r)| (r.earliest, r.op))
            .map(|(i, _)| i)
    }

    /// True when attempt `id` lies in this master's id window: a driver
    /// whose masters share one bus routes each completion to its owner.
    #[inline]
    pub fn owns(&self, id: TxnId) -> bool {
        (self.id_base..self.next_id.0).contains(&id.0)
    }

    /// The record of attempt `id`, or `None` when records are disabled.
    #[inline]
    fn record_mut(&mut self, id: TxnId) -> Option<&mut TxnRecord> {
        let k = id.0.checked_sub(self.id_base)?;
        self.records.get_mut(usize::try_from(k).ok()?)
    }

    /// Attempt `done.id` finished on the bus; the master sees the
    /// completion in cycle `seen`. Frees its limit slot and stamps its
    /// record: address phase, done cycle, error and read data. An
    /// abandoned attempt stops there. Otherwise a slave error with retry
    /// budget left schedules a reissue no earlier than `seen` plus the
    /// backoff, and anything else settles the op's outcome.
    ///
    /// # Panics
    ///
    /// Panics if `done.id` is not in flight.
    #[inline]
    pub fn complete(&mut self, done: Completed, seen: u64) {
        let i = self
            .in_flight
            .iter()
            .position(|f| f.id == done.id)
            .expect("completion of an attempt in flight");
        let f = self.in_flight.swap_remove(i);
        let error = done.error;
        self.completed += 1;
        self.last_done_cycle = self.last_done_cycle.max(done.done_cycle);
        if let Some(r) = self.record_mut(f.id) {
            r.addr_done_cycle = done.addr_done_cycle;
            r.done_cycle = Some(done.done_cycle);
            r.error = error;
            if r.kind != AccessKind::DataWrite {
                r.data = done.data;
            }
        }
        self.tracker.complete(f.cat);
        if f.abandoned {
            return;
        }
        match error {
            Some(BusError::SlaveError(_)) if f.attempt < self.policy.max_retries => {
                self.counters.retried += 1;
                self.retries.push(Retry {
                    op: f.op,
                    attempt: f.attempt + 1,
                    earliest: seen + u64::from(self.policy.backoff(f.attempt)),
                });
            }
            Some(e) => self.outcomes[f.op] = Some(TxnOutcome::Error(e)),
            None => self.outcomes[f.op] = Some(TxnOutcome::Ok),
        }
    }

    /// Card tear: the clock stopped. Every op without a settled outcome
    /// — in flight, awaiting retry, or never issued — is aborted.
    pub fn tear_now(&mut self) {
        for o in &mut self.outcomes {
            if o.is_none() {
                *o = Some(TxnOutcome::Aborted);
                self.counters.aborted += 1;
            }
        }
        self.retries.clear();
    }

    /// True once every op has been issued and completed and no retry is
    /// pending.
    pub fn is_finished(&self) -> bool {
        self.next_op >= self.ops.len() && self.in_flight.is_empty() && self.retries.is_empty()
    }

    /// Moves this master's slice of the run report out once every op
    /// has settled, leaving its records and outcomes empty: a long run's
    /// records move into the report uncopied.
    ///
    /// # Panics
    ///
    /// Panics if an op is still unsettled (neither finished nor torn).
    pub fn take_report(&mut self) -> MasterReport {
        MasterReport {
            records: std::mem::take(&mut self.records),
            // A fresh collect, not an in-place `into_iter`: on a 600k-op
            // run the in-place conversion took twice as long.
            outcomes: std::mem::take(&mut self.outcomes)
                .iter()
                .map(|o| o.expect("all ops settled at end of run"))
                .collect(),
            fault: self.counters,
            completed: self.completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;
    use crate::fault::OpFault;
    use crate::txn::BurstLen;

    fn read_op(addr: u64) -> MasterOp {
        MasterOp::read(addr)
    }

    /// Completes attempt `id` with the address phase and read data its
    /// record holds so far.
    fn complete(m: &mut Replay, id: TxnId, done_cycle: u64, error: Option<BusError>, seen: u64) {
        let (addr_done_cycle, data) = m
            .record_mut(id)
            .map_or((None, Vec::new()), |r| (r.addr_done_cycle, r.data.clone()));
        let done = Completed {
            id,
            addr_done_cycle,
            done_cycle,
            error,
            data,
        };
        m.complete(done, seen);
    }

    /// One rising edge of a master the arbiter always grants.
    fn step(m: &mut Replay, cycle: u64) -> Option<(Transaction, Option<FaultKind>)> {
        m.begin_cycle(cycle);
        m.arbitration_request(cycle).then(|| m.issue_granted(cycle))
    }

    /// Replays `m` against a bus that finishes every attempt `lat` cycles
    /// after issue and honours injected faults (`SlaveError` fails the
    /// attempt, `Stall(n)` adds `n` cycles); the master sees each
    /// completion at the next rising edge, before its timeout sweep.
    fn run_fixed_latency(mut m: Replay, lat: u64) -> MasterReport {
        let mut pending: Vec<(TxnId, u64, Option<BusError>)> = Vec::new();
        let mut cycle = 0;
        while !m.is_finished() {
            assert!(cycle < 1_000, "replay did not finish");
            pending.retain(|&(id, due, error)| {
                let done = due < cycle;
                if done {
                    complete(&mut m, id, due, error, cycle);
                }
                !done
            });
            if let Some((txn, fault)) = step(&mut m, cycle) {
                let mut entry = (txn.id, cycle + lat, None);
                match fault {
                    Some(FaultKind::SlaveError) => entry.2 = Some(BusError::SlaveError(txn.addr)),
                    Some(FaultKind::Stall(n)) => entry.1 += u64::from(n),
                    None => {}
                }
                pending.push(entry);
            }
            cycle += 1;
        }
        m.take_report()
    }

    fn reads(n: u64) -> Vec<MasterOp> {
        (0..n).map(|i| read_op(0x100 + 4 * i)).collect()
    }

    #[test]
    fn issues_one_op_per_cycle_in_order() {
        let mut m = Replay::new(
            vec![read_op(0), read_op(4)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (t0, f0) = step(&mut m, 0).expect("first issue");
        assert_eq!(t0.id, TxnId(0));
        assert!(f0.is_none());
        let (t1, _) = step(&mut m, 1).expect("second issue");
        assert_eq!(t1.id, TxnId(1));
        assert!(step(&mut m, 2).is_none());
    }

    #[test]
    fn idle_before_delays_issue() {
        for (idle, issue) in [(2, 3), (3, 4)] {
            let mut m = Replay::new(
                vec![read_op(0), read_op(4).after_idle(idle)],
                OutstandingLimits::CORE_DEFAULT,
            );
            assert!(step(&mut m, 0).is_some());
            for c in 1..issue {
                assert!(step(&mut m, c).is_none(), "idle {idle}: issued at {c}");
            }
            let (second, _) = step(&mut m, issue).expect("second issue");
            let rec = m.record_mut(second.id).expect("records kept");
            assert_eq!(rec.issue_cycle, issue);
        }
    }

    /// Skipping to the wake is stepping every cycle in between: the
    /// wake is the gap's end, and the skipped cycles count it down.
    #[test]
    fn skipping_to_the_wake_counts_the_idle_gap_down() {
        let ops = vec![read_op(0), read_op(4).after_idle(5)];
        let mut stepped = Replay::new(ops.clone(), OutstandingLimits::CORE_DEFAULT);
        let mut skipped = Replay::new(ops, OutstandingLimits::CORE_DEFAULT);
        for m in [&mut stepped, &mut skipped] {
            assert!(step(m, 0).is_some());
        }
        assert_eq!(skipped.next_wake(0), 6);
        skipped.skip(1, 6);
        for c in 1..6 {
            assert!(step(&mut stepped, c).is_none());
        }
        let (a, _) = step(&mut stepped, 6).expect("gap over");
        let (b, _) = step(&mut skipped, 6).expect("gap over");
        assert_eq!(a, b);
        // Nothing left to issue: only a completion can wake it.
        assert_eq!(skipped.next_wake(6), u64::MAX);
    }

    #[test]
    fn limit_stall_and_release() {
        let limits = OutstandingLimits {
            instr_reads: 4,
            data_reads: 1,
            writes: 4,
        };
        let mut m = Replay::new(vec![read_op(0), read_op(4)], limits);
        let (t, _) = step(&mut m, 0).expect("first issue");
        assert!(step(&mut m, 1).is_none(), "stalled on limit");
        // Finished at the falling edge of cycle 1, seen at cycle 2: the
        // slot is free for the issue at cycle 2.
        complete(&mut m, t.id, 1, None, 2);
        assert!(step(&mut m, 2).is_some());

        // Latency 10 with a 4-deep read window: the 5th read must wait
        // for the 1st to complete.
        let report = run_fixed_latency(Replay::new(reads(5), OutstandingLimits::CORE_DEFAULT), 10);
        let (r0, r4) = (&report.records[0], &report.records[4]);
        assert!(r4.issue_cycle > r0.done_cycle.unwrap());
    }

    #[test]
    fn records_track_lifecycle() {
        let fetch = MasterOp {
            idle_before: 0,
            kind: AccessKind::InstrFetch,
            addr: Address::new(0x40),
            width: crate::DataWidth::W32,
            burst: BurstLen::B4,
            data: Vec::new().into(),
        };
        let mut m = Replay::new(
            vec![MasterOp::write(8, 0xDEAD_BEEF), fetch],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (write, _) = step(&mut m, 0).expect("issue");
        let (fetch, _) = step(&mut m, 1).expect("issue");
        m.record_mut(write.id)
            .expect("records kept")
            .addr_done_cycle = Some(0);
        complete(&mut m, write.id, 2, None, 3);
        complete(&mut m, fetch.id, 5, None, 6);
        assert!(m.is_finished());
        let records = m.take_report().records;
        let w = &records[0];
        assert_eq!(w.addr_done_cycle, Some(0));
        assert_eq!(w.done_cycle, Some(2));
        assert_eq!(w.latency(), Some(3));
        assert_eq!(
            w.data,
            vec![0xDEAD_BEEF],
            "a write record keeps its payload"
        );
        let f = &records[1];
        assert_eq!(f.kind, AccessKind::InstrFetch);
        assert_eq!(f.burst, BurstLen::B4);
        assert!(f.error.is_none());
    }

    #[test]
    fn read_beats_collect_in_order() {
        let mut m = Replay::new(
            vec![MasterOp::burst_read(0, BurstLen::B2)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (t, _) = step(&mut m, 0).expect("issue");
        m.record_mut(t.id).expect("records kept").data.push(0x11);
        m.record_mut(t.id).expect("records kept").data.push(0x22);
        complete(&mut m, t.id, 1, None, 2);
        assert_eq!(m.take_report().records[0].data, vec![0x11, 0x22]);
    }

    #[test]
    fn not_finished_while_in_flight() {
        let mut m = Replay::new(vec![read_op(0)], OutstandingLimits::CORE_DEFAULT);
        let (t, _) = step(&mut m, 0).expect("issue");
        assert!(!m.is_finished());
        complete(&mut m, t.id, 0, None, 1);
        assert!(m.is_finished());
    }

    #[test]
    fn planned_fault_resolves_at_issue() {
        let mut m = Replay::new(vec![read_op(0)], OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new().with_fault(0, OpFault::once(FaultKind::Stall(3))),
            RetryPolicy::NONE,
        );
        let (_, fault) = step(&mut m, 0).expect("issue");
        assert_eq!(fault, Some(FaultKind::Stall(3)));
        assert_eq!(m.fault_counters().injected, 1);
    }

    #[test]
    fn slave_error_schedules_retry_after_pickup_plus_backoff() {
        let mut m = Replay::new(vec![read_op(0x40)], OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new().with_fault(0, OpFault::once(FaultKind::SlaveError)),
            RetryPolicy::retries(2), // backoff base 2
        );
        let (t, fault) = step(&mut m, 0).expect("issue");
        assert_eq!(fault, Some(FaultKind::SlaveError));
        // Failed at cycle 4, seen at cycle 5; backoff(0) = 2, so the
        // reissue must not land before cycle 7.
        complete(
            &mut m,
            t.id,
            4,
            Some(BusError::SlaveError(Address::new(0x40))),
            5,
        );
        assert!(!m.is_finished(), "retry still pending");
        for c in 5..7 {
            assert!(step(&mut m, c).is_none(), "reissued too early at {c}");
        }
        let (t2, fault2) = step(&mut m, 7).expect("retry issues");
        assert_eq!(t2.addr, Address::new(0x40));
        assert!(fault2.is_none(), "once() fault does not refire");
        complete(&mut m, t2.id, 8, None, 9);
        assert!(m.is_finished());
        let report = m.take_report();
        assert_eq!(report.outcomes, vec![TxnOutcome::Ok]);
        assert_eq!(report.fault.retried, 1);

        // The same policy mid-stream, on a 2-cycle bus.
        let mut m = Replay::new(reads(3), OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError)),
            RetryPolicy::retries(3),
        );
        let report = run_fixed_latency(m, 2);
        assert_eq!(report.outcomes, vec![TxnOutcome::Ok; 3]);
        assert_eq!(report.fault.injected, 1);
        assert_eq!(report.fault.retried, 1);
        assert_eq!(report.fault.aborted, 0);
        // One record per attempt: 3 ops + 1 retry.
        assert_eq!(report.records.len(), 4);
        let failed = report
            .records
            .iter()
            .find(|r| r.error.is_some())
            .expect("the faulted attempt keeps its error record");
        let retried = report
            .records
            .iter()
            .rfind(|r| r.addr == failed.addr)
            .unwrap();
        assert!(
            retried.issue_cycle >= failed.done_cycle.unwrap() + 1 + 2,
            "retry at {} too close to failure at {}",
            retried.issue_cycle,
            failed.done_cycle.unwrap()
        );
    }

    #[test]
    fn exhausted_retries_settle_as_error() {
        let mut m = Replay::new(reads(1), OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new().with_fault(0, OpFault::always(FaultKind::SlaveError)),
            RetryPolicy::retries(2),
        );
        let report = run_fixed_latency(m, 0);
        assert_eq!(report.records.len(), 3); // initial + 2 retries
        assert!(matches!(
            report.outcomes[0],
            TxnOutcome::Error(BusError::SlaveError(_))
        ));
        assert_eq!(report.fault.retried, 2);
        assert_eq!(report.fault.injected, 3);
    }

    #[test]
    fn timeout_abandons_but_completion_still_lands() {
        let mut m = Replay::new(vec![read_op(0)], OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new(),
            RetryPolicy {
                timeout: Some(3),
                ..RetryPolicy::NONE
            },
        );
        let (t, _) = step(&mut m, 0).expect("issue");
        assert!(step(&mut m, 3).is_none());
        assert_eq!(m.fault_counters().aborted, 1);
        // The bus drains the transaction later; the outcome stays Aborted.
        complete(&mut m, t.id, 10, None, 11);
        assert!(m.is_finished());
        assert_eq!(m.take_report().outcomes, vec![TxnOutcome::Aborted]);
    }

    #[test]
    fn tear_aborts_unsettled_ops() {
        let mut m = Replay::new(
            vec![read_op(0), read_op(4)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (t, _) = step(&mut m, 0).expect("issue");
        complete(&mut m, t.id, 0, None, 1);
        m.tear_now();
        let report = m.take_report();
        assert_eq!(report.outcomes, vec![TxnOutcome::Ok, TxnOutcome::Aborted]);
        assert_eq!(report.fault.aborted, 1);
    }
}
