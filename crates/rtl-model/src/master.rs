//! The stimulus-driven master (bus interface unit).

use hierbus_ec::{
    AccessKind, BusError, FaultCounters, FaultKind, FaultPlan, MasterOp, OutstandingLimits,
    OutstandingTracker, RetryPolicy, Transaction, TxnCategory, TxnId, TxnOutcome,
};

pub use hierbus_ec::record::TxnRecord;

/// Per-attempt bookkeeping, parallel to the record list.
#[derive(Debug, Clone, Copy)]
struct AttemptMeta {
    /// Stimulus position this attempt serves.
    op: usize,
    /// 0-based attempt number (0 = first issue, 1 = first retry, ...).
    attempt: u32,
    /// Timed out: the master no longer waits for it, but the bus still
    /// drains the transaction to its defined idle state.
    abandoned: bool,
}

/// A scheduled reissue of a failed attempt.
#[derive(Debug, Clone, Copy)]
struct Retry {
    op: usize,
    attempt: u32,
    /// Earliest cycle the reissue may happen (pickup + backoff).
    earliest: u64,
}

/// The master: replays a [`MasterOp`] stimulus list, enforcing the
/// one-issue-per-cycle rule and the outstanding-transaction ceilings, and
/// records every transaction's lifetime.
///
/// With a [`FaultPlan`] and [`RetryPolicy`] attached
/// ([`set_faults`](Self::set_faults)) the master mirrors the TLM masters' robustness
/// policy exactly: slave errors are retried with bounded backoff
/// (reissue no earlier than the cycle after completion plus the backoff
/// gap — the cycle a TLM master would pick the failure up), attempts
/// past the timeout are abandoned, and every stimulus op settles to a
/// [`TxnOutcome`].
#[derive(Debug)]
pub struct RtlMaster {
    ops: std::sync::Arc<[MasterOp]>,
    next_op: usize,
    idle_left: u32,
    next_id: TxnId,
    tracker: OutstandingTracker,
    records: Vec<TxnRecord>,
    meta: Vec<AttemptMeta>,
    /// Completions seen this cycle; their limit slots free next cycle
    /// (the master picks results up on its next interface call).
    pending_frees: Vec<TxnCategory>,
    plan: FaultPlan,
    policy: RetryPolicy,
    retries: Vec<Retry>,
    outcomes: Vec<Option<TxnOutcome>>,
    counters: FaultCounters,
}

impl RtlMaster {
    /// Creates a master that will replay `ops` under the given limits.
    pub fn new(ops: impl Into<std::sync::Arc<[MasterOp]>>, limits: OutstandingLimits) -> Self {
        let ops = ops.into();
        let idle_left = ops.first().map_or(0, |op| op.idle_before);
        let outcomes = vec![None; ops.len()];
        RtlMaster {
            ops,
            next_op: 0,
            idle_left,
            next_id: TxnId(0),
            tracker: OutstandingTracker::new(limits),
            records: Vec::new(),
            meta: Vec::new(),
            pending_frees: Vec::new(),
            plan: FaultPlan::new(),
            policy: RetryPolicy::NONE,
            retries: Vec::new(),
            outcomes,
            counters: FaultCounters::default(),
        }
    }

    /// Attaches a fault plan and robustness policy. Must be called
    /// before the first cycle.
    pub fn set_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        assert_eq!(self.next_op, 0, "faults must be configured before running");
        self.plan = plan;
        self.policy = policy;
    }

    /// Sets the base transaction id. In a multi-master system each
    /// master gets a disjoint id window (e.g. the DMA engine starts at
    /// `DMA_ID_BASE`) so any trace id resolves to its master. Must be
    /// called before the first issue.
    pub fn set_id_base(&mut self, base: u64) {
        assert!(
            self.next_op == 0 && self.records.is_empty(),
            "id base must be set before the first issue"
        );
        self.next_id = TxnId(base);
    }

    /// The `fault.*` counters so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Per-op outcomes; `None` while the op is still unresolved.
    pub fn outcomes(&self) -> &[Option<TxnOutcome>] {
        &self.outcomes
    }

    /// Rising-edge step: frees limit slots of last cycle's completions,
    /// applies the timeout, then issues — a due retry first, else the
    /// next op. Returns the transaction to place on the bus together
    /// with the fault resolved from the plan for this attempt, if one
    /// issues this cycle.
    ///
    /// Equivalent to [`begin_cycle`](Self::begin_cycle) +
    /// [`arbitration_request`](Self::arbitration_request) + (on a true
    /// request line) [`issue_granted`](Self::issue_granted) — the
    /// single-master fast path where the grant is unconditional.
    pub fn rising_edge(&mut self, cycle: u64) -> Option<(usize, Transaction, Option<FaultKind>)> {
        self.begin_cycle(cycle);
        if self.arbitration_request(cycle) {
            Some(self.issue_granted(cycle))
        } else {
            None
        }
    }

    /// Rising-edge bookkeeping shared by granted and ungranted cycles:
    /// frees limit slots of last cycle's completions and applies the
    /// timeout. A multi-master system runs this on every master each
    /// cycle before arbitration.
    pub fn begin_cycle(&mut self, cycle: u64) {
        for cat in self.pending_frees.drain(..) {
            self.tracker.complete(cat);
        }

        // Timeout: abandon in-flight attempts past their deadline. The
        // bus is not cancelled — it drains the transaction on its own.
        if let Some(t) = self.policy.timeout {
            for (r, m) in self.records.iter().zip(self.meta.iter_mut()) {
                if r.done_cycle.is_none() && !m.abandoned && cycle >= r.issue_cycle + t {
                    m.abandoned = true;
                    self.outcomes[m.op] = Some(TxnOutcome::Aborted);
                    self.counters.aborted += 1;
                }
            }
        }
    }

    /// Drives the request line for this cycle: true when the master has
    /// an issuable attempt — a due retry or fresh stimulus with a free
    /// limit slot. A fresh op's idle countdown is consumed here, on the
    /// request evaluation, so a lost arbitration costs the same idle
    /// budget as a single-master stall would.
    pub fn arbitration_request(&mut self, cycle: u64) -> bool {
        // A due retry has priority over fresh stimulus (and, like fresh
        // stimulus, waits head-of-line on a free limit slot). The fresh
        // op's idle countdown does not advance on a retry cycle —
        // matching the TLM masters.
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
        let category = TxnCategory::of(self.ops[self.next_op].kind);
        self.tracker.can_issue(category)
    }

    /// Issues the attempt whose request line won arbitration this
    /// cycle. Must follow an
    /// [`arbitration_request`](Self::arbitration_request) that returned
    /// true in the same cycle. Returns the record index, the transaction to place on
    /// the bus, and the fault resolved for this attempt.
    pub fn issue_granted(&mut self, cycle: u64) -> (usize, Transaction, Option<FaultKind>) {
        if let Some(pos) = self.due_retry(cycle) {
            let retry = self.retries[pos];
            let category = TxnCategory::of(self.ops[retry.op].kind);
            assert!(
                self.tracker.try_issue(category),
                "granted retry without a free limit slot"
            );
            self.retries.remove(pos);
            return self.issue_attempt(cycle, retry.op, retry.attempt);
        }
        let op = self.next_op;
        let category = TxnCategory::of(self.ops[op].kind);
        assert!(
            self.tracker.try_issue(category),
            "granted issue without a free limit slot"
        );
        let issued = self.issue_attempt(cycle, op, 0);
        self.next_op += 1;
        self.idle_left = self.ops.get(self.next_op).map_or(0, |op| op.idle_before);
        issued
    }

    /// Builds the record and metadata of attempt `attempt` of `op_idx`.
    fn issue_attempt(
        &mut self,
        cycle: u64,
        op_idx: usize,
        attempt: u32,
    ) -> (usize, Transaction, Option<FaultKind>) {
        let op = &self.ops[op_idx];
        let id = self.next_id;
        self.next_id = id.next();
        let txn = Transaction::new(id, op.kind, op.addr, op.width, op.burst, op.data.clone());
        let fault = self.plan.resolve(op_idx, attempt);
        if fault.is_some() {
            self.counters.injected += 1;
        }
        let rec_idx = self.records.len();
        self.records.push(TxnRecord {
            id,
            kind: op.kind,
            addr: op.addr,
            width: op.width,
            burst: op.burst,
            issue_cycle: cycle,
            addr_done_cycle: None,
            done_cycle: None,
            error: None,
            data: if op.kind == AccessKind::DataWrite {
                op.data.to_vec()
            } else {
                Vec::new()
            },
        });
        self.meta.push(AttemptMeta {
            op: op_idx,
            attempt,
            abandoned: false,
        });
        (rec_idx, txn, fault)
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

    /// Records an address-phase completion.
    pub(crate) fn address_done(&mut self, rec: usize, cycle: u64) {
        self.records[rec].addr_done_cycle = Some(cycle);
    }

    /// Records a completed read beat's data.
    pub fn read_beat(&mut self, rec: usize, beat: u32, data: u32) {
        let rec = &mut self.records[rec];
        debug_assert_eq!(rec.data.len(), beat as usize, "beats arrive in order");
        rec.data.push(data);
    }

    /// Records transaction completion (successful or errored); the limit
    /// slot frees on the next rising edge. Non-abandoned attempts are
    /// judged: a retryable error with budget left schedules a reissue no
    /// earlier than `cycle + 1 + backoff` (a TLM master picks the
    /// completion up at the next rising edge, so the RTL reference must
    /// not reissue sooner), anything else settles the op's outcome.
    pub fn complete(&mut self, rec: usize, cycle: u64, error: Option<BusError>) {
        let r = &mut self.records[rec];
        debug_assert!(r.done_cycle.is_none(), "{} completed twice", r.id);
        r.done_cycle = Some(cycle);
        r.error = error;
        self.pending_frees.push(TxnCategory::of(r.kind));
        let m = self.meta[rec];
        if m.abandoned {
            return;
        }
        match error {
            Some(BusError::SlaveError(_)) if m.attempt < self.policy.max_retries => {
                self.counters.retried += 1;
                self.retries.push(Retry {
                    op: m.op,
                    attempt: m.attempt + 1,
                    earliest: cycle + 1 + u64::from(self.policy.backoff(m.attempt)),
                });
            }
            Some(e) => self.outcomes[m.op] = Some(TxnOutcome::Error(e)),
            None => self.outcomes[m.op] = Some(TxnOutcome::Ok),
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
        self.next_op >= self.ops.len()
            && self.records.iter().all(|r| r.done_cycle.is_some())
            && self.retries.is_empty()
    }

    /// The transaction records accumulated so far.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// The outstanding-transaction tracker (for occupancy diagnostics).
    pub fn tracker(&self) -> &OutstandingTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::BurstLen;

    fn read_op(addr: u64) -> MasterOp {
        MasterOp::read(addr)
    }

    #[test]
    fn issues_one_op_per_cycle_in_order() {
        let mut m = RtlMaster::new(
            vec![read_op(0), read_op(4)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (r0, t0, f0) = m.rising_edge(0).expect("first issue");
        assert_eq!(r0, 0);
        assert_eq!(t0.id, TxnId(0));
        assert!(f0.is_none());
        let (r1, t1, _) = m.rising_edge(1).expect("second issue");
        assert_eq!(r1, 1);
        assert_eq!(t1.id, TxnId(1));
        assert!(m.rising_edge(2).is_none());
    }

    #[test]
    fn idle_before_delays_issue() {
        let mut m = RtlMaster::new(
            vec![read_op(0), read_op(4).after_idle(2)],
            OutstandingLimits::CORE_DEFAULT,
        );
        assert!(m.rising_edge(0).is_some());
        assert!(m.rising_edge(1).is_none());
        assert!(m.rising_edge(2).is_none());
        assert!(m.rising_edge(3).is_some());
        assert_eq!(m.records()[1].issue_cycle, 3);
    }

    #[test]
    fn limit_stall_and_release() {
        let limits = OutstandingLimits {
            instr_reads: 4,
            data_reads: 1,
            writes: 4,
        };
        let mut m = RtlMaster::new(vec![read_op(0), read_op(4)], limits);
        let (rec, _, _) = m.rising_edge(0).expect("first issue");
        assert!(m.rising_edge(1).is_none(), "stalled on limit");
        m.complete(rec, 1, None);
        // Slot frees at the next rising edge, so issue succeeds at cycle 2.
        assert!(m.rising_edge(2).is_some());
    }

    #[test]
    fn records_track_lifecycle() {
        let mut m = RtlMaster::new(
            vec![MasterOp::write(8, 0xAB)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (rec, _, _) = m.rising_edge(0).expect("issue");
        m.address_done(rec, 0);
        m.complete(rec, 2, None);
        let r = &m.records()[0];
        assert_eq!(r.addr_done_cycle, Some(0));
        assert_eq!(r.done_cycle, Some(2));
        assert_eq!(r.latency(), Some(3));
        assert!(m.is_finished());
    }

    #[test]
    fn read_beats_collect_in_order() {
        let mut m = RtlMaster::new(
            vec![MasterOp::burst_read(0, BurstLen::B2)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (rec, _, _) = m.rising_edge(0).expect("issue");
        m.read_beat(rec, 0, 0x11);
        m.read_beat(rec, 1, 0x22);
        assert_eq!(m.records()[0].data, vec![0x11, 0x22]);
    }

    #[test]
    fn not_finished_while_in_flight() {
        let mut m = RtlMaster::new(vec![read_op(0)], OutstandingLimits::CORE_DEFAULT);
        let (rec, _, _) = m.rising_edge(0).expect("issue");
        assert!(!m.is_finished());
        m.complete(rec, 0, None);
        assert!(m.is_finished());
    }

    #[test]
    fn planned_fault_resolves_at_issue() {
        use hierbus_ec::{FaultPlan, OpFault};
        let mut m = RtlMaster::new(vec![read_op(0)], OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new().with_fault(0, OpFault::once(FaultKind::Stall(3))),
            RetryPolicy::NONE,
        );
        let (_, _, fault) = m.rising_edge(0).expect("issue");
        assert_eq!(fault, Some(FaultKind::Stall(3)));
        assert_eq!(m.fault_counters().injected, 1);
    }

    #[test]
    fn slave_error_schedules_retry_after_pickup_plus_backoff() {
        use hierbus_ec::{Address, FaultPlan, OpFault};
        let mut m = RtlMaster::new(vec![read_op(0x40)], OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new().with_fault(0, OpFault::once(FaultKind::SlaveError)),
            RetryPolicy::retries(2), // backoff base 2
        );
        let (rec, _, fault) = m.rising_edge(0).expect("issue");
        assert_eq!(fault, Some(FaultKind::SlaveError));
        m.complete(rec, 4, Some(BusError::SlaveError(Address::new(0x40))));
        assert!(!m.is_finished(), "retry still pending");
        // A TLM master picks the failure up at cycle 5; backoff(0) = 2,
        // so the reissue must not land before cycle 7.
        for c in 5..7 {
            assert!(m.rising_edge(c).is_none(), "reissued too early at {c}");
        }
        let (rec2, txn2, fault2) = m.rising_edge(7).expect("retry issues");
        assert_eq!(txn2.addr, Address::new(0x40));
        assert!(fault2.is_none(), "once() fault does not refire");
        m.complete(rec2, 8, None);
        assert!(m.is_finished());
        assert_eq!(m.outcomes()[0], Some(TxnOutcome::Ok));
        assert_eq!(m.fault_counters().retried, 1);
    }

    #[test]
    fn timeout_abandons_but_completion_still_lands() {
        use hierbus_ec::FaultPlan;
        let mut m = RtlMaster::new(vec![read_op(0)], OutstandingLimits::CORE_DEFAULT);
        m.set_faults(
            FaultPlan::new(),
            RetryPolicy {
                timeout: Some(3),
                ..RetryPolicy::NONE
            },
        );
        let (rec, _, _) = m.rising_edge(0).expect("issue");
        assert!(m.rising_edge(3).is_none());
        assert_eq!(m.outcomes()[0], Some(TxnOutcome::Aborted));
        assert_eq!(m.fault_counters().aborted, 1);
        // The bus drains the transaction later; the outcome stays Aborted.
        m.complete(rec, 10, None);
        assert_eq!(m.outcomes()[0], Some(TxnOutcome::Aborted));
        assert!(m.is_finished());
    }

    #[test]
    fn tear_aborts_unsettled_ops() {
        let mut m = RtlMaster::new(
            vec![read_op(0), read_op(4)],
            OutstandingLimits::CORE_DEFAULT,
        );
        let (rec, _, _) = m.rising_edge(0).expect("issue");
        m.complete(rec, 0, None);
        m.tear_now();
        assert_eq!(m.outcomes()[0], Some(TxnOutcome::Ok));
        assert_eq!(m.outcomes()[1], Some(TxnOutcome::Aborted));
        assert_eq!(m.fault_counters().aborted, 1);
    }
}
