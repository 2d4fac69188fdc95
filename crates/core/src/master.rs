//! Master-side replay of stimulus against a TLM bus, and the run harness.

use hierbus_ec::record::TxnRecord;
use hierbus_ec::{
    AccessKind, BusError, BusStatus, FaultCounters, FaultKind, FaultPlan, MasterOp,
    OutstandingLimits, OutstandingTracker, RetryPolicy, Transaction, TxnCategory, TxnId,
    TxnOutcome,
};
use hierbus_sim::CycleSchedule;

/// The completion payload a bus hands back when a transaction is picked
/// up from the finish queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completed {
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

/// Result of polling an in-flight transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollStatus {
    /// Still in progress — poll again next cycle (the paper's `wait`).
    Pending,
    /// Finished; the completion payload (the paper's `ok`/`error`).
    Done(Completed),
}

/// The cycle-driven interface both TLM bus layers expose to a master.
///
/// The master calls [`issue`](CycleBus::issue)/[`poll`](CycleBus::poll)
/// at the rising clock edge and the kernel (or harness) calls
/// [`bus_process`](CycleBus::bus_process) at the falling edge — the
/// paper's clocking discipline.
pub trait CycleBus {
    /// Presents a new transaction. Returns
    /// [`BusStatus::Request`](hierbus_ec::BusStatus) when accepted.
    fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus;

    /// Polls an in-flight transaction; removes and returns it once done.
    fn poll(&mut self, id: TxnId) -> PollStatus;

    /// The bus process (falling edge).
    fn bus_process(&mut self, cycle: u64);

    /// True when the bus has no queued or in-progress work, allowing the
    /// harness to skip the bus process — the dynamic-sensitivity
    /// optimisation of the layer-2 model.
    fn is_idle(&self) -> bool;

    /// True if the bus process must run even on idle cycles. The layer-1
    /// bus returns true while frame emission is enabled: its power module
    /// watches the wires every cycle (handshake signals *fall* on the
    /// first idle cycle, and that transition costs energy), so the
    /// process stays statically sensitive like the paper's SC_METHOD.
    fn wants_every_cycle(&self) -> bool {
        false
    }

    /// True if at least one transaction is waiting in the finish queue.
    /// Purely an optimisation hint: the master skips per-transaction
    /// polling on cycles where nothing can have completed, which is
    /// observationally invisible — a poll only ever succeeds when the
    /// finish queue is non-empty. The conservative default keeps
    /// polling every cycle.
    fn has_finished(&self) -> bool {
        true
    }

    /// Hints that the master will discard read data (records disabled),
    /// so the bus may skip collecting per-beat read results. Purely an
    /// optimisation hint; buses may ignore it.
    fn discard_read_data(&mut self) {}

    /// Attaches an injected fault to the transaction just issued as
    /// `id`. Called by the master immediately after a successful
    /// [`issue`](CycleBus::issue); buses without fault support ignore
    /// it.
    fn inject(&mut self, id: TxnId, fault: FaultKind) {
        let _ = (id, fault);
    }

    /// Records an observability counter sample on the bus's trace
    /// collector, if it has one. Used by the harness to mirror the
    /// master's `fault.*` counters into the trace.
    fn obs_counter(&mut self, track: &'static str, cycle: u64, value: f64) {
        let _ = (track, cycle, value);
    }

    /// Hints the expected number of transactions so the bus can pre-size
    /// its bookkeeping and never reallocate on the issue path. Purely a
    /// capacity hint; buses may ignore it.
    fn reserve_transactions(&mut self, n: usize) {
        let _ = n;
    }
}

/// One in-flight attempt and the bookkeeping needed to judge it.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: TxnId,
    rec: usize,
    cat: TxnCategory,
    /// Stimulus position this attempt serves.
    op: usize,
    /// 0-based attempt number (0 = first issue, 1 = first retry, ...).
    attempt: u32,
    issue_cycle: u64,
    /// Timed out: the master no longer waits for it, but keeps polling
    /// so the bus drains to a defined idle state.
    abandoned: bool,
}

/// A scheduled reissue of a failed attempt.
#[derive(Debug, Clone, Copy)]
struct Retry {
    op: usize,
    attempt: u32,
    /// Earliest cycle the reissue may happen (completion + backoff).
    earliest: u64,
}

/// Replays a [`MasterOp`] list against a [`CycleBus`], enforcing the
/// one-issue-per-cycle rule and the outstanding-transaction ceilings, and
/// producing [`TxnRecord`]s directly comparable with the RTL reference's.
///
/// With a [`FaultPlan`] and [`RetryPolicy`] attached the master also
/// implements the robustness policy: faults resolved from the plan are
/// injected at issue time, slave errors are retried with bounded
/// backoff, attempts that outlive the timeout are abandoned (the bus
/// drains them naturally), and every stimulus op ends with a
/// [`TxnOutcome`].
#[derive(Debug)]
pub struct TlmMaster {
    ops: std::sync::Arc<[MasterOp]>,
    next_op: usize,
    idle_left: u32,
    next_id: TxnId,
    tracker: OutstandingTracker,
    records: Vec<TxnRecord>,
    in_flight: Vec<InFlight>,
    keep_records: bool,
    completed: u64,
    last_done_cycle: u64,
    plan: FaultPlan,
    policy: RetryPolicy,
    retries: Vec<Retry>,
    outcomes: Vec<Option<TxnOutcome>>,
    counters: FaultCounters,
}

impl TlmMaster {
    /// Creates a master for `ops` with the core's default limits.
    pub fn new(ops: impl Into<std::sync::Arc<[MasterOp]>>) -> Self {
        Self::with_limits(ops, OutstandingLimits::CORE_DEFAULT)
    }

    /// Creates a master with explicit limits.
    pub fn with_limits(
        ops: impl Into<std::sync::Arc<[MasterOp]>>,
        limits: OutstandingLimits,
    ) -> Self {
        let ops = ops.into();
        let idle_left = ops.first().map_or(0, |op| op.idle_before);
        let outcomes = vec![None; ops.len()];
        TlmMaster {
            ops,
            next_op: 0,
            idle_left,
            next_id: TxnId(0),
            tracker: OutstandingTracker::new(limits),
            records: Vec::new(),
            in_flight: Vec::new(),
            keep_records: true,
            completed: 0,
            last_done_cycle: 0,
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

    /// Sets the first transaction id this master will use. Multi-master
    /// systems give each master a disjoint id range (the DMA engine
    /// counts from [`hierbus_ec::dma::DMA_ID_BASE`]) so every span and
    /// phase event stays attributable to its master. Must be called
    /// before the first issue.
    pub fn set_id_base(&mut self, base: u64) {
        assert!(
            self.next_op == 0 && self.records.is_empty(),
            "id base must be configured before running"
        );
        self.next_id = TxnId(base);
    }

    /// Disables per-transaction record keeping (throughput measurement
    /// mode): only the completion count and the final cycle survive.
    pub fn disable_records(&mut self) {
        self.keep_records = false;
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The cycle of the latest completion seen so far.
    pub fn last_done_cycle(&self) -> u64 {
        self.last_done_cycle
    }

    /// The `fault.*` counters so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Per-op outcomes; `None` while the op is still unresolved.
    pub fn outcomes(&self) -> &[Option<TxnOutcome>] {
        &self.outcomes
    }

    /// Rising-edge step: picks up finished transactions (freeing limit
    /// slots), applies the timeout, then issues — a due retry first,
    /// else the next op if its idle gap has elapsed and a slot is free.
    ///
    /// Single-master form of the split interface: equivalent to
    /// [`begin_cycle`](Self::begin_cycle), then
    /// [`issue_granted`](Self::issue_granted) whenever
    /// [`arbitration_request`](Self::arbitration_request) raises — i.e.
    /// a bus whose arbiter grants this master unconditionally.
    pub fn rising_edge<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        self.begin_cycle(bus, cycle);
        if self.arbitration_request(cycle) {
            self.issue_granted(bus, cycle);
        }
    }

    /// Rising-edge bookkeeping that happens whether or not this master
    /// wins the bus: picks up completions first so a freed slot can be
    /// reused in the same cycle (matching the reference master's
    /// bookkeeping), then applies the timeout — abandoning attempts
    /// past their deadline. The bus is not cancelled on timeout; it
    /// drains the transaction on its own, so the FSM always returns to
    /// idle. A multi-master system calls this for every master before
    /// arbitrating.
    pub fn begin_cycle<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        self.pickup(bus, cycle);
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

    /// This master's request line for `cycle`: true when it has a
    /// transaction ready to issue (a due retry, or fresh stimulus whose
    /// idle gap has elapsed) *and* a free outstanding-limit slot for it.
    ///
    /// Consumes exactly the state an ungranted cycle consumes — an
    /// elapsed idle cycle is decremented here because the engine idles
    /// regardless of what the arbiter decides. Call once per cycle,
    /// after [`begin_cycle`](Self::begin_cycle); when the arbiter
    /// grants, follow up with [`issue_granted`](Self::issue_granted)
    /// in the same cycle.
    pub fn arbitration_request(&mut self, cycle: u64) -> bool {
        // A due retry has priority over fresh stimulus (and, like fresh
        // stimulus, waits head-of-line on a free limit slot).
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

    /// Issues the transaction [`arbitration_request`](Self::arbitration_request)
    /// raised for — the granted master's drive of the address channel.
    ///
    /// # Panics
    ///
    /// Panics if called without a raised request (nothing to issue or
    /// no limit slot).
    pub fn issue_granted<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        if let Some(pos) = self.due_retry(cycle) {
            let retry = self.retries[pos];
            let category = TxnCategory::of(self.ops[retry.op].kind);
            assert!(
                self.tracker.try_issue(category),
                "granted retry without a free limit slot"
            );
            self.retries.remove(pos);
            self.issue_attempt(bus, cycle, retry.op, retry.attempt, category);
            return;
        }
        let category = TxnCategory::of(self.ops[self.next_op].kind);
        assert!(
            self.tracker.try_issue(category),
            "granted issue without a free limit slot"
        );
        let op = self.next_op;
        self.issue_attempt(bus, cycle, op, 0, category);
        self.next_op += 1;
        self.idle_left = self.ops.get(self.next_op).map_or(0, |op| op.idle_before);
    }

    /// Polls every in-flight attempt and settles the finished ones. The
    /// reference master settles an outcome at the falling edge the
    /// transaction completes; this runs at the next rising edge, which
    /// is the same decision point — except at a card tear, where
    /// [`TlmSystem`] calls it once more so completions from already
    /// executed cycles are not spuriously aborted.
    pub fn pickup<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        if self.in_flight.is_empty() || !bus.has_finished() {
            return;
        }
        let mut i = 0;
        while i < self.in_flight.len() {
            let f = self.in_flight[i];
            match bus.poll(f.id) {
                PollStatus::Pending => i += 1,
                PollStatus::Done(done) => {
                    self.completed += 1;
                    self.last_done_cycle = self.last_done_cycle.max(done.done_cycle);
                    if self.keep_records {
                        let r = &mut self.records[f.rec];
                        r.addr_done_cycle = done.addr_done_cycle;
                        r.done_cycle = Some(done.done_cycle);
                        r.error = done.error;
                        if r.kind != AccessKind::DataWrite {
                            r.data = done.data;
                        }
                    }
                    self.tracker.complete(f.cat);
                    if !f.abandoned {
                        self.settle_attempt(f.op, f.attempt, done.error, cycle);
                    }
                    self.in_flight.swap_remove(i);
                }
            }
        }
    }

    /// Issues attempt `attempt` of op `op_idx` and injects its planned
    /// fault, if any.
    fn issue_attempt<B: CycleBus>(
        &mut self,
        bus: &mut B,
        cycle: u64,
        op_idx: usize,
        attempt: u32,
        category: TxnCategory,
    ) {
        let op = &self.ops[op_idx];
        let id = self.next_id;
        self.next_id = id.next();
        let txn = Transaction::new(id, op.kind, op.addr, op.width, op.burst, op.data.clone());
        let status = bus.issue(txn, cycle);
        debug_assert_eq!(status, BusStatus::Request, "bus rejected a legal issue");
        if !self.plan.is_empty() {
            if let Some(kind) = self.plan.resolve(op_idx, attempt) {
                self.counters.injected += 1;
                bus.inject(id, kind);
            }
        }
        let rec = self.records.len();
        if self.keep_records {
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
        }
        self.in_flight.push(InFlight {
            id,
            rec,
            cat: category,
            op: op_idx,
            attempt,
            issue_cycle: cycle,
            abandoned: false,
        });
    }

    /// Judges a finished (non-abandoned) attempt: schedule a retry for a
    /// retryable error with budget left, otherwise settle the outcome.
    fn settle_attempt(&mut self, op: usize, attempt: u32, error: Option<BusError>, cycle: u64) {
        match error {
            Some(BusError::SlaveError(_)) if attempt < self.policy.max_retries => {
                self.counters.retried += 1;
                self.retries.push(Retry {
                    op,
                    attempt: attempt + 1,
                    earliest: cycle + u64::from(self.policy.backoff(attempt)),
                });
            }
            Some(e) => self.outcomes[op] = Some(TxnOutcome::Error(e)),
            None => self.outcomes[op] = Some(TxnOutcome::Ok),
        }
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

    /// True once every op has been issued and picked up and no retry is
    /// pending.
    pub fn is_finished(&self) -> bool {
        self.next_op >= self.ops.len() && self.in_flight.is_empty() && self.retries.is_empty()
    }

    /// The records accumulated so far.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }
}

/// Summary of a completed TLM run.
#[derive(Debug, Clone)]
pub struct TlmReport {
    /// Bus cycles from cycle 0 through the last completion, inclusive.
    pub cycles: u64,
    /// Per-transaction lifecycle records (one per *attempt* when the
    /// retry policy reissues).
    pub records: Vec<TxnRecord>,
    /// How many falling-edge bus-process activations actually ran (idle
    /// cycles are skipped — the dynamic-sensitivity saving).
    pub bus_activations: u64,
    /// Final per-stimulus-op outcomes, parallel to the op list.
    pub outcomes: Vec<TxnOutcome>,
    /// Fault-injection and robustness counters.
    pub fault: FaultCounters,
}

/// Drives a [`TlmMaster`] and a [`CycleBus`] cycle by cycle.
///
/// See the [crate example](crate) for typical use. A per-cycle `hook`
/// closure receives the bus after each bus-process activation so energy
/// models can drain frames or phase events.
#[derive(Debug)]
pub struct TlmSystem<B> {
    bus: B,
    master: TlmMaster,
    cycle: u64,
    bus_activations: u64,
    tear: CycleSchedule<()>,
    torn: bool,
    sampled: FaultCounters,
    /// True once a fault plan/policy is attached; the per-cycle counter
    /// sampling is skipped entirely on clean runs.
    faults_configured: bool,
}

impl<B: CycleBus> TlmSystem<B> {
    /// Creates a system replaying `ops` on `bus`.
    pub fn new(mut bus: B, ops: impl Into<std::sync::Arc<[MasterOp]>>) -> Self {
        let ops = ops.into();
        bus.reserve_transactions(ops.len());
        TlmSystem {
            bus,
            master: TlmMaster::new(ops),
            cycle: 0,
            bus_activations: 0,
            tear: CycleSchedule::new(),
            torn: false,
            sampled: FaultCounters::default(),
            faults_configured: false,
        }
    }

    /// Attaches a fault plan and robustness policy; builder-style. Must
    /// be called before the first cycle.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        self.tear = CycleSchedule::new();
        if let Some(tc) = plan.tear_cycle {
            self.tear.at(tc, ());
        }
        self.master.set_faults(plan, policy);
        self.faults_configured = true;
        self
    }

    /// Disables per-transaction record keeping (throughput measurement
    /// mode); [`TlmReport::records`] will be empty but cycle and
    /// completion counts stay correct. The bus is also told it may
    /// discard read data, since nothing will keep it.
    pub fn disable_records(&mut self) {
        self.master.disable_records();
        self.bus.discard_read_data();
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.master.completed()
    }

    /// Shared access to the bus.
    pub fn bus(&self) -> &B {
        &self.bus
    }

    /// Exclusive access to the bus.
    pub fn bus_mut(&mut self) -> &mut B {
        &mut self.bus
    }

    /// The records accumulated so far.
    pub fn records(&self) -> &[TxnRecord] {
        self.master.records()
    }

    /// True once the card has been torn.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Executes one bus cycle: master at the rising edge, bus process at
    /// the falling edge (skipped while the bus is idle), then `hook`.
    pub fn step_cycle(&mut self, hook: &mut impl FnMut(&mut B)) {
        self.master.rising_edge(&mut self.bus, self.cycle);
        self.sample_fault_counters();
        if self.bus.wants_every_cycle() || !self.bus.is_idle() {
            self.bus.bus_process(self.cycle);
            self.bus_activations += 1;
            hook(&mut self.bus);
        }
        self.cycle += 1;
    }

    /// Mirrors the master's fault counters into the bus trace whenever
    /// they change.
    fn sample_fault_counters(&mut self) {
        if !self.faults_configured {
            return;
        }
        let c = self.master.fault_counters();
        if c == self.sampled {
            return;
        }
        if c.injected != self.sampled.injected {
            self.bus
                .obs_counter("fault.injected", self.cycle, c.injected as f64);
        }
        if c.retried != self.sampled.retried {
            self.bus
                .obs_counter("fault.retried", self.cycle, c.retried as f64);
        }
        if c.aborted != self.sampled.aborted {
            self.bus
                .obs_counter("fault.aborted", self.cycle, c.aborted as f64);
        }
        self.sampled = c;
    }

    /// True once the stimulus has fully completed.
    pub fn is_finished(&self) -> bool {
        self.master.is_finished()
    }

    /// Runs to completion — or to the card tear, whichever is first.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus does not finish within `max_cycles`.
    pub fn run(&mut self, max_cycles: u64, mut hook: impl FnMut(&mut B)) -> TlmReport {
        while !self.master.is_finished() {
            if !self.tear.pop_due(self.cycle).is_empty() {
                // Power is gone: the cycle at the tear never executes.
                self.torn = true;
                break;
            }
            assert!(
                self.cycle < max_cycles,
                "bus deadlock: {max_cycles} cycles without completion"
            );
            self.step_cycle(&mut hook);
        }
        if self.torn {
            // Completions from already-executed cycles settled at the
            // reference's falling edge; pick them up before aborting the
            // rest, so the tear boundary agrees across layers.
            let cycle = self.cycle;
            self.master.pickup(&mut self.bus, cycle);
            self.master.tear_now();
            self.sample_fault_counters();
        }
        let cycles = if self.master.completed() > 0 {
            self.master.last_done_cycle() + 1
        } else {
            0
        };
        TlmReport {
            cycles,
            records: self.master.records().to_vec(),
            bus_activations: self.bus_activations,
            outcomes: self
                .master
                .outcomes()
                .iter()
                .map(|o| o.expect("all ops settled at end of run"))
                .collect(),
            fault: self.master.fault_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::{Address, BurstLen, DataWidth, OpFault};
    use std::collections::HashMap;

    /// A bus that completes everything `LAT` cycles after issue, and
    /// honours injected faults: `SlaveError` fails the transaction,
    /// `Stall(n)` adds `n` cycles of latency.
    #[derive(Debug, Default)]
    struct FixedLatencyBus<const LAT: u64> {
        pending: HashMap<TxnId, (u64, Option<BusError>)>,
        cycle: u64,
        processed: u64,
    }

    impl<const LAT: u64> CycleBus for FixedLatencyBus<LAT> {
        fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus {
            self.pending.insert(txn.id, (cycle + LAT, None));
            BusStatus::Request
        }
        fn inject(&mut self, id: TxnId, fault: FaultKind) {
            let entry = self.pending.get_mut(&id).expect("inject follows issue");
            match fault {
                FaultKind::SlaveError => entry.1 = Some(BusError::SlaveError(Address::new(0))),
                FaultKind::Stall(n) => entry.0 += u64::from(n),
            }
        }
        fn poll(&mut self, id: TxnId) -> PollStatus {
            let (due, error) = self.pending[&id];
            if self.cycle > due {
                self.pending.remove(&id);
                PollStatus::Done(Completed {
                    addr_done_cycle: Some(due),
                    done_cycle: due,
                    error,
                    data: vec![0xAB],
                })
            } else {
                PollStatus::Pending
            }
        }
        fn bus_process(&mut self, cycle: u64) {
            self.cycle = cycle + 1; // completions visible next rising edge
            self.processed += 1;
        }
        fn is_idle(&self) -> bool {
            self.pending.is_empty()
        }
    }

    fn ops(n: u64) -> Vec<MasterOp> {
        (0..n).map(|i| MasterOp::read(0x100 + 4 * i)).collect()
    }

    #[test]
    fn runs_to_completion_and_counts_cycles() {
        let mut sys = TlmSystem::new(FixedLatencyBus::<0>::default(), ops(3));
        let report = sys.run(100, |_| {});
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.cycles, 3);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.issue_cycle, i as u64);
            assert_eq!(r.done_cycle, Some(i as u64));
            assert_eq!(r.data, vec![0xAB]);
        }
        assert_eq!(report.outcomes, vec![TxnOutcome::Ok; 3]);
        assert!(report.fault.is_zero());
    }

    #[test]
    fn idle_gaps_delay_issue() {
        let mut stim = ops(2);
        stim[1].idle_before = 3;
        let mut sys = TlmSystem::new(FixedLatencyBus::<0>::default(), stim);
        let report = sys.run(100, |_| {});
        assert_eq!(report.records[1].issue_cycle, 4);
    }

    #[test]
    fn limit_stalls_are_respected() {
        // Latency 10 with a 4-deep read window: the 5th read must wait
        // for the 1st to be picked up.
        let mut sys = TlmSystem::new(FixedLatencyBus::<10>::default(), ops(5));
        let report = sys.run(1_000, |_| {});
        let r4 = &report.records[4];
        let r0 = &report.records[0];
        assert!(r4.issue_cycle > r0.done_cycle.unwrap());
    }

    #[test]
    fn write_records_keep_their_payload() {
        let stim = vec![MasterOp::write(0x10, 0xDEAD_BEEF)];
        let mut sys = TlmSystem::new(FixedLatencyBus::<0>::default(), stim);
        let report = sys.run(100, |_| {});
        assert_eq!(report.records[0].data, vec![0xDEAD_BEEF]);
    }

    #[test]
    fn hook_runs_once_per_bus_activation() {
        let mut sys = TlmSystem::new(FixedLatencyBus::<0>::default(), ops(2));
        let mut hooks = 0u64;
        let report = sys.run(100, |_| hooks += 1);
        assert_eq!(hooks, report.bus_activations);
        assert!(hooks > 0);
    }

    #[test]
    fn master_records_match_txn_shape() {
        let stim = vec![MasterOp {
            idle_before: 0,
            kind: AccessKind::InstrFetch,
            addr: Address::new(0x40),
            width: DataWidth::W32,
            burst: BurstLen::B4,
            data: Vec::new().into(),
        }];
        let mut sys = TlmSystem::new(FixedLatencyBus::<1>::default(), stim);
        let report = sys.run(100, |_| {});
        let r = &report.records[0];
        assert_eq!(r.kind, AccessKind::InstrFetch);
        assert_eq!(r.burst, BurstLen::B4);
        assert!(r.error.is_none());
    }

    #[test]
    fn retry_reissues_after_backoff_and_succeeds() {
        let plan = FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError));
        let mut sys = TlmSystem::new(FixedLatencyBus::<2>::default(), ops(3))
            .with_faults(plan, RetryPolicy::retries(3));
        let report = sys.run(1_000, |_| {});
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
        // Reissue respects the backoff gap after the failure was seen.
        assert!(
            retried.issue_cycle >= failed.done_cycle.unwrap() + 1 + 2,
            "retry at {} too close to failure at {}",
            retried.issue_cycle,
            failed.done_cycle.unwrap()
        );
    }

    #[test]
    fn exhausted_retries_settle_as_error() {
        let plan = FaultPlan::new().with_fault(0, OpFault::always(FaultKind::SlaveError));
        let mut sys = TlmSystem::new(FixedLatencyBus::<0>::default(), ops(1))
            .with_faults(plan, RetryPolicy::retries(2));
        let report = sys.run(1_000, |_| {});
        assert_eq!(report.records.len(), 3); // initial + 2 retries
        assert!(matches!(
            report.outcomes[0],
            TxnOutcome::Error(BusError::SlaveError(_))
        ));
        assert_eq!(report.fault.retried, 2);
        assert_eq!(report.fault.injected, 3);
    }

    #[test]
    fn timeout_aborts_but_bus_still_drains() {
        let plan = FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(50)));
        let policy = RetryPolicy {
            timeout: Some(8),
            ..RetryPolicy::NONE
        };
        let mut sys =
            TlmSystem::new(FixedLatencyBus::<2>::default(), ops(2)).with_faults(plan, policy);
        let report = sys.run(1_000, |_| {});
        assert_eq!(report.outcomes[0], TxnOutcome::Aborted);
        assert_eq!(report.outcomes[1], TxnOutcome::Ok);
        assert_eq!(report.fault.aborted, 1);
        // The abandoned transaction was still drained from the bus.
        assert!(sys.bus().is_idle());
        assert!(sys.is_finished());
    }

    #[test]
    fn tear_truncates_and_aborts_the_rest() {
        let plan = FaultPlan::new().with_tear(2);
        let mut sys = TlmSystem::new(FixedLatencyBus::<10>::default(), ops(3))
            .with_faults(plan, RetryPolicy::NONE);
        let report = sys.run(1_000, |_| {});
        assert!(sys.torn());
        assert_eq!(report.outcomes, vec![TxnOutcome::Aborted; 3]);
        assert_eq!(report.fault.aborted, 3);
        assert_eq!(report.cycles, 0); // nothing completed before the tear
    }
}
