//! Master-side replay of stimulus against a TLM bus, and the one system
//! that steps any number of masters against it.

use hierbus_ec::record::{MasterReport, TxnRecord};
use hierbus_ec::{
    AccessKind, Arbiter, ArbiterStats, ArbitrationPolicy, BusError, BusStatus, FaultCounters,
    FaultKind, FaultPlan, MasterOp, MultiScenario, OutstandingLimits, OutstandingTracker,
    RetryPolicy, Transaction, TxnCategory, TxnId, TxnOutcome, DMA_ID_BASE,
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

    /// Rising-edge step: picks up finished transactions (freeing limit
    /// slots), applies the timeout, then issues — a due retry first,
    /// else the next op if its idle gap has elapsed and a slot is free.
    ///
    /// Single-master form of the split interface: equivalent to
    /// [`begin_cycle`](Self::begin_cycle), then
    /// [`issue_granted`](Self::issue_granted) whenever
    /// [`arbitration_request`](Self::arbitration_request) raises — i.e.
    /// a bus whose arbiter grants this master unconditionally, which is
    /// how [`TlmSystem`] steps a lone master.
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
    /// idle. With several masters, [`TlmSystem`] calls this for every
    /// master before arbitrating.
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

    /// Moves this master's slice of the run report out once every op
    /// has settled, leaving its records and outcomes empty: a long
    /// run's records move into the report uncopied, and its pending
    /// outcome list is freed as soon as it is converted.
    fn take_report(&mut self) -> MasterReport {
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

/// Summary of a completed TLM run, in the shape of the RTL reference's
/// run report: the master-side fields concatenated or summed in master
/// order, then the per-master slices and the arbitration record.
#[derive(Debug, Clone)]
pub struct TlmReport {
    /// Bus cycles from cycle 0 through the last completion of any
    /// master, inclusive.
    pub cycles: u64,
    /// How many falling-edge bus-process activations actually ran (idle
    /// cycles are skipped — the dynamic-sensitivity saving).
    pub bus_activations: u64,
    /// Per-transaction lifecycle records (one per *attempt* when the
    /// retry policy reissues), concatenated in master order.
    pub records: Vec<TxnRecord>,
    /// Final per-stimulus-op outcomes, concatenated in master order.
    pub outcomes: Vec<TxnOutcome>,
    /// Fault-injection and robustness counters, summed over masters.
    pub fault: FaultCounters,
    /// One slice per master, in master order.
    pub masters: Vec<MasterReport>,
    /// The grant log: `(cycle, master)` per grant, in cycle order. A
    /// lone master is never arbitrated, so its log stays empty.
    pub grants: Vec<(u64, usize)>,
    /// Arbitration statistics (per-master grants/waits, contention);
    /// all zero for a lone master.
    pub stats: ArbiterStats,
}

impl TlmReport {
    /// Assembles the report of `masters` once every op has settled,
    /// moving their records and outcomes out — shared by the cycle loop
    /// and the kernel-driven path.
    pub(crate) fn assemble(
        masters: &mut [TlmMaster],
        bus_activations: u64,
        arbiter: &Arbiter,
    ) -> Self {
        let cycles = masters
            .iter()
            .filter(|m| m.completed() > 0)
            .map(|m| m.last_done_cycle() + 1)
            .max()
            .unwrap_or(0);
        let masters: Vec<MasterReport> = masters.iter_mut().map(TlmMaster::take_report).collect();
        let records: Vec<&[TxnRecord]> = masters.iter().map(|m| &m.records[..]).collect();
        let outcomes: Vec<&[TxnOutcome]> = masters.iter().map(|m| &m.outcomes[..]).collect();
        TlmReport {
            cycles,
            bus_activations,
            records: records.concat(),
            outcomes: outcomes.concat(),
            fault: masters.iter().map(|m| m.fault).sum(),
            masters,
            grants: arbiter.log().to_vec(),
            stats: arbiter.stats().clone(),
        }
    }
}

/// Drives [`TlmMaster`]s against one [`CycleBus`] cycle by cycle — the
/// paper's §3.1 discipline: masters at the rising edge, the bus process
/// at the falling edge.
///
/// Several masters share the bus behind an [`Arbiter`]: every master
/// runs its rising-edge bookkeeping ([`TlmMaster::begin_cycle`]) and
/// drives its request line ([`TlmMaster::arbitration_request`]), and the
/// arbiter grants at most one, which issues
/// ([`TlmMaster::issue_granted`]). Both TLM buses consume issues through
/// FIFO queues, so the grant order fully determines bus behaviour and a
/// layer-1 run is cycle-exact against the RTL reference whenever their
/// grant logs agree. A lone master is granted whenever it requests, so
/// it skips the arbiter and steps through [`TlmMaster::rising_edge`].
///
/// See the [crate example](crate) for typical use. A per-cycle `hook`
/// closure receives the bus after each bus-process activation so energy
/// models can drain frames or phase events.
#[derive(Debug)]
pub struct TlmSystem<B> {
    bus: B,
    masters: Vec<TlmMaster>,
    arbiter: Arbiter,
    /// Scratch request-line vector, reused every cycle.
    requests: Vec<bool>,
    cycle: u64,
    bus_activations: u64,
    tear: CycleSchedule<()>,
    /// The cycle the card was torn at, once it has been.
    torn_at: Option<u64>,
    sampled: FaultCounters,
    /// True once a fault plan/policy is attached; the per-cycle counter
    /// sampling is skipped entirely on clean runs.
    faults_configured: bool,
}

impl<B: CycleBus> TlmSystem<B> {
    /// Creates a one-master system replaying `ops` on `bus`.
    pub fn new(bus: B, ops: impl Into<std::sync::Arc<[MasterOp]>>) -> Self {
        let mut sys = TlmSystem {
            bus,
            masters: Vec::new(),
            arbiter: Arbiter::new(ArbitrationPolicy::FixedPriority, 0),
            requests: Vec::new(),
            cycle: 0,
            bus_activations: 0,
            tear: CycleSchedule::new(),
            torn_at: None,
            sampled: FaultCounters::default(),
            faults_configured: false,
        };
        sys.add_master(ops, 0);
        sys
    }

    /// The canonical CPU + DMA configuration: master 0 replays the CPU
    /// scenario with ids from 0, master 1 replays the DMA program with
    /// ids from [`DMA_ID_BASE`], arbitrated by the scenario's policy.
    pub fn for_multi(bus: B, scenario: &MultiScenario) -> Self {
        let mut sys = TlmSystem::new(bus, scenario.cpu.ops.clone());
        sys.arbiter = Arbiter::new(scenario.policy, 1);
        sys.add_master(scenario.dma_ops.clone(), DMA_ID_BASE);
        sys
    }

    /// Adds a master replaying `ops` with transaction ids from
    /// `id_base` (masters must get disjoint id windows); returns its
    /// index. Must be called before the first cycle.
    pub fn add_master(
        &mut self,
        ops: impl Into<std::sync::Arc<[MasterOp]>>,
        id_base: u64,
    ) -> usize {
        assert_eq!(self.cycle, 0, "masters must be added before running");
        let ops = ops.into();
        self.bus.reserve_transactions(ops.len());
        let mut master = TlmMaster::new(ops);
        master.set_id_base(id_base);
        self.masters.push(master);
        self.arbiter = Arbiter::new(self.arbiter.policy(), self.masters.len());
        self.masters.len() - 1
    }

    /// Attaches a fault plan and robustness policy to master 0;
    /// builder-style. Must be called before the first cycle.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        self.set_master_faults(0, plan, policy);
        self
    }

    /// Attaches a fault plan and robustness policy to master `idx`. A
    /// tear cycle in any plan tears the whole system — power is gone
    /// for every master. Must be called before the first cycle.
    pub fn set_master_faults(&mut self, idx: usize, plan: FaultPlan, policy: RetryPolicy) {
        assert_eq!(self.cycle, 0, "faults must be configured before running");
        if let Some(tc) = plan.tear_cycle {
            self.tear.at(tc, ());
        }
        self.masters[idx].set_faults(plan, policy);
        self.faults_configured = true;
    }

    /// Disables per-transaction record keeping on every master and the
    /// grant log (throughput measurement mode); [`TlmReport::records`]
    /// will be empty but cycle and completion counts stay correct. The
    /// bus is also told it may discard read data, since nothing will
    /// keep it.
    pub fn disable_records(&mut self) {
        for m in &mut self.masters {
            m.disable_records();
        }
        self.bus.discard_read_data();
        self.arbiter.disable_log();
    }

    /// Transactions completed so far, over every master.
    pub fn completed(&self) -> u64 {
        self.masters.iter().map(TlmMaster::completed).sum()
    }

    /// Shared access to the bus.
    pub fn bus(&self) -> &B {
        &self.bus
    }

    /// Exclusive access to the bus.
    pub fn bus_mut(&mut self) -> &mut B {
        &mut self.bus
    }

    /// True once the card has been torn.
    pub fn torn(&self) -> bool {
        self.torn_at.is_some()
    }

    /// The cycle the card was torn at — the earliest tear over every
    /// master's plan — once it has been. That cycle never executed.
    pub fn torn_at(&self) -> Option<u64> {
        self.torn_at
    }

    /// Executes one bus cycle: the masters at the rising edge (a lone
    /// master without arbitration, several behind one grant), the bus
    /// process at the falling edge (skipped while the bus is idle), then
    /// `hook`.
    pub fn step_cycle(&mut self, hook: &mut impl FnMut(&mut B)) {
        let cycle = self.cycle;
        if let [m] = self.masters.as_mut_slice() {
            m.rising_edge(&mut self.bus, cycle);
        } else {
            self.arbitrated_rising_edge(cycle);
        }
        self.sample_fault_counters();
        if self.bus.wants_every_cycle() || !self.bus.is_idle() {
            self.bus.bus_process(cycle);
            self.bus_activations += 1;
            hook(&mut self.bus);
        }
        self.cycle += 1;
    }

    /// The rising edge of several masters: bookkeeping and a request
    /// line for every master, then at most one grant, which issues.
    fn arbitrated_rising_edge(&mut self, cycle: u64) {
        for m in &mut self.masters {
            m.begin_cycle(&mut self.bus, cycle);
        }
        let mut requests = std::mem::take(&mut self.requests);
        requests.clear();
        requests.extend(
            self.masters
                .iter_mut()
                .map(|m| m.arbitration_request(cycle)),
        );
        if let Some(winner) = self.arbiter.grant(cycle, &requests) {
            self.masters[winner].issue_granted(&mut self.bus, cycle);
        }
        self.requests = requests;
    }

    /// Mirrors the masters' aggregate `fault.*` counters into the bus
    /// trace whenever they change.
    fn sample_fault_counters(&mut self) {
        if !self.faults_configured {
            return;
        }
        let c: FaultCounters = self.masters.iter().map(|m| m.fault_counters()).sum();
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

    /// True once every master's stimulus has fully completed.
    pub fn is_finished(&self) -> bool {
        self.masters.iter().all(TlmMaster::is_finished)
    }

    /// Runs to completion — or to the card tear, whichever is first. The
    /// report takes the masters' records and outcomes, so run once.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus does not finish within `max_cycles`.
    pub fn run(&mut self, max_cycles: u64, mut hook: impl FnMut(&mut B)) -> TlmReport {
        while !self.is_finished() {
            if !self.tear.pop_due(self.cycle).is_empty() {
                // Power is gone: the cycle at the tear never executes.
                self.torn_at = Some(self.cycle);
                break;
            }
            assert!(
                self.cycle < max_cycles,
                "bus deadlock: {max_cycles} cycles without completion"
            );
            self.step_cycle(&mut hook);
        }
        if self.torn() {
            // Completions from already-executed cycles settled at the
            // reference's falling edge; pick them up before aborting the
            // rest, so the tear boundary agrees across layers.
            let cycle = self.cycle;
            for m in &mut self.masters {
                m.pickup(&mut self.bus, cycle);
                m.tear_now();
            }
            self.sample_fault_counters();
        }
        TlmReport::assemble(&mut self.masters, self.bus_activations, &self.arbiter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlm1::Tlm1Bus;
    use crate::tlm2::Tlm2Bus;
    use hierbus_ec::sequences::{self, Scenario};
    use hierbus_ec::{
        AccessRights, Address, AddressRange, BurstLen, DataWidth, OpFault, SlaveConfig, WaitProfile,
    };
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

    fn mem_bus<B>(waits: WaitProfile, make: impl Fn(Vec<Box<dyn crate::TlmSlave>>) -> B) -> B {
        let cfg = SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            waits,
            AccessRights::RWX,
        );
        make(vec![Box::new(crate::MemSlave::new(cfg))])
    }

    /// Runs `s` twice on fresh buses: as a lone master (the branch that
    /// skips arbitration) and with an empty-op second master (forcing
    /// the arbitrated step). Master 0 must not tell the difference.
    /// Returns the lone run's fault counters and whether it tore.
    fn assert_lone_matches_arbitrated<B: CycleBus, T: PartialEq + std::fmt::Debug>(
        tag: &str,
        make_bus: impl Fn() -> B,
        s: &Scenario,
        faults: &Option<(FaultPlan, RetryPolicy)>,
        capture: impl Fn(&mut B, &mut Vec<T>),
    ) -> (FaultCounters, bool) {
        let run = |second_master: bool| {
            let mut sys = TlmSystem::new(make_bus(), s.ops.clone());
            if second_master {
                sys.add_master(Vec::new(), DMA_ID_BASE);
            }
            if let Some((plan, policy)) = faults {
                sys.set_master_faults(0, plan.clone(), *policy);
            }
            let mut seen = Vec::new();
            let report = sys.run(1_000_000, |bus| capture(bus, &mut seen));
            (report, seen, sys.torn())
        };
        let (lone, lone_seen, lone_torn) = run(false);
        let (arb, arb_seen, arb_torn) = run(true);
        assert_eq!(lone.masters[0], arb.masters[0], "{tag}: master 0");
        assert_eq!(lone.records, arb.records, "{tag}: records");
        assert_eq!(lone.outcomes, arb.outcomes, "{tag}: outcomes");
        assert_eq!(lone.fault, arb.fault, "{tag}: counters");
        assert_eq!(lone.cycles, arb.cycles, "{tag}: cycles");
        assert_eq!(
            lone.bus_activations, arb.bus_activations,
            "{tag}: activations"
        );
        assert_eq!(lone_seen, arb_seen, "{tag}: frames/events");
        assert_eq!(lone_torn, arb_torn, "{tag}: torn");
        assert!(
            lone.grants.is_empty(),
            "{tag}: a lone master was arbitrated"
        );
        // One grant per issued attempt, every one to master 0.
        assert_eq!(arb.grants.len(), arb.records.len(), "{tag}: grants");
        assert!(arb.grants.iter().all(|&(_, m)| m == 0), "{tag}: grantee");
        (lone.fault, lone_torn)
    }

    #[test]
    fn lone_master_branch_matches_arbitrated_step() {
        let mix = |seed| {
            sequences::random_mix(
                seed,
                sequences::MixParams {
                    count: 200,
                    burst_pct: 30,
                    ..sequences::MixParams::default()
                },
            )
        };
        let retry_timeout = (
            FaultPlan::new()
                .with_fault(3, OpFault::once(FaultKind::SlaveError))
                .with_fault(9, OpFault::always(FaultKind::SlaveError))
                .with_fault(17, OpFault::always(FaultKind::Stall(60))),
            RetryPolicy {
                timeout: Some(40),
                ..RetryPolicy::retries(2)
            },
        );
        let tear = (FaultPlan::new().with_tear(150), RetryPolicy::NONE);
        let mut cases: Vec<_> = sequences::all_scenarios()
            .into_iter()
            .map(|s| (s, None))
            .collect();
        cases.push((mix(0x1A), Some(retry_timeout)));
        cases.push((mix(0x2B), Some(tear)));
        let mut exercised = Vec::new();
        for (s, faults) in &cases {
            let layer1 = || {
                let mut bus = mem_bus(s.waits, Tlm1Bus::new);
                bus.enable_frames();
                bus
            };
            let frames = |bus: &mut Tlm1Bus, seen: &mut Vec<_>| seen.push(*bus.last_frame());
            let l1 = assert_lone_matches_arbitrated(
                &format!("l1/{}", s.name),
                layer1,
                s,
                faults,
                frames,
            );
            let layer2 = || {
                let mut bus = mem_bus(s.waits, Tlm2Bus::new);
                bus.enable_events();
                bus
            };
            let events = |bus: &mut Tlm2Bus, seen: &mut Vec<_>| seen.extend(bus.drain_events());
            let l2 = assert_lone_matches_arbitrated(
                &format!("l2/{}", s.name),
                layer2,
                s,
                faults,
                events,
            );
            exercised.extend([l1, l2]);
        }
        // The faulted mixes retried, timed out and tore on both buses.
        let faulted = &exercised[exercised.len() - 4..];
        assert!(faulted[..2]
            .iter()
            .all(|(c, _)| c.retried > 0 && c.aborted > 0));
        assert!(faulted[2..].iter().all(|&(_, torn)| torn));
    }

    #[test]
    fn two_masters_complete_disjoint_windows() {
        let cpu = sequences::random_mix(
            7,
            sequences::MixParams {
                count: 40,
                ..sequences::MixParams::default()
            },
        );
        let dma = hierbus_ec::DmaProgram::seeded(9, hierbus_ec::DmaParams::default());
        let ms = MultiScenario::new("t", cpu, &dma, ArbitrationPolicy::FixedPriority);
        let mut sys = TlmSystem::for_multi(mem_bus(ms.cpu.waits, Tlm1Bus::new), &ms);
        let report = sys.run(1_000_000, |_| {});
        assert_eq!(report.masters.len(), 2);
        assert!(report.masters[1].completed > 0);
        assert!(report
            .masters
            .iter()
            .all(|m| m.outcomes.iter().all(|o| *o == TxnOutcome::Ok)));
        // Every DMA record carries a high-range id.
        assert!(report.masters[1]
            .records
            .iter()
            .all(|r| r.id.0 >= DMA_ID_BASE));
        // Fixed priority: the CPU never waits for a grant.
        assert_eq!(report.stats.waits[0], 0);
    }
}
