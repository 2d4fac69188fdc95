//! Master-side replay of stimulus against a TLM bus, and the one system
//! that steps any number of masters against it.

use hierbus_ec::record::{MasterReport, TxnRecord};
use hierbus_ec::{
    AccessKind, Arbiter, ArbiterStats, ArbitrationPolicy, BusError, BusStatus, FaultCounters,
    FaultKind, FaultPlan, MasterOp, MultiScenario, OutstandingLimits, Replay, RetryPolicy,
    Transaction, TxnId, TxnOutcome, DMA_ID_BASE,
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

/// The cycle-driven interface every bus layer exposes to a master: the
/// TLM buses and the RTL reference (`hierbus_rtl::RtlBus`) alike.
///
/// The master calls [`issue`](CycleBus::issue)/[`poll`](CycleBus::poll)
/// at the rising clock edge and the driver calls
/// [`falling_edge`](CycleBus::falling_edge) after it — the paper's
/// clocking discipline. Three drivers step a bus: [`TlmSystem`] (the
/// stimulus masters), the ISS's `CpuSystem` and the JCVM master
/// adapter's `BusStack`; none of them decides idleness itself. The ISS
/// and the adapter step every cycle; [`TlmSystem`] steps only the cycles
/// some [`next_wake`](CycleBus::next_wake) names.
pub trait CycleBus {
    /// Presents a new transaction. Returns
    /// [`BusStatus::Request`](hierbus_ec::BusStatus) when accepted.
    fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus;

    /// Polls an in-flight transaction; removes and returns it once done.
    fn poll(&mut self, id: TxnId) -> PollStatus;

    /// The falling clock edge: runs the bus process if the bus is
    /// sensitive this cycle and returns whether it ran. An idle bus is
    /// not activated — §3.2's dynamic sensitivity — unless it must watch
    /// its wires every cycle (the layer-1 bus while it emits frames, and
    /// the reference, whose wires settle every cycle).
    fn falling_edge(&mut self, cycle: u64) -> bool;

    /// Asked after the falling edge of `cycle`: the earliest later cycle
    /// whose falling edge can change the bus, or at whose rising edge a
    /// master can pick up a completion; `u64::MAX` when nothing is
    /// scheduled. A bus that is stepped anyway between issues and wakes
    /// must do nothing observable on the cycles in between, so
    /// [`TlmSystem::run`] may skip them. The conservative default wakes
    /// every cycle.
    fn next_wake(&self, cycle: u64) -> u64 {
        cycle + 1
    }

    /// How many transactions wait in the finish queue. Purely an
    /// optimisation hint: a master stops polling its in-flight attempts
    /// once it has picked up this many, which is observationally
    /// invisible — a poll only ever succeeds on a finished transaction.
    /// The conservative default polls every attempt every cycle.
    fn finished(&self) -> usize {
        usize::MAX
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

/// Replays a [`MasterOp`] list against a [`CycleBus`]. The policy —
/// idle gaps, the one-issue-per-cycle rule, outstanding-transaction
/// ceilings, faults, retries, timeout, outcomes and the card tear — is
/// [`Replay`]. The same master runs against every layer, the RTL
/// reference included, so the [`TxnRecord`]s and [`TxnOutcome`]s
/// compare directly across layers. This type adds the bus side: it
/// places issued attempts on the bus, injects their planned faults, and
/// polls the in-flight attempts for completion at every rising edge.
#[derive(Debug)]
pub struct TlmMaster {
    replay: Replay,
}

impl TlmMaster {
    /// Creates a master for `ops` with the core's default limits.
    pub fn new(ops: impl Into<std::sync::Arc<[MasterOp]>>) -> Self {
        TlmMaster {
            replay: Replay::new(ops, OutstandingLimits::CORE_DEFAULT),
        }
    }

    /// Rising-edge step: picks up finished transactions (freeing limit
    /// slots), applies the timeout, then issues — a due retry first,
    /// else the next op if its idle gap has elapsed and a slot is free.
    ///
    /// Single-master form of the split interface: equivalent to
    /// [`begin_cycle`](Self::begin_cycle), then
    /// [`issue_granted`](Self::issue_granted) whenever
    /// [`Replay::arbitration_request`] raises — i.e. a bus whose arbiter
    /// grants this master unconditionally, which is how [`TlmSystem`]
    /// steps a lone master.
    pub fn rising_edge<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        self.begin_cycle(bus, cycle);
        if self.replay.arbitration_request(cycle) {
            self.issue_granted(bus, cycle);
        }
    }

    /// Rising-edge bookkeeping that happens whether or not this master
    /// wins the bus: picks up completions first so a freed slot can be
    /// reused in the same cycle, then runs [`Replay::begin_cycle`] (the
    /// timeout). With several masters, [`TlmSystem`] calls this for
    /// every master before arbitrating.
    pub fn begin_cycle<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        self.pickup(bus, cycle);
        self.replay.begin_cycle(cycle);
    }

    /// Places the attempt [`Replay::arbitration_request`] raised for on
    /// the bus — the granted master's drive of the address channel —
    /// and injects its planned fault.
    ///
    /// # Panics
    ///
    /// Panics if called without a raised request (nothing to issue or
    /// no limit slot).
    pub fn issue_granted<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        let (txn, fault) = self.replay.issue_granted(cycle);
        let id = txn.id;
        let status = bus.issue(txn, cycle);
        debug_assert_eq!(status, BusStatus::Request, "bus rejected a legal issue");
        if let Some(kind) = fault {
            bus.inject(id, kind);
        }
    }

    /// Polls every in-flight attempt and hands the finished ones to the
    /// policy, seen at `cycle`, stamping the address phase and read
    /// beats into the record. Abandoned attempts are polled too, so the
    /// bus drains to a defined idle state. A transaction that completes
    /// at a falling edge is seen at the next rising edge (protocol rule
    /// 5). At a card tear [`TlmSystem`] calls this once more, so
    /// completions from already executed cycles are not spuriously
    /// aborted.
    fn pickup<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        let mut left = bus.finished();
        let mut i = 0;
        while left > 0 {
            let Some(id) = self.replay.in_flight_id(i) else {
                break;
            };
            match bus.poll(id) {
                PollStatus::Pending => i += 1,
                PollStatus::Done(done) => {
                    left -= 1;
                    if let Some(r) = self.replay.record_mut(id) {
                        r.addr_done_cycle = done.addr_done_cycle;
                        if r.kind != AccessKind::DataWrite {
                            r.data = done.data;
                        }
                    }
                    self.replay.complete(i, done.done_cycle, done.error, cycle);
                }
            }
        }
    }
}

/// Summary of a completed run at any layer: the master-side fields
/// concatenated or summed in master order, then the per-master slices
/// and the arbitration record.
#[derive(Debug, Clone)]
pub struct TlmReport {
    /// Bus cycles from cycle 0 through the last completion of any
    /// master, inclusive.
    pub cycles: u64,
    /// How many falling-edge bus-process activations actually ran (idle
    /// cycles are skipped — the dynamic-sensitivity saving).
    pub bus_activations: u64,
    /// How many cycles the system stepped: the cycles some master or
    /// the bus had a wake at ([`CycleBus::next_wake`]); the rest were
    /// skipped.
    pub cycles_stepped: u64,
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
    /// moving their records and outcomes out.
    fn assemble(
        masters: &mut [TlmMaster],
        bus_activations: u64,
        cycles_stepped: u64,
        arbiter: &Arbiter,
    ) -> Self {
        let cycles = masters
            .iter()
            .filter_map(|m| m.replay.end_cycle())
            .max()
            .unwrap_or(0);
        let masters: Vec<MasterReport> =
            masters.iter_mut().map(|m| m.replay.take_report()).collect();
        let records: Vec<&[TxnRecord]> = masters.iter().map(|m| &m.records[..]).collect();
        let outcomes: Vec<&[TxnOutcome]> = masters.iter().map(|m| &m.outcomes[..]).collect();
        TlmReport {
            cycles,
            bus_activations,
            cycles_stepped,
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
/// at the falling edge. It is the one stepping loop for stimulus
/// masters at every layer: the RTL reference runs as
/// `TlmSystem<hierbus_rtl::RtlBus>`, so the layers differ only in the
/// bus.
///
/// Several masters share the bus behind an [`Arbiter`]: every master
/// runs its rising-edge bookkeeping ([`TlmMaster::begin_cycle`]) and
/// drives its request line ([`Replay::arbitration_request`]), and the
/// arbiter grants at most one, which issues
/// ([`TlmMaster::issue_granted`]). Every bus consumes issues through
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
    cycles_stepped: u64,
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
            cycles_stepped: 0,
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
        master.replay.set_id_base(id_base);
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
        self.masters[idx].replay.set_faults(plan, policy);
        self.faults_configured = true;
    }

    /// Replaces master `idx`'s outstanding-transaction ceilings. Must be
    /// called before the first cycle.
    pub fn set_master_limits(&mut self, idx: usize, limits: OutstandingLimits) {
        assert_eq!(self.cycle, 0, "limits must be configured before running");
        self.masters[idx].replay.set_limits(limits);
    }

    /// Disables per-transaction record keeping on every master and the
    /// grant log (throughput measurement mode); [`TlmReport::records`]
    /// will be empty but cycle and completion counts stay correct. The
    /// bus is also told it may discard read data, since nothing will
    /// keep it.
    pub fn disable_records(&mut self) {
        for m in &mut self.masters {
            m.replay.disable_records();
        }
        self.bus.discard_read_data();
        self.arbiter.disable_log();
    }

    /// Transactions completed so far, over every master.
    pub fn completed(&self) -> u64 {
        self.masters.iter().map(|m| m.replay.completed()).sum()
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
    /// master without arbitration, several behind one grant), the bus's
    /// falling edge, then `hook` if the bus process ran.
    pub fn step_cycle(&mut self, hook: &mut impl FnMut(&mut B)) {
        let cycle = self.cycle;
        if let [m] = self.masters.as_mut_slice() {
            m.rising_edge(&mut self.bus, cycle);
        } else {
            self.arbitrated_rising_edge(cycle);
        }
        self.sample_fault_counters();
        if self.bus.falling_edge(cycle) {
            self.bus_activations += 1;
            hook(&mut self.bus);
        }
        self.cycle += 1;
        self.cycles_stepped += 1;
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
                .map(|m| m.replay.arbitration_request(cycle)),
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
        let c: FaultCounters = self.masters.iter().map(|m| m.replay.fault_counters()).sum();
        for (track, value) in c.changed_since(self.sampled) {
            self.bus.obs_counter(track, self.cycle, value);
        }
        self.sampled = c;
    }

    /// True once every master's stimulus has fully completed.
    pub fn is_finished(&self) -> bool {
        self.masters.iter().all(|m| m.replay.is_finished())
    }

    /// Runs to completion — or to the card tear, whichever is first. The
    /// report takes the masters' records and outcomes, so run once.
    ///
    /// After each stepped cycle the system jumps to the earliest wake
    /// over the bus ([`CycleBus::next_wake`]), every master
    /// ([`Replay::next_wake`]) and the tear schedule: the cycles in
    /// between would only count idle gaps down, which the masters
    /// account for ([`Replay::skip`]). The result is the run that steps
    /// every cycle.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus does not finish within `max_cycles`.
    pub fn run(&mut self, max_cycles: u64, mut hook: impl FnMut(&mut B)) -> TlmReport {
        while self.next_cycle_runs(max_cycles) {
            self.step_cycle(&mut hook);
            self.skip_to_wake(max_cycles);
        }
        self.settle()
    }

    /// [`run`](Self::run) without the skip: steps every cycle. The
    /// oracle the wake-driven run is checked against.
    #[cfg(test)]
    pub(crate) fn run_every_cycle(
        &mut self,
        max_cycles: u64,
        mut hook: impl FnMut(&mut B),
    ) -> TlmReport {
        while self.next_cycle_runs(max_cycles) {
            self.step_cycle(&mut hook);
        }
        self.settle()
    }

    /// True when the cycle at hand is to run: the stimulus is unfinished
    /// and the card is not torn at it (power is gone: the cycle at the
    /// tear never executes).
    fn next_cycle_runs(&mut self, max_cycles: u64) -> bool {
        if self.is_finished() {
            return false;
        }
        if self.tear.next_cycle().is_some_and(|t| t <= self.cycle) {
            self.tear.pop_due(self.cycle);
            self.torn_at = Some(self.cycle);
            return false;
        }
        assert!(
            self.cycle < max_cycles,
            "bus deadlock: {max_cycles} cycles without completion"
        );
        true
    }

    /// Moves the clock to the earliest wake after the cycle just
    /// stepped, never past the tear or the cycle budget. The bus is
    /// asked first: while it must be stepped every cycle, the masters
    /// are not asked at all.
    fn skip_to_wake(&mut self, max_cycles: u64) {
        let (last, next) = (self.cycle - 1, self.cycle);
        let mut wake = self.bus.next_wake(last).min(max_cycles);
        for m in &self.masters {
            if wake <= next {
                return;
            }
            wake = wake.min(m.replay.next_wake(last));
        }
        wake = wake.min(self.tear.next_cycle().unwrap_or(u64::MAX));
        if wake > next {
            for m in &mut self.masters {
                m.replay.skip(next, wake);
            }
            self.cycle = wake;
        }
    }

    /// Ends the run: at a card tear, completions from already executed
    /// cycles settled at their falling edge and are picked up before
    /// the rest is aborted, so the tear boundary agrees across layers.
    fn settle(&mut self) -> TlmReport {
        if self.torn() {
            let cycle = self.cycle;
            for m in &mut self.masters {
                m.pickup(&mut self.bus, cycle);
                m.replay.tear_now();
            }
            self.sample_fault_counters();
        }
        TlmReport::assemble(
            &mut self.masters,
            self.bus_activations,
            self.cycles_stepped,
            &self.arbiter,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlm1::Tlm1Bus;
    use crate::tlm2::Tlm2Bus;
    use hierbus_ec::sequences::{self, Scenario};
    use hierbus_ec::{AccessRights, Address, AddressRange, OpFault, SlaveConfig, WaitProfile};
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
        fn falling_edge(&mut self, cycle: u64) -> bool {
            if self.pending.is_empty() {
                return false;
            }
            self.cycle = cycle + 1; // completions visible next rising edge
            self.processed += 1;
            true
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
    fn hook_runs_once_per_bus_activation() {
        let mut sys = TlmSystem::new(FixedLatencyBus::<0>::default(), ops(2));
        let mut hooks = 0u64;
        let report = sys.run(100, |_| hooks += 1);
        assert_eq!(hooks, report.bus_activations);
        assert!(hooks > 0);
    }

    /// §3.2's dynamic sensitivity on both layers: the bus process is not
    /// activated while the bus is idle, so a 50-cycle idle gap between
    /// two zero-wait reads costs no activations at all.
    #[test]
    fn idle_gap_skips_the_bus_process_on_both_layers() {
        let ops = vec![MasterOp::read(0x100), MasterOp::read(0x200).after_idle(50)];
        let check = |report: TlmReport, layer: &str| {
            assert_eq!(report.cycles, 52, "{layer}");
            assert_eq!(report.bus_activations, 2, "{layer}");
            assert_eq!(report.records[1].done_cycle, Some(51), "{layer}");
        };
        let mut l1 = TlmSystem::new(mem_bus(WaitProfile::ZERO, Tlm1Bus::new), ops.clone());
        check(l1.run(1_000, |_| {}), "layer 1");
        let mut l2 = TlmSystem::new(mem_bus(WaitProfile::ZERO, Tlm2Bus::new), ops);
        check(l2.run(1_000, |_| {}), "layer 2");
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
        assert!(sys.bus().pending.is_empty());
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
