//! The one system that steps any number of stimulus masters against a
//! bus, and the interface every bus exposes to it.

use hierbus_ec::record::{MasterReport, TxnRecord};
use hierbus_ec::{
    Arbiter, ArbiterStats, ArbitrationPolicy, BusStatus, Completed, FaultCounters, FaultKind,
    FaultPlan, MasterOp, MultiScenario, OutstandingLimits, Replay, RetryPolicy, Transaction, TxnId,
    TxnOutcome, DMA_ID_BASE,
};
use hierbus_sim::CycleSchedule;

/// The cycle-driven interface every bus layer exposes to a master: the
/// TLM buses and the RTL reference (`hierbus_rtl::RtlBus`) alike.
///
/// At the rising clock edge the master takes finished transactions from
/// the bus's finish queue ([`take_completed`](CycleBus::take_completed))
/// and may [`issue`](CycleBus::issue) a new one; the driver calls
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

    /// Removes and returns the head of the finish queue, the earliest
    /// finished transaction (the paper's `ok`/`error`), or `None` while
    /// nothing has finished (its `wait`). A transaction that completes
    /// at a falling edge is taken at the next rising edge (protocol rule
    /// 5).
    fn take_completed(&mut self) -> Option<Completed>;

    /// The falling clock edge: runs the bus process if the bus is
    /// sensitive this cycle and returns whether it ran. An idle bus is
    /// not activated — §3.2's dynamic sensitivity — unless it must watch
    /// its wires every cycle (the layer-1 bus while it emits frames, and
    /// the reference, whose wires settle every cycle).
    fn falling_edge(&mut self, cycle: u64) -> bool;

    /// Asked after the falling edge of `cycle`: the earliest later cycle
    /// whose falling edge can change the bus, or at whose rising edge a
    /// master can take a completion; `u64::MAX` when nothing is
    /// scheduled. A bus that is stepped anyway between issues and wakes
    /// must do nothing observable on the cycles in between, so
    /// [`TlmSystem::run`] may skip them. The conservative default wakes
    /// every cycle.
    fn next_wake(&self, cycle: u64) -> u64 {
        cycle + 1
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
        masters: &mut [Replay],
        bus_activations: u64,
        cycles_stepped: u64,
        arbiter: &Arbiter,
    ) -> Self {
        let cycles = masters
            .iter()
            .filter_map(|m| m.end_cycle())
            .max()
            .unwrap_or(0);
        let masters: Vec<MasterReport> = masters.iter_mut().map(|m| m.take_report()).collect();
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

/// Drives stimulus masters ([`Replay`]s) against one [`CycleBus`]
/// cycle by cycle — the paper's §3.1 discipline: masters at the rising
/// edge, the bus process at the falling edge. It is the one stepping
/// loop for stimulus masters at every layer: the RTL reference runs as
/// `TlmSystem<hierbus_rtl::RtlBus>`, so the layers differ only in the
/// bus.
///
/// Each rising edge first drains the bus's finish queue
/// ([`CycleBus::take_completed`]), handing every completion to the
/// master whose id window holds it ([`Replay::owns`],
/// [`Replay::complete`]), so a freed limit slot can be reused in the
/// same cycle. Then every master runs its bookkeeping
/// ([`Replay::begin_cycle`], the timeout) and drives its request line
/// ([`Replay::arbitration_request`]); with several masters an
/// [`Arbiter`] grants at most one, which places its attempt on the bus
/// and injects its planned fault. Every bus consumes issues through
/// FIFO queues, so the grant order fully determines bus behaviour and a
/// layer-1 run is cycle-exact against the RTL reference whenever their
/// grant logs agree. A lone master is granted whenever it requests, so
/// it skips the arbiter.
///
/// See the [crate example](crate) for typical use. A per-cycle `hook`
/// closure receives the bus after each bus-process activation so energy
/// models can drain frames or phase events.
#[derive(Debug)]
pub struct TlmSystem<B> {
    bus: B,
    masters: Vec<Replay>,
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
        let mut master = Replay::new(ops, OutstandingLimits::CORE_DEFAULT);
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

    /// Replaces master `idx`'s outstanding-transaction ceilings. Must be
    /// called before the first cycle.
    pub fn set_master_limits(&mut self, idx: usize, limits: OutstandingLimits) {
        assert_eq!(self.cycle, 0, "limits must be configured before running");
        self.masters[idx].set_limits(limits);
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
        self.masters.iter().map(|m| m.completed()).sum()
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
        self.pickup(cycle);
        if let [m] = self.masters.as_mut_slice() {
            m.begin_cycle(cycle);
            if m.arbitration_request(cycle) {
                issue(&mut self.bus, m, cycle);
            }
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

    /// Takes every completion from the bus's finish queue and hands it
    /// to the master that issued it, seen at `cycle`. Abandoned attempts
    /// are taken too, so the bus drains to a defined idle state. At a
    /// card tear [`settle`](Self::settle) calls this once more, so
    /// completions from already executed cycles are not spuriously
    /// aborted.
    fn pickup(&mut self, cycle: u64) {
        while let Some(done) = self.bus.take_completed() {
            let m = self
                .masters
                .iter_mut()
                .find(|m| m.owns(done.id))
                .expect("a completion of an issued attempt");
            m.complete(done, cycle);
        }
    }

    /// The rising edge of several masters: bookkeeping and a request
    /// line for every master, then at most one grant, which issues.
    fn arbitrated_rising_edge(&mut self, cycle: u64) {
        for m in &mut self.masters {
            m.begin_cycle(cycle);
        }
        let mut requests = std::mem::take(&mut self.requests);
        requests.clear();
        requests.extend(
            self.masters
                .iter_mut()
                .map(|m| m.arbitration_request(cycle)),
        );
        if let Some(winner) = self.arbiter.grant(cycle, &requests) {
            issue(&mut self.bus, &mut self.masters[winner], cycle);
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
        for (track, value) in c.changed_since(self.sampled) {
            self.bus.obs_counter(track, self.cycle, value);
        }
        self.sampled = c;
    }

    /// True once every master's stimulus has fully completed.
    pub fn is_finished(&self) -> bool {
        self.masters.iter().all(|m| m.is_finished())
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
            wake = wake.min(m.next_wake(last));
        }
        wake = wake.min(self.tear.next_cycle().unwrap_or(u64::MAX));
        if wake > next {
            for m in &mut self.masters {
                m.skip(next, wake);
            }
            self.cycle = wake;
        }
    }

    /// Ends the run: at a card tear, completions from already executed
    /// cycles settled at their falling edge and are picked up before
    /// the rest is aborted, so the tear boundary agrees across layers.
    fn settle(&mut self) -> TlmReport {
        if self.torn() {
            self.pickup(self.cycle);
            for m in &mut self.masters {
                m.tear_now();
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

/// Places the attempt `master` raised its request line for on `bus` —
/// the granted master's drive of the address channel — and injects its
/// planned fault.
fn issue<B: CycleBus>(bus: &mut B, master: &mut Replay, cycle: u64) {
    let (txn, fault) = master.issue_granted(cycle);
    let id = txn.id;
    let status = bus.issue(txn, cycle);
    debug_assert_eq!(status, BusStatus::Request, "bus rejected a legal issue");
    if let Some(kind) = fault {
        bus.inject(id, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlm1::Tlm1Bus;
    use crate::tlm2::Tlm2Bus;
    use hierbus_ec::sequences::{self, Scenario};
    use hierbus_ec::{
        AccessRights, Address, AddressRange, BusError, OpFault, SlaveConfig, WaitProfile,
    };

    /// A bus that completes everything `LAT` cycles after issue, one
    /// more per beat after the first, and honours injected faults: `SlaveError` fails the transaction,
    /// `Stall(n)` adds `n` cycles of latency. Of the transactions due,
    /// it hands out the oldest issue first, or with `newest_first` the
    /// newest, and logs the ids in the order it handed them out.
    #[derive(Debug, Default)]
    struct FixedLatencyBus<const LAT: u64> {
        /// `(id, done cycle, error)` per transaction, in issue order.
        pending: Vec<(TxnId, u64, Option<BusError>)>,
        cycle: u64,
        newest_first: bool,
        taken: Vec<TxnId>,
    }

    impl<const LAT: u64> CycleBus for FixedLatencyBus<LAT> {
        fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus {
            let done = cycle + LAT + u64::from(txn.beats()) - 1;
            self.pending.push((txn.id, done, None));
            BusStatus::Request
        }
        fn inject(&mut self, id: TxnId, fault: FaultKind) {
            let entry = self.pending.last_mut().expect("inject follows issue");
            assert_eq!(entry.0, id);
            match fault {
                FaultKind::SlaveError => entry.2 = Some(BusError::SlaveError(Address::new(0))),
                FaultKind::Stall(n) => entry.1 += u64::from(n),
            }
        }
        fn take_completed(&mut self) -> Option<Completed> {
            let due = |&(_, done, _): &(TxnId, u64, Option<BusError>)| self.cycle > done;
            let pos = if self.newest_first {
                self.pending.iter().rposition(due)
            } else {
                self.pending.iter().position(due)
            }?;
            let (id, done_cycle, error) = self.pending.remove(pos);
            self.taken.push(id);
            Some(Completed {
                id,
                addr_done_cycle: Some(done_cycle),
                done_cycle,
                error,
                data: vec![0xAB],
            })
        }
        fn falling_edge(&mut self, cycle: u64) -> bool {
            if self.pending.is_empty() {
                return false;
            }
            self.cycle = cycle + 1; // completions visible next rising edge
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

    /// Completions reach the masters in the bus's finish order, which
    /// nothing a run reports may depend on: retries are chosen by
    /// `(earliest, op)`, counters are sums and outcomes are kept per op.
    /// Two arbitrated masters (the second in the DMA id window) run with
    /// retries, backoff, stalls, timeouts and, in the second case, a
    /// tear, on a bus that hands out due completions oldest first and
    /// on one that hands them out newest first.
    #[test]
    fn completion_order_is_unobservable() {
        let cpu = sequences::random_mix(
            0x5EED,
            sequences::MixParams {
                count: 60,
                max_idle: 2,
                ..sequences::MixParams::default()
            },
        );
        let dma: Vec<MasterOp> = (0..30)
            .map(|i| MasterOp::read(0x1_0000 + 4 * i).after_idle((i % 3) as u32))
            .collect();
        let stall_every = |every: usize, n: usize| {
            (0..n).step_by(every).fold(FaultPlan::new(), |plan, op| {
                plan.with_fault(op, OpFault::always(FaultKind::Stall(1 + (op % 4) as u32)))
            })
        };
        // Error replies on a run of ops: bursts take longer on this bus,
        // so some fall due in the same cycle and their retries tie on
        // `earliest`.
        let cpu_plan = (30..48)
            .fold(stall_every(3, 60), |plan, op| {
                plan.with_fault(op, OpFault::once(FaultKind::SlaveError))
            })
            .with_fault(4, OpFault::once(FaultKind::SlaveError))
            .with_fault(13, OpFault::always(FaultKind::SlaveError))
            .with_fault(20, OpFault::always(FaultKind::Stall(40)));
        let dma_plan = stall_every(2, 30).with_fault(7, OpFault::once(FaultKind::SlaveError));
        let policy = RetryPolicy {
            timeout: Some(24),
            ..RetryPolicy::retries(2)
        };
        for tear in [None, Some(90)] {
            let run = |newest_first: bool| {
                let bus = FixedLatencyBus::<3> {
                    newest_first,
                    ..FixedLatencyBus::default()
                };
                let mut sys = TlmSystem::new(bus, cpu.ops.clone());
                sys.add_master(dma.clone(), DMA_ID_BASE);
                let plan = match tear {
                    Some(at) => cpu_plan.clone().with_tear(at),
                    None => cpu_plan.clone(),
                };
                sys.set_master_faults(0, plan, policy);
                sys.set_master_faults(1, dma_plan.clone(), policy);
                let report = sys.run(100_000, |_| {});
                assert_eq!(sys.torn(), tear.is_some());
                (report, std::mem::take(&mut sys.bus_mut().taken))
            };
            let (oldest, oldest_order) = run(false);
            let (newest, newest_order) = run(true);
            let tag = format!("tear {tear:?}");
            assert_ne!(oldest_order, newest_order, "{tag}: order never differed");
            assert!(
                oldest.fault.retried > 0 && oldest.fault.aborted > 0,
                "{tag}"
            );
            assert!(oldest.masters[1].completed > 0, "{tag}: DMA idle");
            assert_eq!(oldest.cycles, newest.cycles, "{tag}: cycles");
            assert_eq!(
                (oldest.bus_activations, oldest.cycles_stepped),
                (newest.bus_activations, newest.cycles_stepped),
                "{tag}: steps"
            );
            assert_eq!(oldest.records, newest.records, "{tag}: records");
            assert_eq!(oldest.outcomes, newest.outcomes, "{tag}: outcomes");
            assert_eq!(oldest.fault, newest.fault, "{tag}: counters");
            assert_eq!(oldest.masters, newest.masters, "{tag}: masters");
            assert_eq!(oldest.grants, newest.grants, "{tag}: grants");
            assert_eq!(oldest.stats, newest.stats, "{tag}: stats");
        }
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
