//! Multi-master TLM system: several masters, one arbiter, one bus.
//!
//! Drives any [`CycleBus`] — the layer-1 cycle-accurate bus or the
//! layer-2 timed bus — with an arbitrary number of [`TlmMaster`]s
//! behind a shared [`Arbiter`]. The per-cycle discipline matches the
//! single-master [`TlmSystem`](crate::TlmSystem) exactly, split at the
//! arbitration boundary:
//!
//! 1. every master runs its rising-edge bookkeeping
//!    ([`TlmMaster::begin_cycle`]: completion pickup, timeouts),
//! 2. every master drives its request line
//!    ([`TlmMaster::arbitration_request`]),
//! 3. the arbiter grants at most one master, which then issues
//!    ([`TlmMaster::issue_granted`]),
//! 4. the bus process runs at the falling edge.
//!
//! Because both TLM buses consume issues through FIFO queues, the
//! grant order fully determines bus behavior — so a multi-master run
//! at layer 1 is cycle-exact against the multi-master RTL reference
//! whenever their grant logs agree, which the arbitration-equivalence
//! suite pins.
//!
//! With one master and any policy this reduces to the single-master
//! system: master 0 is granted whenever it requests.

use crate::master::{CycleBus, TlmMaster};
pub use hierbus_ec::MasterReport;
use hierbus_ec::{
    Arbiter, ArbiterStats, ArbitrationPolicy, FaultCounters, FaultPlan, MasterOp, MultiScenario,
    RetryPolicy, DMA_ID_BASE,
};
use hierbus_sim::CycleSchedule;

/// Summary of a completed multi-master run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Bus cycles from cycle 0 through the last completion of any
    /// master, inclusive.
    pub cycles: u64,
    /// Falling-edge bus-process activations.
    pub bus_activations: u64,
    /// One slice per master, in master order.
    pub masters: Vec<MasterReport>,
    /// The grant log: `(cycle, master)` per grant, in cycle order.
    pub grants: Vec<(u64, usize)>,
    /// Arbitration statistics (per-master grants/waits, contention).
    pub stats: ArbiterStats,
}

impl MultiReport {
    /// Total fault counters across all masters.
    pub fn fault_total(&self) -> FaultCounters {
        sum_counters(self.masters.iter().map(|m| m.fault))
    }
}

fn sum_counters(it: impl Iterator<Item = FaultCounters>) -> FaultCounters {
    let mut total = FaultCounters::default();
    for c in it {
        total.injected += c.injected;
        total.retried += c.retried;
        total.aborted += c.aborted;
    }
    total
}

/// Drives several [`TlmMaster`]s against one [`CycleBus`] behind an
/// [`Arbiter`]. See the [module docs](self) for the cycle discipline.
#[derive(Debug)]
pub struct MultiMasterSystem<B> {
    bus: B,
    masters: Vec<TlmMaster>,
    arbiter: Arbiter,
    policy: ArbitrationPolicy,
    cycle: u64,
    bus_activations: u64,
    tear: CycleSchedule<()>,
    torn: bool,
    sampled: FaultCounters,
    faults_configured: bool,
    /// Scratch request-line vector, reused every cycle.
    requests: Vec<bool>,
}

impl<B: CycleBus> MultiMasterSystem<B> {
    /// Creates an empty system; add masters before running.
    pub fn new(bus: B, policy: ArbitrationPolicy) -> Self {
        MultiMasterSystem {
            bus,
            masters: Vec::new(),
            arbiter: Arbiter::new(policy, 0),
            policy,
            cycle: 0,
            bus_activations: 0,
            tear: CycleSchedule::new(),
            torn: false,
            sampled: FaultCounters::default(),
            faults_configured: false,
            requests: Vec::new(),
        }
    }

    /// The canonical CPU + DMA configuration: master 0 replays the CPU
    /// scenario with ids from 0, master 1 replays the DMA program with
    /// ids from [`DMA_ID_BASE`].
    pub fn for_multi(bus: B, scenario: &MultiScenario) -> Self {
        let mut sys = MultiMasterSystem::new(bus, scenario.policy);
        sys.add_master(scenario.cpu.ops.clone(), 0);
        sys.add_master(scenario.dma_ops.clone(), DMA_ID_BASE);
        sys
    }

    /// Adds a master replaying `ops` with transaction ids from
    /// `id_base`; returns its index. Must be called before running.
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
        self.arbiter = Arbiter::new(self.policy, self.masters.len());
        self.masters.len() - 1
    }

    /// Attaches a fault plan and robustness policy to master `idx`. A
    /// card tear in any plan tears the whole system (power is shared).
    pub fn set_master_faults(&mut self, idx: usize, plan: FaultPlan, policy: RetryPolicy) {
        if let Some(tc) = plan.tear_cycle {
            self.tear.at(tc, ());
        }
        self.masters[idx].set_faults(plan, policy);
        self.faults_configured = true;
    }

    /// Disables per-transaction record keeping on every master and the
    /// grant log (throughput mode).
    pub fn disable_records(&mut self) {
        for m in &mut self.masters {
            m.disable_records();
        }
        self.bus.discard_read_data();
        self.arbiter.disable_log();
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
        self.torn
    }

    /// True once every master's stimulus has fully completed.
    pub fn is_finished(&self) -> bool {
        self.masters.iter().all(|m| m.is_finished())
    }

    /// Executes one bus cycle: bookkeeping and request lines for every
    /// master, one grant, then the falling-edge bus process (skipped
    /// while the bus is idle), then `hook`.
    pub fn step_cycle(&mut self, hook: &mut impl FnMut(&mut B)) {
        let cycle = self.cycle;
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
        self.sample_fault_counters();
        if self.bus.wants_every_cycle() || !self.bus.is_idle() {
            self.bus.bus_process(cycle);
            self.bus_activations += 1;
            hook(&mut self.bus);
        }
        self.cycle += 1;
    }

    /// Mirrors the aggregate fault counters into the bus trace whenever
    /// they change, like the single-master system.
    fn sample_fault_counters(&mut self) {
        if !self.faults_configured {
            return;
        }
        let c = sum_counters(self.masters.iter().map(|m| m.fault_counters()));
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

    /// Runs to completion — or to the card tear, whichever is first.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus does not finish within `max_cycles`.
    pub fn run(&mut self, max_cycles: u64, mut hook: impl FnMut(&mut B)) -> MultiReport {
        assert!(!self.masters.is_empty(), "no masters added");
        while !self.is_finished() {
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
            // Same tear boundary as the single-master system: pick up
            // completions from already-executed cycles, then abort the
            // rest.
            let cycle = self.cycle;
            for m in &mut self.masters {
                m.pickup(&mut self.bus, cycle);
                m.tear_now();
            }
            self.sample_fault_counters();
        }
        let any_completed = self.masters.iter().any(|m| m.completed() > 0);
        let cycles = if any_completed {
            self.masters
                .iter()
                .filter(|m| m.completed() > 0)
                .map(|m| m.last_done_cycle())
                .max()
                .expect("some master completed")
                + 1
        } else {
            0
        };
        MultiReport {
            cycles,
            bus_activations: self.bus_activations,
            masters: self
                .masters
                .iter()
                .map(|m| MasterReport {
                    records: m.records().to_vec(),
                    outcomes: m
                        .outcomes()
                        .iter()
                        .map(|o| o.expect("all ops settled at end of run"))
                        .collect(),
                    fault: m.fault_counters(),
                    completed: m.completed(),
                })
                .collect(),
            grants: self.arbiter.log().to_vec(),
            stats: self.arbiter.stats().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slave::MemSlave;
    use crate::tlm1::Tlm1Bus;
    use crate::TlmSystem;
    use hierbus_ec::slave::AccessRights;
    use hierbus_ec::{sequences, Address, AddressRange, SlaveConfig, TxnOutcome, WaitProfile};

    fn bus_with_mem() -> Tlm1Bus {
        let cfg = SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        );
        Tlm1Bus::new(vec![Box::new(MemSlave::new(cfg))])
    }

    #[test]
    fn single_master_multi_system_matches_tlm_system() {
        let scenario = sequences::random_mix(
            42,
            sequences::MixParams {
                count: 200,
                ..sequences::MixParams::default()
            },
        );
        let mut single = TlmSystem::new(bus_with_mem(), scenario.ops.clone());
        let single_report = single.run(1_000_000, |_| {});

        let mut multi = MultiMasterSystem::new(bus_with_mem(), ArbitrationPolicy::RoundRobin);
        multi.add_master(scenario.ops.clone(), 0);
        let multi_report = multi.run(1_000_000, |_| {});

        assert_eq!(multi_report.cycles, single_report.cycles);
        assert_eq!(multi_report.masters[0].records, single_report.records);
        assert_eq!(multi_report.masters[0].outcomes, single_report.outcomes);
        // A lone master is granted exactly once per issued attempt.
        assert_eq!(multi_report.grants.len(), single_report.records.len());
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
        let mut sys = MultiMasterSystem::for_multi(bus_with_mem(), &ms);
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
