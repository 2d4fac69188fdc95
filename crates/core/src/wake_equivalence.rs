//! The wake-driven [`TlmSystem::run`] against the oracle that steps
//! every cycle: on layer 2, with phase events on and spans off and on,
//! both must produce the same records, outcomes, run length, phase
//! events (cycle stamps included), spans and fault-counter samples.
#![cfg(test)]

use crate::master::{TlmReport, TlmSystem};
use crate::slave::{MemSlave, SlaveReply, TlmSlave};
use crate::tlm2::{PhaseEvent, Tlm2Bus};
use hierbus_ec::sequences::{self, MixParams, Scenario};
use hierbus_ec::{
    AccessRights, Address, AddressRange, ArbitrationPolicy, DmaParams, DmaProgram, FaultKind,
    FaultPlan, MultiScenario, OpFault, RetryPolicy, SlaveConfig, WaitProfile,
};
use hierbus_obs::{CounterTrack, SpanEvent};

const MAX_CYCLES: u64 = 1_000_000;

/// Memory that answers `Wait` on every fifth word call.
struct WaitEveryFifth {
    mem: MemSlave,
    calls: u32,
}

impl WaitEveryFifth {
    fn busy(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(5)
    }
}

impl TlmSlave for WaitEveryFifth {
    fn config(&self) -> SlaveConfig {
        self.mem.config()
    }
    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        if self.busy() {
            return SlaveReply::Wait;
        }
        self.mem.read_word(addr)
    }
    fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
        if self.busy() {
            return SlaveReply::Wait;
        }
        self.mem.write_word(addr, data, ben)
    }
}

/// A ticking memory, busy for two cycles after each word call it is
/// asked: it answers `Wait` until its clock has moved on.
struct TickingBusy {
    mem: MemSlave,
    now: u64,
    ready_at: Option<u64>,
}

impl TickingBusy {
    fn ready(&mut self) -> bool {
        match self.ready_at {
            Some(at) if self.now >= at => {
                self.ready_at = None;
                true
            }
            Some(_) => false,
            None => {
                self.ready_at = Some(self.now + 2);
                false
            }
        }
    }
}

impl TlmSlave for TickingBusy {
    fn config(&self) -> SlaveConfig {
        self.mem.config()
    }
    fn tick(&mut self, cycle: u64) {
        self.now = cycle;
    }
    fn irq(&self) -> bool {
        self.ready_at.is_some()
    }
    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        if !self.ready() {
            return SlaveReply::Wait;
        }
        self.mem.read_word(addr)
    }
    fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
        if !self.ready() {
            return SlaveReply::Wait;
        }
        self.mem.write_word(addr, data, ben)
    }
}

fn mem(base: u64, waits: WaitProfile) -> MemSlave {
    MemSlave::new(SlaveConfig::new(
        AddressRange::new(Address::new(base), 0x1_0000),
        waits,
        AccessRights::RWX,
    ))
}

/// Which slaves sit behind the bus.
#[derive(Debug, Clone, Copy)]
enum Slaves {
    /// Plain memory over both windows.
    Mem,
    /// Memory below 0x1_0000, a memory that answers `Wait` above.
    Waiting,
    /// Memory below 0x1_0000, a ticking busy memory above.
    Ticking,
}

struct Case {
    name: String,
    stimulus: Stimulus,
    slaves: Slaves,
    faults: Vec<(usize, FaultPlan, RetryPolicy)>,
}

enum Stimulus {
    Single(Scenario),
    Multi(MultiScenario),
}

impl Case {
    fn waits(&self) -> WaitProfile {
        match &self.stimulus {
            Stimulus::Single(s) => s.waits,
            Stimulus::Multi(ms) => ms.cpu.waits,
        }
    }

    fn bus(&self) -> Tlm2Bus {
        let waits = self.waits();
        let high: Box<dyn TlmSlave> = match self.slaves {
            Slaves::Mem => Box::new(mem(0x1_0000, waits)),
            Slaves::Waiting => Box::new(WaitEveryFifth {
                mem: mem(0x1_0000, waits),
                calls: 0,
            }),
            Slaves::Ticking => Box::new(TickingBusy {
                mem: mem(0x1_0000, waits),
                now: 0,
                ready_at: None,
            }),
        };
        Tlm2Bus::new(vec![Box::new(mem(0, waits)), high])
    }
}

/// Everything a run shows.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    records: Vec<hierbus_ec::TxnRecord>,
    outcomes: Vec<hierbus_ec::TxnOutcome>,
    fault: hierbus_ec::FaultCounters,
    masters: Vec<hierbus_ec::MasterReport>,
    grants: Vec<(u64, usize)>,
    stats: hierbus_ec::ArbiterStats,
    torn_at: Option<u64>,
    events: Vec<PhaseEvent>,
    spans: Vec<SpanEvent>,
    counters: Vec<CounterTrack>,
}

/// Runs `case`, wake-driven or stepping every cycle; returns what it
/// showed and the cycles it stepped.
fn observe(case: &Case, spans: bool, every_cycle: bool) -> (Observed, u64) {
    let mut bus = case.bus();
    bus.enable_events();
    if spans {
        bus.enable_obs();
    }
    let mut sys = match &case.stimulus {
        Stimulus::Single(s) => TlmSystem::new(bus, s.ops.clone()),
        Stimulus::Multi(ms) => TlmSystem::for_multi(bus, ms),
    };
    for (master, plan, policy) in &case.faults {
        sys.set_master_faults(*master, plan.clone(), *policy);
    }
    let mut events = Vec::new();
    let hook = |b: &mut Tlm2Bus| events.extend(b.drain_events());
    let report: TlmReport = if every_cycle {
        sys.run_every_cycle(MAX_CYCLES, hook)
    } else {
        sys.run(MAX_CYCLES, hook)
    };
    if let Some(at) = sys.torn_at() {
        sys.bus_mut().flush_partial_phases(at);
        events.extend(sys.bus_mut().drain_events());
    }
    let obs = sys.bus().obs();
    let observed = Observed {
        cycles: report.cycles,
        records: report.records,
        outcomes: report.outcomes,
        fault: report.fault,
        masters: report.masters,
        grants: report.grants,
        stats: report.stats,
        torn_at: sys.torn_at(),
        events,
        spans: obs.spans().to_vec(),
        counters: obs.counters().to_vec(),
    };
    (observed, report.cycles_stepped)
}

fn mix(seed: u64, count: usize, waits: WaitProfile) -> Scenario {
    let mut s = sequences::random_mix(
        seed,
        MixParams {
            count,
            window: 0x2_0000,
            burst_pct: 40,
            max_idle: 4,
            ..MixParams::default()
        },
    );
    s.waits = waits;
    s
}

fn cases() -> Vec<Case> {
    let single = |name: &str, s: Scenario, slaves, faults| Case {
        name: name.to_owned(),
        stimulus: Stimulus::Single(s),
        slaves,
        faults,
    };
    let mut cases = Vec::new();
    // Seeded mixes with 0-3 wait states per phase.
    for (seed, (a, r, w)) in [(0, 0, 0), (1, 2, 3), (3, 0, 1), (2, 3, 0), (0, 3, 3)]
        .into_iter()
        .enumerate()
    {
        let s = mix(seed as u64, 300, WaitProfile::new(a, r, w));
        cases.push(single(&format!("mix{seed}"), s, Slaves::Mem, Vec::new()));
    }
    // Stalls and slave errors under retries with backoff and a timeout.
    let plan = FaultPlan::new()
        .with_fault(3, OpFault::once(FaultKind::SlaveError))
        .with_fault(9, OpFault::always(FaultKind::SlaveError))
        .with_fault(12, OpFault::once(FaultKind::Stall(5)))
        .with_fault(17, OpFault::always(FaultKind::Stall(60)));
    let policy = RetryPolicy {
        timeout: Some(40),
        ..RetryPolicy::retries(2)
    };
    let faulted = mix(10, 200, WaitProfile::new(1, 1, 2));
    cases.push(single(
        "retry_timeout",
        faulted.clone(),
        Slaves::Mem,
        vec![(0, plan.clone(), policy)],
    ));
    // A tear with phases in flight.
    let torn = plan.clone().with_tear(150);
    cases.push(single(
        "tear",
        faulted,
        Slaves::Mem,
        vec![(0, torn, policy)],
    ));
    // Slaves that answer `Wait`, with and without a clock of their own.
    for (name, slaves) in [("wait", Slaves::Waiting), ("ticking", Slaves::Ticking)] {
        let s = mix(20, 200, WaitProfile::new(1, 0, 1));
        cases.push(single(name, s, slaves, Vec::new()));
    }
    // Two arbitrated masters, both policies, faults on both.
    for policy in ArbitrationPolicy::ALL {
        let cpu = mix(30, 150, WaitProfile::new(0, 1, 1));
        let dma = DmaProgram::seeded(31, DmaParams::default());
        let ms = MultiScenario::new("multi", cpu, &dma, policy);
        let faults = vec![
            (0, plan.clone(), RetryPolicy::retries(2)),
            (
                1,
                FaultPlan::new().with_fault(2, OpFault::once(FaultKind::Stall(7))),
                RetryPolicy::NONE,
            ),
        ];
        cases.push(Case {
            name: format!("multi/{}", policy.name()),
            stimulus: Stimulus::Multi(ms),
            slaves: Slaves::Mem,
            faults,
        });
    }
    cases
}

#[test]
fn wake_driven_run_matches_stepping_every_cycle() {
    let (mut stepped, mut cycles) = (0, 0);
    for case in cases() {
        for spans in [false, true] {
            let tag = format!("{} (spans {spans})", case.name);
            let (every, every_stepped) = observe(&case, spans, true);
            let (woken, woken_stepped) = observe(&case, spans, false);
            assert_eq!(woken, every, "{tag}");
            assert!(!every.events.is_empty(), "{tag}: no phase events");
            assert_eq!(!every.spans.is_empty(), spans, "{tag}: spans");
            assert!(woken_stepped <= every_stepped, "{tag}: stepped more");
            if !spans && matches!(case.slaves, Slaves::Ticking) {
                assert_eq!(woken_stepped, every_stepped, "{tag}: a ticking slave");
            }
            stepped += woken_stepped;
            cycles += every_stepped;
        }
    }
    // The faulted cases retried, timed out and tore.
    let all = cases();
    let (fault, _) = observe(&all[5], false, false);
    assert!(fault.fault.retried > 0 && fault.fault.aborted > 0);
    let (torn, _) = observe(&all[6], false, false);
    assert!(torn.torn_at.is_some() && torn.events.iter().any(|e| !e.completed));
    // And the wakes skipped a good share of the cycles.
    assert!(stepped * 10 < cycles * 9, "stepped {stepped} of {cycles}");
}
