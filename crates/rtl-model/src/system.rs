//! The assembled cycle-true reference system.

use crate::channels::{AddrCycle, AddressChannel, DataChannel, DataCycle};
use crate::glitch::GlitchConfig;
use crate::master::{RtlMaster, TxnRecord};
use crate::power::{GateLevelPowerEstimator, PowerConfig, TransitionPhase};
use crate::slave::RtlSlaveModel;
use crate::wires::InterfaceWires;
use hierbus_ec::{
    AccessKind, AddressMap, Arbiter, ArbiterStats, ArbitrationPolicy, BusError, FaultCounters,
    FaultKind, FaultPlan, MasterReport, MultiScenario, OutstandingLimits, RetryPolicy, Scenario,
    SignalClass, SignalFrame, SlaveId, Transaction, TxnOutcome, DMA_ID_BASE,
};
use hierbus_obs::{AccessClass, Phase, TraceCollector};
use hierbus_sim::CycleSchedule;

/// `hierbus-obs` is dependency-free, so the access-kind translation
/// lives with each instrumented model.
fn access_class(kind: AccessKind) -> AccessClass {
    match kind {
        AccessKind::InstrFetch => AccessClass::Fetch,
        AccessKind::DataRead => AccessClass::Read,
        AccessKind::DataWrite => AccessClass::Write,
    }
}

/// One transaction currently (or formerly) active on the bus.
#[derive(Debug)]
struct ActiveTxn {
    /// Index of the owning master.
    master: usize,
    rec: usize,
    txn: Transaction,
    slave: Option<SlaveId>,
    /// The fault injected into this attempt, resolved at issue time.
    fault: Option<FaultKind>,
    /// Span bookkeeping: the address/data phase has begun on the wires.
    addr_started: bool,
    data_started: bool,
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Bus cycles from cycle 0 through the last completion, inclusive.
    pub cycles: u64,
    /// Per-transaction lifecycle records, concatenated in master order
    /// (identical to the single master's records when there is one).
    pub records: Vec<TxnRecord>,
    /// Total gate-level energy in pJ (0 when estimation was disabled).
    pub energy_pj: f64,
    /// Total wire transitions (including glitches).
    pub transitions: u64,
    /// Glitch transitions alone.
    pub glitch_transitions: u64,
    /// Final per-stimulus-op outcomes, concatenated in master order.
    pub outcomes: Vec<TxnOutcome>,
    /// Fault-injection and robustness counters, summed over masters.
    pub fault: FaultCounters,
    /// One slice per master, in master order.
    pub masters: Vec<MasterReport>,
    /// The cycle-exact grant lines: `(cycle, master)` per grant.
    pub grants: Vec<(u64, usize)>,
    /// Arbitration statistics (per-master grants/waits, contention).
    pub stats: ArbiterStats,
}

impl RunReport {
    /// Number of transactions executed.
    pub fn transactions(&self) -> usize {
        self.records.len()
    }
}

/// The cycle-true reference: stimulus master, bus controller (decode +
/// channels), slaves, explicit wires, hazard model and gate-level power
/// estimator.
pub struct RtlSystem {
    masters: Vec<RtlMaster>,
    arbiter: Arbiter,
    /// Scratch request-line vector, reused every cycle.
    requests: Vec<bool>,
    map: AddressMap,
    slaves: Vec<Box<dyn RtlSlaveModel>>,
    addr_ch: AddressChannel,
    read_ch: DataChannel,
    write_ch: DataChannel,
    active: Vec<ActiveTxn>,
    wires: InterfaceWires,
    estimator: GateLevelPowerEstimator,
    glitch: GlitchConfig,
    estimate: bool,
    cycle: u64,
    last_done: u64,
    /// Optional per-cycle settled-frame log (for model-equivalence tests).
    frame_log: Option<Vec<SignalFrame>>,
    /// Optional VCD waveform recording of the wire bundle.
    waveform: Option<(hierbus_sim::trace::TraceRecorder, WaveChannels)>,
    obs: TraceCollector,
    /// The card-tear schedule (at most one entry, from the fault plan).
    tear: CycleSchedule<()>,
    torn: bool,
    /// Fault counters already mirrored into the trace.
    sampled: FaultCounters,
}

/// Channel handles of the waveform recording.
struct WaveChannels {
    a_addr: hierbus_sim::trace::ChannelId,
    a_ctl: hierbus_sim::trace::ChannelId,
    r_data: hierbus_sim::trace::ChannelId,
    r_ctl: hierbus_sim::trace::ChannelId,
    w_data: hierbus_sim::trace::ChannelId,
    w_ctl: hierbus_sim::trace::ChannelId,
}

impl RtlSystem {
    /// Builds a system from stimulus ops and slave models. The address map
    /// is derived from the slaves' configurations in order.
    ///
    /// # Panics
    ///
    /// Panics if slave address windows overlap.
    pub fn new(
        ops: impl Into<std::sync::Arc<[hierbus_ec::MasterOp]>>,
        slaves: Vec<Box<dyn RtlSlaveModel>>,
        power: PowerConfig,
        glitch: GlitchConfig,
    ) -> Self {
        let mut map = AddressMap::new();
        for s in &slaves {
            map.add_slave(s.config())
                .expect("slave windows must not overlap");
        }
        RtlSystem {
            masters: vec![RtlMaster::new(ops, OutstandingLimits::CORE_DEFAULT)],
            arbiter: Arbiter::new(ArbitrationPolicy::FixedPriority, 1),
            requests: Vec::new(),
            map,
            slaves,
            addr_ch: AddressChannel::new(),
            read_ch: DataChannel::new(),
            write_ch: DataChannel::new(),
            active: Vec::new(),
            wires: InterfaceWires::new(),
            estimator: GateLevelPowerEstimator::new(power),
            glitch,
            estimate: true,
            cycle: 0,
            last_done: 0,
            frame_log: None,
            waveform: None,
            obs: TraceCollector::disabled("rtl"),
            tear: CycleSchedule::new(),
            torn: false,
            sampled: FaultCounters::default(),
        }
    }

    /// Attaches a fault plan and robustness policy to master 0;
    /// builder-style. Must be called before the first cycle.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        self.tear = CycleSchedule::new();
        if let Some(tc) = plan.tear_cycle {
            self.tear.at(tc, ());
        }
        self.masters[0].set_faults(plan, policy);
        self
    }

    /// Attaches a fault plan and robustness policy to master `idx`. A
    /// tear cycle in the plan is global — power is gone for every
    /// master. Must be called before the first cycle.
    pub fn set_master_faults(&mut self, idx: usize, plan: FaultPlan, policy: RetryPolicy) {
        assert_eq!(self.cycle, 0, "faults must be configured before running");
        if let Some(tc) = plan.tear_cycle {
            self.tear.at(tc, ());
        }
        self.masters[idx].set_faults(plan, policy);
    }

    /// Adds a master replaying `ops`, with transaction ids starting at
    /// `id_base` (masters must get disjoint id windows). Returns the
    /// new master's index. Must be called before the first cycle.
    pub fn add_master(
        &mut self,
        ops: impl Into<std::sync::Arc<[hierbus_ec::MasterOp]>>,
        id_base: u64,
    ) -> usize {
        assert_eq!(self.cycle, 0, "masters must be added before running");
        let mut m = RtlMaster::new(ops, OutstandingLimits::CORE_DEFAULT);
        m.set_id_base(id_base);
        self.masters.push(m);
        self.arbiter = Arbiter::new(self.arbiter.policy(), self.masters.len());
        self.masters.len() - 1
    }

    /// Replaces the arbitration policy. Must be called before the
    /// first cycle.
    pub fn set_arbitration(&mut self, policy: ArbitrationPolicy) {
        assert_eq!(self.cycle, 0, "policy must be set before running");
        self.arbiter = Arbiter::new(policy, self.masters.len());
    }

    /// The canonical CPU + DMA configuration over one shared memory
    /// covering both masters' windows: master 0 replays the CPU
    /// scenario with ids from 0, master 1 replays the DMA program with
    /// ids from [`DMA_ID_BASE`], arbitrated by the scenario's policy.
    pub fn for_multi_scenario(scenario: &MultiScenario) -> Self {
        let mut sys = RtlSystem::for_scenario(&scenario.cpu);
        sys.add_master(scenario.dma_ops.clone(), DMA_ID_BASE);
        sys.set_arbitration(scenario.policy);
        sys
    }

    /// True once the card has been torn.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Fault counters so far, summed over masters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.masters.iter().map(|m| m.fault_counters()).sum()
    }

    /// Downcasts the slave at position `i` to its concrete model type
    /// (post-run memory inspection; see [`RtlSlaveModel::as_any`]).
    pub fn slave_as<T: 'static>(&self, i: usize) -> Option<&T> {
        self.slaves.get(i)?.as_any()?.downcast_ref::<T>()
    }

    /// Enables transaction-span collection (request/address/data phase
    /// events per transaction; read back via [`RtlSystem::obs`]).
    pub fn enable_obs(&mut self) {
        self.obs.enable();
    }

    /// The span collector (meaningful after [`RtlSystem::enable_obs`]).
    pub fn obs(&self) -> &TraceCollector {
        &self.obs
    }

    /// Exclusive access to the span collector.
    pub fn obs_mut(&mut self) -> &mut TraceCollector {
        &mut self.obs
    }

    /// Marks the address phase of `idx` as started on the wires: the
    /// request span ends and the address span begins.
    fn obs_addr_start(&mut self, idx: usize, cycle: u64) {
        let a = &mut self.active[idx];
        if a.addr_started {
            return;
        }
        a.addr_started = true;
        let (id, addr, class) = (a.txn.id.0, a.txn.addr.raw(), access_class(a.txn.kind));
        self.obs.end(id, Phase::Request, cycle, false);
        self.obs.begin(id, Phase::Address, cycle, addr, class);
    }

    /// Marks the data phase of `idx` as started on its channel.
    fn obs_data_start(&mut self, idx: usize, cycle: u64) {
        let a = &mut self.active[idx];
        if a.data_started {
            return;
        }
        a.data_started = true;
        let phase = if a.txn.kind.is_read() {
            Phase::ReadData
        } else {
            Phase::WriteData
        };
        let (id, addr, class) = (a.txn.id.0, a.txn.addr.raw(), access_class(a.txn.kind));
        self.obs.begin(id, phase, cycle, addr, class);
    }

    /// Convenience constructor: one memory slave sized/configured for a
    /// [`Scenario`], default power and glitch models.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        use crate::slave::SimpleMem;
        use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig};
        let mem = SimpleMem::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            scenario.waits,
            AccessRights::RWX,
        ));
        RtlSystem::new(
            scenario.ops.clone(),
            vec![Box::new(mem)],
            PowerConfig::default(),
            GlitchConfig::default(),
        )
    }

    /// Disables energy estimation (pure timing run).
    pub fn disable_estimation(&mut self) {
        self.estimate = false;
    }

    /// Replaces the hazard model (e.g. [`GlitchConfig::off`] for the
    /// ablation bench).
    pub fn set_glitch(&mut self, glitch: GlitchConfig) {
        self.glitch = glitch;
    }

    /// Starts logging the settled frame of every cycle.
    pub fn enable_frame_log(&mut self) {
        self.frame_log = Some(Vec::new());
    }

    /// Starts recording the wire bundle into a VCD waveform (one sample
    /// per cycle, timescale = one tick per cycle).
    pub fn enable_waveform(&mut self) {
        use hierbus_sim::trace::TraceRecorder;
        let mut rec = TraceRecorder::new("10ns");
        let channels = WaveChannels {
            a_addr: rec.add_channel("a_addr", 36),
            a_ctl: rec.add_channel("a_ctl", SignalClass::AddrCtl.wires()),
            r_data: rec.add_channel("r_data", 32),
            r_ctl: rec.add_channel("r_ctl", SignalClass::ReadCtl.wires()),
            w_data: rec.add_channel("w_data", 32),
            w_ctl: rec.add_channel("w_ctl", SignalClass::WriteCtl.wires()),
        };
        self.waveform = Some((rec, channels));
    }

    /// The recorded waveform as VCD text, if recording was enabled.
    pub fn waveform_vcd(&self) -> Option<String> {
        self.waveform.as_ref().map(|(rec, _)| rec.to_vcd())
    }

    /// Enables the estimator's per-cycle energy trace.
    pub fn enable_power_trace(&mut self) {
        self.estimator.enable_trace();
    }

    /// The settled frames, if logging was enabled.
    pub fn frames(&self) -> Option<&[SignalFrame]> {
        self.frame_log.as_deref()
    }

    /// The gate-level estimator (characterization source).
    pub fn estimator(&self) -> &GateLevelPowerEstimator {
        &self.estimator
    }

    /// Master 0's transaction records so far (the only master's, in a
    /// single-master system; [`RunReport::masters`] has every master's).
    pub fn records(&self) -> &[TxnRecord] {
        self.masters[0].records()
    }

    /// Current cycle number (cycles executed so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Executes one full bus cycle.
    pub fn step_cycle(&mut self) {
        let cycle = self.cycle;
        // Rising edge: every master runs its bookkeeping and drives its
        // request line; the arbiter grants at most one, which issues.
        for m in &mut self.masters {
            m.begin_cycle(cycle);
        }
        let mut requests = std::mem::take(&mut self.requests);
        requests.clear();
        for m in &mut self.masters {
            requests.push(m.arbitration_request(cycle));
        }
        let granted = self.arbiter.grant(cycle, &requests);
        self.requests = requests;
        if let Some(winner) = granted {
            let (rec, txn, fault) = self.masters[winner].issue_granted(cycle);
            let decode = self.map.decode(txn.addr, txn.kind);
            let (slave, addr_waits, error) = match decode {
                Ok(id) => (Some(id), self.map.config(id).waits.address, None),
                Err(e) => (None, 0, Some(e)),
            };
            let idx = self.active.len();
            self.obs.begin(
                txn.id.0,
                Phase::Request,
                cycle,
                txn.addr.raw(),
                access_class(txn.kind),
            );
            self.active.push(ActiveTxn {
                master: winner,
                rec,
                txn,
                slave,
                fault,
                addr_started: false,
                data_started: false,
            });
            self.addr_ch.push(idx, addr_waits, error);
        }
        self.sample_fault_counters(cycle);

        // Falling edge: the bus process evaluates the three phases in the
        // paper's order (address, read, write) and drives the wires.
        let mut frame = self.wires.snapshot().to_idle();

        match self.addr_ch.step() {
            AddrCycle::Idle => {}
            AddrCycle::Busy(idx) => {
                self.obs_addr_start(idx, cycle);
                let t = &self.active[idx].txn;
                frame.drive_address(t.addr.raw(), t.kind, t.width, t.burst, false, false);
            }
            AddrCycle::Done(idx) => {
                self.obs_addr_start(idx, cycle);
                self.obs
                    .end(self.active[idx].txn.id.0, Phase::Address, cycle, false);
                let (kind, beats, wait, stall, rec, mi) = {
                    let a = &self.active[idx];
                    let waits = self.map.config(a.slave.expect("decoded")).waits;
                    let stall = match a.fault {
                        Some(FaultKind::Stall(n)) => n,
                        _ => 0,
                    };
                    (
                        a.txn.kind,
                        a.txn.beats(),
                        waits.data_wait(a.txn.kind),
                        stall,
                        a.rec,
                        a.master,
                    )
                };
                let t = &self.active[idx].txn;
                frame.drive_address(t.addr.raw(), t.kind, t.width, t.burst, true, false);
                self.masters[mi].address_done(rec, cycle);
                if kind.is_read() {
                    self.read_ch.push(idx, beats, wait, stall);
                } else {
                    self.write_ch.push(idx, beats, wait, stall);
                }
            }
            AddrCycle::Failed(idx, err) => {
                self.obs_addr_start(idx, cycle);
                self.obs
                    .end(self.active[idx].txn.id.0, Phase::Address, cycle, true);
                let t = &self.active[idx].txn;
                frame.drive_address(t.addr.raw(), t.kind, t.width, t.burst, true, true);
                let (rec, mi) = (self.active[idx].rec, self.active[idx].master);
                self.masters[mi].complete(rec, cycle, Some(err));
                self.last_done = cycle;
            }
        }

        match self.read_ch.step() {
            DataCycle::Idle => {}
            DataCycle::Busy(idx) => self.obs_data_start(idx, cycle),
            DataCycle::Beat { idx, beat, last } => {
                self.obs_data_start(idx, cycle);
                // An injected slave error fires on the first data beat,
                // before the slave is consulted — no data is ever read.
                // The error response holds the previous read-bus value
                // (matching the layer-1 adapter's frame).
                let injected =
                    beat == 0 && matches!(self.active[idx].fault, Some(FaultKind::SlaveError));
                if injected {
                    let (tag, rec, mi, addr) = {
                        let a = &self.active[idx];
                        (a.txn.id.tag(), a.rec, a.master, a.txn.beat_addr(0))
                    };
                    let prev = self.wires.r_data.value() as u32;
                    frame.drive_read(prev, tag, true, true);
                    if !last {
                        self.read_ch.cancel_current();
                    }
                    self.obs
                        .end(self.active[idx].txn.id.0, Phase::ReadData, cycle, true);
                    self.masters[mi].complete(rec, cycle, Some(BusError::SlaveError(addr)));
                    self.last_done = cycle;
                } else {
                    let (word, tag, rec, mi, err) = {
                        let a = &self.active[idx];
                        let addr = a.txn.beat_addr(beat);
                        let slave = a.slave.expect("decoded");
                        let word = self.slaves[slave.0].read_word(addr);
                        (word, a.txn.id.tag(), a.rec, a.master, None::<BusError>)
                    };
                    frame.drive_read(word, tag, true, false);
                    let a = &self.active[idx];
                    let value = a.txn.width.extract(a.txn.beat_addr(beat), word);
                    self.masters[mi].read_beat(rec, beat, value);
                    if last {
                        self.obs.end(
                            self.active[idx].txn.id.0,
                            Phase::ReadData,
                            cycle,
                            err.is_some(),
                        );
                        self.masters[mi].complete(rec, cycle, err);
                        self.last_done = cycle;
                    }
                }
            }
        }

        match self.write_ch.step() {
            DataCycle::Idle => {}
            DataCycle::Busy(idx) => self.obs_data_start(idx, cycle),
            DataCycle::Beat { idx, beat, last } => {
                self.obs_data_start(idx, cycle);
                // An injected slave error fires on the first data beat,
                // before the slave commits — memory is never modified.
                // The payload was still driven onto the bus.
                let injected =
                    beat == 0 && matches!(self.active[idx].fault, Some(FaultKind::SlaveError));
                let (bus_word, ben, tag, rec, mi) = {
                    let a = &self.active[idx];
                    let addr = a.txn.beat_addr(beat);
                    let value = a.txn.data[beat as usize];
                    // Non-enabled lanes hold the previous bus value
                    // (keeper behaviour), enabled lanes carry the datum.
                    let prev = self.wires.w_data.value() as u32;
                    let bus_word = a.txn.width.insert(addr, prev, value);
                    let ben = a.txn.width.byte_enables(addr);
                    (bus_word, ben, a.txn.id.tag(), a.rec, a.master)
                };
                frame.drive_write(bus_word, ben, tag, true, injected);
                if !injected {
                    let a = &self.active[idx];
                    let addr = a.txn.beat_addr(beat);
                    let slave = a.slave.expect("decoded");
                    self.slaves[slave.0].write_word(addr, bus_word, ben);
                }
                if last || injected {
                    let err =
                        injected.then(|| BusError::SlaveError(self.active[idx].txn.beat_addr(0)));
                    if !last {
                        self.write_ch.cancel_current();
                    }
                    self.obs.end(
                        self.active[idx].txn.id.0,
                        Phase::WriteData,
                        cycle,
                        err.is_some(),
                    );
                    self.masters[mi].complete(rec, cycle, err);
                    self.last_done = cycle;
                }
            }
        }

        self.settle(&frame);
        self.cycle += 1;
    }

    /// Drives the wires to `frame`, injecting hazards and feeding the
    /// estimator.
    fn settle(&mut self, frame: &SignalFrame) {
        self.wires.drive(frame);
        for class in SignalClass::ALL {
            let group = self.wires.group_mut(class);
            let old = group.value();
            let new = group.next_value();
            if self.estimate {
                let hazard = self.glitch.hazard_mask(
                    self.cycle
                        .wrapping_mul(8)
                        .wrapping_add(class.index() as u64),
                    old,
                    new,
                    group.width(),
                );
                if hazard != 0 {
                    group.set(old ^ hazard);
                    let pulse_up = group.update();
                    group.set(old);
                    let pulse_down = group.update();
                    group.set(new);
                    self.estimator
                        .observe(class, pulse_up, TransitionPhase::Glitch);
                    self.estimator
                        .observe(class, pulse_down, TransitionPhase::Glitch);
                }
                let settled = group.update();
                self.estimator
                    .observe(class, settled, TransitionPhase::Settled);
            } else {
                group.update();
            }
        }
        if self.estimate {
            self.estimator.cycle_boundary();
        }
        if let Some(log) = &mut self.frame_log {
            log.push(self.wires.snapshot());
        }
        if let Some((rec, ch)) = &mut self.waveform {
            let t = hierbus_sim::SimTime::from_ticks(self.cycle);
            rec.sample(t, ch.a_addr, self.wires.a_addr.value());
            rec.sample(t, ch.a_ctl, self.wires.a_ctl.value());
            rec.sample(t, ch.r_data, self.wires.r_data.value());
            rec.sample(t, ch.r_ctl, self.wires.r_ctl.value());
            rec.sample(t, ch.w_data, self.wires.w_data.value());
            rec.sample(t, ch.w_ctl, self.wires.w_ctl.value());
        }
    }

    /// Mirrors the masters' aggregate `fault.*` counters into the
    /// trace whenever they change.
    fn sample_fault_counters(&mut self, cycle: u64) {
        let c = self.fault_counters();
        if c == self.sampled {
            return;
        }
        if c.injected != self.sampled.injected {
            self.obs
                .counter_sample("fault.injected", cycle, c.injected as f64);
        }
        if c.retried != self.sampled.retried {
            self.obs
                .counter_sample("fault.retried", cycle, c.retried as f64);
        }
        if c.aborted != self.sampled.aborted {
            self.obs
                .counter_sample("fault.aborted", cycle, c.aborted as f64);
        }
        self.sampled = c;
    }

    /// Runs until the stimulus completes — or to the card tear,
    /// whichever is first. Returns the run report.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to finish within `max_cycles` — a
    /// deadlock would otherwise loop forever.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        while !self.masters.iter().all(|m| m.is_finished()) {
            if !self.tear.pop_due(self.cycle).is_empty() {
                // Power is gone: the cycle at the tear never executes.
                self.torn = true;
                break;
            }
            assert!(
                self.cycle < max_cycles,
                "bus deadlock: {} cycles without completion",
                max_cycles
            );
            self.step_cycle();
        }
        if !self.torn && !self.tear.pop_due(self.cycle).is_empty() {
            // The tear lands exactly on the settle cycle below: power
            // is gone before the handshake wires fall. Every stimulus
            // op already settled, so the only observable difference is
            // the missing settle-cycle energy — matching the TLM
            // masters, whose completion pickup lags one cycle and so
            // see this tear inside their run loop.
            self.torn = true;
        }
        if self.torn {
            for m in &mut self.masters {
                m.tear_now();
            }
            self.sample_fault_counters(self.cycle);
        } else {
            // One more cycle settles the bus back to idle: the handshake
            // wires fall, and those transitions cost energy the layer-1
            // model (whose process also runs that cycle) must see too.
            // A torn run gets no such cycle — the clock is dead.
            self.step_cycle();
        }
        let glitches: u64 = SignalClass::ALL
            .iter()
            .map(|&c| self.estimator.class_glitch_transitions(c))
            .sum();
        let masters: Vec<MasterReport> = self
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
                completed: m
                    .records()
                    .iter()
                    .filter(|r| r.done_cycle.is_some())
                    .count() as u64,
            })
            .collect();
        let any_done = masters.iter().any(|m| m.completed > 0);
        RunReport {
            cycles: if any_done { self.last_done + 1 } else { 0 },
            records: masters.iter().flat_map(|m| m.records.clone()).collect(),
            energy_pj: self.estimator.total_energy(),
            transitions: self.estimator.total_transitions(),
            glitch_transitions: glitches,
            outcomes: masters.iter().flat_map(|m| m.outcomes.clone()).collect(),
            fault: masters.iter().map(|m| m.fault).sum(),
            masters,
            grants: self.arbiter.log().to_vec(),
            stats: self.arbiter.stats().clone(),
        }
    }
}

impl std::fmt::Debug for RtlSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlSystem")
            .field("cycle", &self.cycle)
            .field("slaves", &self.slaves.len())
            .field("active", &self.active.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slave::SimpleMem;
    use hierbus_ec::sequences::{self, MasterOp};
    use hierbus_ec::{AccessRights, Address, AddressRange, BurstLen, SlaveConfig, WaitProfile};

    fn system_with_waits(
        ops: impl Into<std::sync::Arc<[MasterOp]>>,
        waits: WaitProfile,
    ) -> RtlSystem {
        let mem = SimpleMem::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            waits,
            AccessRights::RWX,
        ));
        RtlSystem::new(
            ops,
            vec![Box::new(mem)],
            PowerConfig::default(),
            GlitchConfig::off(),
        )
    }

    #[test]
    fn single_zero_wait_read_takes_one_cycle() {
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::ZERO);
        let report = sys.run(100);
        assert_eq!(report.cycles, 1);
        let r = &report.records[0];
        assert_eq!(r.issue_cycle, 0);
        assert_eq!(r.addr_done_cycle, Some(0));
        assert_eq!(r.done_cycle, Some(0));
        assert_eq!(r.data[0], SimpleMem::fill_pattern(Address::new(0x100)));
    }

    #[test]
    fn wait_states_stretch_the_transaction() {
        // 1 address wait + 2 read waits: addr done at cycle 1, beat done
        // at cycle 3.
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::new(1, 2, 0));
        let report = sys.run(100);
        let r = &report.records[0];
        assert_eq!(r.addr_done_cycle, Some(1));
        assert_eq!(r.done_cycle, Some(3));
        assert_eq!(report.cycles, 4);
    }

    #[test]
    fn back_to_back_reads_pipeline_one_per_cycle() {
        let ops = sequences::back_to_back_reads().ops;
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = sys.run(100);
        assert_eq!(report.cycles, 4);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.done_cycle, Some(i as u64));
        }
    }

    #[test]
    fn burst_read_beats_complete_one_per_cycle() {
        let ops = vec![MasterOp::burst_read(0x200, BurstLen::B4)];
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = sys.run(100);
        // Address completes cycle 0, beats complete cycles 0..=3.
        assert_eq!(report.cycles, 4);
        assert_eq!(report.records[0].data.len(), 4);
    }

    #[test]
    fn reads_overtake_slow_writes() {
        let s = sequences::read_after_write_reordered();
        let mut sys = system_with_waits(s.ops, s.waits);
        let report = sys.run(100);
        let write = &report.records[0];
        let read = &report.records[1];
        assert!(read.done_cycle.unwrap() < write.done_cycle.unwrap());
    }

    #[test]
    fn write_then_read_data_roundtrip() {
        let ops = vec![
            MasterOp::write(0x300, 0x1234_5678),
            MasterOp::read(0x300).after_idle(3),
        ];
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = sys.run(100);
        assert_eq!(report.records[1].data[0], 0x1234_5678);
    }

    #[test]
    fn decode_error_terminates_with_error() {
        let ops = vec![MasterOp::read(0x5_0000)]; // outside the slave window
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = sys.run(100);
        let r = &report.records[0];
        assert!(matches!(r.error, Some(BusError::Decode(_))));
        assert_eq!(r.done_cycle, Some(0));
    }

    #[test]
    fn rights_violation_is_an_error() {
        let rom = SimpleMem::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RX,
        ));
        let mut sys = RtlSystem::new(
            vec![MasterOp::write(0x10, 1)],
            vec![Box::new(rom)],
            PowerConfig::default(),
            GlitchConfig::off(),
        );
        let report = sys.run(100);
        assert!(matches!(
            report.records[0].error,
            Some(BusError::AccessViolation(..))
        ));
    }

    #[test]
    fn all_spec_scenarios_complete() {
        for scenario in sequences::all_scenarios() {
            let mut sys = RtlSystem::for_scenario(&scenario);
            let report = sys.run(10_000);
            assert!(report.cycles > 0, "{}", scenario.name);
            for r in &report.records {
                assert!(r.error.is_none(), "{}: {:?}", scenario.name, r.error);
            }
        }
    }

    #[test]
    fn energy_grows_with_traffic() {
        let short = {
            let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::ZERO);
            sys.set_glitch(GlitchConfig::default());
            sys.run(100).energy_pj
        };
        let long = {
            let ops: Vec<MasterOp> = (0..16).map(|i| MasterOp::read(0x100 + 4 * i)).collect();
            let mut sys = system_with_waits(ops, WaitProfile::ZERO);
            sys.set_glitch(GlitchConfig::default());
            sys.run(1000).energy_pj
        };
        assert!(long > short);
        assert!(short > 0.0);
    }

    #[test]
    fn glitches_add_energy_without_changing_timing() {
        let ops: Vec<MasterOp> = (0..32).map(|i| MasterOp::read(0x100 + 4 * i)).collect();
        let mut clean = system_with_waits(ops.clone(), WaitProfile::ZERO);
        let clean_report = clean.run(1000);
        let mut hazy = system_with_waits(ops, WaitProfile::ZERO);
        hazy.set_glitch(GlitchConfig::default());
        let hazy_report = hazy.run(1000);
        assert_eq!(clean_report.cycles, hazy_report.cycles);
        assert!(hazy_report.energy_pj > clean_report.energy_pj);
        assert!(hazy_report.glitch_transitions > 0);
        assert_eq!(clean_report.glitch_transitions, 0);
    }

    #[test]
    fn frame_log_covers_run_plus_return_to_idle() {
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::new(1, 1, 0));
        sys.enable_frame_log();
        let report = sys.run(100);
        let frames = sys.frames().unwrap();
        assert_eq!(frames.len() as u64, report.cycles + 1);
        let last = frames.last().unwrap();
        assert!(
            !last.a_valid && !last.r_valid && !last.w_valid,
            "bus settles idle"
        );
    }

    #[test]
    fn waveform_records_bus_activity() {
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::ZERO);
        sys.enable_waveform();
        sys.run(100);
        let vcd = sys.waveform_vcd().expect("waveform enabled");
        assert!(vcd.contains("$var wire 36"));
        assert!(vcd.contains("a_addr"));
        assert!(vcd.contains("b100000000 ")); // 0x100 on the address bus
    }

    #[test]
    fn two_masters_interleave_without_collisions() {
        use hierbus_ec::{DmaParams, DmaProgram, TxnOutcome, DMA_ID_BASE};
        let cpu = sequences::random_mix(
            7,
            sequences::MixParams {
                count: 40,
                ..sequences::MixParams::default()
            },
        );
        let dma = DmaProgram::seeded(9, DmaParams::default());
        let ms = MultiScenario::new("t", cpu, &dma, ArbitrationPolicy::RoundRobin);
        let mut sys = RtlSystem::for_multi_scenario(&ms);
        let report = sys.run(1_000_000);
        assert_eq!(report.masters.len(), 2);
        assert!(report.masters[1].completed > 0);
        for m in &report.masters {
            assert!(m.outcomes.iter().all(|o| *o == TxnOutcome::Ok));
        }
        assert!(report.masters[1]
            .records
            .iter()
            .all(|r| r.id.0 >= DMA_ID_BASE));
        // Exactly one grant per issued attempt, strictly cycle-ordered.
        assert_eq!(report.grants.len(), report.records.len());
        assert!(report.grants.windows(2).all(|w| w[0].0 < w[1].0));
        // Grant counts partition the records across the two masters.
        assert_eq!(
            report.stats.grants[0] as usize,
            report.masters[0].records.len()
        );
        assert_eq!(
            report.stats.grants[1] as usize,
            report.masters[1].records.len()
        );
    }

    #[test]
    fn single_master_multi_path_is_the_legacy_path() {
        // The arbitration split must not change single-master behavior:
        // a one-master system grants whenever the master requests.
        let ops = sequences::random_mix(
            3,
            sequences::MixParams {
                count: 60,
                ..sequences::MixParams::default()
            },
        )
        .ops;
        let mut sys = system_with_waits(ops, WaitProfile::new(1, 1, 2));
        let report = sys.run(1_000_000);
        assert_eq!(report.grants.len(), report.records.len());
        for ((cycle, m), r) in report.grants.iter().zip(report.records.iter()) {
            assert_eq!(*m, 0);
            assert_eq!(*cycle, r.issue_cycle);
        }
    }

    #[test]
    fn estimation_disable_keeps_timing() {
        let ops = sequences::burst_writes().ops;
        let waits = sequences::burst_writes().waits;
        let mut with = system_with_waits(ops.clone(), waits);
        let r1 = with.run(1000);
        let mut without = system_with_waits(ops, waits);
        without.disable_estimation();
        let r2 = without.run(1000);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r2.energy_pj, 0.0);
    }
}
