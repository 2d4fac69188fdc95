//! The cycle-true reference bus.

use crate::channels::{AddrCycle, AddressChannel, DataChannel, DataCycle};
use crate::glitch::GlitchConfig;
use crate::power::{GateLevelPowerEstimator, PowerConfig, TransitionPhase};
use crate::wires::InterfaceWires;
use hierbus_core::slave::{tick_slaves, ticking_slaves};
use hierbus_core::{
    access_class, Completed, CycleBus, HasSlaves, MemSlave, SlaveReply, Slots, TlmSlave,
};
use hierbus_ec::{
    Address, AddressMap, BusError, FaultKind, Scenario, SignalClass, SignalFrame, SlaveId,
    Transaction,
};
use hierbus_obs::{Phase, TraceCollector};
use std::collections::VecDeque;

/// One transaction on the bus, from issue to completion.
#[derive(Debug)]
struct ActiveTxn {
    txn: Transaction,
    slave: Option<SlaveId>,
    /// The fault injected into this attempt.
    fault: Option<FaultKind>,
    /// Span bookkeeping: the address/data phase has begun on the wires.
    addr_started: bool,
    data_started: bool,
    addr_done_cycle: Option<u64>,
    /// Lane-extracted read results, collected beat by beat.
    data: Vec<u32>,
}

/// The cycle-true reference bus: bus controller (decode + channels),
/// slaves, explicit wires, hazard model and gate-level power estimator.
///
/// It is stepped like every other layer, as a [`CycleBus`] under
/// `hierbus_core::TlmSystem`, so the reference and the TLM layers share
/// their masters and differ only in the bus. Its slaves are the same
/// [`TlmSlave`]s, called on the same cycles as at layer 1: a `Wait`
/// reply holds the beat, an `Error` reply ends the transaction, and
/// ticking slaves get their time notification and sample their
/// interrupt lines at every falling edge. Its wires settle every cycle,
/// so [`falling_edge`](CycleBus::falling_edge) always runs the bus
/// process. A transaction completes at a falling edge into the finish
/// queue, and its master picks it up at the following rising edge
/// (protocol rule 5).
pub struct RtlBus {
    map: AddressMap,
    slaves: Vec<Box<dyn TlmSlave>>,
    /// Slaves with per-cycle behaviour ([`TlmSlave::wants_tick`]).
    ticking: Vec<usize>,
    irq_mask: u64,
    addr_ch: AddressChannel,
    read_ch: DataChannel,
    write_ch: DataChannel,
    /// Transactions on the bus; a slot is reused once its transaction
    /// completes, since no channel references it after that.
    active: Slots<ActiveTxn>,
    /// Completed transactions awaiting master pickup, in completion
    /// order.
    finished: VecDeque<Completed>,
    wires: InterfaceWires,
    estimator: GateLevelPowerEstimator,
    glitch: GlitchConfig,
    estimate: bool,
    /// Optional per-cycle settled-frame log (for model-equivalence tests).
    frame_log: Option<Vec<SignalFrame>>,
    obs: TraceCollector,
}

impl RtlBus {
    /// Builds the bus over `slaves`. The address map is derived from the
    /// slaves' configurations in order.
    ///
    /// # Panics
    ///
    /// Panics if slave address windows overlap.
    pub fn new(slaves: Vec<Box<dyn TlmSlave>>, power: PowerConfig, glitch: GlitchConfig) -> Self {
        let mut map = AddressMap::new();
        for s in &slaves {
            map.add_slave(s.config())
                .expect("slave windows must not overlap");
        }
        RtlBus {
            map,
            ticking: ticking_slaves(&slaves),
            slaves,
            irq_mask: 0,
            addr_ch: AddressChannel::new(),
            read_ch: DataChannel::new(),
            write_ch: DataChannel::new(),
            active: Slots::default(),
            finished: VecDeque::new(),
            wires: InterfaceWires::new(),
            estimator: GateLevelPowerEstimator::new(power),
            glitch,
            estimate: true,
            frame_log: None,
            obs: TraceCollector::disabled("rtl"),
        }
    }

    /// Convenience constructor: one memory slave sized/configured for a
    /// [`Scenario`], default power and glitch models.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        use hierbus_ec::{AccessRights, AddressRange, SlaveConfig};
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            scenario.waits,
            AccessRights::RWX,
        ));
        RtlBus::new(
            vec![Box::new(mem)],
            PowerConfig::default(),
            GlitchConfig::default(),
        )
    }

    /// Interrupt lines sampled at the last falling edge, one bit per
    /// slave (bit *n* = slave *n*).
    pub fn irq_mask(&self) -> u64 {
        self.irq_mask
    }

    /// Enables transaction-span collection (request/address/data phase
    /// events per transaction; read back via [`RtlBus::obs`]).
    pub fn enable_obs(&mut self) {
        self.obs.enable();
    }

    /// The span collector (meaningful after [`RtlBus::enable_obs`]).
    pub fn obs(&self) -> &TraceCollector {
        &self.obs
    }

    /// Exclusive access to the span collector.
    pub fn obs_mut(&mut self) -> &mut TraceCollector {
        &mut self.obs
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

    /// Marks data phase `phase` of `idx` as started on its channel.
    fn obs_data_start(&mut self, idx: usize, phase: Phase, cycle: u64) {
        let a = &mut self.active[idx];
        if a.data_started {
            return;
        }
        a.data_started = true;
        let (id, addr, class) = (a.txn.id.0, a.txn.addr.raw(), access_class(a.txn.kind));
        self.obs.begin(id, phase, cycle, addr, class);
    }

    /// The data phase of `idx` ends at `cycle`, and with it the
    /// transaction.
    fn end_data(&mut self, idx: usize, phase: Phase, cycle: u64, error: Option<BusError>) {
        let id = self.active[idx].txn.id.0;
        self.obs.end(id, phase, cycle, error.is_some());
        self.complete(idx, cycle, error);
    }

    /// Transaction `idx` finished at the falling edge of `cycle`: it
    /// moves to the finish queue, and its slot is free for the next
    /// issue.
    fn complete(&mut self, idx: usize, cycle: u64, error: Option<BusError>) {
        let a = &mut self.active[idx];
        self.finished.push_back(Completed {
            id: a.txn.id,
            addr_done_cycle: a.addr_done_cycle,
            done_cycle: cycle,
            error,
            data: std::mem::take(&mut a.data),
        });
        self.active.release(idx);
    }

    /// One cycle of the read or the write data channel: a beat that
    /// completes calls its slave and drives its data bus. A `Wait` reply
    /// holds the beat (nothing is driven), an `Error` reply ends the
    /// transaction, an `Ok` reply drives the word.
    fn data_cycle(&mut self, is_read: bool, cycle: u64, frame: &mut SignalFrame) {
        let (ch, phase) = if is_read {
            (&mut self.read_ch, Phase::ReadData)
        } else {
            (&mut self.write_ch, Phase::WriteData)
        };
        let (idx, beat, last) = match ch.step() {
            DataCycle::Idle => return,
            DataCycle::Busy(idx) => return self.obs_data_start(idx, phase, cycle),
            DataCycle::Beat { idx, beat, last } => (idx, beat, last),
        };
        self.obs_data_start(idx, phase, cycle);
        let a = &mut self.active[idx];
        let (addr, tag, width) = (a.txn.beat_addr(beat), a.txn.id.tag(), a.txn.width);
        let ben = width.byte_enables(addr);
        // Non-enabled write lanes hold the previous bus value (keeper
        // behaviour), enabled lanes carry the datum.
        let bus_word = if is_read {
            0
        } else {
            let prev = self.wires.w_data.value() as u32;
            width.insert(addr, prev, a.txn.data[beat as usize])
        };
        // An injected slave error fires on the first data beat, before
        // the slave is consulted — no data is ever read or committed.
        let reply = if beat == 0 && FaultKind::fails_first_beat(a.fault) {
            SlaveReply::Error
        } else if is_read {
            self.slaves[a.slave.expect("decoded").0].read_word(addr)
        } else {
            let slave = &mut self.slaves[a.slave.expect("decoded").0];
            slave.write_word(addr, bus_word, ben).map(|()| bus_word)
        };
        let ch = if is_read {
            &mut self.read_ch
        } else {
            &mut self.write_ch
        };
        let (word, error) = match reply {
            // The slave is busy: nothing is driven, and the beat runs
            // again next cycle.
            SlaveReply::Wait => return ch.hold(),
            SlaveReply::Error => {
                ch.cancel_current();
                // The error response holds the previous read-bus value
                // (matching the layer-1 adapter's frame); a write still
                // drives its payload.
                let shown = if is_read {
                    self.wires.r_data.value() as u32
                } else {
                    bus_word
                };
                (shown, Some(BusError::SlaveError(addr)))
            }
            SlaveReply::Ok(word) => (word, None),
        };
        if is_read {
            frame.drive_read(word, tag, true, error.is_some());
        } else {
            frame.drive_write(word, ben, tag, true, error.is_some());
        }
        if is_read && error.is_none() {
            debug_assert_eq!(a.data.len(), beat as usize, "beats arrive in order");
            a.data.push(width.extract(addr, word));
        }
        if last || error.is_some() {
            self.end_data(idx, phase, cycle, error);
        }
    }

    /// Drives the wires to `frame`, injecting hazards and feeding the
    /// estimator.
    fn settle(&mut self, frame: &SignalFrame, cycle: u64) {
        self.wires.drive(frame);
        for class in SignalClass::ALL {
            let group = self.wires.group_mut(class);
            let old = group.value();
            let new = group.next_value();
            if self.estimate {
                let hazard = self.glitch.hazard_mask(
                    cycle.wrapping_mul(8).wrapping_add(class.index() as u64),
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
    }
}

impl CycleBus for RtlBus {
    /// Decodes the transaction, opens its request span and queues its
    /// address phase, carrying its injected fault.
    fn issue(&mut self, txn: Transaction, fault: Option<FaultKind>, cycle: u64) {
        let (slave, addr_waits, error) = match self.map.decode(txn.addr, txn.kind) {
            Ok(id) => (Some(id), self.map.config(id).waits.address, None),
            Err(e) => (None, 0, Some(e)),
        };
        self.obs.begin(
            txn.id.0,
            Phase::Request,
            cycle,
            txn.addr.raw(),
            access_class(txn.kind),
        );
        let idx = self.active.insert(ActiveTxn {
            txn,
            slave,
            fault,
            addr_started: false,
            data_started: false,
            addr_done_cycle: None,
            data: Vec::new(),
        });
        self.addr_ch.push(idx, addr_waits, error);
    }

    fn obs_counter(&mut self, track: &'static str, cycle: u64, value: f64) {
        self.obs.counter_sample(track, cycle, value);
    }

    #[inline]
    fn take_completed(&mut self) -> Option<Completed> {
        self.finished.pop_front()
    }

    /// The bus process: the slaves' time notification, then the three
    /// phases in the paper's order (address, read, write) drive the
    /// wires, which then settle. It runs every cycle, idle ones
    /// included: the wires settle whether or not a transaction is on the
    /// bus.
    fn falling_edge(&mut self, cycle: u64) -> bool {
        // Peripherals get their time notification before any phase runs.
        if !self.ticking.is_empty() {
            self.irq_mask = tick_slaves(&mut self.slaves, &self.ticking, cycle);
        }
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
                let a = &mut self.active[idx];
                a.addr_done_cycle = Some(cycle);
                let t = &a.txn;
                frame.drive_address(t.addr.raw(), t.kind, t.width, t.burst, true, false);
                let waits = self.map.config(a.slave.expect("decoded")).waits;
                let ch = if t.kind.is_read() {
                    &mut self.read_ch
                } else {
                    &mut self.write_ch
                };
                ch.push(
                    idx,
                    t.beats(),
                    waits.data_wait(t.kind),
                    FaultKind::stall_waits(a.fault),
                );
            }
            AddrCycle::Failed(idx, err) => {
                self.obs_addr_start(idx, cycle);
                self.obs
                    .end(self.active[idx].txn.id.0, Phase::Address, cycle, true);
                let t = &self.active[idx].txn;
                frame.drive_address(t.addr.raw(), t.kind, t.width, t.burst, true, true);
                self.complete(idx, cycle, Some(err));
            }
        }

        self.data_cycle(true, cycle, &mut frame);
        self.data_cycle(false, cycle, &mut frame);

        self.settle(&frame, cycle);
        true
    }
}

impl HasSlaves for RtlBus {
    fn slave_ref(&self, id: SlaveId) -> &dyn TlmSlave {
        self.slaves[id.0].as_ref()
    }

    fn slave_count(&self) -> usize {
        self.slaves.len()
    }
}

impl std::fmt::Debug for RtlBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlBus")
            .field("slaves", &self.slaves.len())
            .field("active", &self.active.allocated())
            .field("finished", &self.finished.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_core::{Tlm1Bus, TlmReport, TlmSystem};
    use hierbus_ec::sequences::{self, MasterOp};
    use hierbus_ec::{
        AccessRights, Address, AddressRange, ArbitrationPolicy, BurstLen, MultiScenario,
        SlaveConfig, WaitProfile,
    };

    fn system_with_waits(
        ops: impl Into<std::sync::Arc<[MasterOp]>>,
        waits: WaitProfile,
    ) -> TlmSystem<RtlBus> {
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            waits,
            AccessRights::RWX,
        ));
        let bus = RtlBus::new(
            vec![Box::new(mem)],
            PowerConfig::default(),
            GlitchConfig::off(),
        );
        TlmSystem::new(bus, ops)
    }

    fn run(sys: &mut TlmSystem<RtlBus>, max_cycles: u64) -> TlmReport {
        sys.run(max_cycles, |_| {})
    }

    #[test]
    fn single_zero_wait_read_takes_one_cycle() {
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::ZERO);
        let report = run(&mut sys, 100);
        assert_eq!(report.cycles, 1);
        let r = &report.records[0];
        assert_eq!(r.issue_cycle, 0);
        assert_eq!(r.addr_done_cycle, Some(0));
        assert_eq!(r.done_cycle, Some(0));
        assert_eq!(r.data[0], MemSlave::fill_pattern(Address::new(0x100)));
    }

    #[test]
    fn wait_states_stretch_the_transaction() {
        // 1 address wait + 2 read waits: addr done at cycle 1, beat done
        // at cycle 3.
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::new(1, 2, 0));
        let report = run(&mut sys, 100);
        let r = &report.records[0];
        assert_eq!(r.addr_done_cycle, Some(1));
        assert_eq!(r.done_cycle, Some(3));
        assert_eq!(report.cycles, 4);
    }

    #[test]
    fn back_to_back_reads_pipeline_one_per_cycle() {
        let ops = sequences::back_to_back_reads().ops;
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = run(&mut sys, 100);
        assert_eq!(report.cycles, 4);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.done_cycle, Some(i as u64));
        }
    }

    #[test]
    fn burst_read_beats_complete_one_per_cycle() {
        let ops = vec![MasterOp::burst_read(0x200, BurstLen::B4)];
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = run(&mut sys, 100);
        // Address completes cycle 0, beats complete cycles 0..=3.
        assert_eq!(report.cycles, 4);
        assert_eq!(report.records[0].data.len(), 4);
    }

    #[test]
    fn reads_overtake_slow_writes() {
        let s = sequences::read_after_write_reordered();
        let mut sys = system_with_waits(s.ops, s.waits);
        let report = run(&mut sys, 100);
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
        let report = run(&mut sys, 100);
        assert_eq!(report.records[1].data[0], 0x1234_5678);
    }

    #[test]
    fn decode_error_terminates_with_error() {
        let ops = vec![MasterOp::read(0x5_0000)]; // outside the slave window
        let mut sys = system_with_waits(ops, WaitProfile::ZERO);
        let report = run(&mut sys, 100);
        let r = &report.records[0];
        assert!(matches!(r.error, Some(BusError::Decode(_))));
        assert_eq!(r.done_cycle, Some(0));
    }

    #[test]
    fn rights_violation_is_an_error() {
        let rom = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RX,
        ));
        let bus = RtlBus::new(
            vec![Box::new(rom)],
            PowerConfig::default(),
            GlitchConfig::off(),
        );
        let mut sys = TlmSystem::new(bus, vec![MasterOp::write(0x10, 1)]);
        let report = run(&mut sys, 100);
        assert!(matches!(
            report.records[0].error,
            Some(BusError::AccessViolation(..))
        ));
    }

    #[test]
    fn all_spec_scenarios_complete() {
        for scenario in sequences::all_scenarios() {
            let mut sys = TlmSystem::new(RtlBus::for_scenario(&scenario), scenario.ops.clone());
            let report = run(&mut sys, 10_000);
            assert!(report.cycles > 0, "{}", scenario.name);
            for r in &report.records {
                assert!(r.error.is_none(), "{}: {:?}", scenario.name, r.error);
            }
        }
    }

    #[test]
    fn energy_grows_with_traffic() {
        let energy = |ops: Vec<MasterOp>| {
            let mut sys = system_with_waits(ops, WaitProfile::ZERO);
            sys.bus_mut().set_glitch(GlitchConfig::default());
            run(&mut sys, 1000);
            sys.bus().estimator().total_energy()
        };
        let short = energy(vec![MasterOp::read(0x100)]);
        let long = energy((0..16).map(|i| MasterOp::read(0x100 + 4 * i)).collect());
        assert!(long > short);
        assert!(short > 0.0);
    }

    #[test]
    fn glitches_add_energy_without_changing_timing() {
        let ops: Vec<MasterOp> = (0..32).map(|i| MasterOp::read(0x100 + 4 * i)).collect();
        let mut clean = system_with_waits(ops.clone(), WaitProfile::ZERO);
        let clean_report = run(&mut clean, 1000);
        let mut hazy = system_with_waits(ops, WaitProfile::ZERO);
        hazy.bus_mut().set_glitch(GlitchConfig::default());
        let hazy_report = run(&mut hazy, 1000);
        let (clean, hazy) = (clean.bus().estimator(), hazy.bus().estimator());
        let glitches = |est: &GateLevelPowerEstimator| -> u64 {
            SignalClass::ALL
                .iter()
                .map(|&c| est.class_glitch_transitions(c))
                .sum()
        };
        assert_eq!(clean_report.cycles, hazy_report.cycles);
        assert!(hazy.total_energy() > clean.total_energy());
        assert!(glitches(hazy) > 0);
        assert_eq!(glitches(clean), 0);
    }

    #[test]
    fn frame_log_covers_run_plus_return_to_idle() {
        let mut sys = system_with_waits(vec![MasterOp::read(0x100)], WaitProfile::new(1, 1, 0));
        sys.bus_mut().enable_frame_log();
        let report = run(&mut sys, 100);
        let frames = sys.bus().frames().unwrap();
        assert_eq!(frames.len() as u64, report.cycles + 1);
        let last = frames.last().unwrap();
        assert!(
            !last.a_valid && !last.r_valid && !last.w_valid,
            "bus settles idle"
        );
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
        let mut sys = TlmSystem::for_multi(RtlBus::for_scenario(&ms.cpu), &ms);
        let report = run(&mut sys, 1_000_000);
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
    fn estimation_disable_keeps_timing() {
        let ops = sequences::burst_writes().ops;
        let waits = sequences::burst_writes().waits;
        let mut with = system_with_waits(ops.clone(), waits);
        let r1 = run(&mut with, 1000);
        let mut without = system_with_waits(ops, waits);
        without.bus_mut().disable_estimation();
        let r2 = run(&mut without, 1000);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(without.bus().estimator().total_energy(), 0.0);
    }

    /// A completed transaction's slot is reused, so the table peaks at
    /// the outstanding limit (4 per category, 12 in all) however long
    /// the run.
    #[test]
    fn transaction_table_stays_within_the_in_flight_bound() {
        let mix = sequences::random_mix(
            0x7AB1E,
            sequences::MixParams {
                count: 5_000,
                burst_pct: 30,
                ..sequences::MixParams::default()
            },
        );
        let mut sys = system_with_waits(mix.ops, WaitProfile::new(1, 2, 3));
        sys.disable_records();
        let report = run(&mut sys, 1_000_000);
        assert_eq!(report.masters[0].completed, 5_000);
        assert!(
            sys.bus().active.allocated() <= 12,
            "{} slots",
            sys.bus().active.allocated()
        );
    }

    #[test]
    fn dynamic_wait_slave_extends_beat() {
        /// Replies `Wait` a fixed number of times before each read.
        struct BusySlave {
            cfg: SlaveConfig,
            stalls: u32,
            left: u32,
        }
        impl TlmSlave for BusySlave {
            fn config(&self) -> SlaveConfig {
                self.cfg
            }
            fn read_word(&mut self, _addr: Address) -> SlaveReply<u32> {
                if self.left > 0 {
                    self.left -= 1;
                    SlaveReply::Wait
                } else {
                    self.left = self.stalls;
                    SlaveReply::Ok(0x77)
                }
            }
            fn write_word(&mut self, _: Address, _: u32, _: u8) -> SlaveReply<()> {
                SlaveReply::Ok(())
            }
        }
        let slave = BusySlave {
            cfg: SlaveConfig::new(
                AddressRange::new(Address::new(0), 0x1000),
                WaitProfile::ZERO,
                AccessRights::RWX,
            ),
            stalls: 2,
            left: 2,
        };
        let bus = RtlBus::new(
            vec![Box::new(slave)],
            PowerConfig::default(),
            GlitchConfig::off(),
        );
        let mut sys = TlmSystem::new(bus, vec![MasterOp::read(0x0)]);
        let report = run(&mut sys, 100);
        // Address done at cycle 0, two dynamic stalls, data at cycle 2.
        assert_eq!(report.records[0].done_cycle, Some(2));
        assert_eq!(report.records[0].data, vec![0x77]);
    }

    /// A slave error on beat 1 of a burst ends the burst there, at the
    /// same cycle and with the same records as at layer 1; the write's
    /// beat 0 stays committed.
    #[test]
    fn slave_error_on_a_later_beat_matches_layer1() {
        /// Memory that answers `Error` for one word.
        struct BadWord(MemSlave);
        impl TlmSlave for BadWord {
            fn config(&self) -> SlaveConfig {
                self.0.config()
            }
            fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
                if addr.raw() == 0x204 {
                    return SlaveReply::Error;
                }
                self.0.read_word(addr)
            }
            fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
                if addr.raw() == 0x204 {
                    return SlaveReply::Error;
                }
                self.0.write_word(addr, data, ben)
            }
        }
        let slaves = || -> Vec<Box<dyn TlmSlave>> {
            vec![Box::new(BadWord(MemSlave::new(SlaveConfig::new(
                AddressRange::new(Address::new(0), 0x1000),
                WaitProfile::new(0, 1, 1),
                AccessRights::RWX,
            ))))]
        };
        let ops = vec![
            MasterOp::burst_read(0x200, BurstLen::B4),
            MasterOp::burst_write(0x200, vec![1, 2, 3, 4]),
            MasterOp::read(0x200).after_idle(4),
        ];
        let bus = RtlBus::new(slaves(), PowerConfig::default(), GlitchConfig::off());
        let rtl = run(&mut TlmSystem::new(bus, ops.clone()), 100);
        let l1 = TlmSystem::new(Tlm1Bus::new(slaves()), ops).run(100, |_| {});
        assert_eq!(rtl.records, l1.records);
        assert_eq!(rtl.cycles, l1.cycles);
        let bad = Some(BusError::SlaveError(Address::new(0x204)));
        assert_eq!(rtl.records[0].error, bad);
        assert_eq!(rtl.records[1].error, bad);
        assert_eq!(rtl.records[2].data, vec![1]);
    }
}
