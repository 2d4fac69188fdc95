//! The transaction-level **layer-1** (transfer layer) bus model.
//!
//! Cycle-accurate, as in §3.1 of the paper: the master interfaces are
//! non-blocking and return a [`BusStatus`]; internally four queues carry
//! requests between the interface calls and the bus process —
//!
//! * the **request queue** holds accepted requests awaiting their address
//!   phase,
//! * the **read queue** and **write queue** hold transactions whose
//!   address phase completed, awaiting data beats on the respective
//!   channel, and
//! * the **finish queue** holds completed transactions until the master's
//!   next interface call picks them up.
//!
//! The bus process runs at the falling clock edge in four phases:
//! `get_slave_state()`, `address_phase()` (a finite state machine),
//! `read_phase()`, `write_phase()`. Because the phases execute
//! sequentially within one activation, a zero-wait single transfer moves
//! from the request queue to the finish queue in a single cycle, exactly
//! like the reference RTL.
//!
//! When frame emission is enabled the bus reconstructs the settled
//! [`SignalFrame`] of every cycle — the "transaction level to RTL
//! adapter" on which the layer-1 energy model operates.

use crate::master::CycleBus;
use crate::obs_util::access_class;
use crate::slave::{tick_slaves, ticking_slaves, SlaveReply, TlmSlave};
use crate::slots::Slots;
use hierbus_ec::{
    AddressMap, BusError, BusStatus, Completed, FaultKind, SignalFrame, SlaveId, Transaction, TxnId,
};
use hierbus_obs::{Phase, TraceCollector};
use std::collections::VecDeque;

#[derive(Debug)]
struct Active {
    txn: Transaction,
    slave: Option<SlaveId>,
    addr_done: Option<u64>,
    done: Option<u64>,
    error: Option<BusError>,
    /// Lane-extracted read results, collected beat by beat.
    read_data: Vec<u32>,
    /// Injected fault attached at issue time, if any.
    fault: Option<FaultKind>,
}

#[derive(Debug)]
enum AddrFsm {
    Idle,
    Phase {
        idx: usize,
        waits_left: u32,
        error: Option<BusError>,
    },
}

#[derive(Debug)]
struct Beat {
    idx: usize,
    beat: u32,
    waits_left: u32,
}

/// The layer-1 bus. See the [module docs](self) for the architecture.
pub struct Tlm1Bus {
    map: AddressMap,
    slaves: Vec<Box<dyn TlmSlave>>,
    /// Slaves with per-cycle behaviour ([`TlmSlave::wants_tick`]),
    /// cached at construction so pure-memory systems skip the
    /// notification loop entirely.
    ticking: Vec<usize>,
    active: Slots<Active>,
    request_q: VecDeque<usize>,
    addr_fsm: AddrFsm,
    read_q: VecDeque<usize>,
    write_q: VecDeque<usize>,
    read_beat: Option<Beat>,
    write_beat: Option<Beat>,
    /// Completed transactions awaiting master pickup, as active slots
    /// in completion order.
    finish_q: VecDeque<usize>,
    discard_read_data: bool,
    emit_frames: bool,
    frame: SignalFrame,
    irq_mask: u64,
    obs: TraceCollector,
}

impl Tlm1Bus {
    /// Builds the bus; the address map derives from the slaves'
    /// configurations in order.
    ///
    /// # Panics
    ///
    /// Panics if slave address windows overlap.
    pub fn new(slaves: Vec<Box<dyn TlmSlave>>) -> Self {
        let mut map = AddressMap::new();
        for s in &slaves {
            map.add_slave(s.config())
                .expect("slave windows must not overlap");
        }
        Tlm1Bus {
            map,
            ticking: ticking_slaves(&slaves),
            slaves,
            active: Slots::default(),
            request_q: VecDeque::new(),
            addr_fsm: AddrFsm::Idle,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            read_beat: None,
            write_beat: None,
            finish_q: VecDeque::new(),
            discard_read_data: false,
            emit_frames: false,
            frame: SignalFrame::default(),
            irq_mask: 0,
            obs: TraceCollector::disabled("tlm1"),
        }
    }

    /// Enables transaction-span collection (request/address/data phase
    /// events per transaction; read back via [`Tlm1Bus::obs`]).
    pub fn enable_obs(&mut self) {
        self.obs.enable();
    }

    /// The span collector (meaningful after [`Tlm1Bus::enable_obs`]).
    pub fn obs(&self) -> &TraceCollector {
        &self.obs
    }

    /// Exclusive access to the span collector (e.g. to add counter
    /// tracks or clear between runs).
    pub fn obs_mut(&mut self) -> &mut TraceCollector {
        &mut self.obs
    }

    /// Enables per-cycle signal-frame reconstruction (required by the
    /// layer-1 energy model; costs a frame build per active cycle).
    pub fn enable_frames(&mut self) {
        self.emit_frames = true;
    }

    /// The settled frame of the last bus-process activation (only
    /// meaningful when frames are enabled).
    pub fn last_frame(&self) -> &SignalFrame {
        &self.frame
    }

    /// Interrupt lines sampled at the last bus-process activation, one
    /// bit per slave (bit *n* = slave *n*).
    pub fn irq_mask(&self) -> u64 {
        self.irq_mask
    }

    /// Access to a slave (e.g. to inspect memory after a run).
    pub fn slave(&self, id: SlaveId) -> &dyn TlmSlave {
        self.slaves[id.0].as_ref()
    }

    /// Exclusive access to a slave.
    pub fn slave_mut(&mut self, id: SlaveId) -> &mut dyn TlmSlave {
        self.slaves[id.0].as_mut()
    }

    /// Extra first-beat wait states injected into the transaction at
    /// `idx`, if a stall fault is attached.
    fn injected_stall(&self, idx: usize) -> u32 {
        match self.active[idx].fault {
            Some(FaultKind::Stall(n)) => n,
            _ => 0,
        }
    }

    /// True when a slave-error fault is attached to the transaction at
    /// `idx`. The error fires on the first data beat, before the slave
    /// is consulted — no data is ever committed.
    fn injected_error(&self, idx: usize) -> bool {
        matches!(self.active[idx].fault, Some(FaultKind::SlaveError))
    }

    /// Phase 1 of the bus process: the address-phase FSM.
    fn address_phase(&mut self, cycle: u64, frame: &mut SignalFrame) {
        if matches!(self.addr_fsm, AddrFsm::Idle) {
            if let Some(idx) = self.request_q.pop_front() {
                {
                    let t = &self.active[idx].txn;
                    let (id, addr, class) = (t.id.0, t.addr.raw(), access_class(t.kind));
                    self.obs.end(id, Phase::Request, cycle, false);
                    self.obs.begin(id, Phase::Address, cycle, addr, class);
                }
                let a = &mut self.active[idx];
                match self.map.decode(a.txn.addr, a.txn.kind) {
                    Ok(slave) => {
                        a.slave = Some(slave);
                        self.addr_fsm = AddrFsm::Phase {
                            idx,
                            waits_left: self.map.config(slave).waits.address,
                            error: None,
                        };
                    }
                    Err(e) => {
                        self.addr_fsm = AddrFsm::Phase {
                            idx,
                            waits_left: 0,
                            error: Some(e),
                        };
                    }
                }
            } else {
                return;
            }
        }
        let AddrFsm::Phase {
            idx,
            waits_left,
            error,
        } = &mut self.addr_fsm
        else {
            return;
        };
        let idx = *idx;
        let t = &self.active[idx].txn;
        if *waits_left > 0 {
            *waits_left -= 1;
            if self.emit_frames {
                frame.drive_address(t.addr.raw(), t.kind, t.width, t.burst, false, false);
            }
            return;
        }
        let error = *error;
        if self.emit_frames {
            frame.drive_address(
                t.addr.raw(),
                t.kind,
                t.width,
                t.burst,
                true,
                error.is_some(),
            );
        }
        self.addr_fsm = AddrFsm::Idle;
        self.obs.end(
            self.active[idx].txn.id.0,
            Phase::Address,
            cycle,
            error.is_some(),
        );
        match error {
            Some(e) => {
                let a = &mut self.active[idx];
                a.done = Some(cycle);
                a.error = Some(e);
                self.finish_q.push_back(idx);
            }
            None => {
                self.active[idx].addr_done = Some(cycle);
                if self.active[idx].txn.kind.is_read() {
                    self.read_q.push_back(idx);
                } else {
                    self.write_q.push_back(idx);
                }
            }
        }
    }

    /// Phase 2: the read phase.
    fn read_phase(&mut self, cycle: u64, frame: &mut SignalFrame) {
        if self.read_beat.is_none() {
            if let Some(idx) = self.read_q.pop_front() {
                let slave = self.active[idx].slave.expect("decoded");
                let waits = self.map.config(slave).waits.read + self.injected_stall(idx);
                let t = &self.active[idx].txn;
                self.obs.begin(
                    t.id.0,
                    Phase::ReadData,
                    cycle,
                    t.addr.raw(),
                    access_class(t.kind),
                );
                self.read_beat = Some(Beat {
                    idx,
                    beat: 0,
                    waits_left: waits,
                });
            } else {
                return;
            }
        }
        let beat = self.read_beat.as_mut().expect("beat just ensured");
        if beat.waits_left > 0 {
            beat.waits_left -= 1;
            return;
        }
        let idx = beat.idx;
        let beat_no = beat.beat;
        let (addr, slave, tag, width) = {
            let a = &self.active[idx];
            (
                a.txn.beat_addr(beat_no),
                a.slave.expect("decoded"),
                a.txn.id.tag(),
                a.txn.width,
            )
        };
        let reply = if beat_no == 0 && self.injected_error(idx) {
            SlaveReply::Error
        } else {
            self.slaves[slave.0].read_word(addr)
        };
        match reply {
            SlaveReply::Wait => (), // dynamic stall: retry next cycle
            SlaveReply::Error => {
                if self.emit_frames {
                    frame.drive_read(self.frame.r_data, tag, true, true);
                }
                self.read_beat = None;
                let a = &mut self.active[idx];
                a.done = Some(cycle);
                a.error = Some(BusError::SlaveError(addr));
                self.finish_q.push_back(idx);
                self.obs
                    .end(self.active[idx].txn.id.0, Phase::ReadData, cycle, true);
            }
            SlaveReply::Ok(word) => {
                if self.emit_frames {
                    frame.drive_read(word, tag, true, false);
                }
                let a = &mut self.active[idx];
                if !self.discard_read_data {
                    a.read_data.push(width.extract(addr, word));
                }
                let last = beat_no + 1 == a.txn.beats();
                if last {
                    a.done = Some(cycle);
                    let id = a.txn.id;
                    self.finish_q.push_back(idx);
                    self.read_beat = None;
                    self.obs.end(id.0, Phase::ReadData, cycle, false);
                } else {
                    let waits = self.map.config(slave).waits.read;
                    self.read_beat = Some(Beat {
                        idx,
                        beat: beat_no + 1,
                        waits_left: waits,
                    });
                }
            }
        }
    }

    /// Phase 3: the write phase.
    fn write_phase(&mut self, cycle: u64, frame: &mut SignalFrame) {
        if self.write_beat.is_none() {
            if let Some(idx) = self.write_q.pop_front() {
                let slave = self.active[idx].slave.expect("decoded");
                let waits = self.map.config(slave).waits.write + self.injected_stall(idx);
                let t = &self.active[idx].txn;
                self.obs.begin(
                    t.id.0,
                    Phase::WriteData,
                    cycle,
                    t.addr.raw(),
                    access_class(t.kind),
                );
                self.write_beat = Some(Beat {
                    idx,
                    beat: 0,
                    waits_left: waits,
                });
            } else {
                return;
            }
        }
        let beat = self.write_beat.as_mut().expect("beat just ensured");
        if beat.waits_left > 0 {
            beat.waits_left -= 1;
            return;
        }
        let idx = beat.idx;
        let beat_no = beat.beat;
        let (addr, slave, tag, width, value) = {
            let a = &self.active[idx];
            (
                a.txn.beat_addr(beat_no),
                a.slave.expect("decoded"),
                a.txn.id.tag(),
                a.txn.width,
                a.txn.data[beat_no as usize],
            )
        };
        let ben = width.byte_enables(addr);
        // Non-enabled lanes of the write bus hold the previous bus value
        // (keeper behaviour), matching the RTL reference's wires.
        let bus_word = width.insert(addr, self.frame.w_data, value);
        let reply = if beat_no == 0 && self.injected_error(idx) {
            SlaveReply::Error
        } else {
            self.slaves[slave.0].write_word(addr, bus_word, ben)
        };
        match reply {
            SlaveReply::Wait => (),
            SlaveReply::Error => {
                if self.emit_frames {
                    frame.drive_write(bus_word, ben, tag, true, true);
                }
                self.write_beat = None;
                let a = &mut self.active[idx];
                a.done = Some(cycle);
                a.error = Some(BusError::SlaveError(addr));
                self.finish_q.push_back(idx);
                self.obs
                    .end(self.active[idx].txn.id.0, Phase::WriteData, cycle, true);
            }
            SlaveReply::Ok(()) => {
                if self.emit_frames {
                    frame.drive_write(bus_word, ben, tag, true, false);
                }
                let a = &mut self.active[idx];
                let last = beat_no + 1 == a.txn.beats();
                if last {
                    a.done = Some(cycle);
                    let id = a.txn.id;
                    self.finish_q.push_back(idx);
                    self.write_beat = None;
                    self.obs.end(id.0, Phase::WriteData, cycle, false);
                } else {
                    let waits = self.map.config(slave).waits.write;
                    self.write_beat = Some(Beat {
                        idx,
                        beat: beat_no + 1,
                        waits_left: waits,
                    });
                }
            }
        }
    }

    /// True when no transaction is queued or in progress: the bus
    /// process has nothing to do this cycle.
    fn is_idle(&self) -> bool {
        self.request_q.is_empty()
            && matches!(self.addr_fsm, AddrFsm::Idle)
            && self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.read_beat.is_none()
            && self.write_beat.is_none()
    }
}

impl CycleBus for Tlm1Bus {
    fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus {
        self.obs.begin(
            txn.id.0,
            Phase::Request,
            cycle,
            txn.addr.raw(),
            access_class(txn.kind),
        );
        let read_beats = if txn.kind.is_read() && !self.discard_read_data {
            txn.beats() as usize
        } else {
            0
        };
        let entry = Active {
            txn,
            slave: None,
            addr_done: None,
            done: None,
            error: None,
            read_data: Vec::with_capacity(read_beats),
            fault: None,
        };
        let idx = self.active.insert(entry);
        self.request_q.push_back(idx);
        BusStatus::Request
    }

    fn inject(&mut self, id: TxnId, fault: FaultKind) {
        // The master injects right after `CycleBus::issue`, before the
        // next bus-process activation, so the target is the tail of the
        // request queue.
        let idx = *self
            .request_q
            .back()
            .expect("inject without a queued transaction");
        let a = &mut self.active[idx];
        assert_eq!(a.txn.id, id, "inject targets the transaction just queued");
        a.fault = Some(fault);
    }

    fn obs_counter(&mut self, track: &'static str, cycle: u64, value: f64) {
        self.obs.counter_sample(track, cycle, value);
    }

    // Inlined into the caller's stepping loop: it runs every cycle.
    #[inline]
    fn take_completed(&mut self) -> Option<Completed> {
        let idx = self.finish_q.pop_front()?;
        let a = &mut self.active[idx];
        let done = Completed {
            id: a.txn.id,
            addr_done_cycle: a.addr_done,
            done_cycle: a.done.expect("finished entries have a done cycle"),
            error: a.error,
            data: std::mem::take(&mut a.read_data),
        };
        self.active.release(idx);
        Some(done)
    }

    fn falling_edge(&mut self, cycle: u64) -> bool {
        // Idle with no frames to emit: nothing to compute (§3.2). With
        // frames on the process stays statically sensitive like the
        // paper's SC_METHOD — its power module watches the wires every
        // cycle, and handshake signals *fall* on the first idle cycle.
        if !self.emit_frames && self.is_idle() {
            return false;
        }
        // Phase 0, get_slave_state(): slave configurations are consulted
        // through the address map inside each phase below; peripherals
        // get their time notification first.
        if !self.ticking.is_empty() {
            self.irq_mask = tick_slaves(&mut self.slaves, &self.ticking, cycle);
        }
        let mut frame = if self.emit_frames {
            self.frame.to_idle()
        } else {
            SignalFrame::default()
        };
        self.address_phase(cycle, &mut frame);
        self.read_phase(cycle, &mut frame);
        self.write_phase(cycle, &mut frame);
        if self.emit_frames {
            self.frame = frame;
        }
        true
    }

    fn discard_read_data(&mut self) {
        self.discard_read_data = true;
    }
}

impl crate::slave::HasSlaves for Tlm1Bus {
    fn slave_ref(&self, id: SlaveId) -> &dyn TlmSlave {
        self.slaves[id.0].as_ref()
    }

    fn slave_count(&self) -> usize {
        self.slaves.len()
    }
}

impl std::fmt::Debug for Tlm1Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlm1Bus")
            .field("slaves", &self.slaves.len())
            .field("active", &self.active.allocated())
            .field("request_q", &self.request_q.len())
            .field("finish_q", &self.finish_q.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TlmSystem;
    use crate::slave::MemSlave;
    use hierbus_ec::sequences::{self, MasterOp};
    use hierbus_ec::{AccessRights, Address, AddressRange, BurstLen, SlaveConfig, WaitProfile};

    fn bus_with_waits(waits: WaitProfile) -> Tlm1Bus {
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            waits,
            AccessRights::RWX,
        ));
        Tlm1Bus::new(vec![Box::new(mem)])
    }

    fn run(
        ops: impl Into<std::sync::Arc<[MasterOp]>>,
        waits: WaitProfile,
    ) -> crate::master::TlmReport {
        let mut sys = TlmSystem::new(bus_with_waits(waits), ops);
        sys.run(10_000, |_| {})
    }

    #[test]
    fn zero_wait_single_read_takes_one_cycle() {
        let report = run(vec![MasterOp::read(0x100)], WaitProfile::ZERO);
        let r = &report.records[0];
        assert_eq!(r.issue_cycle, 0);
        assert_eq!(r.addr_done_cycle, Some(0));
        assert_eq!(r.done_cycle, Some(0));
        assert_eq!(report.cycles, 1);
        assert_eq!(r.data[0], MemSlave::fill_pattern(Address::new(0x100)));
    }

    #[test]
    fn wait_states_stretch_phases() {
        let report = run(vec![MasterOp::read(0x100)], WaitProfile::new(1, 2, 0));
        let r = &report.records[0];
        assert_eq!(r.addr_done_cycle, Some(1));
        assert_eq!(r.done_cycle, Some(3));
    }

    #[test]
    fn back_to_back_reads_pipeline() {
        let report = run(sequences::back_to_back_reads().ops, WaitProfile::ZERO);
        assert_eq!(report.cycles, 4);
    }

    #[test]
    fn burst_write_lands_in_memory() {
        let data = vec![0x11, 0x22, 0x33, 0x44];
        let ops = vec![MasterOp::burst_write(0x200, data.clone())];
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        let bus = Tlm1Bus::new(vec![Box::new(mem)]);
        let mut sys = TlmSystem::new(bus, ops);
        let report = sys.run(100, |_| {});
        assert_eq!(report.cycles, 4);
        // Read back through a fresh transaction.
        let mut sys2 = TlmSystem::new(
            std::mem::replace(sys.bus_mut(), Tlm1Bus::new(vec![])),
            vec![MasterOp::burst_read(0x200, BurstLen::B4)],
        );
        let report2 = sys2.run(100, |_| {});
        assert_eq!(report2.records[0].data, data);
    }

    #[test]
    fn decode_error_reported() {
        let report = run(vec![MasterOp::read(0xF_0000)], WaitProfile::ZERO);
        assert!(matches!(report.records[0].error, Some(BusError::Decode(_))));
    }

    #[test]
    fn reads_overtake_slow_writes() {
        let s = sequences::read_after_write_reordered();
        let report = run(s.ops, s.waits);
        let write = &report.records[0];
        let read = &report.records[1];
        assert!(read.done_cycle.unwrap() < write.done_cycle.unwrap());
    }

    #[test]
    fn all_spec_scenarios_complete_without_error() {
        for scenario in sequences::all_scenarios() {
            let report = run(scenario.ops.clone(), scenario.waits);
            for r in &report.records {
                assert!(r.error.is_none(), "{}: {:?}", scenario.name, r.error);
            }
        }
    }

    #[test]
    fn active_table_stays_at_the_outstanding_limit() {
        let limits = hierbus_ec::OutstandingLimits::CORE_DEFAULT;
        let outstanding = (limits.instr_reads + limits.data_reads + limits.writes) as usize;
        let params = sequences::MixParams {
            count: 10_000,
            ..sequences::MixParams::default()
        };
        let s = sequences::random_mix(3, params);
        let mut sys = TlmSystem::new(bus_with_waits(s.waits), s.ops.clone());
        let report = sys.run(1_000_000, |_| {});
        assert_eq!(report.records.len(), 10_000);
        let bus = sys.bus();
        assert!(
            bus.active.allocated() <= outstanding,
            "{} slots for {outstanding} outstanding",
            bus.active.allocated()
        );
        assert!(bus.finish_q.is_empty());
    }

    #[test]
    fn frames_reconstruct_bus_activity() {
        let mut bus = bus_with_waits(WaitProfile::ZERO);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, vec![MasterOp::read(0x100)]);
        let mut frames = Vec::new();
        sys.run(100, |b: &mut Tlm1Bus| frames.push(*b.last_frame()));
        // One active cycle plus the return-to-idle cycle (the process
        // stays statically sensitive while frames are emitted).
        assert_eq!(frames.len(), 2);
        let f = &frames[0];
        assert!(f.a_valid && f.a_ready && f.r_valid && f.r_ready);
        assert_eq!(f.a_addr, 0x100);
        assert_eq!(f.r_data, MemSlave::fill_pattern(Address::new(0x100)));
        let idle = &frames[1];
        assert!(!idle.a_valid && !idle.r_valid, "handshakes fall on idle");
        assert_eq!(idle.r_data, f.r_data, "buses hold their values");
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
        let bus = Tlm1Bus::new(vec![Box::new(slave)]);
        let mut sys = TlmSystem::new(bus, vec![MasterOp::read(0x0)]);
        let report = sys.run(100, |_| {});
        // Address done at cycle 0, two dynamic stalls, data at cycle 2.
        assert_eq!(report.records[0].done_cycle, Some(2));
        assert_eq!(report.records[0].data, vec![0x77]);
    }

    #[test]
    fn slave_error_terminates_transaction() {
        struct ErrSlave(SlaveConfig);
        impl TlmSlave for ErrSlave {
            fn config(&self) -> SlaveConfig {
                self.0
            }
            fn read_word(&mut self, _: Address) -> SlaveReply<u32> {
                SlaveReply::Error
            }
            fn write_word(&mut self, _: Address, _: u32, _: u8) -> SlaveReply<()> {
                SlaveReply::Error
            }
        }
        let slave = ErrSlave(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        let bus = Tlm1Bus::new(vec![Box::new(slave)]);
        let mut sys = TlmSystem::new(bus, vec![MasterOp::read(0x0)]);
        let report = sys.run(100, |_| {});
        assert!(matches!(
            report.records[0].error,
            Some(BusError::SlaveError(_))
        ));
    }

    #[test]
    fn sub_word_write_merges_lanes() {
        let mut mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        mem.load(Address::new(0x300), &[0xAAAA_AAAA]);
        let bus = Tlm1Bus::new(vec![Box::new(mem)]);
        let mut sys = TlmSystem::new(
            bus,
            vec![
                MasterOp {
                    idle_before: 0,
                    kind: hierbus_ec::AccessKind::DataWrite,
                    addr: Address::new(0x301),
                    width: hierbus_ec::DataWidth::W8,
                    burst: BurstLen::Single,
                    data: vec![0xEE].into(),
                },
                MasterOp::read(0x300).after_idle(2),
            ],
        );
        let report = sys.run(100, |_| {});
        assert_eq!(report.records[1].data[0], 0xAAAA_EEAA);
    }
}
