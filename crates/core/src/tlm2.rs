//! The transaction-level **layer-2** (transaction layer) bus model.
//!
//! Timed but not cycle-accurate (§3.2 of the paper): one shared
//! transaction list connects the interface functions to a bus process
//! that decrements wait-state counters; a burst is carried as a *single*
//! transaction whose data moves as one slice ("pointer passing"); the
//! slave's block data interface is invoked once, at the end of the data
//! phase. Slave wait states are read **once**, when the transaction is
//! created during the first interface call.
//!
//! # The atomicity approximation
//!
//! Because a burst's data moves as one slice at data-phase completion,
//! two *concurrent* transfers whose address ranges overlap (a read
//! racing a write — a data race even on the real bus, where the outcome
//! depends on beat interleaving) may observe a different interleaving
//! than the per-beat reference. Race-free programs see identical data.
//!
//! # The timing approximation
//!
//! Single-beat transfers keep the layer-1 fusion (the data item can
//! complete in the cycle the address phase completes), so they are
//! cycle-exact. A **burst's** data block is handed to the countdown
//! machinery and starts *the cycle after* its address phase completes —
//! one cycle late when the data channel was free. This is the documented
//! source of the layer-2 timing error (the paper's +0.5% row of Table 1):
//! small, always pessimistic, proportional to the burst fraction of the
//! traffic.
//!
//! # Energy hooks
//!
//! The bus emits one [`PhaseEvent`] when an address phase completes and
//! one when a data phase completes. The layer-2 energy model estimates
//! each phase's energy from the event alone — with no knowledge of the
//! signal state left by *previous* transactions, which is exactly the
//! correlation blindness the paper names as this layer's inaccuracy.

use crate::master::{Completed, CycleBus, PollStatus};
use crate::obs_util::access_class;
use crate::slave::{tick_slaves, ticking_slaves, SlaveReply, TlmSlave};
use crate::slots::Slots;
use hierbus_ec::{
    AccessKind, Address, AddressMap, BusError, BusStatus, DataWidth, FaultKind, SlaveId,
    Transaction, TxnId, WaitProfile,
};
use hierbus_obs::{Phase, TraceCollector};
use std::collections::VecDeque;

/// Which protocol phase a [`PhaseEvent`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// An address phase completed.
    Address,
    /// A read data phase (all beats) completed.
    ReadData,
    /// A write data phase (all beats) completed.
    WriteData,
}

/// A completed protocol phase, the layer-2 energy model's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Which phase completed.
    pub kind: PhaseKind,
    /// Transaction start address.
    pub addr: Address,
    /// Fetch, load or store.
    pub access: AccessKind,
    /// Beat width.
    pub width: DataWidth,
    /// Beat count.
    pub beats: u32,
    /// Cycles the phase occupied (elapsed cycles for a partial phase).
    pub cycles: u32,
    /// Cycles the phase would have occupied uninterrupted. Equal to
    /// [`cycles`](Self::cycles) for completed phases; for a phase cut
    /// short by a card tear, the energy model charges its per-phase
    /// average pro-rata as `cycles / planned_cycles`.
    pub planned_cycles: u32,
    /// False for a phase truncated mid-flight (card tear) — no data
    /// moved, only `cycles` of the phase were actually driven.
    pub completed: bool,
    /// Beat words (read results or write payload); empty for address
    /// phases.
    pub data: Vec<u32>,
    /// Cycle the phase completed.
    pub at_cycle: u64,
    /// The owning transaction's id (== its span trace id). In a
    /// multi-master run the issuing master is recoverable from it via
    /// [`hierbus_ec::dma::master_of_trace`].
    pub trace_id: u64,
}

#[derive(Debug)]
struct Active {
    txn: Transaction,
    slave: Option<SlaveId>,
    /// Wait states captured at creation (first interface call).
    waits: WaitProfile,
    addr_done: Option<u64>,
    done: Option<u64>,
    error: Option<BusError>,
    read_data: Vec<u32>,
    /// Injected fault attached at issue time, if any.
    fault: Option<FaultKind>,
}

#[derive(Debug)]
enum AddrState {
    Idle,
    Counting {
        idx: usize,
        left: u32,
        error: Option<BusError>,
    },
}

#[derive(Debug)]
struct DataState {
    idx: usize,
    left: u32,
    total: u32,
}

/// One direction's data machinery: a queue plus the current countdown.
#[derive(Debug, Default)]
struct DataSide {
    queue: VecDeque<usize>,
    current: Option<DataState>,
    /// A data phase completed in the current bus-process activation; the
    /// channel is only *free for fusion* from the next cycle on (the
    /// reference's channel is likewise occupied for the whole completion
    /// cycle).
    completed_this_cycle: bool,
}

/// The layer-2 bus. See the [module docs](self) for semantics.
pub struct Tlm2Bus {
    map: AddressMap,
    slaves: Vec<Box<dyn TlmSlave>>,
    /// Slaves with per-cycle behaviour ([`TlmSlave::wants_tick`]),
    /// cached at construction so pure-memory systems skip the
    /// notification loop entirely.
    ticking: Vec<usize>,
    active: Slots<Active>,
    addr_q: VecDeque<usize>,
    addr_state: AddrState,
    read: DataSide,
    write: DataSide,
    /// Completed transactions awaiting master pickup, as `(id, active
    /// slot)`. Holds at most the outstanding limit, so a flat vector
    /// beats a hash map on both insert and the poll-side lookup.
    finish_q: Vec<(TxnId, usize)>,
    /// Phase events since the last [`Tlm2Bus::drain_events`]; drained in
    /// place, so the buffer keeps its capacity across cycles.
    events: Vec<PhaseEvent>,
    emit_events: bool,
    discard_read_data: bool,
    irq_mask: u64,
    obs: TraceCollector,
}

impl Tlm2Bus {
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
        Tlm2Bus {
            map,
            ticking: ticking_slaves(&slaves),
            slaves,
            active: Slots::new(),
            addr_q: VecDeque::new(),
            addr_state: AddrState::Idle,
            read: DataSide::default(),
            write: DataSide::default(),
            finish_q: Vec::new(),
            events: Vec::new(),
            emit_events: false,
            discard_read_data: false,
            irq_mask: 0,
            obs: TraceCollector::disabled("tlm2"),
        }
    }

    /// Enables [`PhaseEvent`] emission for the layer-2 energy model.
    pub fn enable_events(&mut self) {
        self.emit_events = true;
    }

    /// Enables transaction-span collection (request/address/data phase
    /// events per transaction; read back via [`Tlm2Bus::obs`]).
    pub fn enable_obs(&mut self) {
        self.obs.enable();
    }

    /// The span collector (meaningful after [`Tlm2Bus::enable_obs`]).
    pub fn obs(&self) -> &TraceCollector {
        &self.obs
    }

    /// Exclusive access to the span collector.
    pub fn obs_mut(&mut self) -> &mut TraceCollector {
        &mut self.obs
    }

    /// Drains the phase events accumulated since the last call. The
    /// events move out by value; the buffer itself stays with the bus,
    /// so a per-cycle drain never reallocates it.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, PhaseEvent> {
        self.events.drain(..)
    }

    /// Emits partial [`PhaseEvent`]s (`completed == false`) for phases
    /// mid-flight when the clock stopped at `cycle` (card tear). The
    /// energy model charges them pro-rata; phases still queued drove
    /// nothing and are not reported. No-op unless events are enabled.
    pub fn flush_partial_phases(&mut self, cycle: u64) {
        if !self.emit_events {
            return;
        }
        if let AddrState::Counting { idx, left, error } = &self.addr_state {
            let a = &self.active[*idx];
            let planned = if error.is_some() {
                1
            } else {
                1 + a.waits.address
            };
            let elapsed = planned - 1 - left;
            if elapsed > 0 {
                self.events.push(PhaseEvent {
                    kind: PhaseKind::Address,
                    addr: a.txn.addr,
                    access: a.txn.kind,
                    width: a.txn.width,
                    beats: a.txn.beats(),
                    cycles: elapsed,
                    planned_cycles: planned,
                    completed: false,
                    data: Vec::new(),
                    at_cycle: cycle,
                    trace_id: a.txn.id.0,
                });
            }
        }
        for (side, kind) in [
            (&self.read, PhaseKind::ReadData),
            (&self.write, PhaseKind::WriteData),
        ] {
            if let Some(st) = &side.current {
                let a = &self.active[st.idx];
                let elapsed = st.total - st.left;
                if elapsed > 0 {
                    self.events.push(PhaseEvent {
                        kind,
                        addr: a.txn.addr,
                        access: a.txn.kind,
                        width: a.txn.width,
                        beats: a.txn.beats(),
                        cycles: elapsed,
                        planned_cycles: st.total,
                        completed: false,
                        data: Vec::new(),
                        at_cycle: cycle,
                        trace_id: a.txn.id.0,
                    });
                }
            }
        }
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

    fn data_duration(a: &Active) -> u32 {
        let wait = a.waits.data_wait(a.txn.kind);
        a.txn.beats() * (1 + wait) + Self::injected_stall(a)
    }

    /// Extra first-beat wait states from an injected stall fault.
    fn injected_stall(a: &Active) -> u32 {
        match a.fault {
            Some(FaultKind::Stall(n)) => n,
            _ => 0,
        }
    }

    /// Completes the data phase of `idx`: one block slave call, record
    /// keeping, optional event emission. Reads land in a stack buffer and
    /// writes go straight from the transaction's payload, so the only
    /// heap allocations are the copies someone keeps: the event's `data`
    /// (events enabled) and the record's read data (read data kept).
    fn complete_data(&mut self, idx: usize, cycle: u64, phase_cycles: u32) {
        let a = &self.active[idx];
        let (addr, kind, width, beats) = (a.txn.addr, a.txn.kind, a.txn.width, a.txn.beats());
        let slave = a.slave.expect("decoded");
        let is_read = kind.is_read();
        // `BurstLen::B8` is the longest burst.
        let mut read_buf = [0u32; 8];
        // How much of `read_buf` the event carries (reads only).
        let mut read_len = 0;
        let mut error = None;
        if matches!(a.fault, Some(FaultKind::SlaveError)) {
            // Injected slave error: fires before any data is committed
            // (the reference errors on the first beat), so memory state
            // stays identical across layers. Writes still drove their
            // payload onto the bus, so the event keeps it for energy.
            error = Some(BusError::SlaveError(addr));
        } else if is_read {
            if width == DataWidth::W32 {
                // On a slave error the event keeps the partial block.
                read_len = beats as usize;
                let block = &mut read_buf[..read_len];
                if self.slaves[slave.0].read_block(addr, block) == SlaveReply::Error {
                    error = Some(BusError::SlaveError(addr));
                }
            } else {
                // Sub-word single: one word access plus lane extraction.
                match self.slave_read_spin(slave, addr) {
                    Ok(w) => {
                        read_buf[0] = width.extract(addr, w);
                        read_len = 1;
                    }
                    Err(e) => error = Some(e),
                }
            }
        } else if width == DataWidth::W32 {
            if self.slaves[slave.0].write_block(addr, &a.txn.data) == SlaveReply::Error {
                error = Some(BusError::SlaveError(addr));
            }
        } else {
            let ben = width.byte_enables(addr);
            let bus_word = width.insert(addr, 0, a.txn.data[0]);
            if let Err(e) = self.slave_write_spin(slave, addr, bus_word, ben) {
                error = Some(e);
            }
        }
        let read = &read_buf[..read_len];
        let a = &mut self.active[idx];
        a.done = Some(cycle);
        a.error = error;
        if is_read && error.is_none() && !self.discard_read_data {
            a.read_data = read.to_vec();
        }
        let id = a.txn.id;
        self.finish_q.push((id, idx));
        self.obs.end(
            id.0,
            if is_read {
                Phase::ReadData
            } else {
                Phase::WriteData
            },
            cycle,
            error.is_some(),
        );
        if self.emit_events {
            let (phase, data) = if is_read {
                (PhaseKind::ReadData, read.to_vec())
            } else {
                (PhaseKind::WriteData, a.txn.data.to_vec())
            };
            self.events.push(PhaseEvent {
                kind: phase,
                addr,
                access: kind,
                width,
                beats,
                cycles: phase_cycles,
                planned_cycles: phase_cycles,
                completed: true,
                data,
                at_cycle: cycle,
                trace_id: id.0,
            });
        }
    }

    /// Word read spinning away dynamic waits (layer 2 cannot time them).
    fn slave_read_spin(&mut self, slave: SlaveId, addr: Address) -> Result<u32, BusError> {
        loop {
            match self.slaves[slave.0].read_word(addr) {
                SlaveReply::Ok(w) => return Ok(w),
                SlaveReply::Wait => continue,
                SlaveReply::Error => return Err(BusError::SlaveError(addr)),
            }
        }
    }

    fn slave_write_spin(
        &mut self,
        slave: SlaveId,
        addr: Address,
        word: u32,
        ben: u8,
    ) -> Result<(), BusError> {
        loop {
            match self.slaves[slave.0].write_word(addr, word, ben) {
                SlaveReply::Ok(()) => return Ok(()),
                SlaveReply::Wait => continue,
                SlaveReply::Error => return Err(BusError::SlaveError(addr)),
            }
        }
    }

    /// One direction's countdown step: pop, decrement, complete.
    fn data_step(&mut self, is_read: bool, cycle: u64) {
        let side = if is_read {
            &mut self.read
        } else {
            &mut self.write
        };
        if side.current.is_none() {
            if let Some(idx) = side.queue.pop_front() {
                let total = Self::data_duration(&self.active[idx]);
                let t = &self.active[idx].txn;
                self.obs.begin(
                    t.id.0,
                    if is_read {
                        Phase::ReadData
                    } else {
                        Phase::WriteData
                    },
                    cycle,
                    t.addr.raw(),
                    access_class(t.kind),
                );
                let side = if is_read {
                    &mut self.read
                } else {
                    &mut self.write
                };
                side.current = Some(DataState {
                    idx,
                    left: total,
                    total,
                });
            } else {
                return;
            }
        }
        let side = if is_read {
            &mut self.read
        } else {
            &mut self.write
        };
        let st = side.current.as_mut().expect("state just ensured");
        st.left -= 1;
        if st.left == 0 {
            let idx = st.idx;
            let total = st.total;
            side.current = None;
            side.completed_this_cycle = true;
            self.complete_data(idx, cycle, total);
        }
    }

    /// True when no transaction is queued or in progress: the bus
    /// process has nothing to do this cycle.
    fn is_idle(&self) -> bool {
        self.addr_q.is_empty()
            && matches!(self.addr_state, AddrState::Idle)
            && self.read.queue.is_empty()
            && self.read.current.is_none()
            && self.write.queue.is_empty()
            && self.write.current.is_none()
    }
}

impl CycleBus for Tlm2Bus {
    fn reserve_transactions(&mut self, n: usize) {
        self.active.reserve(n);
    }

    fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus {
        // Read the slave state once, at transaction creation.
        let (slave, waits) = match self.map.decode(txn.addr, txn.kind) {
            Ok(id) => (Some(id), self.map.config(id).waits),
            Err(_) => (None, WaitProfile::ZERO),
        };
        self.obs.begin(
            txn.id.0,
            Phase::Request,
            cycle,
            txn.addr.raw(),
            access_class(txn.kind),
        );
        let idx = self.active.insert(Active {
            txn,
            slave,
            waits,
            addr_done: None,
            done: None,
            error: None,
            read_data: Vec::new(),
            fault: None,
        });
        self.addr_q.push_back(idx);
        BusStatus::Request
    }

    fn inject(&mut self, id: TxnId, fault: FaultKind) {
        // The master injects right after `CycleBus::issue`, before the
        // next bus-process activation, so the target is the tail of the
        // address queue.
        let idx = *self
            .addr_q
            .back()
            .expect("inject without a queued transaction");
        let a = &mut self.active[idx];
        assert_eq!(a.txn.id, id, "inject targets the transaction just queued");
        a.fault = Some(fault);
    }

    fn obs_counter(&mut self, track: &'static str, cycle: u64, value: f64) {
        self.obs.counter_sample(track, cycle, value);
    }

    fn has_finished(&self) -> bool {
        !self.finish_q.is_empty()
    }

    fn poll(&mut self, id: TxnId) -> PollStatus {
        match self.finish_q.iter().position(|&(fid, _)| fid == id) {
            None => PollStatus::Pending,
            Some(pos) => {
                let (_, idx) = self.finish_q.swap_remove(pos);
                let a = &mut self.active[idx];
                let done = Completed {
                    addr_done_cycle: a.addr_done,
                    done_cycle: a.done.expect("finished entries have a done cycle"),
                    error: a.error,
                    data: std::mem::take(&mut a.read_data),
                };
                self.active.release(idx);
                PollStatus::Done(done)
            }
        }
    }

    fn discard_read_data(&mut self) {
        self.discard_read_data = true;
    }

    fn falling_edge(&mut self, cycle: u64) -> bool {
        if self.is_idle() {
            return false;
        }
        if !self.ticking.is_empty() {
            self.irq_mask = tick_slaves(&mut self.slaves, &self.ticking, cycle);
        }
        // Data countdowns first: a block that finishes this cycle frees
        // its channel for a pop next cycle, like the reference.
        self.read.completed_this_cycle = false;
        self.write.completed_this_cycle = false;
        self.data_step(true, cycle);
        self.data_step(false, cycle);

        // Address phase countdown.
        if matches!(self.addr_state, AddrState::Idle) {
            if let Some(idx) = self.addr_q.pop_front() {
                {
                    let t = &self.active[idx].txn;
                    let (id, addr, class) = (t.id.0, t.addr.raw(), access_class(t.kind));
                    self.obs.end(id, Phase::Request, cycle, false);
                    self.obs.begin(id, Phase::Address, cycle, addr, class);
                }
                let a = &self.active[idx];
                let error = match a.slave {
                    Some(_) => None,
                    None => Some(
                        self.map
                            .decode(a.txn.addr, a.txn.kind)
                            .expect_err("slave absent implies decode failure"),
                    ),
                };
                self.addr_state = AddrState::Counting {
                    idx,
                    left: if error.is_some() { 0 } else { a.waits.address },
                    error,
                };
            }
        }
        if let AddrState::Counting { idx, left, error } = &mut self.addr_state {
            if *left > 0 {
                *left -= 1;
            } else {
                let idx = *idx;
                let error = *error;
                self.addr_state = AddrState::Idle;
                self.obs.end(
                    self.active[idx].txn.id.0,
                    Phase::Address,
                    cycle,
                    error.is_some(),
                );
                let (addr, kind, width, burst_beats, addr_waits, trace_id) = {
                    let a = &self.active[idx];
                    (
                        a.txn.addr,
                        a.txn.kind,
                        a.txn.width,
                        a.txn.beats(),
                        a.waits.address,
                        a.txn.id.0,
                    )
                };
                if self.emit_events {
                    self.events.push(PhaseEvent {
                        kind: PhaseKind::Address,
                        addr,
                        access: kind,
                        width,
                        beats: burst_beats,
                        cycles: 1 + addr_waits,
                        planned_cycles: 1 + addr_waits,
                        completed: true,
                        data: Vec::new(),
                        at_cycle: cycle,
                        trace_id,
                    });
                }
                match error {
                    Some(e) => {
                        let a = &mut self.active[idx];
                        a.done = Some(cycle);
                        a.error = Some(e);
                        self.finish_q.push((a.txn.id, idx));
                    }
                    None => {
                        self.active[idx].addr_done = Some(cycle);
                        let is_read = kind.is_read();
                        let side = if is_read {
                            &mut self.read
                        } else {
                            &mut self.write
                        };
                        let single = burst_beats == 1;
                        if single
                            && side.current.is_none()
                            && side.queue.is_empty()
                            && !side.completed_this_cycle
                        {
                            // Fusion: a single data item may complete in
                            // the cycle its address phase completes.
                            let data_phase = if is_read {
                                Phase::ReadData
                            } else {
                                Phase::WriteData
                            };
                            self.obs.begin(
                                self.active[idx].txn.id.0,
                                data_phase,
                                cycle,
                                addr.raw(),
                                access_class(kind),
                            );
                            let a = &self.active[idx];
                            let wait = a.waits.data_wait(kind) + Self::injected_stall(a);
                            if wait == 0 {
                                self.complete_data(idx, cycle, 1);
                            } else {
                                let side = if is_read {
                                    &mut self.read
                                } else {
                                    &mut self.write
                                };
                                side.current = Some(DataState {
                                    idx,
                                    left: wait,
                                    total: 1 + wait,
                                });
                            }
                        } else {
                            // Bursts (and contended singles) go through
                            // the queue — the documented +1-cycle
                            // approximation for uncontended bursts.
                            side.queue.push_back(idx);
                        }
                    }
                }
            }
        }
        true
    }
}

impl crate::slave::HasSlaves for Tlm2Bus {
    fn slave_ref(&self, id: SlaveId) -> &dyn TlmSlave {
        self.slaves[id.0].as_ref()
    }

    fn slave_count(&self) -> usize {
        self.slaves.len()
    }
}

impl std::fmt::Debug for Tlm2Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlm2Bus")
            .field("slaves", &self.slaves.len())
            .field("active", &self.active.len())
            .field("addr_q", &self.addr_q.len())
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
    use hierbus_ec::{AccessRights, AddressRange, BurstLen, SlaveConfig};

    fn bus_with_waits(waits: WaitProfile) -> Tlm2Bus {
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            waits,
            AccessRights::RWX,
        ));
        Tlm2Bus::new(vec![Box::new(mem)])
    }

    fn run(
        ops: impl Into<std::sync::Arc<[MasterOp]>>,
        waits: WaitProfile,
    ) -> crate::master::TlmReport {
        let mut sys = TlmSystem::new(bus_with_waits(waits), ops);
        sys.run(10_000, |_| {})
    }

    #[test]
    fn zero_wait_single_read_is_cycle_exact() {
        let report = run(vec![MasterOp::read(0x100)], WaitProfile::ZERO);
        let r = &report.records[0];
        assert_eq!(r.addr_done_cycle, Some(0));
        assert_eq!(r.done_cycle, Some(0));
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn waited_single_read_is_cycle_exact() {
        // addr_wait 1, read_wait 2: layer 1 finishes at cycle 3.
        let report = run(vec![MasterOp::read(0x100)], WaitProfile::new(1, 2, 0));
        assert_eq!(report.records[0].done_cycle, Some(3));
    }

    #[test]
    fn back_to_back_single_reads_are_cycle_exact() {
        let report = run(sequences::back_to_back_reads().ops, WaitProfile::ZERO);
        assert_eq!(report.cycles, 4);
    }

    #[test]
    fn uncontended_burst_pays_one_extra_cycle() {
        // Reference timing: addr done cycle 0, 4 beats at 1/cycle →
        // done cycle 3, total 4. Layer 2: data starts cycle 1 → done
        // cycle 4, total 5.
        let report = run(
            vec![MasterOp::burst_read(0x100, BurstLen::B4)],
            WaitProfile::ZERO,
        );
        assert_eq!(report.records[0].done_cycle, Some(4));
        assert_eq!(report.cycles, 5);
    }

    #[test]
    fn burst_data_matches_memory_contents() {
        let data = vec![0xA1, 0xB2, 0xC3, 0xD4];
        let mut mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1_0000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        mem.load(Address::new(0x400), &data);
        let bus = Tlm2Bus::new(vec![Box::new(mem)]);
        let mut sys = TlmSystem::new(bus, vec![MasterOp::burst_read(0x400, BurstLen::B4)]);
        let report = sys.run(100, |_| {});
        assert_eq!(report.records[0].data, data);
    }

    #[test]
    fn burst_write_lands_in_memory_as_block() {
        let data = vec![0x11, 0x22];
        let bus = bus_with_waits(WaitProfile::ZERO);
        let mut sys = TlmSystem::new(bus, vec![MasterOp::burst_write(0x500, data)]);
        sys.run(100, |_| {});
        let slave = sys.bus().slave(SlaveId(0));
        let cfg = slave.config();
        assert!(cfg.range.contains(Address::new(0x500)));
        // Inspect through the trait by downcast-free read.
        let mut sys2 = TlmSystem::new(
            std::mem::replace(sys.bus_mut(), Tlm2Bus::new(vec![])),
            vec![MasterOp::read(0x500), MasterOp::read(0x504)],
        );
        let report = sys2.run(100, |_| {});
        assert_eq!(report.records[0].data, vec![0x11]);
        assert_eq!(report.records[1].data, vec![0x22]);
    }

    #[test]
    fn decode_error_reported() {
        let report = run(vec![MasterOp::read(0xF_0000)], WaitProfile::ZERO);
        assert!(matches!(report.records[0].error, Some(BusError::Decode(_))));
    }

    #[test]
    fn phase_events_emitted_in_order() {
        let mut bus = bus_with_waits(WaitProfile::new(1, 1, 0));
        bus.enable_events();
        let mut sys = TlmSystem::new(bus, vec![MasterOp::burst_read(0x100, BurstLen::B2)]);
        let mut events = Vec::new();
        sys.run(100, |b: &mut Tlm2Bus| events.extend(b.drain_events()));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, PhaseKind::Address);
        assert_eq!(events[0].cycles, 2); // 1 + addr_wait
        assert_eq!(events[1].kind, PhaseKind::ReadData);
        assert_eq!(events[1].beats, 2);
        assert_eq!(events[1].cycles, 4); // 2 beats × (1 + 1 wait)
        assert_eq!(events[1].data.len(), 2);
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
            bus.active.len() <= outstanding,
            "{} slots for {outstanding} outstanding",
            bus.active.len()
        );
        assert!(bus.finish_q.is_empty());
    }

    #[test]
    fn layer2_never_finishes_before_layer1_on_the_suite() {
        use crate::tlm1::Tlm1Bus;
        for scenario in sequences::all_scenarios() {
            let l2 = run(scenario.ops.clone(), scenario.waits);
            let mem = MemSlave::new(SlaveConfig::new(
                AddressRange::new(Address::new(0), 0x1_0000),
                scenario.waits,
                AccessRights::RWX,
            ));
            let mut sys1 = TlmSystem::new(Tlm1Bus::new(vec![Box::new(mem)]), scenario.ops.clone());
            let l1 = sys1.run(10_000, |_| {});
            assert!(
                l2.cycles >= l1.cycles,
                "{}: layer2 {} < layer1 {}",
                scenario.name,
                l2.cycles,
                l1.cycles
            );
        }
    }
}
