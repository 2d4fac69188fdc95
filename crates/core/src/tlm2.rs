//! The transaction-level **layer-2** (transaction layer) bus model.
//!
//! Timed but not cycle-accurate (§3.2 of the paper): one shared
//! transaction list connects the interface functions to a bus process;
//! a burst is carried as a *single* transaction whose data moves as one
//! slice ("pointer passing"); the slave is called for the whole transfer
//! once, at the end of the data phase, one word call per beat. Slave
//! wait states are read **once**, when the transaction is created during
//! the first interface call.
//!
//! # Scheduled phases
//!
//! Where the paper's bus process decrements wait-state counters every
//! cycle, this one fixes each phase's first and last cycle when it can
//! and does nothing in between. The address phase is fixed at issue: it
//! starts once the address channel is free and lasts the slave's address
//! wait states plus one cycle. The data phase is fixed when the address
//! phase completes (see the timing approximation below). Each channel —
//! address, read data, write data — keeps its phases in a FIFO, so the
//! bus's next event is the earliest FIFO head, which
//! [`CycleBus::next_wake`] reports: a
//! [`TlmSystem`](crate::TlmSystem) steps only those cycles.
//!
//! A slave that answers [`SlaveReply::Wait`](crate::SlaveReply::Wait)
//! holds the data phase: the beats before the waiting one have moved,
//! and the transfer resumes at the waiting beat at the next falling
//! edge, after the slaves' tick. Each held cycle moves the phase's end,
//! and every phase queued behind it on that side, one cycle later; the
//! phase's [`PhaseEvent`] counts it.
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
//! complete in the cycle the address phase completes, when its side is
//! free), so they are cycle-exact. Any other data phase — a **burst**,
//! or a single whose side is busy — starts the cycle after its address
//! phase completes, or once its side is free if that is later: an
//! uncontended burst is one cycle late. This is the documented source of
//! the layer-2 timing error (the paper's +0.5% row of Table 1): small,
//! always pessimistic, proportional to the burst fraction of the
//! traffic.
//!
//! # Energy hooks
//!
//! The bus emits one [`PhaseEvent`] when an address phase completes and
//! one when a data phase completes. The layer-2 energy model estimates
//! each phase's energy from the event alone — with no knowledge of the
//! signal state left by *previous* transactions, which is exactly the
//! correlation blindness the paper names as this layer's inaccuracy.

use crate::master::CycleBus;
use crate::obs_util::access_class;
use crate::slave::{tick_slaves, ticking_slaves, transfer, Stop, TlmSlave};
use crate::slots::Slots;
use hierbus_ec::{
    AccessKind, Address, AddressMap, BusError, Completed, DataWidth, FaultKind, SlaveId,
    Transaction, WaitProfile,
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

impl PhaseEvent {
    /// The event of `txn`'s `kind` phase at `at_cycle`, which drove
    /// `cycles` of its `planned_cycles`: complete when they are equal.
    fn of(
        kind: PhaseKind,
        txn: &Transaction,
        cycles: u32,
        planned_cycles: u32,
        data: Vec<u32>,
        at_cycle: u64,
    ) -> Self {
        PhaseEvent {
            kind,
            addr: txn.addr,
            access: txn.kind,
            width: txn.width,
            beats: txn.beats(),
            cycles,
            planned_cycles,
            completed: cycles == planned_cycles,
            data,
            at_cycle,
            trace_id: txn.id.0,
        }
    }
}

#[derive(Debug)]
struct Active {
    txn: Transaction,
    slave: Option<SlaveId>,
    /// Wait states captured at creation (first interface call).
    waits: WaitProfile,
    /// First and last cycle (inclusive) of the transaction's scheduled
    /// phase: the address phase from issue on, the data phase once the
    /// address phase has completed.
    start: u64,
    end: u64,
    /// The beat the slave transfer starts from: 0, or after a `Wait`
    /// the waiting beat.
    beat: u32,
    addr_done: Option<u64>,
    done: Option<u64>,
    error: Option<BusError>,
    read_data: Vec<u32>,
    /// Injected fault attached at issue time, if any.
    fault: Option<FaultKind>,
}

impl Active {
    /// The scheduled phase's length in cycles.
    fn cycles(&self) -> u32 {
        (self.end - self.start + 1) as u32
    }
}

/// The span phase of a read or write data phase.
fn data_phase(is_read: bool) -> Phase {
    if is_read {
        Phase::ReadData
    } else {
        Phase::WriteData
    }
}

/// One channel's schedule: the slots whose phases are scheduled on it,
/// in order (the head is in progress or next), and the first cycle
/// after the last of them.
#[derive(Debug, Default)]
struct Channel {
    queue: VecDeque<usize>,
    free_from: u64,
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
    addr: Channel,
    read: Channel,
    write: Channel,
    /// The current read phase's words, one per beat (`BurstLen::B8` is
    /// the longest burst). A read phase held by a `Wait` keeps its
    /// finished beats here; the next read phase starts only once the
    /// read side is free.
    read_words: [u32; 8],
    /// Completed transactions awaiting master pickup, as active slots
    /// in completion order.
    finish_q: VecDeque<usize>,
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
            active: Slots::default(),
            addr: Channel::default(),
            read: Channel::default(),
            write: Channel::default(),
            read_words: [0; 8],
            finish_q: VecDeque::new(),
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
        for (ch, kind) in [
            (&self.addr, PhaseKind::Address),
            (&self.read, PhaseKind::ReadData),
            (&self.write, PhaseKind::WriteData),
        ] {
            let Some(a) = ch.queue.front().map(|&idx| &self.active[idx]) else {
                continue;
            };
            if a.start < cycle {
                let elapsed = (cycle - a.start) as u32;
                let event = PhaseEvent::of(kind, &a.txn, elapsed, a.cycles(), Vec::new(), cycle);
                self.events.push(event);
            }
        }
    }

    /// Interrupt lines sampled at the last bus-process activation, one
    /// bit per slave (bit *n* = slave *n*).
    pub fn irq_mask(&self) -> u64 {
        self.irq_mask
    }

    fn data_side(&mut self, is_read: bool) -> &mut Channel {
        if is_read {
            &mut self.read
        } else {
            &mut self.write
        }
    }

    /// Ends data phase `idx`, the head of its side, at `cycle`: one
    /// slave transfer, record keeping, optional event emission. A slave
    /// `Wait` holds the phase one more cycle, to resume at the waiting
    /// beat, and every phase queued behind it on that side moves a cycle
    /// later. Reads land in the bus's word buffer and writes go straight
    /// from the transaction's payload, so the only heap allocations are
    /// the copies someone keeps: the event's `data` (events enabled) and
    /// the record's read data (read data kept).
    fn complete_data(&mut self, is_read: bool, idx: usize, cycle: u64) {
        let a = &self.active[idx];
        let (width, beats) = (a.txn.width, a.txn.beats());
        let injected = FaultKind::fails_first_beat(a.fault);
        let stop = if injected {
            // Injected slave error: fires before any data is committed
            // (the reference errors on the first beat), so memory state
            // stays identical across layers. Writes still drove their
            // payload onto the bus, so the event keeps it for energy.
            Err(Stop::Error(0))
        } else {
            let slave = a.slave.expect("decoded");
            transfer(
                self.slaves[slave.0].as_mut(),
                &a.txn,
                a.beat,
                &mut self.read_words,
            )
        };
        // How many beats moved: all of them, or those before the error.
        let (moved, error) = match stop {
            Ok(()) => (beats, None),
            Err(Stop::Wait(beat)) => {
                self.active[idx].beat = beat;
                let side = if is_read {
                    &mut self.read
                } else {
                    &mut self.write
                };
                for (k, &i) in side.queue.iter().enumerate() {
                    let p = &mut self.active[i];
                    p.start += u64::from(k > 0);
                    p.end += 1;
                }
                side.free_from += 1;
                return;
            }
            Err(Stop::Error(beat)) => (beat, Some(BusError::SlaveError(a.txn.beat_addr(beat)))),
        };
        self.data_side(is_read).queue.pop_front();
        let a = &mut self.active[idx];
        a.done = Some(cycle);
        a.error = error;
        if is_read && !self.discard_read_data {
            a.read_data = self.read_words[..moved as usize].to_vec();
        }
        self.finish_q.push_back(idx);
        let a = &self.active[idx];
        self.obs
            .end(a.txn.id.0, data_phase(is_read), cycle, error.is_some());
        if self.emit_events {
            let (kind, data) = if is_read {
                // A failing word block reads zero past the failing beat;
                // a failing sub-word read and an injected error carry
                // nothing.
                let shown = if injected || (error.is_some() && width != DataWidth::W32) {
                    0
                } else {
                    beats
                };
                let mut data = self.read_words[..moved as usize].to_vec();
                data.resize(shown as usize, 0);
                (PhaseKind::ReadData, data)
            } else {
                (PhaseKind::WriteData, a.txn.data.to_vec())
            };
            let event = PhaseEvent::of(kind, &a.txn, a.cycles(), a.cycles(), data, cycle);
            self.events.push(event);
        }
    }

    /// Opens the span of data phase `idx` at `cycle`, its start.
    fn begin_data(&mut self, is_read: bool, idx: usize, cycle: u64) {
        let t = &self.active[idx].txn;
        let class = access_class(t.kind);
        self.obs
            .begin(t.id.0, data_phase(is_read), cycle, t.addr.raw(), class);
    }

    /// One data side at the falling edge of `cycle`: its head phase
    /// starts, ends, or both.
    fn data_edge(&mut self, is_read: bool, cycle: u64) {
        let Some(&idx) = self.data_side(is_read).queue.front() else {
            return;
        };
        let (start, end) = (self.active[idx].start, self.active[idx].end);
        if start == cycle {
            self.begin_data(is_read, idx, cycle);
        }
        if end == cycle {
            self.complete_data(is_read, idx, cycle);
        }
    }

    /// The address channel at the falling edge of `cycle`: its head
    /// phase starts, ends, or both. A completed address phase schedules
    /// its data phase: a single data item on a free side fuses with it
    /// (it may complete in the same cycle), anything else starts the
    /// cycle after, once its side is free.
    fn addr_edge(&mut self, cycle: u64) {
        let Some(&idx) = self.addr.queue.front() else {
            return;
        };
        let a = &self.active[idx];
        let id = a.txn.id.0;
        if a.start == cycle {
            let (addr, class) = (a.txn.addr.raw(), access_class(a.txn.kind));
            self.obs.end(id, Phase::Request, cycle, false);
            self.obs.begin(id, Phase::Address, cycle, addr, class);
        }
        if a.end != cycle {
            return;
        }
        self.addr.queue.pop_front();
        let a = &self.active[idx];
        let error = match a.slave {
            Some(_) => None,
            None => Some(
                self.map
                    .decode(a.txn.addr, a.txn.kind)
                    .expect_err("slave absent implies decode failure"),
            ),
        };
        self.obs.end(id, Phase::Address, cycle, error.is_some());
        if self.emit_events {
            let event = PhaseEvent::of(
                PhaseKind::Address,
                &a.txn,
                a.cycles(),
                a.cycles(),
                Vec::new(),
                cycle,
            );
            self.events.push(event);
        }
        if let Some(e) = error {
            let a = &mut self.active[idx];
            a.done = Some(cycle);
            a.error = Some(e);
            self.finish_q.push_back(idx);
            return;
        }
        let (kind, beats) = (a.txn.kind, a.txn.beats());
        let total = beats * (1 + a.waits.data_wait(kind)) + FaultKind::stall_waits(a.fault);
        let is_read = kind.is_read();
        let side = self.data_side(is_read);
        // A side that completed a phase this cycle is free for fusion
        // only from the next cycle on, like the reference's channel.
        // Bursts never fuse: the documented +1-cycle approximation.
        let data_start = if beats == 1 && side.free_from <= cycle {
            cycle
        } else {
            side.free_from.max(cycle + 1)
        };
        let data_end = data_start + u64::from(total) - 1;
        side.free_from = data_end + 1;
        side.queue.push_back(idx);
        let a = &mut self.active[idx];
        a.addr_done = Some(cycle);
        a.start = data_start;
        a.end = data_end;
        if data_start == cycle {
            self.begin_data(is_read, idx, cycle);
            if data_end == cycle {
                self.complete_data(is_read, idx, cycle);
            }
        }
    }

    /// True when no transaction is queued or in progress: the bus
    /// process has nothing to do this cycle.
    fn is_idle(&self) -> bool {
        self.addr.queue.is_empty() && self.read.queue.is_empty() && self.write.queue.is_empty()
    }
}

impl CycleBus for Tlm2Bus {
    /// Creates the transaction and fixes its address phase: it starts
    /// once the address channel is free and lasts the slave's address
    /// wait states plus one cycle (one cycle for a decode error).
    fn issue(&mut self, txn: Transaction, fault: Option<FaultKind>, cycle: u64) {
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
        let start = self.addr.free_from.max(cycle);
        let end = start + u64::from(waits.address);
        self.addr.free_from = end + 1;
        let idx = self.active.insert(Active {
            txn,
            slave,
            waits,
            start,
            end,
            beat: 0,
            addr_done: None,
            done: None,
            error: None,
            read_data: Vec::new(),
            fault,
        });
        self.addr.queue.push_back(idx);
    }

    fn obs_counter(&mut self, track: &'static str, cycle: u64, value: f64) {
        self.obs.counter_sample(track, cycle, value);
    }

    // Inlined into the caller's stepping loop: it runs every stepped
    // cycle.
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
        // Data sides first: a phase that ends this cycle frees its side
        // for a start next cycle, like the reference.
        self.data_edge(true, cycle);
        self.data_edge(false, cycle);
        self.addr_edge(cycle);
        true
    }

    /// The earliest scheduled phase end, or with spans on the earliest
    /// start or end still ahead (a span opens at its phase's start);
    /// the next cycle while completions await pickup or a slave ticks.
    fn next_wake(&self, cycle: u64) -> u64 {
        if !self.ticking.is_empty() || !self.finish_q.is_empty() {
            return cycle + 1;
        }
        let spans = self.obs.is_enabled();
        [&self.addr, &self.read, &self.write]
            .into_iter()
            .filter_map(|ch| ch.queue.front())
            .map(|&idx| {
                let a = &self.active[idx];
                if spans && a.start > cycle {
                    a.start
                } else {
                    a.end
                }
            })
            .min()
            .unwrap_or(u64::MAX)
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
            .field("active", &self.active.allocated())
            .field("addr_q", &self.addr.queue.len())
            .field("finish_q", &self.finish_q.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TlmSystem;
    use crate::slave::{HasSlaves, MemSlave, SlaveReply};
    use crate::tlm1::Tlm1Bus;
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
        let slave = sys.bus().slave_ref(SlaveId(0));
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
            bus.active.allocated() <= outstanding,
            "{} slots for {outstanding} outstanding",
            bus.active.allocated()
        );
        assert!(bus.finish_q.is_empty());
    }

    #[test]
    fn layer2_never_finishes_before_layer1_on_the_suite() {
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
        let slave = || BusySlave {
            cfg: SlaveConfig::new(
                AddressRange::new(Address::new(0), 0x1000),
                WaitProfile::ZERO,
                AccessRights::RWX,
            ),
            stalls: 2,
            left: 2,
        };
        let ops = vec![MasterOp::read(0x0)];
        let l1 =
            TlmSystem::new(Tlm1Bus::new(vec![Box::new(slave())]), ops.clone()).run(100, |_| {});
        let mut bus = Tlm2Bus::new(vec![Box::new(slave())]);
        bus.enable_events();
        let mut events = Vec::new();
        let l2 =
            TlmSystem::new(bus, ops).run(100, |b: &mut Tlm2Bus| events.extend(b.drain_events()));
        assert_eq!(l2.records[0].data, vec![0x77]);
        assert!(
            l2.cycles >= l1.cycles,
            "layer2 {} < layer1 {}",
            l2.cycles,
            l1.cycles
        );
        // The one-cycle data phase was held for the two dynamic stalls.
        let data = events
            .iter()
            .find(|e| e.kind == PhaseKind::ReadData)
            .unwrap();
        assert_eq!((data.cycles, data.planned_cycles), (3, 3));
    }

    /// A `Wait` on beat 2 of a 4-beat read holds the phase; the transfer
    /// resumes at beat 2, so no beat is read twice.
    #[test]
    fn burst_wait_resumes_at_the_waiting_beat() {
        /// Memory that answers `Wait` once at 0x108 and logs every `Ok`
        /// read.
        struct WaitAtBeat2 {
            mem: MemSlave,
            waited: bool,
            reads: Vec<u64>,
        }
        impl TlmSlave for WaitAtBeat2 {
            fn config(&self) -> SlaveConfig {
                self.mem.config()
            }
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
            }
            fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
                if addr.raw() == 0x108 && !self.waited {
                    self.waited = true;
                    return SlaveReply::Wait;
                }
                self.reads.push(addr.raw());
                self.mem.read_word(addr)
            }
            fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
                self.mem.write_word(addr, data, ben)
            }
        }
        let slaves = || -> Vec<Box<dyn TlmSlave>> {
            let mut mem = MemSlave::new(SlaveConfig::new(
                AddressRange::new(Address::new(0), 0x1000),
                WaitProfile::ZERO,
                AccessRights::RWX,
            ));
            mem.load(Address::new(0x100), &[0xA1, 0xB2, 0xC3, 0xD4]);
            vec![Box::new(WaitAtBeat2 {
                mem,
                waited: false,
                reads: Vec::new(),
            })]
        };
        let ops = vec![MasterOp::burst_read(0x100, BurstLen::B4)];
        let l1 = TlmSystem::new(Tlm1Bus::new(slaves()), ops.clone()).run(100, |_| {});
        let mut sys = TlmSystem::new(Tlm2Bus::new(slaves()), ops);
        let l2 = sys.run(100, |_| {});
        assert_eq!(l2.records[0].data, l1.records[0].data);
        assert_eq!(l2.records[0].data, vec![0xA1, 0xB2, 0xC3, 0xD4]);
        let slave = sys.bus().slave_as::<WaitAtBeat2>(SlaveId(0)).unwrap();
        assert_eq!(slave.reads, vec![0x100, 0x104, 0x108, 0x10C]);
        assert!(l2.cycles > l1.cycles);
    }

    /// A slave error on beat 1 of a burst ends the burst there with
    /// layer 1's error address and read data; the write's beat 0 stays
    /// committed.
    #[test]
    fn slave_error_on_a_later_beat_matches_layer1() {
        /// Memory that answers `Error` for one word.
        struct BadWord(MemSlave);
        impl TlmSlave for BadWord {
            fn config(&self) -> SlaveConfig {
                self.0.config()
            }
            fn as_any(&self) -> Option<&dyn std::any::Any> {
                Some(self)
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
        let mut sys1 = TlmSystem::new(Tlm1Bus::new(slaves()), ops.clone());
        let l1 = sys1.run(100, |_| {});
        let mut bus2 = Tlm2Bus::new(slaves());
        bus2.enable_events();
        let mut sys2 = TlmSystem::new(bus2, ops);
        let mut events = Vec::new();
        let l2 = sys2.run(100, |b: &mut Tlm2Bus| events.extend(b.drain_events()));
        let outcome = |r: &crate::master::TlmReport| -> Vec<_> {
            r.records
                .iter()
                .map(|r| (r.error, r.data.clone()))
                .collect()
        };
        assert_eq!(outcome(&l2), outcome(&l1));
        let bad = Some(BusError::SlaveError(Address::new(0x204)));
        assert_eq!(l2.records[0].error, bad);
        assert_eq!(l2.records[1].error, bad);
        assert_eq!(l2.records[2].data, vec![1]);
        // The failed burst's event carries its word block, zero past the
        // failing beat.
        let burst = events
            .iter()
            .find(|e| e.kind == PhaseKind::ReadData)
            .unwrap();
        let first = MemSlave::fill_pattern(Address::new(0x200));
        assert_eq!(burst.data, vec![first, 0, 0, 0]);
        let snapshot = |s: &dyn TlmSlave| -> Vec<(u64, u32)> {
            let any = s.as_any().unwrap();
            any.downcast_ref::<BadWord>().unwrap().0.snapshot()
        };
        assert_eq!(
            snapshot(sys2.bus().slave_ref(SlaveId(0))),
            snapshot(sys1.bus().slave_ref(SlaveId(0)))
        );
    }
}
