//! The transaction-level **layer-3** (message layer) bus model.
//!
//! The paper adopts Haverinen et al.'s layering, whose top layer is the
//! *message layer*: untimed, event-driven, abstract data, several data
//! items per transaction — used for functional partitioning and
//! algorithm work before any timing exists. The paper's own Java Card
//! model starts life at this level (Fig. 7a). This module completes the
//! hierarchy in code:
//!
//! * the native interface is *blocking and untimed*: [`Tlm3Bus::read`]
//!   and [`Tlm3Bus::write`] move whole buffers in one call;
//! * a [`CycleBus`] bridge (Haverinen: "bridging layer three or layer
//!   two components to cycle accurate systems") lets the same stimulus
//!   machinery drive it — every transaction completes in its issue
//!   cycle, so "timing" collapses to the issue schedule, which is
//!   exactly what an untimed model should report.

use crate::master::{Completed, CycleBus, PollStatus};
use crate::slave::{SlaveReply, TlmSlave};
use hierbus_ec::{
    Address, AddressMap, BusError, BusStatus, DataWidth, SlaveId, Transaction, TxnId,
};

/// The layer-3 bus. See the [module docs](self).
pub struct Tlm3Bus {
    map: AddressMap,
    slaves: Vec<Box<dyn TlmSlave>>,
    finish_q: hierbus_ec::FastIdMap<TxnId, Completed>,
    messages: u64,
}

impl Tlm3Bus {
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
        Tlm3Bus {
            map,
            slaves,
            finish_q: hierbus_ec::FastIdMap::default(),
            messages: 0,
        }
    }

    /// Messages (untimed transfers) completed so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Access to a slave (e.g. to inspect memory).
    pub fn slave(&self, id: SlaveId) -> &dyn TlmSlave {
        self.slaves[id.0].as_ref()
    }

    /// Exclusive access to a slave.
    pub fn slave_mut(&mut self, id: SlaveId) -> &mut dyn TlmSlave {
        self.slaves[id.0].as_mut()
    }

    /// Untimed block read: fills `buf` from consecutive words at `addr`.
    ///
    /// # Errors
    ///
    /// Decode, rights or slave errors as [`BusError`].
    pub fn read(&mut self, addr: Address, buf: &mut [u32]) -> Result<(), BusError> {
        let slave = self.map.decode(addr, hierbus_ec::AccessKind::DataRead)?;
        self.messages += 1;
        match self.slaves[slave.0].read_block(addr, buf) {
            SlaveReply::Ok(()) => Ok(()),
            _ => Err(BusError::SlaveError(addr)),
        }
    }

    /// Untimed block write: stores `data` to consecutive words at `addr`.
    ///
    /// # Errors
    ///
    /// Decode, rights or slave errors as [`BusError`].
    pub fn write(&mut self, addr: Address, data: &[u32]) -> Result<(), BusError> {
        let slave = self.map.decode(addr, hierbus_ec::AccessKind::DataWrite)?;
        self.messages += 1;
        match self.slaves[slave.0].write_block(addr, data) {
            SlaveReply::Ok(()) => Ok(()),
            _ => Err(BusError::SlaveError(addr)),
        }
    }

    /// Executes a whole transaction immediately (the bridge's engine).
    fn execute(&mut self, txn: &Transaction) -> Completed {
        let result = self.map.decode(txn.addr, txn.kind);
        let (error, data) = match result {
            Err(e) => (Some(e), Vec::new()),
            Ok(slave) => {
                self.messages += 1;
                if txn.kind.is_read() {
                    if txn.width == DataWidth::W32 {
                        let mut buf = vec![0u32; txn.beats() as usize];
                        match self.slaves[slave.0].read_block(txn.addr, &mut buf) {
                            SlaveReply::Ok(()) => (None, buf),
                            _ => (Some(BusError::SlaveError(txn.addr)), Vec::new()),
                        }
                    } else {
                        match self.read_word_spin(slave, txn.addr) {
                            Ok(w) => (None, vec![txn.width.extract(txn.addr, w)]),
                            Err(e) => (Some(e), Vec::new()),
                        }
                    }
                } else if txn.width == DataWidth::W32 {
                    match self.slaves[slave.0].write_block(txn.addr, &txn.data) {
                        SlaveReply::Ok(()) => (None, Vec::new()),
                        _ => (Some(BusError::SlaveError(txn.addr)), Vec::new()),
                    }
                } else {
                    let ben = txn.width.byte_enables(txn.addr);
                    let word = txn.width.insert(txn.addr, 0, txn.data[0]);
                    match self.slaves[slave.0].write_word(txn.addr, word, ben) {
                        SlaveReply::Ok(()) => (None, Vec::new()),
                        SlaveReply::Wait => (None, Vec::new()), // untimed: waits vanish
                        SlaveReply::Error => (Some(BusError::SlaveError(txn.addr)), Vec::new()),
                    }
                }
            }
        };
        Completed {
            addr_done_cycle: None,
            done_cycle: 0, // patched by the bridge with the issue cycle
            error,
            data,
        }
    }

    fn read_word_spin(&mut self, slave: SlaveId, addr: Address) -> Result<u32, BusError> {
        loop {
            match self.slaves[slave.0].read_word(addr) {
                SlaveReply::Ok(w) => return Ok(w),
                SlaveReply::Wait => continue,
                SlaveReply::Error => return Err(BusError::SlaveError(addr)),
            }
        }
    }
}

impl CycleBus for Tlm3Bus {
    fn issue(&mut self, txn: Transaction, cycle: u64) -> BusStatus {
        let mut done = self.execute(&txn);
        done.addr_done_cycle = Some(cycle);
        done.done_cycle = cycle;
        self.finish_q.insert(txn.id, done);
        BusStatus::Request
    }

    fn has_finished(&self) -> bool {
        !self.finish_q.is_empty()
    }

    fn poll(&mut self, id: TxnId) -> PollStatus {
        match self.finish_q.remove(&id) {
            Some(done) => PollStatus::Done(done),
            None => PollStatus::Pending,
        }
    }

    fn falling_edge(&mut self, _cycle: u64) -> bool {
        // Untimed: everything already happened at issue, so there is no
        // work to do; the edge counts as an activation while completions
        // wait for pickup at the master's next rising edge.
        !self.finish_q.is_empty()
    }
}

impl crate::slave::HasSlaves for Tlm3Bus {
    fn slave_ref(&self, id: SlaveId) -> &dyn TlmSlave {
        self.slaves[id.0].as_ref()
    }

    fn slave_count(&self) -> usize {
        self.slaves.len()
    }
}

impl std::fmt::Debug for Tlm3Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlm3Bus")
            .field("slaves", &self.slaves.len())
            .field("messages", &self.messages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TlmSystem;
    use crate::slave::MemSlave;
    use hierbus_ec::sequences::{self, MasterOp, MixParams};
    use hierbus_ec::{AccessRights, AddressRange, SlaveConfig, WaitProfile};

    fn bus() -> Tlm3Bus {
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            WaitProfile::new(2, 3, 3), // waits are irrelevant at layer 3
            AccessRights::RWX,
        ));
        Tlm3Bus::new(vec![Box::new(mem)])
    }

    #[test]
    fn untimed_block_roundtrip() {
        let mut b = bus();
        b.write(Address::new(0x100), &[1, 2, 3]).unwrap();
        let mut buf = [0u32; 3];
        b.read(Address::new(0x100), &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(b.messages(), 2);
    }

    #[test]
    fn decode_errors_surface() {
        let mut b = bus();
        let mut buf = [0u32; 1];
        assert!(matches!(
            b.read(Address::new(0xF_0000), &mut buf),
            Err(BusError::Decode(_))
        ));
    }

    #[test]
    fn bridge_completes_everything_in_the_issue_cycle() {
        let mut sys = TlmSystem::new(bus(), sequences::back_to_back_reads().ops);
        let report = sys.run(1_000, |_| {});
        for r in &report.records {
            assert_eq!(r.done_cycle, Some(r.issue_cycle));
            assert!(r.error.is_none());
        }
    }

    #[test]
    fn bridge_matches_layer1_architectural_results() {
        use crate::tlm1::Tlm1Bus;
        let scenario = sequences::random_mix(
            3,
            MixParams {
                count: 200,
                max_idle: 6, // serialize enough to stay race-free
                burst_pct: 30,
                ..MixParams::default()
            },
        );
        let mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x2_0000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        let mut l1 = TlmSystem::new(Tlm1Bus::new(vec![Box::new(mem)]), scenario.ops.clone());
        let l1_report = l1.run(1_000_000, |_| {});
        let mut l3 = TlmSystem::new(bus(), scenario.ops);
        let l3_report = l3.run(1_000_000, |_| {});
        assert_eq!(l1_report.records.len(), l3_report.records.len());
        for (a, b) in l1_report.records.iter().zip(&l3_report.records) {
            assert_eq!(a.data, b.data, "{}", a.id);
            assert_eq!(a.error, b.error, "{}", a.id);
        }
        // Untimed means *faster* than any timed model, never slower.
        assert!(l3_report.cycles <= l1_report.cycles);
    }

    #[test]
    fn sub_word_accesses_work() {
        let mut sys = TlmSystem::new(
            bus(),
            vec![
                MasterOp::write(0x200, 0xAABB_CCDD),
                MasterOp {
                    idle_before: 1,
                    kind: hierbus_ec::AccessKind::DataRead,
                    addr: Address::new(0x201),
                    width: DataWidth::W8,
                    burst: hierbus_ec::BurstLen::Single,
                    data: Vec::new().into(),
                },
            ],
        );
        let report = sys.run(1_000, |_| {});
        assert_eq!(report.records[1].data, vec![0xCC]);
    }
}
