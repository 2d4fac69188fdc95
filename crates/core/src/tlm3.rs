//! The transaction-level **layer-3** (message layer) bus model.
//!
//! The paper adopts Haverinen et al.'s layering, whose top layer is the
//! *message layer*: untimed, event-driven, abstract data, several data
//! items per transaction — used for functional partitioning and
//! algorithm work before any timing exists. The paper's own Java Card
//! model starts life at this level (Fig. 7a). This module completes the
//! hierarchy in code:
//!
//! * its one interface is a [`CycleBus`] bridge (Haverinen: "bridging
//!   layer three or layer two components to cycle accurate systems"),
//!   so the same stimulus machinery drives it; there is no native
//!   blocking `read`/`write`;
//! * every transaction executes whole, at issue, and completes in its
//!   issue cycle, so "timing" collapses to the issue schedule, which is
//!   exactly what an untimed model should report;
//! * waits take no time: a beat the slave answers
//!   [`SlaveReply::Wait`](crate::SlaveReply::Wait) is called again at
//!   once. No tick runs in between, so a slave whose `Wait` only time
//!   can end (the crypto coprocessor while a block is in flight, a full
//!   UART FIFO) cannot run at layer 3;
//! * an injected fault keeps its meaning where it has one: a decode
//!   error still wins, otherwise a [`FaultKind::SlaveError`] fails the
//!   transaction at issue with a slave error on its address before the
//!   slave is called, so nothing commits (as at layer 1). A
//!   [`FaultKind::Stall`] only adds time, which an untimed layer does
//!   not have, so it changes nothing.

use crate::master::CycleBus;
use crate::slave::{transfer, Stop, TlmSlave};
use hierbus_ec::{AddressMap, BusError, Completed, FaultKind, SlaveId, Transaction};
use std::collections::VecDeque;

/// The layer-3 bus. See the [module docs](self).
pub struct Tlm3Bus {
    map: AddressMap,
    slaves: Vec<Box<dyn TlmSlave>>,
    /// Completed transactions awaiting master pickup, in issue order.
    finish_q: VecDeque<Completed>,
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
            finish_q: VecDeque::new(),
        }
    }

    /// Executes a whole transaction immediately (the bridge's engine):
    /// it completes, address phase included, in its issue `cycle`. An
    /// injected slave error fails it without calling the slave.
    fn execute(&mut self, txn: &Transaction, fault: Option<FaultKind>, cycle: u64) -> Completed {
        let mut buf = [0u32; 8];
        let error = match self.map.decode(txn.addr, txn.kind) {
            Err(e) => Some(e),
            Ok(_) if FaultKind::fails_first_beat(fault) => Some(BusError::SlaveError(txn.addr)),
            Ok(slave) => {
                let slave = self.slaves[slave.0].as_mut();
                let mut from = 0;
                loop {
                    match transfer(slave, txn, from, &mut buf) {
                        Ok(()) => break None,
                        // Untimed: the waiting beat is called again at once.
                        Err(Stop::Wait(beat)) => from = beat,
                        Err(Stop::Error(beat)) => {
                            break Some(BusError::SlaveError(txn.beat_addr(beat)))
                        }
                    }
                }
            }
        };
        let data = if txn.kind.is_read() && error.is_none() {
            buf[..txn.beats() as usize].to_vec()
        } else {
            Vec::new()
        };
        Completed {
            id: txn.id,
            addr_done_cycle: Some(cycle),
            done_cycle: cycle,
            error,
            data,
        }
    }
}

impl CycleBus for Tlm3Bus {
    fn issue(&mut self, txn: Transaction, fault: Option<FaultKind>, cycle: u64) {
        let done = self.execute(&txn, fault, cycle);
        self.finish_q.push_back(done);
    }

    #[inline]
    fn take_completed(&mut self) -> Option<Completed> {
        self.finish_q.pop_front()
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
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::TlmSystem;
    use crate::slave::{MemSlave, SlaveReply};
    use hierbus_ec::sequences::{self, MasterOp, MixParams};
    use hierbus_ec::{
        AccessKind, AccessRights, Address, AddressRange, BurstLen, DataWidth, SlaveConfig,
        WaitProfile,
    };

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
        let ops = vec![
            MasterOp::burst_write(0x100, vec![1, 2]),
            MasterOp::write(0x108, 3),
            MasterOp::burst_read(0x100, BurstLen::B2).after_idle(1),
            MasterOp::read(0x108),
        ];
        let report = TlmSystem::new(bus(), ops).run(1_000, |_| {});
        assert!(report.records.iter().all(|r| r.error.is_none()));
        let buf = [&report.records[2].data[..], &report.records[3].data[..]].concat();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn decode_errors_surface() {
        let report = TlmSystem::new(bus(), vec![MasterOp::read(0xF_0000)]).run(1_000, |_| {});
        assert!(matches!(report.records[0].error, Some(BusError::Decode(_))));
    }

    #[test]
    fn sub_word_write_to_a_waiting_slave_lands() {
        /// Memory that answers `Wait` once before each write.
        struct WaitOnce {
            mem: MemSlave,
            waited: bool,
        }
        impl TlmSlave for WaitOnce {
            fn config(&self) -> SlaveConfig {
                self.mem.config()
            }
            fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
                self.mem.read_word(addr)
            }
            fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
                self.waited = !self.waited;
                if self.waited {
                    return SlaveReply::Wait;
                }
                self.mem.write_word(addr, data, ben)
            }
        }
        let mut mem = MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        mem.load(Address::new(0x300), &[0xAAAA_AAAA]);
        let op = MasterOp {
            idle_before: 0,
            kind: AccessKind::DataWrite,
            addr: Address::new(0x301),
            width: DataWidth::W8,
            burst: BurstLen::Single,
            data: vec![0xEE].into(),
        };
        let ops = vec![op, MasterOp::read(0x300).after_idle(1)];
        let bus = Tlm3Bus::new(vec![Box::new(WaitOnce { mem, waited: false })]);
        let report = TlmSystem::new(bus, ops).run(100, |_| {});
        assert!(report.records[0].error.is_none());
        assert_eq!(report.records[1].data, vec![0xAAAA_EEAA]);
    }

    /// An injected error reply fails a write at issue without calling
    /// the slave, so no word commits; an injected stall takes no time
    /// at an untimed layer, so the run is the clean one.
    #[test]
    fn faults_keep_their_meaning_untimed() {
        use crate::slave::HasSlaves;
        use hierbus_ec::{FaultPlan, OpFault, RetryPolicy, TxnOutcome};
        let run = |fault: Option<FaultKind>| {
            let ops = vec![
                MasterOp::write(0x100, 0xDEAD_BEEF),
                MasterOp::read(0x100).after_idle(1),
            ];
            let plan = fault.map_or(FaultPlan::new(), |kind| {
                FaultPlan::new().with_fault(0, OpFault::always(kind))
            });
            let mut sys = TlmSystem::new(bus(), ops).with_faults(plan, RetryPolicy::NONE);
            let report = sys.run(1_000, |_| {});
            let mem = sys.bus().slave_as::<MemSlave>(SlaveId(0)).unwrap();
            (report, mem.snapshot())
        };
        let (clean, clean_mem) = run(None);
        assert_eq!(clean_mem, vec![(0x100 / 4, 0xDEAD_BEEF)]);

        let (failed, failed_mem) = run(Some(FaultKind::SlaveError));
        let error = BusError::SlaveError(Address::new(0x100));
        assert_eq!(failed.records[0].error, Some(error));
        assert_eq!(failed.outcomes[0], TxnOutcome::Error(error));
        assert_eq!(failed.fault.injected, 1);
        assert!(failed_mem.is_empty(), "a failed write committed");

        let (stalled, stalled_mem) = run(Some(FaultKind::Stall(7)));
        assert_eq!(stalled.records, clean.records);
        assert_eq!(stalled.outcomes, clean.outcomes);
        assert_eq!(stalled.cycles, clean.cycles);
        assert_eq!(stalled_mem, clean_mem);
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
