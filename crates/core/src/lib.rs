//! Hierarchical transaction-level bus models — the paper's contribution.
//!
//! Two models of the same EC-like core bus at two transaction-level layers
//! (in the layering of Haverinen et al. that the paper adopts):
//!
//! * [`tlm1::Tlm1Bus`] — **layer 1, transfer layer**: cycle-accurate.
//!   Non-blocking master interfaces return
//!   [`BusStatus`](hierbus_ec::BusStatus) each cycle; internally four
//!   queues (request, read, write, finish) connect the interface calls to
//!   a bus process that runs at the falling clock edge in four phases —
//!   get-slave-state, address phase (an FSM), read phase, write phase.
//!   Each cycle it can reconstruct the full signal-level
//!   [`SignalFrame`](hierbus_ec::SignalFrame), which is what makes the
//!   layer-1 energy model a "transaction level to RTL adapter".
//! * [`tlm2::Tlm2Bus`] — **layer 2, transaction layer**: timed but not
//!   cycle-accurate. One shared transaction list, wait-state counters
//!   decremented per cycle, a burst transferred as a single transaction
//!   with data passed by slice ("pointer passing"), and per-phase
//!   completion events for the coarse layer-2 energy model.
//!
//! [`master::TlmMaster`] replays [`MasterOp`](hierbus_ec::MasterOp)
//! stimuli against either bus through the [`master::CycleBus`] trait and
//! produces the same [`TxnRecord`](hierbus_ec::TxnRecord)s as the RTL
//! reference, so cycle-exactness (layer 1) and timing error (layer 2) are
//! directly measurable. [`master::TlmSystem`] is the stepping loop for
//! stimulus masters: one master, or several behind an
//! [`Arbiter`](hierbus_ec::Arbiter) (the CPU + DMA pair of
//! [`TlmSystem::for_multi`]), shaped like the RTL reference's system.
//! It, the ISS's `CpuSystem` and the JCVM master adapter all step a bus
//! through [`CycleBus::falling_edge`], which keeps §3.2's idle skip
//! inside the bus.
//!
//! # Example
//!
//! ```
//! use hierbus_core::{MemSlave, TlmSystem, Tlm1Bus};
//! use hierbus_ec::{sequences, Address, AddressRange, AccessRights,
//!                  SlaveConfig, WaitProfile};
//!
//! let scenario = sequences::single_read(false);
//! let mem = MemSlave::new(SlaveConfig::new(
//!     AddressRange::new(Address::new(0), 0x1_0000),
//!     scenario.waits,
//!     AccessRights::RWX,
//! ));
//! let bus = Tlm1Bus::new(vec![Box::new(mem)]);
//! let mut sys = TlmSystem::new(bus, scenario.ops);
//! let report = sys.run(1_000, |_bus| {});
//! assert_eq!(report.cycles, 1); // a zero-wait read completes in one cycle
//! ```

pub mod master;
pub(crate) mod obs_util;
pub mod slave;
pub(crate) mod slots;
pub mod tlm1;
pub mod tlm2;
pub mod tlm3;

pub use hierbus_ec::MasterReport;
pub use master::{Completed, CycleBus, PollStatus, TlmMaster, TlmReport, TlmSystem};
pub use slave::{HasSlaves, MemSlave, SlaveReply, TlmSlave};
pub use tlm1::Tlm1Bus;
pub use tlm2::{PhaseEvent, PhaseKind, Tlm2Bus};
pub use tlm3::Tlm3Bus;
