//! Protocol layer for an EC-like smart-card core bus.
//!
//! The DATE 2004 paper models the MIPS 4Ksc *EC interface*: a single-master
//! core interface with a 36-bit address bus, separated unidirectional 32-bit
//! read and write data buses (each with its own error indication), pipelined
//! address and data phases, slave-inserted wait states, 8/16/32-bit accesses
//! following fixed merge patterns, and at most four outstanding burst
//! instruction reads, four burst data reads and four burst writes. A bus
//! controller extends the one-master/one-slave interface to several slaves.
//!
//! The original specification is proprietary; this crate is a clean-room
//! protocol with exactly the properties the paper states, shared by **all**
//! models in the workspace — the cycle-true RTL reference, the layer-1 and
//! layer-2 TLM buses and the energy models — so that accuracy comparisons
//! are comparisons of *modeling style*, never of protocol interpretation.
//!
//! Contents:
//!
//! * [`Address`], [`AddressRange`] — 36-bit addressing.
//! * [`DataWidth`], [`merge`] — access sizes and byte-lane merge patterns.
//! * [`BusStatus`] — the four interface return states
//!   (`Request`/`Wait`/`Ok`/`Error`) of the non-blocking master interface.
//! * [`Transaction`], [`AccessKind`], [`BurstLen`] — transaction
//!   descriptors.
//! * [`OutstandingLimits`], [`OutstandingTracker`] — per-category
//!   outstanding-transaction accounting.
//! * [`SlaveConfig`], [`AccessRights`], [`WaitProfile`] — the "slave
//!   control interface" of the paper: address range, wait states, rights.
//! * [`AddressMap`] — bus-controller address decoding.
//! * [`SignalFrame`], [`SignalClass`] — the canonical signal-level view of
//!   one bus cycle, shared by the RTL reference and the layer-1 energy
//!   model ("TLM-to-RTL adapter").
//! * [`sequences`] — the verification scenarios of §4.1 plus random mixes.
//! * [`fault`] — deterministic fault plans (error replies, stalls, card
//!   tear), the master retry/timeout policy and per-op outcomes.
//! * [`replay`] — [`Replay`], the stimulus master's policy (idle gaps,
//!   limits, ids, retries, timeout, outcomes, tear) that the RTL
//!   reference and the TLM masters all run.
//! * [`arbiter`], [`dma`] — the multi-master extension: the shared
//!   request/grant arbitration kernel (fixed-priority and round-robin)
//!   and the DMA engine's seeded descriptor programs.

pub mod addr;
pub mod arbiter;
pub mod dma;
pub mod error;
pub mod fault;
pub mod frame;
pub mod hash;
pub mod limits;
pub mod map;
pub mod merge;
pub mod record;
pub mod replay;
pub mod sequences;
pub mod slave;
pub mod status;
pub mod txn;

pub use addr::{Address, AddressRange};
pub use arbiter::{Arbiter, ArbiterStats, ArbitrationPolicy};
pub use dma::{DmaParams, DmaProgram, MultiScenario, DMA_ID_BASE};
pub use error::BusError;
pub use fault::{
    FaultCounters, FaultKind, FaultParams, FaultPlan, OpFault, RetryPolicy, TxnOutcome,
};
pub use frame::{PackedFrame, SignalClass, SignalFrame, TogglesByClass};
pub use hash::{FastIdHasher, FastIdMap};
pub use limits::{OutstandingLimits, OutstandingTracker, TxnCategory};
pub use map::AddressMap;
pub use merge::DataWidth;
pub use record::{Completed, MasterReport, TxnRecord};
pub use replay::Replay;
pub use sequences::{DataProfile, MasterOp, MixParams, Scenario};
pub use slave::{AccessRights, SlaveConfig, SlaveId, WaitProfile};
pub use status::BusStatus;
pub use txn::{AccessKind, BurstLen, Transaction, TxnId};

/// Width of the address bus in bits.
pub const ADDR_BITS: u32 = 36;
/// Width of each data bus in bits.
pub const DATA_BITS: u32 = 32;
