//! Cycle-true, signal-level reference model of the EC-like bus — the
//! workspace's *layer 0*.
//!
//! The paper evaluates its transaction-level models against an RTL bus
//! implementation simulated with a gate-level power estimator (Philips
//! *Diesel*). Neither artifact is available, so this crate provides the
//! substitute: an explicit-wire, cycle-accurate model of the same protocol
//! with a parasitics-based per-transition power estimator, including the
//! two effects a cycle-boundary TLM view cannot capture —
//!
//! * **glitches**: combinational settling through intermediate values
//!   (momentary toggles of otherwise-stable wires, see [`glitch`]), and
//! * **slope spread**: rise/fall/partial-swing transitions with distinct
//!   energy factors (see [`power`]).
//!
//! # Canonical protocol timing
//!
//! Both this reference and the layer-1 TLM model implement these rules, so
//! their cycle counts must agree exactly (Table 1's 0% row). One clock
//! tick = one bus cycle; a transaction *issues* in the cycle
//! the master first presents it.
//!
//! 1. The address channel carries one address phase at a time. A phase
//!    started in cycle `t` completes in cycle `t + addr_wait` (the slave's
//!    address wait states); with zero waits it completes in the cycle it
//!    is initiated. The next phase may start in the following cycle.
//! 2. A decode failure or rights violation terminates the transaction in
//!    the start cycle with an address-phase error; no data phase occurs.
//! 3. Read and write data channels are independent (separated
//!    unidirectional buses) and each carry one beat at a time, serving
//!    transactions of their direction in address-phase order. Reordering
//!    between directions follows from the independence.
//! 4. Beat 0 becomes eligible in the cycle its address phase completes
//!    and, with zero data waits, completes that same cycle ("address and
//!    data phases can complete in the same cycle they are initiated").
//!    A beat with `w` data wait states completes `w` cycles after it
//!    starts; beat `k+1` starts the cycle after beat `k` completes.
//! 5. A transaction completes with its last beat; the master observes
//!    completion on its next interface call (the following rising edge).
//! 6. The master issues at most one new transaction per cycle and never
//!    exceeds the per-category outstanding limits (4/4/4).

//! # Example
//!
//! ```
//! use hierbus_rtl::RtlSystem;
//! use hierbus_ec::sequences;
//!
//! let scenario = sequences::single_read(false);
//! let mut sys = RtlSystem::for_scenario(&scenario);
//! let report = sys.run(1_000);
//! assert_eq!(report.cycles, 1); // a zero-wait read completes in one cycle
//! assert!(report.energy_pj > 0.0);
//! ```

pub mod channels;
pub mod glitch;
pub mod master;
pub mod power;
pub mod slave;
pub mod system;
pub mod wires;

pub use glitch::GlitchConfig;
pub use master::{RtlMaster, TxnRecord};
pub use power::{GateLevelPowerEstimator, PowerConfig, WireDb};
pub use slave::{RtlSlaveModel, SimpleMem};
pub use system::{RtlSystem, RunReport};
pub use wires::InterfaceWires;
