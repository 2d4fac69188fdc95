//! Simulation primitives shared by the bus models: the parts of SystemC 2.0
//! the paper's models lean on, without a scheduler.
//!
//! The hierarchical bus models of the DATE 2004 paper are SystemC modules
//! whose processes run on clock edges: masters on the rising edge, the bus
//! process on the falling edge, and the bus process not activated at all
//! while the bus is idle. That discipline is a plain cycle loop here —
//! `TlmSystem::step_cycle` in `hierbus-core` and `RtlSystem::step_cycle` in
//! `hierbus-rtl` — so this crate only carries what those loops share:
//!
//! * [`signal`] — [`signal::Wire`] and [`signal::Vector`] two-phase
//!   signals whose `update()` step counts bit transitions; the gate-level
//!   power estimator and the layer-1 energy model are built on these
//!   counters.
//! * [`trace`] — a VCD waveform recorder keyed by [`SimTime`].
//! * [`schedule`] — [`CycleSchedule`], cycle-keyed scripted events (card
//!   tear) replayed identically at every abstraction level.
//! * [`prng`] — [`SplitMix64`], the seeded generator behind every random
//!   stimulus.
//!
//! # Example
//!
//! A combinational glitch: a bus settles through an intermediate value
//! within one cycle, and both updates count as transitions — the
//! activity a gate-level estimator sees and a cycle-boundary model
//! cannot.
//!
//! ```
//! use hierbus_sim::Vector;
//!
//! let mut data = Vector::new(8);
//! data.set(0x0F);
//! assert_eq!(data.value(), 0x00); // a write is not visible until update
//! data.update();
//! data.set(0xF0);
//! data.update();
//! assert_eq!(data.value(), 0xF0);
//! assert_eq!(data.toggles(), 4 + 8);
//! ```

pub mod prng;
pub mod schedule;
pub mod signal;
pub mod time;
pub mod trace;

pub use prng::SplitMix64;
pub use schedule::CycleSchedule;
pub use signal::{Transition, Vector, Wire};
pub use time::SimTime;
