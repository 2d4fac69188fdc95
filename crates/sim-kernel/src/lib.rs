//! Simulation primitives shared by the bus models: the parts of SystemC 2.0
//! the paper's models lean on, without a scheduler.
//!
//! The hierarchical bus models of the DATE 2004 paper are SystemC modules
//! whose processes run on clock edges: masters on the rising edge, the bus
//! process on the falling edge, and the bus process not activated at all
//! while the bus is idle. That discipline is a plain cycle loop here —
//! `TlmSystem::step_cycle` in `hierbus-core`, which steps the RTL
//! reference's bus too — so this crate only carries what the models
//! share:
//!
//! * [`signal`] — [`signal::Vector`], the two-phase signal whose
//!   `update()` step returns the bits it toggled (rising and falling
//!   masks); the gate-level power estimator prices those masks.
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
//! let first = data.update();
//! data.set(0xF0);
//! let second = data.update();
//! assert_eq!(data.value(), 0xF0);
//! assert_eq!(first.toggles() + second.toggles(), 4 + 8);
//! ```

pub mod prng;
pub mod schedule;
pub mod signal;
pub mod time;
pub mod trace;

pub use prng::SplitMix64;
pub use schedule::CycleSchedule;
pub use signal::Vector;
pub use time::SimTime;
