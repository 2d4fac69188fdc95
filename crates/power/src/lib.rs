//! Hierarchical energy models for the TLM bus layers (§3.3 of the paper).
//!
//! The methodology has three pieces:
//!
//! 1. **Characterization** ([`CharacterizationDb`]): the gate-level
//!    estimator's per-signal-class energies and transition counts from a
//!    training run are abstracted into an *average energy per transition*
//!    per class, plus average per-phase transition counts. "We abstracted
//!    all different transitions and use the average energy per transition
//!    for each signal."
//! 2. **Layer-1 model** ([`Layer1EnergyModel`]): a dedicated power module
//!    holding old/new values of every interface signal. The bus phases
//!    write the new values (the reconstructed
//!    [`SignalFrame`](hierbus_ec::SignalFrame)); at the end of each cycle
//!    bit transitions are recognised and converted to energy. Being a
//!    TLM-to-RTL adapter, it supports *cycle-accurate* profiling through
//!    two interface methods: energy of the last clock cycle and energy
//!    since the last call.
//! 3. **Layer-2 model** ([`Layer2EnergyModel`]): estimates each
//!    address/read/write phase in one shot when the phase completes, from
//!    the transaction descriptor alone. It knows intra-burst data (the
//!    slice is right there) but not the signal state left by previous
//!    transactions — the correlation blindness that makes it
//!    *over*estimate on sequential traffic, and its power interface has
//!    only the energy-since-last-call method (Fig. 6's sampling
//!    semantics).
//!
//! [`run`] puts the pieces together: one run description
//! ([`RunSpec`]) and one reusable [`Session`] replay any scenario on the
//! reference or any TLM layer with the matching estimator attached.
//!
//! [`PowerTrace`] adds profile-over-time analysis (peak detection,
//! windowing, Pearson correlation against secret-data weights) serving
//! the paper's smart-card motivation: estimating power over time to
//! assess simple/differential power-analysis exposure early.

//! # Example
//!
//! ```
//! use hierbus_power::{CharacterizationDb, Layer1EnergyModel};
//! use hierbus_ec::SignalFrame;
//!
//! let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
//! let frame = SignalFrame { a_addr: 0xFF, ..SignalFrame::default() };
//! model.on_frame(&frame);               // 8 address bits rise
//! assert_eq!(model.energy_last_cycle(), 8.0); // 1 pJ/toggle in the uniform db
//! ```

pub mod characterize;
pub mod components;
pub mod layer1;
pub mod layer2;
pub mod run;
pub mod trace;

pub use characterize::{CharacterizationDb, PhaseCounts};
pub use components::{ComponentEnergyModel, ComponentEstimate};
pub use layer1::Layer1EnergyModel;
pub use layer2::Layer2EnergyModel;
pub use run::{Capture, Layer, MasterFaults, Materialized, Outcome, RunSpec, Session};
pub use trace::PowerTrace;
