//! Facade crate re-exporting the whole workspace.
//!
//! `hierbus` reproduces *"Energy Estimation Based on Hierarchical Bus
//! Models for Power-Aware Smart Cards"* (DATE 2004): hierarchical
//! transaction-level models of an EC-like smart-card core bus with
//! energy estimation at every level, validated against a cycle-true
//! signal-level reference with a gate-level power estimator.
//!
//! Start with [`core`] for the bus models, [`power`] for the energy
//! models, [`rtl`] for the reference, [`soc`] for the smart-card
//! platform and [`jcvm`] for the Java Card VM case study.

pub mod harness;
pub mod observe;

pub use hierbus_campaign as campaign;
pub use hierbus_core as core;
pub use hierbus_ec as ec;
pub use hierbus_jcvm as jcvm;
pub use hierbus_obs as obs;
pub use hierbus_power as power;
pub use hierbus_rtl as rtl;
pub use hierbus_serve as serve;
pub use hierbus_soc as soc;

/// The seeded generator behind every random stimulus, re-exported at
/// the path existing callers import it from.
pub mod sim {
    pub use hierbus_ec::SplitMix64;
}
