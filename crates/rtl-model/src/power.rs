//! The gate-level power estimator (Diesel substitute).
//!
//! Diesel estimates dissipated energy per wire from macro-cell
//! characterization, signal slopes and layout parasitics. This module
//! reproduces the estimation *principle* on a synthetic layout database:
//! every interface wire gets a capacitance drawn deterministically from a
//! class-dependent range (address/data buses are long, heavily loaded
//! wires; control wires are short), and every transition dissipates
//! `½·C·V²` scaled by a slope factor that differs for rising, falling and
//! partial-swing (glitch) transitions.
//!
//! The estimator also implements the paper's characterization step: after
//! running the training sequences, [`GateLevelPowerEstimator::class_stats`]
//! yields *(signal class, total energy, total transitions)* triples from
//! which the TLM energy models derive their average energy per transition
//! — "we abstracted all different transitions and use the average energy
//! per transition for each signal" (§3.3).

use crate::signal::VectorUpdate;
use hierbus_ec::SignalClass;
use hierbus_ec::SplitMix64;

/// Whether a wire-group update happened at the final settle of a cycle or
/// during combinational hazard activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionPhase {
    /// The cycle's final, functionally meaningful transition.
    Settled,
    /// A hazard: the wire toggled and will toggle back within the cycle.
    Glitch,
}

/// Electrical parameters of the estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Energy multiplier for rising transitions (slope asymmetry).
    pub rise_factor: f64,
    /// Energy multiplier for falling transitions.
    pub fall_factor: f64,
    /// Energy multiplier for glitch transitions (partial voltage swing).
    pub glitch_factor: f64,
    /// Seed for the synthetic layout (capacitance) database.
    pub layout_seed: u64,
}

impl PowerConfig {
    /// Parameters modeling the 1.8 V smart-card core supply.
    pub const SMART_CARD: PowerConfig = PowerConfig {
        vdd: 1.8,
        rise_factor: 1.05,
        fall_factor: 0.95,
        glitch_factor: 0.85,
        layout_seed: 0x5eed_1a70,
    };
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig::SMART_CARD
    }
}

/// Per-wire capacitances of the synthetic layout, in picofarads.
///
/// Deterministic for a given seed, so every run of the workspace sees the
/// same "chip".
#[derive(Debug, Clone)]
struct WireDb {
    /// `caps[class][bit]` in pF.
    caps: [Vec<f64>; 6],
}

impl WireDb {
    /// Builds the database from a seed.
    ///
    /// Capacitance ranges per class (pF): address bus 0.45–0.85, data
    /// buses 0.35–0.75, control 0.10–0.30 — long top-level bus routes
    /// versus short control nets.
    fn synthesize(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut caps: [Vec<f64>; 6] = Default::default();
        for class in SignalClass::ALL {
            let (lo, hi) = match class {
                SignalClass::AddrBus => (0.45, 0.85),
                SignalClass::ReadData | SignalClass::WriteData => (0.35, 0.75),
                SignalClass::AddrCtl | SignalClass::ReadCtl | SignalClass::WriteCtl => (0.10, 0.30),
            };
            caps[class.index()] = (0..class.wires()).map(|_| rng.range_f64(lo, hi)).collect();
        }
        WireDb { caps }
    }

    /// Capacitance of one wire in pF.
    ///
    /// # Panics
    ///
    /// Panics if `bit` exceeds the class width.
    fn capacitance(&self, class: SignalClass, bit: u32) -> f64 {
        self.caps[class.index()][bit as usize]
    }
}

/// Accumulated per-class estimation state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ClassAccum {
    energy_pj: f64,
    transitions: u64,
    glitch_transitions: u64,
}

/// The gate-level estimator: feed it every wire-group update, read back
/// energies, transition statistics and the characterization table.
///
/// Energies are in picojoules throughout (pF × V² = pJ).
#[derive(Debug, Clone)]
pub struct GateLevelPowerEstimator {
    config: PowerConfig,
    /// `half_cv2[class][bit] = (0.5 · C) · V²` in pJ, hoisted out of the
    /// per-transition loop. `t · slope_factor` is bit-identical to the
    /// unhoisted `0.5 · C · V² · slope_factor` because `f64`
    /// multiplication chains associate left.
    half_cv2: [Vec<f64>; 6],
    accum: [ClassAccum; 6],
    /// Energy accumulated since the last cycle boundary.
    cycle_energy: f64,
    /// Per-cycle energy trace (only filled when tracing is enabled).
    trace: Option<Vec<f64>>,
}

impl GateLevelPowerEstimator {
    /// Creates an estimator with a fresh synthetic layout.
    pub fn new(config: PowerConfig) -> Self {
        let db = WireDb::synthesize(config.layout_seed);
        let v2 = config.vdd * config.vdd;
        let half_cv2 = std::array::from_fn(|i| {
            let class = SignalClass::ALL[i];
            (0..class.wires())
                .map(|b| 0.5 * db.capacitance(class, b) * v2)
                .collect()
        });
        GateLevelPowerEstimator {
            config,
            half_cv2,
            accum: Default::default(),
            cycle_energy: 0.0,
            trace: None,
        }
    }

    /// Enables the per-cycle energy trace (costs one `Vec` push per cycle).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Accounts one wire-group update.
    pub fn observe(&mut self, class: SignalClass, update: VectorUpdate, phase: TransitionPhase) {
        if update.is_quiet() {
            return;
        }
        let (rise_f, fall_f) = match phase {
            TransitionPhase::Settled => (self.config.rise_factor, self.config.fall_factor),
            TransitionPhase::Glitch => (
                self.config.rise_factor * self.config.glitch_factor,
                self.config.fall_factor * self.config.glitch_factor,
            ),
        };
        let table = &self.half_cv2[class.index()];
        let mut energy = 0.0;
        let mut count = 0u64;
        let mut bits = update.rises;
        while bits != 0 {
            let b = bits.trailing_zeros();
            energy += table[b as usize] * rise_f;
            count += 1;
            bits &= bits - 1;
        }
        let mut bits = update.falls;
        while bits != 0 {
            let b = bits.trailing_zeros();
            energy += table[b as usize] * fall_f;
            count += 1;
            bits &= bits - 1;
        }
        let acc = &mut self.accum[class.index()];
        acc.energy_pj += energy;
        acc.transitions += count;
        if phase == TransitionPhase::Glitch {
            acc.glitch_transitions += count;
        }
        self.cycle_energy += energy;
    }

    /// Marks a cycle boundary: pushes the cycle's energy onto the trace
    /// (if enabled) and returns it.
    pub(crate) fn cycle_boundary(&mut self) -> f64 {
        let e = self.cycle_energy;
        self.cycle_energy = 0.0;
        if let Some(trace) = &mut self.trace {
            trace.push(e);
        }
        e
    }

    /// Total estimated energy in pJ.
    pub fn total_energy(&self) -> f64 {
        self.accum.iter().map(|a| a.energy_pj).sum()
    }

    /// Total transitions across classes.
    pub fn total_transitions(&self) -> u64 {
        self.accum.iter().map(|a| a.transitions).sum()
    }

    /// The characterization table: `(class, energy pJ, transitions)` per
    /// class — input to the TLM energy models.
    pub fn class_stats(&self) -> Vec<(SignalClass, f64, u64)> {
        SignalClass::ALL
            .iter()
            .map(|&c| {
                let a = self.accum[c.index()];
                (c, a.energy_pj, a.transitions)
            })
            .collect()
    }

    /// The per-cycle energy trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[f64]> {
        self.trace.as_deref()
    }

    /// Clears all accumulated state (layout is kept).
    pub fn reset(&mut self) {
        self.accum = Default::default();
        self.cycle_energy = 0.0;
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GateLevelPowerEstimator {
        /// Glitch transitions of one class.
        pub(crate) fn class_glitch_transitions(&self, class: SignalClass) -> u64 {
            self.accum[class.index()].glitch_transitions
        }
    }

    #[test]
    fn layout_is_deterministic_per_seed() {
        let a = WireDb::synthesize(1);
        let b = WireDb::synthesize(1);
        let c = WireDb::synthesize(2);
        assert_eq!(
            a.capacitance(SignalClass::AddrBus, 0),
            b.capacitance(SignalClass::AddrBus, 0)
        );
        assert_ne!(
            a.capacitance(SignalClass::AddrBus, 0),
            c.capacitance(SignalClass::AddrBus, 0)
        );
    }

    /// Mean capacitance of a class in pF.
    fn mean_capacitance(db: &WireDb, class: SignalClass) -> f64 {
        let c = &db.caps[class.index()];
        c.iter().sum::<f64>() / c.len() as f64
    }

    #[test]
    fn bus_wires_are_heavier_than_control() {
        let db = WireDb::synthesize(0);
        assert!(
            mean_capacitance(&db, SignalClass::AddrBus)
                > mean_capacitance(&db, SignalClass::AddrCtl)
        );
        assert!(
            mean_capacitance(&db, SignalClass::ReadData)
                > mean_capacitance(&db, SignalClass::ReadCtl)
        );
    }

    #[test]
    fn energy_scales_with_transitions() {
        let mut est = GateLevelPowerEstimator::new(PowerConfig::default());
        let one_bit = VectorUpdate {
            rises: 0b1,
            falls: 0,
        };
        est.observe(SignalClass::ReadData, one_bit, TransitionPhase::Settled);
        let e1 = est.total_energy();
        est.observe(SignalClass::ReadData, one_bit, TransitionPhase::Settled);
        assert!((est.total_energy() - 2.0 * e1).abs() < 1e-12);
        assert_eq!(est.total_transitions(), 2);
    }

    #[test]
    fn glitches_cost_less_per_transition_but_add_energy() {
        let mut est = GateLevelPowerEstimator::new(PowerConfig::default());
        let upd = VectorUpdate {
            rises: 0xF,
            falls: 0,
        };
        est.observe(SignalClass::WriteData, upd, TransitionPhase::Settled);
        let settled = est.total_energy();
        est.observe(SignalClass::WriteData, upd, TransitionPhase::Glitch);
        let with_glitch = est.total_energy();
        let glitch_energy = with_glitch - settled;
        assert!(glitch_energy > 0.0);
        assert!(glitch_energy < settled);
        assert_eq!(est.class_glitch_transitions(SignalClass::WriteData), 4);
    }

    #[test]
    fn quiet_updates_cost_nothing() {
        let mut est = GateLevelPowerEstimator::new(PowerConfig::default());
        est.observe(
            SignalClass::AddrBus,
            VectorUpdate::default(),
            TransitionPhase::Settled,
        );
        assert_eq!(est.total_energy(), 0.0);
        assert_eq!(est.total_transitions(), 0);
    }

    #[test]
    fn cycle_trace_records_boundaries() {
        let mut est = GateLevelPowerEstimator::new(PowerConfig::default());
        est.enable_trace();
        est.observe(
            SignalClass::AddrBus,
            VectorUpdate {
                rises: 0b11,
                falls: 0,
            },
            TransitionPhase::Settled,
        );
        let e = est.cycle_boundary();
        assert!(e > 0.0);
        let quiet = est.cycle_boundary();
        assert_eq!(quiet, 0.0);
        assert_eq!(est.trace().unwrap().len(), 2);
        assert_eq!(est.trace().unwrap()[0], e);
    }

    #[test]
    fn class_stats_cover_all_classes() {
        let est = GateLevelPowerEstimator::new(PowerConfig::default());
        let stats = est.class_stats();
        assert_eq!(stats.len(), 6);
        for (c, e, t) in stats {
            assert_eq!(e, 0.0, "{c}");
            assert_eq!(t, 0);
        }
    }

    #[test]
    fn reset_clears_accumulators_not_layout() {
        let mut est = GateLevelPowerEstimator::new(PowerConfig::default());
        let layout_before = est.half_cv2.clone();
        est.observe(
            SignalClass::AddrBus,
            VectorUpdate { rises: 1, falls: 0 },
            TransitionPhase::Settled,
        );
        est.reset();
        assert_eq!(est.total_energy(), 0.0);
        assert_eq!(est.half_cv2, layout_before);
    }
}
