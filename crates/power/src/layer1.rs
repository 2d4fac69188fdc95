//! The layer-1 (cycle-accurate) energy model.

use crate::characterize::CharacterizationDb;
use hierbus_ec::{PackedFrame, SignalClass, SignalFrame, TogglesByClass};

/// The layer-1 power module: a TLM-to-RTL adapter.
///
/// It keeps the previous cycle's value of every interface signal; each
/// reconstructed [`SignalFrame`] from the layer-1 bus is diffed against
/// it, the per-class bit transitions are weighted by the characterized
/// average energy per transition, and the result feeds both a running
/// total and the paper's two query methods:
/// [`energy_last_cycle`](Self::energy_last_cycle) (cycle-accurate
/// profiling) and
/// [`energy_since_last_call`](Self::energy_since_last_call) (interval
/// estimation).
///
/// The per-cycle path is the hottest loop in a layer-1 simulation, so
/// the model keeps the previous frame pre-packed ([`PackedFrame`]) and
/// the per-class weights hoisted into an array: one cycle costs six
/// XOR + `count_ones` plus six multiply-adds, with no per-toggle
/// database lookups. [`reset`](Self::reset) returns the model to its
/// post-construction state without dropping the trace allocation, so
/// campaign workers can reuse one model across scenarios.
///
/// ```
/// use hierbus_power::{CharacterizationDb, Layer1EnergyModel};
/// use hierbus_ec::SignalFrame;
///
/// let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
/// let mut frame = SignalFrame::default();
/// frame.a_addr = 0xFF; // 8 address bits rise
/// model.on_frame(&frame);
/// assert!(model.energy_last_cycle() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Layer1EnergyModel {
    db: CharacterizationDb,
    /// Per-class pJ/toggle, indexed by [`SignalClass::index`]; hoisted
    /// out of the per-cycle loop at construction.
    weights: [f64; 6],
    prev: SignalFrame,
    prev_packed: PackedFrame,
    total_pj: f64,
    last_cycle_pj: f64,
    since_last_pj: f64,
    toggles: TogglesByClass,
    /// Per-cycle energy trace, if enabled.
    trace: Option<Vec<f64>>,
}

impl Layer1EnergyModel {
    /// Creates the model over a characterization database; the signal
    /// state starts at the idle (reset) frame.
    pub fn new(db: CharacterizationDb) -> Self {
        let weights = std::array::from_fn(|i| db.energy_per_toggle(SignalClass::ALL[i]));
        let prev = SignalFrame::default();
        Layer1EnergyModel {
            db,
            weights,
            prev,
            prev_packed: prev.packed(),
            total_pj: 0.0,
            last_cycle_pj: 0.0,
            since_last_pj: 0.0,
            toggles: TogglesByClass::default(),
            trace: None,
        }
    }

    /// Enables the per-cycle energy trace (for power-profile analysis).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Enables the trace with room for `cycles` samples, so a run of
    /// known length never reallocates inside the per-cycle loop.
    pub fn enable_trace_with_capacity(&mut self, cycles: usize) {
        self.trace = Some(Vec::with_capacity(cycles));
    }

    /// Returns the model to its post-construction state — idle previous
    /// frame, zero energy and toggle counters — while keeping the
    /// database, the weight cache and any trace *allocation* (an enabled
    /// trace is emptied, not dropped). A reset model replaying a
    /// stimulus produces bit-identical results to a freshly built one.
    pub fn reset(&mut self) {
        self.prev = SignalFrame::default();
        self.prev_packed = self.prev.packed();
        self.total_pj = 0.0;
        self.last_cycle_pj = 0.0;
        self.since_last_pj = 0.0;
        self.toggles = TogglesByClass::default();
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Feeds the settled frame of one bus cycle; called by the harness
    /// after every bus-process activation. Per-class weights accumulate
    /// into a fresh `0.0` in `SignalClass::ALL` order — the same f64
    /// schedule as [`on_frame_reference`](Self::on_frame_reference),
    /// which keeps the two `to_bits`-exact.
    #[inline]
    pub fn on_frame(&mut self, frame: &SignalFrame) {
        let packed = frame.packed();
        let diff = packed.diff(&self.prev_packed);
        self.prev = *frame;
        self.prev_packed = packed;
        let mut energy = 0.0;
        for (i, &toggles) in diff.as_array().iter().enumerate() {
            energy += toggles as f64 * self.weights[i];
        }
        self.toggles.accumulate(&diff);
        self.last_cycle_pj = energy;
        self.since_last_pj += energy;
        self.total_pj += energy;
        if let Some(t) = &mut self.trace {
            t.push(energy);
        }
    }

    /// [`on_frame`](Self::on_frame) via the bit-loop reference diff and
    /// per-toggle database lookups — the pre-optimization code path,
    /// kept as the differential-test and benchmark baseline. Must stay
    /// observationally identical to `on_frame`.
    pub fn on_frame_reference(&mut self, frame: &SignalFrame) {
        let diff = frame.diff_reference(&self.prev);
        let mut energy = 0.0;
        for (class, toggles) in diff.iter() {
            energy += toggles as f64 * self.db.energy_per_toggle(class);
        }
        self.toggles.accumulate(&diff);
        self.prev = *frame;
        self.prev_packed = frame.packed();
        self.last_cycle_pj = energy;
        self.since_last_pj += energy;
        self.total_pj += energy;
        if let Some(t) = &mut self.trace {
            t.push(energy);
        }
    }

    /// Energy dissipated during the last clock cycle, in pJ (the paper's
    /// first interface method — cycle-accurate energy profiling).
    pub fn energy_last_cycle(&self) -> f64 {
        self.last_cycle_pj
    }

    /// Energy dissipated since the previous call of this method, in pJ
    /// (the paper's second interface method — interval estimation).
    pub fn energy_since_last_call(&mut self) -> f64 {
        std::mem::take(&mut self.since_last_pj)
    }

    /// Total estimated energy in pJ.
    pub fn total_energy(&self) -> f64 {
        self.total_pj
    }

    /// Cycle-boundary transitions counted so far, per class.
    pub fn toggles(&self) -> &TogglesByClass {
        &self.toggles
    }

    /// The per-cycle trace, if enabled.
    pub fn trace(&self) -> Option<&[f64]> {
        self.trace.as_deref()
    }

    /// Decomposes the recorded per-cycle trace into an energy
    /// attribution ledger along `slave → phase → access class`, using
    /// the span record of the same run (`hierbus-obs` collector spans
    /// share the trace's cycle numbering). Returns `None` unless
    /// [`enable_trace`](Self::enable_trace) was on. Attribution is a
    /// partition of the trace, so the ledger total matches
    /// [`total_energy`](Self::total_energy) up to f64 regrouping.
    pub fn ledger(
        &self,
        spans: &[hierbus_obs::SpanEvent],
        slaves: &hierbus_obs::SlaveMap,
    ) -> Option<hierbus_obs::EnergyLedger> {
        Some(hierbus_obs::attribute_cycles(
            "tlm1",
            spans,
            self.trace()?,
            slaves,
        ))
    }

    /// The characterization database in use.
    pub fn db(&self) -> &CharacterizationDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::{AccessKind, BurstLen, DataWidth, SignalClass};

    fn frame_with_addr(addr: u64) -> SignalFrame {
        let mut f = SignalFrame::default();
        f.drive_address(
            addr,
            AccessKind::DataRead,
            DataWidth::W32,
            BurstLen::Single,
            true,
            false,
        );
        f
    }

    #[test]
    fn idle_frames_cost_nothing() {
        let mut m = Layer1EnergyModel::new(CharacterizationDb::uniform());
        m.on_frame(&SignalFrame::default());
        m.on_frame(&SignalFrame::default());
        assert_eq!(m.total_energy(), 0.0);
        assert_eq!(m.energy_last_cycle(), 0.0);
    }

    #[test]
    fn energy_tracks_hamming_distance() {
        let mut m = Layer1EnergyModel::new(CharacterizationDb::uniform());
        m.on_frame(&frame_with_addr(0x1)); // few addr bits + ctl
        let small = m.energy_last_cycle();
        let mut m2 = Layer1EnergyModel::new(CharacterizationDb::uniform());
        m2.on_frame(&frame_with_addr(0xFFFF_FFFF)); // many addr bits + ctl
        assert!(m2.energy_last_cycle() > small);
    }

    #[test]
    fn since_last_call_resets() {
        let mut m = Layer1EnergyModel::new(CharacterizationDb::uniform());
        m.on_frame(&frame_with_addr(0xFF));
        let first = m.energy_since_last_call();
        assert!(first > 0.0);
        assert_eq!(m.energy_since_last_call(), 0.0);
        m.on_frame(&frame_with_addr(0x00).to_idle());
        assert!(m.energy_since_last_call() > 0.0);
        // The running total is unaffected by sampling.
        assert!(m.total_energy() >= first);
    }

    #[test]
    fn trace_records_each_cycle() {
        let mut m = Layer1EnergyModel::new(CharacterizationDb::uniform());
        m.enable_trace();
        m.on_frame(&frame_with_addr(0x3));
        m.on_frame(&SignalFrame::default());
        let trace = m.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace[0] > 0.0);
        assert!(trace[1] > 0.0); // handshake flags fall back to idle
    }

    #[test]
    fn toggles_accumulate_by_class() {
        let mut m = Layer1EnergyModel::new(CharacterizationDb::uniform());
        m.on_frame(&frame_with_addr(0b111));
        assert_eq!(m.toggles().get(SignalClass::AddrBus), 3);
        assert_eq!(m.toggles().get(SignalClass::ReadData), 0);
    }

    #[test]
    fn class_weights_apply() {
        use crate::characterize::PhaseCounts;
        // Address toggles cost 10 pJ, everything else 0.
        let stats = vec![(SignalClass::AddrBus, 100.0, 10u64)];
        let db = CharacterizationDb::from_class_stats(&stats, PhaseCounts::default());
        let mut m = Layer1EnergyModel::new(db);
        m.on_frame(&frame_with_addr(0b11));
        // 2 address-bus toggles × 10 pJ; control toggles are free here.
        assert_eq!(m.energy_last_cycle(), 20.0);
    }

    #[test]
    fn reference_path_matches_fast_path_bit_exact() {
        let frames = [
            frame_with_addr(0xFF),
            SignalFrame::default(),
            frame_with_addr(0xDEAD_BEEF),
            frame_with_addr(0xDEAD_BEEF).to_idle(),
        ];
        let mut fast = Layer1EnergyModel::new(CharacterizationDb::uniform());
        let mut slow = Layer1EnergyModel::new(CharacterizationDb::uniform());
        fast.enable_trace();
        slow.enable_trace();
        for f in &frames {
            fast.on_frame(f);
            slow.on_frame_reference(f);
            assert_eq!(
                fast.energy_last_cycle().to_bits(),
                slow.energy_last_cycle().to_bits()
            );
        }
        assert_eq!(fast.total_energy().to_bits(), slow.total_energy().to_bits());
        assert_eq!(fast.toggles(), slow.toggles());
        assert_eq!(fast.trace(), slow.trace());
    }

    #[test]
    fn reset_replay_is_bit_exact() {
        let frames = [
            frame_with_addr(0x123),
            frame_with_addr(0xFFFF),
            SignalFrame::default(),
        ];
        let mut reused = Layer1EnergyModel::new(CharacterizationDb::uniform());
        reused.enable_trace();
        for f in &frames {
            reused.on_frame(f);
        }
        let _ = reused.energy_since_last_call();
        reused.reset();
        assert_eq!(reused.total_energy(), 0.0);
        assert_eq!(reused.trace(), Some(&[][..]));
        let mut fresh = Layer1EnergyModel::new(CharacterizationDb::uniform());
        fresh.enable_trace();
        for f in &frames {
            reused.on_frame(f);
            fresh.on_frame(f);
        }
        assert_eq!(
            fresh.total_energy().to_bits(),
            reused.total_energy().to_bits()
        );
        assert_eq!(
            fresh.energy_since_last_call().to_bits(),
            reused.energy_since_last_call().to_bits()
        );
        assert_eq!(fresh.trace(), reused.trace());
    }
}
