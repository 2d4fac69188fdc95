//! The layer-2 (per-phase) energy model.

use crate::characterize::CharacterizationDb;
use hierbus_core::{PhaseEvent, PhaseKind};
use hierbus_ec::SignalClass;

/// The layer-2 energy model: one estimate per completed protocol phase.
///
/// Estimation rules (§3.3 of the paper, "Layer 2 Energy Model"):
///
/// * **Address phase** — the model has no record of the address bus's
///   previous value (that belonged to the *previous* transaction), so it
///   charges the characterized average transition counts for the address
///   bus and control group.
/// * **Data phase** — the first beat is likewise charged at the
///   characterized average; for subsequent beats the data is in hand
///   (the burst's slice), so the actual Hamming distance between
///   consecutive beat words is used. Control wires are charged the
///   per-beat average for every beat.
///
/// Because the averages come from a gate-level training run (which counts
/// glitches) and ignore inter-transaction correlation, the model
/// systematically **over**estimates on address-sequential traffic — the
/// behaviour behind the paper's +14.7% row of Table 2.
///
/// The power interface has exactly one query,
/// [`energy_since_last_call`](Self::energy_since_last_call): energy is
/// booked when a phase *completes*, so a sample taken between two phase
/// completions attributes whole phases to the interval (Fig. 6's
/// sampling semantics) — this model does not support cycle-accurate
/// profiling.
#[derive(Debug, Clone)]
pub struct Layer2EnergyModel {
    db: CharacterizationDb,
    total_pj: f64,
    since_last_pj: f64,
    /// Optional ablation: remember the last word seen on each data bus
    /// and the last address, restoring the inter-transaction knowledge
    /// layer 2 normally lacks.
    correlation_correction: bool,
    last_addr: Option<u64>,
    last_read_word: Option<u32>,
    last_write_word: Option<u32>,
    phases_estimated: u64,
    partial_phases: u64,
}

impl Layer2EnergyModel {
    /// Creates the model over a characterization database.
    pub fn new(db: CharacterizationDb) -> Self {
        Layer2EnergyModel {
            db,
            total_pj: 0.0,
            since_last_pj: 0.0,
            correlation_correction: false,
            last_addr: None,
            last_read_word: None,
            last_write_word: None,
            phases_estimated: 0,
            partial_phases: 0,
        }
    }

    /// Enables the inter-transaction correlation correction (ablation
    /// study): first-beat and address estimates use actual Hamming
    /// distances to the previously observed bus values instead of
    /// training averages. This is *not* part of the paper's layer-2
    /// model — it quantifies exactly how much of the overestimate the
    /// missing correlation causes.
    pub fn enable_correlation_correction(&mut self) {
        self.correlation_correction = true;
    }

    /// Books the energy of one completed phase — or, for a phase
    /// truncated by a card tear (`ev.completed == false`), its
    /// characterized per-phase average pro-rata: the layer has no
    /// signal knowledge of the interrupted cycles, so it charges
    /// `cycles / planned_cycles` of the average-only estimate.
    ///
    /// Returns the energy booked for this event, in pJ, so callers can
    /// attribute it (see [`on_event_ledger`](Self::on_event_ledger)).
    pub fn on_event(&mut self, ev: &PhaseEvent) -> f64 {
        if !ev.completed {
            let fraction = f64::from(ev.cycles) / f64::from(ev.planned_cycles.max(1));
            let e = |class: SignalClass| self.db.energy_per_toggle(class);
            let full = match ev.kind {
                PhaseKind::Address => {
                    self.db.avg_addr_bus_toggles() * e(SignalClass::AddrBus)
                        + self.db.avg_addr_ctl_toggles() * e(SignalClass::AddrCtl)
                }
                PhaseKind::ReadData => {
                    let (avg_data, avg_ctl) = self.db.avg_read_beat_toggles();
                    ev.beats as f64
                        * (avg_data * e(SignalClass::ReadData) + avg_ctl * e(SignalClass::ReadCtl))
                }
                PhaseKind::WriteData => {
                    let (avg_data, avg_ctl) = self.db.avg_write_beat_toggles();
                    ev.beats as f64
                        * (avg_data * e(SignalClass::WriteData)
                            + avg_ctl * e(SignalClass::WriteCtl))
                }
            };
            let energy = full * fraction;
            self.total_pj += energy;
            self.since_last_pj += energy;
            self.phases_estimated += 1;
            self.partial_phases += 1;
            return energy;
        }
        let e = |class: SignalClass| self.db.energy_per_toggle(class);
        let energy = match ev.kind {
            PhaseKind::Address => {
                let bus_toggles = match (self.correlation_correction, self.last_addr) {
                    (true, Some(prev)) => (prev ^ ev.addr.raw()).count_ones() as f64,
                    _ => self.db.avg_addr_bus_toggles(),
                };
                self.last_addr = Some(ev.addr.raw());
                bus_toggles * e(SignalClass::AddrBus)
                    + self.db.avg_addr_ctl_toggles() * e(SignalClass::AddrCtl)
            }
            PhaseKind::ReadData => {
                let (avg_data, avg_ctl) = self.db.avg_read_beat_toggles();

                Self::data_phase_toggles(
                    &ev.data,
                    avg_data,
                    self.correlation_correction,
                    &mut self.last_read_word,
                ) * e(SignalClass::ReadData)
                    + ev.beats as f64 * avg_ctl * e(SignalClass::ReadCtl)
            }
            PhaseKind::WriteData => {
                let (avg_data, avg_ctl) = self.db.avg_write_beat_toggles();

                Self::data_phase_toggles(
                    &ev.data,
                    avg_data,
                    self.correlation_correction,
                    &mut self.last_write_word,
                ) * e(SignalClass::WriteData)
                    + ev.beats as f64 * avg_ctl * e(SignalClass::WriteCtl)
            }
        };
        self.total_pj += energy;
        self.since_last_pj += energy;
        self.phases_estimated += 1;
        energy
    }

    /// [`on_event`](Self::on_event), plus attribution: the booked
    /// energy lands in the ledger bucket for the event's slave window,
    /// protocol phase and access kind, tagged with the name of the
    /// master owning the event's transaction as `master_of` resolves its
    /// trace id (multi-master runs pass
    /// [`hierbus_ec::dma::master_of_trace`]; `None` books untagged).
    /// Layer 2 prices whole phases, so its ledgers have no idle bucket;
    /// the ledger total still matches
    /// [`total_energy`](Self::total_energy) up to f64 regrouping.
    pub fn on_event_ledger(
        &mut self,
        ev: &PhaseEvent,
        ledger: &mut hierbus_obs::EnergyLedger,
        slaves: &hierbus_obs::SlaveMap,
        master_of: impl Fn(u64) -> Option<&'static str>,
    ) {
        use hierbus_obs::{AccessClass, BucketKey, LedgerPhase};
        let energy = self.on_event(ev);
        let phase = match ev.kind {
            PhaseKind::Address => LedgerPhase::Address,
            PhaseKind::ReadData => LedgerPhase::ReadData,
            PhaseKind::WriteData => LedgerPhase::WriteData,
        };
        let class = match ev.access {
            hierbus_ec::AccessKind::InstrFetch => AccessClass::Fetch,
            hierbus_ec::AccessKind::DataRead => AccessClass::Read,
            hierbus_ec::AccessKind::DataWrite => AccessClass::Write,
        };
        let key = BucketKey::new(slaves.resolve(ev.addr.raw()), phase, Some(class))
            .with_master(master_of(ev.trace_id));
        ledger.book(key, energy);
    }

    /// Data-bus toggle estimate for a whole data phase: first beat at the
    /// training average (or corrected), following beats at actual
    /// intra-burst Hamming distance.
    fn data_phase_toggles(
        data: &[u32],
        avg_first: f64,
        corrected: bool,
        last_word: &mut Option<u32>,
    ) -> f64 {
        let mut toggles = match (corrected, *last_word, data.first()) {
            (true, Some(prev), Some(&first)) => (prev ^ first).count_ones() as f64,
            _ => avg_first,
        };
        for pair in data.windows(2) {
            toggles += (pair[0] ^ pair[1]).count_ones() as f64;
        }
        if let Some(&last) = data.last() {
            *last_word = Some(last);
        }
        toggles
    }

    /// Energy dissipated since the previous call, in pJ — the layer-2
    /// power interface's only method.
    pub fn energy_since_last_call(&mut self) -> f64 {
        std::mem::take(&mut self.since_last_pj)
    }

    /// Total estimated energy in pJ.
    pub fn total_energy(&self) -> f64 {
        self.total_pj
    }

    /// Number of phases booked so far.
    pub fn phases_estimated(&self) -> u64 {
        self.phases_estimated
    }

    /// Number of truncated (card-tear) phases booked pro-rata.
    pub fn partial_phases(&self) -> u64 {
        self.partial_phases
    }

    /// The characterization database in use.
    pub fn db(&self) -> &CharacterizationDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::{AccessKind, Address, DataWidth};

    fn addr_event(addr: u64) -> PhaseEvent {
        PhaseEvent {
            kind: PhaseKind::Address,
            addr: Address::new(addr),
            access: AccessKind::DataRead,
            width: DataWidth::W32,
            beats: 1,
            cycles: 1,
            planned_cycles: 1,
            completed: true,
            data: Vec::new(),
            at_cycle: 0,
            trace_id: 0,
        }
    }

    fn read_event(data: Vec<u32>) -> PhaseEvent {
        PhaseEvent {
            kind: PhaseKind::ReadData,
            addr: Address::new(0x100),
            access: AccessKind::DataRead,
            width: DataWidth::W32,
            beats: data.len() as u32,
            cycles: data.len() as u32,
            planned_cycles: data.len() as u32,
            completed: true,
            data,
            at_cycle: 0,
            trace_id: 0,
        }
    }

    #[test]
    fn address_phase_uses_training_average() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        m.on_event(&addr_event(0x100));
        // uniform db: avg addr toggles = 18 bus + 4 ctl, 1 pJ each.
        assert_eq!(m.total_energy(), 22.0);
    }

    #[test]
    fn correlated_addresses_do_not_reduce_the_uncorrected_estimate() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        m.on_event(&addr_event(0x100));
        m.on_event(&addr_event(0x104)); // 1-bit actual distance
                                        // Uncorrected layer 2 still charges the average for both phases.
        assert_eq!(m.total_energy(), 44.0);
    }

    #[test]
    fn correlation_correction_uses_actual_hamming() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        m.enable_correlation_correction();
        m.on_event(&addr_event(0x100)); // first: average (18 + 4)
        m.on_event(&addr_event(0x104)); // corrected: 1 + 4
        assert_eq!(m.total_energy(), 22.0 + 5.0);
    }

    #[test]
    fn burst_uses_intra_transaction_hamming() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        // Beats: first at avg (16), then hamming 1 and 2; ctl 3 beats × 3.
        m.on_event(&read_event(vec![0b000, 0b001, 0b111]));
        assert_eq!(m.total_energy(), 16.0 + 1.0 + 2.0 + 9.0);
    }

    #[test]
    fn since_last_call_implements_fig6_sampling() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        m.on_event(&addr_event(0x100)); // phase 1
        m.on_event(&addr_event(0x200)); // phase 2
        let t1 = m.energy_since_last_call();
        assert_eq!(t1, 44.0); // both completed phases land in sample 1
        m.on_event(&read_event(vec![0xF]));
        let t2 = m.energy_since_last_call();
        assert!(t2 > 0.0);
        assert_eq!(m.energy_since_last_call(), 0.0);
        assert_eq!(m.total_energy(), t1 + t2);
    }

    #[test]
    fn truncated_phase_charges_average_pro_rata() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        // A 4-beat read phase torn after 2 of its 4 cycles: half of the
        // average-only estimate (4 beats × (16 data + 3 ctl) = 76).
        let ev = PhaseEvent {
            beats: 4,
            cycles: 2,
            planned_cycles: 4,
            completed: false,
            data: Vec::new(),
            ..read_event(vec![0, 0, 0, 0])
        };
        m.on_event(&ev);
        assert_eq!(m.total_energy(), 76.0 / 2.0);
        assert_eq!(m.partial_phases(), 1);
        // The charge scales linearly with the driven fraction: the same
        // phase torn one cycle later costs proportionally more.
        let mut later = Layer2EnergyModel::new(CharacterizationDb::uniform());
        later.on_event(&PhaseEvent {
            cycles: 3,
            ..ev.clone()
        });
        assert_eq!(later.total_energy(), 76.0 * 3.0 / 4.0);
    }

    #[test]
    fn ledger_booking_decomposes_the_total() {
        use hierbus_obs::{BucketKey, EnergyLedger, LedgerPhase, SlaveMap};
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        let mut ledger = EnergyLedger::new("tlm2");
        let mut slaves = SlaveMap::new();
        slaves.add(0x0, 0x1000, "mem");
        let untagged = |_| None;
        m.on_event_ledger(&addr_event(0x100), &mut ledger, &slaves, untagged);
        m.on_event_ledger(
            &read_event(vec![0b000, 0b001]),
            &mut ledger,
            &slaves,
            untagged,
        );
        // Attribution only decomposes: bucket sum equals the model total.
        assert_eq!(ledger.total_pj(), m.total_energy());
        assert_eq!(
            ledger.get(&BucketKey::new(
                "mem",
                LedgerPhase::Address,
                Some(hierbus_obs::AccessClass::Read)
            )),
            22.0
        );
        // Torn phases book into the same phase bucket.
        let torn = PhaseEvent {
            beats: 4,
            cycles: 2,
            planned_cycles: 4,
            completed: false,
            data: Vec::new(),
            ..read_event(vec![0, 0, 0, 0])
        };
        m.on_event_ledger(&torn, &mut ledger, &slaves, untagged);
        assert_eq!(ledger.total_pj(), m.total_energy());
        assert_eq!(ledger.bucket_count(), 2);
    }

    #[test]
    fn phase_counter_tracks_events() {
        let mut m = Layer2EnergyModel::new(CharacterizationDb::uniform());
        m.on_event(&addr_event(0));
        m.on_event(&read_event(vec![1]));
        assert_eq!(m.phases_estimated(), 2);
    }
}
