//! Address- and data-channel state machines.
//!
//! These implement the canonical timing rules listed in the
//! [crate docs](crate): one address phase at a time, independent read and
//! write beat channels, wait-state countdowns, beat `k+1` starting the
//! cycle after beat `k` completes. The layer-1 TLM bus implements the same
//! rules over queues; integration tests assert cycle-exact agreement.

use hierbus_ec::BusError;
use std::collections::VecDeque;

/// Index of an active transaction in the bus's table.
pub(crate) type ActiveIdx = usize;

/// The address channel: serialises address phases.
#[derive(Debug, Default)]
pub struct AddressChannel {
    queue: VecDeque<ActiveIdx>,
    /// Wait count and pre-detected error per queue entry, kept in lockstep
    /// with `queue`.
    meta: VecDeque<(u32, Option<BusError>)>,
    current: Option<AddrPhase>,
}

#[derive(Debug)]
struct AddrPhase {
    idx: ActiveIdx,
    waits_left: u32,
    error: Option<BusError>,
}

/// The outcome of one address-channel cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrCycle {
    /// Nothing to do this cycle.
    Idle,
    /// A phase is in progress (wait state); the address wires stay driven.
    Busy(ActiveIdx),
    /// The phase of this transaction completed successfully this cycle.
    Done(ActiveIdx),
    /// The phase terminated with an error this cycle.
    Failed(ActiveIdx, BusError),
}

impl AddressChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a newly issued transaction. `error` carries a decode or
    /// rights failure detected by the bus controller; an errored phase
    /// still occupies the channel for one cycle (the error response).
    pub fn push(&mut self, idx: ActiveIdx, addr_waits: u32, error: Option<BusError>) {
        self.queue.push_back(idx);
        self.meta.push_back((addr_waits, error));
    }

    /// Advances one cycle.
    pub fn step(&mut self) -> AddrCycle {
        if self.current.is_none() {
            if let Some(idx) = self.queue.pop_front() {
                let (waits, error) = self.meta.pop_front().expect("meta in sync");
                self.current = Some(AddrPhase {
                    idx,
                    waits_left: if error.is_some() { 0 } else { waits },
                    error,
                });
            } else {
                return AddrCycle::Idle;
            }
        }
        let phase = self.current.as_mut().expect("phase just ensured");
        if phase.waits_left > 0 {
            phase.waits_left -= 1;
            return AddrCycle::Busy(phase.idx);
        }
        let done = self.current.take().expect("phase present");
        match done.error {
            Some(e) => AddrCycle::Failed(done.idx, e),
            None => AddrCycle::Done(done.idx),
        }
    }
}

/// A data channel (one instance for reads, one for writes).
#[derive(Debug, Default)]
pub struct DataChannel {
    queue: VecDeque<DataJob>,
    current: Option<BeatState>,
}

#[derive(Debug, Clone, Copy)]
struct DataJob {
    idx: ActiveIdx,
    beats: u32,
    wait_per_beat: u32,
    /// Extra wait states inserted before beat 0 only (injected stall
    /// faults stretch the first beat, like a dynamically busy slave).
    first_beat_extra: u32,
}

#[derive(Debug, Clone, Copy)]
struct BeatState {
    job: DataJob,
    /// The next beat to complete; `job.beats` once the last one has, and
    /// the channel takes its next job at the following step.
    beat: u32,
    waits_left: u32,
}

/// The outcome of one data-channel cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataCycle {
    /// Nothing active.
    Idle,
    /// A beat is waiting on the slave.
    Busy(ActiveIdx),
    /// Beat `beat` of this transaction completed this cycle; `last` marks
    /// the transaction's final beat.
    Beat {
        /// The transaction whose beat completed.
        idx: ActiveIdx,
        /// Zero-based beat number.
        beat: u32,
        /// True for the final beat.
        last: bool,
    },
}

impl DataChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues the data phase of a transaction whose address phase
    /// completed this cycle. Eligible immediately (beat 0 may complete in
    /// this same cycle if the channel is free and there are no waits).
    /// `first_beat_extra` adds wait states to beat 0 only — the stall
    /// fault of the robustness layer.
    pub fn push(&mut self, idx: ActiveIdx, beats: u32, wait_per_beat: u32, first_beat_extra: u32) {
        self.queue.push_back(DataJob {
            idx,
            beats,
            wait_per_beat,
            first_beat_extra,
        });
    }

    /// Drops the in-progress transfer (remaining beats never run). Used
    /// when a slave error terminates the transaction on a beat. Queued
    /// jobs behind it are unaffected.
    pub(crate) fn cancel_current(&mut self) {
        self.current = None;
    }

    /// Holds the beat the last [`step`](Self::step) completed: the slave
    /// answered `Wait`, so the same beat completes again, with no further
    /// wait states, at the next step at the earliest.
    pub(crate) fn hold(&mut self) {
        let st = self.current.as_mut().expect("a beat just completed");
        st.beat -= 1;
        st.waits_left = 0;
    }

    /// Advances one cycle.
    pub fn step(&mut self) -> DataCycle {
        let st = match &mut self.current {
            Some(st) if st.beat < st.job.beats => st,
            current => {
                let Some(job) = self.queue.pop_front() else {
                    *current = None;
                    return DataCycle::Idle;
                };
                current.insert(BeatState {
                    job,
                    beat: 0,
                    waits_left: job.wait_per_beat + job.first_beat_extra,
                })
            }
        };
        if st.waits_left > 0 {
            st.waits_left -= 1;
            return DataCycle::Busy(st.job.idx);
        }
        let beat = st.beat;
        st.beat += 1;
        st.waits_left = st.job.wait_per_beat;
        DataCycle::Beat {
            idx: st.job.idx,
            beat,
            last: st.beat == st.job.beats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_wait_address_phase_completes_same_cycle() {
        let mut ch = AddressChannel::new();
        ch.push(0, 0, None);
        assert_eq!(ch.step(), AddrCycle::Done(0));
        assert_eq!(ch.step(), AddrCycle::Idle);
    }

    #[test]
    fn address_waits_delay_completion() {
        let mut ch = AddressChannel::new();
        ch.push(3, 2, None);
        assert_eq!(ch.step(), AddrCycle::Busy(3));
        assert_eq!(ch.step(), AddrCycle::Busy(3));
        assert_eq!(ch.step(), AddrCycle::Done(3));
    }

    #[test]
    fn address_phases_serialize() {
        let mut ch = AddressChannel::new();
        ch.push(0, 1, None);
        ch.push(1, 0, None);
        assert_eq!(ch.step(), AddrCycle::Busy(0));
        assert_eq!(ch.step(), AddrCycle::Done(0));
        // Transaction 1 starts the *next* cycle, even with zero waits.
        assert_eq!(ch.step(), AddrCycle::Done(1));
    }

    #[test]
    fn decode_error_completes_in_one_cycle_ignoring_waits() {
        use hierbus_ec::Address;
        let mut ch = AddressChannel::new();
        let err = BusError::Decode(Address::new(0xBAD));
        ch.push(7, 5, Some(err));
        assert_eq!(ch.step(), AddrCycle::Failed(7, err));
    }

    #[test]
    fn zero_wait_single_beat_completes_same_cycle() {
        let mut ch = DataChannel::new();
        ch.push(0, 1, 0, 0);
        assert_eq!(
            ch.step(),
            DataCycle::Beat {
                idx: 0,
                beat: 0,
                last: true
            }
        );
        assert_eq!(ch.step(), DataCycle::Idle);
    }

    #[test]
    fn burst_beats_are_one_per_cycle_at_zero_wait() {
        let mut ch = DataChannel::new();
        ch.push(0, 4, 0, 0);
        for beat in 0..4 {
            assert_eq!(
                ch.step(),
                DataCycle::Beat {
                    idx: 0,
                    beat,
                    last: beat == 3
                }
            );
        }
        assert_eq!(ch.step(), DataCycle::Idle);
    }

    #[test]
    fn beat_waits_stretch_each_beat() {
        let mut ch = DataChannel::new();
        ch.push(0, 2, 1, 0);
        assert_eq!(ch.step(), DataCycle::Busy(0)); // beat 0 wait
        assert!(matches!(ch.step(), DataCycle::Beat { beat: 0, .. }));
        assert_eq!(ch.step(), DataCycle::Busy(0)); // beat 1 wait
        assert!(matches!(
            ch.step(),
            DataCycle::Beat {
                beat: 1,
                last: true,
                ..
            }
        ));
    }

    #[test]
    fn jobs_queue_in_order() {
        let mut ch = DataChannel::new();
        ch.push(0, 1, 0, 0);
        ch.push(1, 1, 0, 0);
        assert!(matches!(ch.step(), DataCycle::Beat { idx: 0, .. }));
        // Next job starts (and completes) the following cycle.
        assert!(matches!(ch.step(), DataCycle::Beat { idx: 1, .. }));
    }

    #[test]
    fn first_beat_extra_stretches_beat_zero_only() {
        let mut ch = DataChannel::new();
        ch.push(0, 2, 0, 2);
        assert_eq!(ch.step(), DataCycle::Busy(0)); // injected stall
        assert_eq!(ch.step(), DataCycle::Busy(0)); // injected stall
        assert!(matches!(ch.step(), DataCycle::Beat { beat: 0, .. }));
        // Beat 1 is back to the static wait profile (zero here).
        assert!(matches!(
            ch.step(),
            DataCycle::Beat {
                beat: 1,
                last: true,
                ..
            }
        ));
    }

    #[test]
    fn cancel_current_drops_remaining_beats() {
        let mut ch = DataChannel::new();
        ch.push(0, 4, 0, 0);
        ch.push(1, 1, 0, 0);
        assert!(matches!(ch.step(), DataCycle::Beat { beat: 0, .. }));
        ch.cancel_current();
        // The queued job behind the cancelled burst proceeds normally.
        assert!(matches!(
            ch.step(),
            DataCycle::Beat {
                idx: 1,
                last: true,
                ..
            }
        ));
        assert_eq!(ch.step(), DataCycle::Idle);
    }

    #[test]
    fn hold_repeats_the_beat_without_waits() {
        let mut ch = DataChannel::new();
        ch.push(0, 2, 1, 0);
        assert_eq!(ch.step(), DataCycle::Busy(0));
        assert!(matches!(ch.step(), DataCycle::Beat { beat: 0, .. }));
        ch.hold();
        // The held beat skips its wait states; beat 1 keeps them.
        assert!(matches!(ch.step(), DataCycle::Beat { beat: 0, .. }));
        assert_eq!(ch.step(), DataCycle::Busy(0));
        let last = DataCycle::Beat {
            idx: 0,
            beat: 1,
            last: true,
        };
        assert_eq!(ch.step(), last);
        ch.hold();
        assert_eq!(ch.step(), last);
        assert_eq!(ch.step(), DataCycle::Idle);
    }
}
