//! Cycle-keyed event schedules for scripted stimulus.
//!
//! The fault-injection layer needs to fire events (card tear, brownout)
//! at predetermined cycles of a run, identically at every abstraction
//! level. [`CycleSchedule`] is the deterministic primitive for that: a
//! sorted list of `(cycle, payload)` entries with a monotone cursor.
//! It is plain data — clonable, comparable, and trivially replayable —
//! which is what differential tests across model layers require.

/// A sorted, replayable schedule of cycle-keyed events.
///
/// Entries fire in `(cycle, insertion order)` order; [`pop_due`]
/// consumes everything scheduled at or before the polled cycle.
///
/// [`pop_due`]: CycleSchedule::pop_due
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleSchedule<T> {
    entries: Vec<(u64, T)>,
    cursor: usize,
}

impl<T> CycleSchedule<T> {
    /// An empty schedule.
    pub fn new() -> Self {
        CycleSchedule {
            entries: Vec::new(),
            cursor: 0,
        }
    }

    /// Adds an event at `cycle`. Events may be added after popping has
    /// begun as long as `cycle` has not been passed yet.
    pub fn at(&mut self, cycle: u64, payload: T) {
        debug_assert!(
            self.next_cycle().is_none() || cycle >= self.entries[self.cursor].0 || self.cursor == 0,
            "scheduling into the past"
        );
        let pos = self.entries[self.cursor..]
            .iter()
            .position(|&(c, _)| c > cycle)
            .map(|p| self.cursor + p)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, (cycle, payload));
    }

    /// The cycle of the next unfired event.
    pub fn next_cycle(&self) -> Option<u64> {
        self.entries.get(self.cursor).map(|&(c, _)| c)
    }

    /// Fires and returns every event scheduled at or before `cycle`.
    pub fn pop_due(&mut self, cycle: u64) -> Vec<&T> {
        let start = self.cursor;
        while self.cursor < self.entries.len() && self.entries[self.cursor].0 <= cycle {
            self.cursor += 1;
        }
        self.entries[start..self.cursor]
            .iter()
            .map(|(_, t)| t)
            .collect()
    }

    /// All entries, fired or not, in firing order.
    pub fn entries(&self) -> &[(u64, T)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_cycle_order() {
        let mut s = CycleSchedule::new();
        s.at(30, "c");
        s.at(10, "a");
        s.at(20, "b");
        assert_eq!(s.next_cycle(), Some(10));
        assert_eq!(s.pop_due(5), Vec::<&&str>::new());
        assert_eq!(s.pop_due(20), vec![&"a", &"b"]);
        assert_eq!(s.next_cycle(), Some(30));
        assert_eq!(s.pop_due(100), vec![&"c"]);
        assert_eq!(s.next_cycle(), None);
    }

    #[test]
    fn same_cycle_keeps_insertion_order() {
        let mut s = CycleSchedule::new();
        s.at(7, 1);
        s.at(7, 2);
        s.at(3, 0);
        assert_eq!(s.pop_due(7), vec![&0, &1, &2]);
    }
}
