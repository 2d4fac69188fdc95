//! The in-flight transaction table both cycle-driven buses keep.

use std::ops::{Index, IndexMut};

/// Transaction slots addressed by index. A bus releases a slot once the
/// master has picked its transaction up, and the next insert reuses it,
/// so the table peaks at the outstanding limit instead of growing by
/// one entry per transaction for the whole run.
#[derive(Debug)]
pub(crate) struct Slots<T> {
    entries: Vec<T>,
    /// Released slots, reused last-in first-out.
    free: Vec<usize>,
}

impl<T> Slots<T> {
    pub(crate) fn new() -> Self {
        Slots {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Pre-sizes the table for a run of `n` transactions. Slots are
    /// recycled, so the reservation is capped at 64, far above any
    /// outstanding limit.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.entries.reserve(n.min(64));
    }

    /// Stores `entry` in a released slot, or a new one, and returns its
    /// index.
    pub(crate) fn insert(&mut self, entry: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.entries[i] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        }
    }

    /// Marks slot `idx` reusable; its entry stays until overwritten.
    pub(crate) fn release(&mut self, idx: usize) {
        self.free.push(idx);
    }

    /// Slots ever allocated, in use or released.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;

    fn index(&self, idx: usize) -> &T {
        &self.entries[idx]
    }
}

impl<T> IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, idx: usize) -> &mut T {
        &mut self.entries[idx]
    }
}
