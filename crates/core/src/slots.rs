//! The in-flight transaction table every cycle-driven bus keeps.

use std::ops::{Index, IndexMut};

/// Transaction slots addressed by index. A bus releases a slot once
/// nothing refers to its transaction any more (at master pickup on the
/// TLM buses, at completion on the reference), and the next insert
/// reuses it, so the table peaks at the outstanding limit instead of
/// growing by one entry per transaction for the whole run.
#[derive(Debug)]
pub struct Slots<T> {
    entries: Vec<T>,
    /// Released slots, reused last-in first-out.
    free: Vec<usize>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// Pre-sizes the table for a run of `n` transactions. Slots are
    /// recycled, so the reservation is capped at 64, far above any
    /// outstanding limit.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n.min(64));
    }

    /// Stores `entry` in a released slot, or a new one, and returns its
    /// index.
    pub fn insert(&mut self, entry: T) -> usize {
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
    pub fn release(&mut self, idx: usize) {
        self.free.push(idx);
    }

    /// Slots ever allocated, in use or released.
    pub fn allocated(&self) -> usize {
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
