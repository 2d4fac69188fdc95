//! A direct-mapped instruction cache with burst line fills.
//!
//! The target core (Fig. 1 of the paper) carries instruction and data
//! caches; their interaction with the bus is a classic exploration axis
//! (the paper's related work cites Givargis/Vahid/Henkel on exactly
//! that). This module provides the instruction side: a direct-mapped
//! cache of 4-word (16-byte) lines. A hit costs no bus traffic; a miss
//! triggers a 4-beat burst fetch of the aligned line — the cache-line
//! fill traffic the burst support of the protocol exists for.
//!
//! Simplification: code is read-only here, so there is no invalidation
//! or coherence; self-modifying code is unsupported (as on most cards,
//! where code executes from ROM/FLASH).

use hierbus_ec::Address;

/// Words per cache line (one 4-beat burst).
pub const LINE_WORDS: usize = 4;
/// Bytes per cache line.
pub const LINE_BYTES: u32 = (LINE_WORDS as u32) * 4;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u32,
    words: [u32; LINE_WORDS],
}

/// The instruction cache.
#[derive(Debug, Clone)]
pub struct ICache {
    lines: Vec<Option<Line>>,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Creates a cache with `n_lines` lines (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n_lines` is zero or not a power of two.
    pub fn new(n_lines: usize) -> Self {
        assert!(
            n_lines.is_power_of_two(),
            "cache must have a power-of-two line count, got {n_lines}"
        );
        ICache {
            lines: vec![None; n_lines],
            hits: 0,
            misses: 0,
        }
    }

    /// Hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in 0..=1 (NaN before any access).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }

    fn index_and_tag(&self, pc: u32) -> (usize, u32) {
        let line_addr = pc / LINE_BYTES;
        let index = (line_addr as usize) & (self.lines.len() - 1);
        (index, line_addr)
    }

    /// The aligned base address of the line containing `pc`.
    pub(crate) fn line_base(pc: u32) -> Address {
        Address::new((pc & !(LINE_BYTES - 1)) as u64)
    }

    /// Looks `pc` up; on a hit returns the instruction word and counts a
    /// hit, on a miss counts a miss and returns `None` (the core then
    /// fetches the line over the bus and [`fill`](Self::fill)s it).
    pub(crate) fn lookup(&mut self, pc: u32) -> Option<u32> {
        let (index, tag) = self.index_and_tag(pc);
        match &self.lines[index] {
            Some(line) if line.tag == tag => {
                self.hits += 1;
                Some(line.words[((pc / 4) as usize) % LINE_WORDS])
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Installs a fetched line and returns the requested word.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not one full line.
    pub fn fill(&mut self, pc: u32, words: &[u32]) -> u32 {
        assert_eq!(words.len(), LINE_WORDS, "a fill is one full line");
        let (index, tag) = self.index_and_tag(pc);
        let mut line = Line {
            tag,
            words: [0; LINE_WORDS],
        };
        line.words.copy_from_slice(words);
        self.lines[index] = Some(line);
        line.words[((pc / 4) as usize) % LINE_WORDS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = ICache::new(4);
        assert_eq!(c.lookup(0x100), None);
        let fetched = [10, 11, 12, 13];
        assert_eq!(c.fill(0x104, &fetched), 11);
        assert_eq!(c.lookup(0x100), Some(10));
        assert_eq!(c.lookup(0x108), Some(12));
        assert_eq!(c.lookup(0x10C), Some(13));
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = ICache::new(2); // 2 lines × 16 B: 0x100 and 0x120 collide
        c.lookup(0x100);
        c.fill(0x100, &[1, 2, 3, 4]);
        c.lookup(0x120);
        c.fill(0x120, &[5, 6, 7, 8]);
        assert_eq!(c.lookup(0x100), None, "evicted by the colliding line");
        assert_eq!(c.lookup(0x120), Some(5));
    }

    #[test]
    fn line_base_is_16_byte_aligned() {
        assert_eq!(ICache::line_base(0x10F).raw(), 0x100);
        assert_eq!(ICache::line_base(0x110).raw(), 0x110);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut c = ICache::new(16);
        // A loop over 8 instructions: first pass misses, then all hits.
        for _ in 0..10 {
            for pc in (0x200..0x220).step_by(4) {
                if c.lookup(pc).is_none() {
                    let base = ICache::line_base(pc).raw() as u32;
                    let words: Vec<u32> = (0..4).map(|k| base + k).collect();
                    c.fill(pc, &words);
                }
            }
        }
        assert!(c.hit_rate() > 0.95, "hit rate {}", c.hit_rate());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = ICache::new(3);
    }
}
