//! Slave-side models for the RTL reference.

use hierbus_ec::{Address, SlaveConfig};

/// A slave as seen by the cycle-true bus: static configuration (range,
/// wait states, rights) plus word-level storage access. Wait-state
/// insertion itself is performed by the bus channels from
/// [`SlaveConfig::waits`], which is how the paper's layer-1 model drives
/// its timing too.
pub trait RtlSlaveModel {
    /// The slave control interface: address range, wait states, rights.
    fn config(&self) -> SlaveConfig;

    /// Opt-in downcasting hook so post-run analyses (e.g. memory
    /// equality checks across model layers) can reach the concrete
    /// model. Models that support it override this with `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Reads the word containing `addr` (the bus presents full words; the
    /// master extracts lanes per the merge pattern).
    fn read_word(&mut self, addr: Address) -> u32;

    /// Writes `data` to the word containing `addr`, honouring the byte
    /// enables `ben` (bit *n* = byte lane *n*).
    fn write_word(&mut self, addr: Address, data: u32, ben: u8);
}

/// A sparse word-addressed memory with a deterministic fill pattern for
/// never-written words, so reads of "uninitialised" locations still
/// produce repeatable, non-trivial data-bus activity.
#[derive(Debug, Clone)]
pub struct SimpleMem {
    config: SlaveConfig,
    words: hierbus_ec::FastIdMap<u64, u32>,
}

impl SimpleMem {
    /// Creates a memory slave with the given configuration.
    pub fn new(config: SlaveConfig) -> Self {
        SimpleMem {
            config,
            words: hierbus_ec::FastIdMap::default(),
        }
    }

    /// The deterministic background pattern of a word never written.
    pub fn fill_pattern(addr: Address) -> u32 {
        (addr.word_offset() as u32).wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A
    }

    /// Pre-loads consecutive words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word aligned.
    pub fn load(&mut self, addr: Address, words: &[u32]) {
        assert!(addr.is_aligned(4), "load base {addr} must be word aligned");
        for (i, &w) in words.iter().enumerate() {
            self.words.insert(addr.word_offset() + i as u64, w);
        }
    }

    /// Reads back a word without bus semantics (test/inspection aid).
    pub fn peek(&self, addr: Address) -> u32 {
        *self
            .words
            .get(&addr.word_offset())
            .unwrap_or(&Self::fill_pattern(addr))
    }

    /// All explicitly written words as `(word_offset, value)`, sorted —
    /// the committed-memory fingerprint for cross-layer equality checks.
    pub fn snapshot(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.words.iter().map(|(&k, &w)| (k, w)).collect();
        v.sort_unstable();
        v
    }
}

impl RtlSlaveModel for SimpleMem {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn read_word(&mut self, addr: Address) -> u32 {
        *self
            .words
            .get(&addr.word_offset())
            .unwrap_or(&Self::fill_pattern(addr))
    }

    fn write_word(&mut self, addr: Address, data: u32, ben: u8) {
        let key = addr.word_offset();
        let old = *self.words.get(&key).unwrap_or(&Self::fill_pattern(addr));
        let mut merged = old;
        for lane in 0..4 {
            if ben & (1 << lane) != 0 {
                let mask = 0xFFu32 << (8 * lane);
                merged = (merged & !mask) | (data & mask);
            }
        }
        self.words.insert(key, merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::{AccessRights, AddressRange, WaitProfile};

    fn mem() -> SimpleMem {
        SimpleMem::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ))
    }

    #[test]
    fn unwritten_words_use_fill_pattern() {
        let mut m = mem();
        let a = Address::new(0x40);
        assert_eq!(m.read_word(a), SimpleMem::fill_pattern(a));
        // Two different addresses give different patterns.
        assert_ne!(m.read_word(a), m.read_word(Address::new(0x44)));
    }

    #[test]
    fn full_word_write_read_roundtrip() {
        let mut m = mem();
        m.write_word(Address::new(0x10), 0xDEAD_BEEF, 0b1111);
        assert_eq!(m.read_word(Address::new(0x10)), 0xDEAD_BEEF);
        assert_eq!(m.snapshot(), vec![(0x10 >> 2, 0xDEAD_BEEF)]);
    }

    #[test]
    fn byte_enables_merge_lanes() {
        let mut m = mem();
        m.write_word(Address::new(0x20), 0x4433_2211, 0b1111);
        m.write_word(Address::new(0x20), 0xAABB_CCDD, 0b0101);
        assert_eq!(m.read_word(Address::new(0x20)), 0x44BB_22DD);
    }

    #[test]
    fn partial_write_to_untouched_word_keeps_pattern_lanes() {
        let mut m = mem();
        let a = Address::new(0x80);
        let pattern = SimpleMem::fill_pattern(a);
        m.write_word(a, 0x0000_00EE, 0b0001);
        let expect = (pattern & 0xFFFF_FF00) | 0xEE;
        assert_eq!(m.read_word(a), expect);
    }

    #[test]
    fn load_preloads_consecutive_words() {
        let mut m = mem();
        m.load(Address::new(0x100), &[1, 2, 3]);
        assert_eq!(m.read_word(Address::new(0x100)), 1);
        assert_eq!(m.read_word(Address::new(0x104)), 2);
        assert_eq!(m.read_word(Address::new(0x108)), 3);
    }
}
