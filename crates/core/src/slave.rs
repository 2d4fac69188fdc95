//! The abstract slave interface of the TLM models.

use hierbus_ec::{Address, SlaveConfig, Transaction};

/// Reply of a slave data-interface call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaveReply<T> {
    /// The access completed.
    Ok(T),
    /// The slave is dynamically busy: call again later. The reference
    /// and layer 1 hold the beat and call it again next cycle (extending
    /// it beyond the static wait states); layer 2 holds its data phase a
    /// cycle and resumes at the waiting beat; untimed layer 3 calls the
    /// beat again at once. Every cycle-driven bus ticks its slaves
    /// between the calls, so a `Wait` that only time ends does end.
    Wait,
    /// The slave signals a bus error for this access.
    Error,
}

impl<T> SlaveReply<T> {
    /// Maps the payload of an `Ok` reply.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SlaveReply<U> {
        match self {
            SlaveReply::Ok(v) => SlaveReply::Ok(f(v)),
            SlaveReply::Wait => SlaveReply::Wait,
            SlaveReply::Error => SlaveReply::Error,
        }
    }
}

/// The slave interface of every layer, the reference included.
///
/// Word-level calls carry full 32-bit bus words; byte-lane selection is
/// the master/bus side's job via the merge patterns. There are no block
/// calls: every layer moves a burst one word call per beat, so a slave
/// can answer [`SlaveReply::Wait`] or [`SlaveReply::Error`] on any beat.
pub trait TlmSlave {
    /// The slave control interface: address range, wait states, rights.
    fn config(&self) -> SlaveConfig;

    /// Time notification: every cycle-driven bus calls this once per
    /// bus-process activation, before any phase runs. Peripherals with
    /// internal behaviour (timers, transmitters, coprocessor pipelines)
    /// advance by the *delta* from the last cycle they saw, so skipped
    /// idle cycles are not lost. Pure memories ignore it.
    fn tick(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// True when this slave has per-cycle behaviour (a [`tick`] body or
    /// an interrupt line) the bus must consult every activation. Pure
    /// memories return `false`, letting the bus skip the per-cycle
    /// notification loop entirely. Defaults to `true` — the safe answer
    /// for any peripheral that overrides [`tick`] or [`irq`].
    ///
    /// [`tick`]: TlmSlave::tick
    /// [`irq`]: TlmSlave::irq
    fn wants_tick(&self) -> bool {
        true
    }

    /// Opt-in downcasting hook so post-run analyses (e.g. the component
    /// energy models) can read a peripheral's activity counters back out
    /// of the bus. Peripherals that expose counters override this with
    /// `Some(self)`; the default hides the concrete type.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// The peripheral's interrupt line (level-sensitive; the target
    /// platform's interrupt system). The buses aggregate all lines into
    /// a mask, sampled once per bus-process activation. Memories and
    /// line-less peripherals keep the default.
    fn irq(&self) -> bool {
        false
    }

    /// Reads the word containing `addr`.
    fn read_word(&mut self, addr: Address) -> SlaveReply<u32>;

    /// Writes `data` to the word containing `addr` under byte enables
    /// `ben`.
    fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()>;
}

/// Why [`transfer`] stopped short of the last beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The slave answered `Wait` on this beat; resume from it.
    Wait(u32),
    /// The slave answered `Error` on this beat (its address is
    /// `txn.beat_addr(beat)`); the beats before it moved.
    Error(u32),
}

/// Moves the beats of `txn` from `from_beat` on through `slave`'s word
/// interface: the data transfer of layers 2 and 3, which call the slave
/// for a whole transaction at once. A read stores each beat's
/// lane-extracted value at its index in `buf`; a write drives each
/// payload value under its byte enables, with the other lanes zero (the
/// bus keeps no previous word). Stops at the first beat that is not
/// `Ok`.
pub(crate) fn transfer(
    slave: &mut dyn TlmSlave,
    txn: &Transaction,
    from_beat: u32,
    buf: &mut [u32; 8],
) -> Result<(), Stop> {
    let width = txn.width;
    for beat in from_beat..txn.beats() {
        let addr = txn.beat_addr(beat);
        let reply = if txn.kind.is_read() {
            slave
                .read_word(addr)
                .map(|w| buf[beat as usize] = width.extract(addr, w))
        } else {
            let word = width.insert(addr, 0, txn.data[beat as usize]);
            slave.write_word(addr, word, width.byte_enables(addr))
        };
        match reply {
            SlaveReply::Ok(()) => {}
            SlaveReply::Wait => return Err(Stop::Wait(beat)),
            SlaveReply::Error => return Err(Stop::Error(beat)),
        }
    }
    Ok(())
}

/// Indices of the slaves with per-cycle behaviour
/// ([`TlmSlave::wants_tick`]). Every cycle-driven bus (layers 1 and 2,
/// the reference) caches this at construction, so a pure-memory system
/// skips the notification loop.
pub fn ticking_slaves(slaves: &[Box<dyn TlmSlave>]) -> Vec<usize> {
    slaves
        .iter()
        .enumerate()
        .filter(|(_, s)| s.wants_tick())
        .map(|(i, _)| i)
        .collect()
}

/// Gives each slave listed in `ticking` its time notification and
/// returns their interrupt lines as a mask (bit *n* = slave *n*).
pub fn tick_slaves(slaves: &mut [Box<dyn TlmSlave>], ticking: &[usize], cycle: u64) -> u64 {
    let mut irq = 0u64;
    for &i in ticking {
        let s = &mut slaves[i];
        s.tick(cycle);
        if s.irq() {
            irq |= 1 << i;
        }
    }
    irq
}

/// Shared-slave access for post-run inspection, implemented by every
/// bus.
pub trait HasSlaves {
    /// The slave registered under `id` (construction order).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    fn slave_ref(&self, id: hierbus_ec::SlaveId) -> &dyn TlmSlave;

    /// Number of slaves on the bus.
    fn slave_count(&self) -> usize;

    /// Downcasts the slave under `id` to a concrete peripheral type (via
    /// [`TlmSlave::as_any`]).
    fn slave_as<T: 'static>(&self, id: hierbus_ec::SlaveId) -> Option<&T> {
        self.slave_ref(id).as_any()?.downcast_ref::<T>()
    }
}

/// Largest address window (bytes) backed by the dense array. A 1 MiB
/// window costs 1 MiB of values plus a 32 KiB written-bitmap once the
/// first write lands; larger windows stay on the sparse map.
const DENSE_LIMIT_BYTES: u64 = 1 << 20;

/// Storage behind a [`MemSlave`]: a flat array indexed by the word
/// offset within the slave's window (lazily allocated on first write,
/// with a written-bitmap so untouched words keep the fill pattern), or
/// the sparse map for windows too large to back densely. Both report
/// identical contents; dense exists because the layer-1 hot loop pays a
/// hash probe per data beat otherwise.
#[derive(Debug, Clone)]
enum Backing {
    Dense {
        /// Word offset of the window base.
        base_word: u64,
        /// Window length in words.
        len_words: u64,
        /// Current word values; empty until the first write.
        values: Vec<u32>,
        /// One bit per word: written at least once.
        written: Vec<u64>,
    },
    Sparse(hierbus_ec::FastIdMap<u64, u32>),
}

/// A memory slave whose never-written words read as a deterministic
/// fill pattern, so reads of "uninitialised" locations still produce
/// repeatable, non-trivial data-bus activity. It is the memory of every
/// layer, the reference included, so all of them observe identical
/// data.
#[derive(Debug, Clone)]
pub struct MemSlave {
    config: SlaveConfig,
    backing: Backing,
}

fn fill_of(word_offset: u64) -> u32 {
    (word_offset as u32).wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A
}

impl MemSlave {
    /// Creates a memory slave.
    pub fn new(config: SlaveConfig) -> Self {
        let range = config.range;
        let backing = if range.size() <= DENSE_LIMIT_BYTES {
            let base_word = range.base().word_offset();
            let last_word = (range.base().raw() + range.size() - 1) >> 2;
            Backing::Dense {
                base_word,
                len_words: last_word - base_word + 1,
                values: Vec::new(),
                written: Vec::new(),
            }
        } else {
            Backing::Sparse(hierbus_ec::FastIdMap::default())
        };
        MemSlave { config, backing }
    }

    /// The background pattern of a never-written word.
    pub fn fill_pattern(addr: Address) -> u32 {
        fill_of(addr.word_offset())
    }

    fn get_word(&self, key: u64) -> u32 {
        match &self.backing {
            Backing::Dense {
                base_word,
                len_words,
                values,
                written,
            } => {
                let idx = key.wrapping_sub(*base_word);
                if idx < *len_words && !values.is_empty() {
                    let i = idx as usize;
                    if written[i >> 6] & (1u64 << (i & 63)) != 0 {
                        return values[i];
                    }
                }
                fill_of(key)
            }
            Backing::Sparse(map) => *map.get(&key).unwrap_or(&fill_of(key)),
        }
    }

    fn set_word(&mut self, key: u64, value: u32) {
        match &mut self.backing {
            Backing::Dense {
                base_word,
                len_words,
                values,
                written,
            } => {
                let idx = key.wrapping_sub(*base_word);
                if idx < *len_words {
                    if values.is_empty() {
                        values.resize(*len_words as usize, 0);
                        written.resize((*len_words as usize).div_ceil(64), 0);
                    }
                    let i = idx as usize;
                    values[i] = value;
                    written[i >> 6] |= 1u64 << (i & 63);
                    return;
                }
                // A write outside the configured window (possible only
                // through `load`, never through the decoded bus): fall
                // back to the sparse map, carrying the dense contents.
                let mut map = hierbus_ec::FastIdMap::default();
                for (k, v) in self.snapshot() {
                    map.insert(k, v);
                }
                map.insert(key, value);
                self.backing = Backing::Sparse(map);
            }
            Backing::Sparse(map) => {
                map.insert(key, value);
            }
        }
    }

    /// Pre-loads consecutive words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word aligned.
    pub fn load(&mut self, addr: Address, words: &[u32]) {
        assert!(addr.is_aligned(4), "load base {addr} must be word aligned");
        for (i, &w) in words.iter().enumerate() {
            self.set_word(addr.word_offset() + i as u64, w);
        }
    }

    /// Reads back a word without bus semantics (test/inspection aid).
    pub fn peek(&self, addr: Address) -> u32 {
        self.get_word(addr.word_offset())
    }

    /// All explicitly written words as `(word_offset, value)`, sorted —
    /// the committed-memory fingerprint for cross-layer equality checks.
    pub fn snapshot(&self) -> Vec<(u64, u32)> {
        match &self.backing {
            Backing::Dense {
                base_word,
                values,
                written,
                ..
            } => {
                let mut v = Vec::new();
                for (w, &bits) in written.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let i = (w << 6) | bit;
                        v.push((base_word + i as u64, values[i]));
                    }
                }
                v
            }
            Backing::Sparse(map) => {
                let mut v: Vec<(u64, u32)> = map.iter().map(|(&k, &w)| (k, w)).collect();
                v.sort_unstable();
                v
            }
        }
    }
}

impl TlmSlave for MemSlave {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn wants_tick(&self) -> bool {
        false
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        SlaveReply::Ok(self.peek(addr))
    }

    fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
        let key = addr.word_offset();
        let old = self.get_word(key);
        let mut merged = old;
        for lane in 0..4 {
            if ben & (1 << lane) != 0 {
                let mask = 0xFFu32 << (8 * lane);
                merged = (merged & !mask) | (data & mask);
            }
        }
        self.set_word(key, merged);
        SlaveReply::Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::{
        AccessKind, AccessRights, AddressRange, BurstLen, DataWidth, TxnId, WaitProfile,
    };

    fn mem() -> MemSlave {
        MemSlave::new(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ))
    }

    #[test]
    fn reply_map_preserves_variant() {
        assert_eq!(SlaveReply::Ok(2).map(|v| v * 2), SlaveReply::Ok(4));
        assert_eq!(SlaveReply::<u32>::Wait.map(|v| v), SlaveReply::Wait);
        assert_eq!(SlaveReply::<u32>::Error.map(|v| v), SlaveReply::Error);
    }

    #[test]
    fn mem_word_roundtrip_with_lanes() {
        let mut m = mem();
        m.write_word(Address::new(0x20), 0x4433_2211, 0b1111);
        m.write_word(Address::new(0x20), 0xAABB_CCDD, 0b1010);
        assert_eq!(m.read_word(Address::new(0x20)), SlaveReply::Ok(0xAA33_CC11));
    }

    #[test]
    fn unwritten_words_use_fill_pattern() {
        let mut m = mem();
        let a = Address::new(0x40);
        assert_eq!(m.read_word(a), SlaveReply::Ok(MemSlave::fill_pattern(a)));
        // Two different addresses give different patterns.
        assert_ne!(m.read_word(a), m.read_word(Address::new(0x44)));
    }

    #[test]
    fn full_word_write_read_roundtrip() {
        let mut m = mem();
        m.write_word(Address::new(0x10), 0xDEAD_BEEF, 0b1111);
        assert_eq!(m.read_word(Address::new(0x10)), SlaveReply::Ok(0xDEAD_BEEF));
        assert_eq!(m.snapshot(), vec![(0x10 >> 2, 0xDEAD_BEEF)]);
    }

    #[test]
    fn byte_enables_merge_lanes() {
        let mut m = mem();
        m.write_word(Address::new(0x20), 0x4433_2211, 0b1111);
        m.write_word(Address::new(0x20), 0xAABB_CCDD, 0b0101);
        assert_eq!(m.read_word(Address::new(0x20)), SlaveReply::Ok(0x44BB_22DD));
    }

    #[test]
    fn partial_write_to_untouched_word_keeps_pattern_lanes() {
        let mut m = mem();
        let a = Address::new(0x80);
        let pattern = MemSlave::fill_pattern(a);
        m.write_word(a, 0x0000_00EE, 0b0001);
        let expect = (pattern & 0xFFFF_FF00) | 0xEE;
        assert_eq!(m.read_word(a), SlaveReply::Ok(expect));
    }

    #[test]
    fn load_preloads_consecutive_words() {
        let mut m = mem();
        m.load(Address::new(0x100), &[1, 2, 3]);
        assert_eq!(m.peek(Address::new(0x100)), 1);
        assert_eq!(m.peek(Address::new(0x104)), 2);
        assert_eq!(m.peek(Address::new(0x108)), 3);
    }

    fn burst(kind: AccessKind, addr: u64, burst: BurstLen, data: Vec<u32>) -> Transaction {
        Transaction::new(
            TxnId(0),
            kind,
            Address::new(addr),
            DataWidth::W32,
            burst,
            data,
        )
    }

    #[test]
    fn default_block_read_fills_words() {
        let mut m = mem();
        m.load(Address::new(0x40), &[1, 2, 3, 4]);
        let mut buf = [0u32; 8];
        let txn = burst(AccessKind::DataRead, 0x40, BurstLen::B4, Vec::new());
        assert_eq!(transfer(&mut m, &txn, 0, &mut buf), Ok(()));
        assert_eq!(buf[..4], [1, 2, 3, 4]);
    }

    #[test]
    fn default_block_write_stores_words() {
        let mut m = mem();
        let txn = burst(AccessKind::DataWrite, 0x80, BurstLen::B2, vec![9, 8]);
        assert_eq!(transfer(&mut m, &txn, 0, &mut [0; 8]), Ok(()));
        assert_eq!(m.peek(Address::new(0x80)), 9);
        assert_eq!(m.peek(Address::new(0x84)), 8);
    }

    #[test]
    fn fill_pattern_matches_documented_formula() {
        let a = Address::new(0x100);
        assert_eq!(
            MemSlave::fill_pattern(a),
            (a.word_offset() as u32).wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A
        );
    }

    #[test]
    fn snapshot_is_sorted_and_exact_dense_and_sparse() {
        let dense = SlaveConfig::new(
            AddressRange::new(Address::new(0x100), 0x1000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        );
        let sparse = SlaveConfig::new(
            AddressRange::new(Address::new(0x100), super::DENSE_LIMIT_BYTES * 2),
            WaitProfile::ZERO,
            AccessRights::RWX,
        );
        for cfg in [dense, sparse] {
            let mut m = MemSlave::new(cfg);
            m.write_word(Address::new(0x200), 7, 0b1111);
            m.write_word(Address::new(0x104), 9, 0b1111);
            assert_eq!(m.snapshot(), vec![(0x104 >> 2, 9), (0x200 >> 2, 7)]);
            assert_eq!(
                m.peek(Address::new(0x108)),
                MemSlave::fill_pattern(Address::new(0x108))
            );
        }
    }

    #[test]
    fn load_outside_window_falls_back_to_sparse() {
        let mut m = mem(); // window [0, 0x1000): dense
        m.write_word(Address::new(0x10), 1, 0b1111);
        m.load(Address::new(0x4000), &[5, 6]); // outside the window
        assert_eq!(m.peek(Address::new(0x10)), 1);
        assert_eq!(m.peek(Address::new(0x4000)), 5);
        assert_eq!(m.peek(Address::new(0x4004)), 6);
        assert_eq!(
            m.snapshot(),
            vec![(0x10 >> 2, 1), (0x4000 >> 2, 5), (0x4004 >> 2, 6)]
        );
    }

    #[test]
    fn block_errors_propagate() {
        struct ErrSlave(SlaveConfig);
        impl TlmSlave for ErrSlave {
            fn config(&self) -> SlaveConfig {
                self.0
            }
            fn read_word(&mut self, _: Address) -> SlaveReply<u32> {
                SlaveReply::Error
            }
            fn write_word(&mut self, _: Address, _: u32, _: u8) -> SlaveReply<()> {
                SlaveReply::Error
            }
        }
        let mut s = ErrSlave(SlaveConfig::new(
            AddressRange::new(Address::new(0), 0x100),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ));
        let mut buf = [0u32; 8];
        let read = burst(AccessKind::DataRead, 0, BurstLen::B2, Vec::new());
        assert_eq!(transfer(&mut s, &read, 0, &mut buf), Err(Stop::Error(0)));
        let write = burst(AccessKind::DataWrite, 0, BurstLen::B2, vec![0, 0]);
        assert_eq!(transfer(&mut s, &write, 0, &mut buf), Err(Stop::Error(0)));
    }
}
