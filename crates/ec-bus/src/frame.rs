//! The canonical signal-level view of one bus cycle.
//!
//! The layer-1 energy model of the paper works like a *transaction level to
//! RTL adapter*: a dedicated power module keeps old/new member variables
//! for every interface signal, the bus phases write the new values, and at
//! the end of the cycle bit transitions are recognised and converted to
//! energy. [`SignalFrame`] is that set of member variables, shared between
//! the cycle-true RTL reference (which drives real wires with the same
//! encoding) and the layer-1 model (which reconstructs them) — so both
//! sides count transitions over an identical signal inventory.

use crate::merge::DataWidth;
use crate::txn::{AccessKind, BurstLen};
use std::fmt;

/// Signal groups used for power characterization.
///
/// The gate-level estimator reports per-wire energies; the characterization
/// step (paper §3.3) abstracts them to an *average energy per transition*
/// per signal group, which is what the TLM energy models consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalClass {
    /// The 36 address wires.
    AddrBus,
    /// Address-phase control: valid, kind, width, burst, ready, error.
    AddrCtl,
    /// The 32 read-data wires.
    ReadData,
    /// Read-phase control: valid, id, ready, error.
    ReadCtl,
    /// The 32 write-data wires.
    WriteData,
    /// Write-phase control: valid, byte enables, id, ready, error.
    WriteCtl,
}

impl SignalClass {
    /// All classes in a fixed order (the index order of
    /// [`TogglesByClass`]).
    pub const ALL: [SignalClass; 6] = [
        SignalClass::AddrBus,
        SignalClass::AddrCtl,
        SignalClass::ReadData,
        SignalClass::ReadCtl,
        SignalClass::WriteData,
        SignalClass::WriteCtl,
    ];

    /// Number of wires in the class.
    pub const fn wires(self) -> u32 {
        match self {
            SignalClass::AddrBus => 36,
            SignalClass::AddrCtl => 8,
            SignalClass::ReadData => 32,
            SignalClass::ReadCtl => 6,
            SignalClass::WriteData => 32,
            SignalClass::WriteCtl => 10,
        }
    }

    /// Index into [`TogglesByClass`] and characterization tables.
    pub const fn index(self) -> usize {
        match self {
            SignalClass::AddrBus => 0,
            SignalClass::AddrCtl => 1,
            SignalClass::ReadData => 2,
            SignalClass::ReadCtl => 3,
            SignalClass::WriteData => 4,
            SignalClass::WriteCtl => 5,
        }
    }
}

impl fmt::Display for SignalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SignalClass::AddrBus => "addr.bus",
            SignalClass::AddrCtl => "addr.ctl",
            SignalClass::ReadData => "read.data",
            SignalClass::ReadCtl => "read.ctl",
            SignalClass::WriteData => "write.data",
            SignalClass::WriteCtl => "write.ctl",
        };
        f.write_str(s)
    }
}

/// Per-class bit-toggle counts from one frame-to-frame comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TogglesByClass([u32; 6]);

impl TogglesByClass {
    /// Toggles in one class.
    pub fn get(&self, class: SignalClass) -> u32 {
        self.0[class.index()]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u32 {
        self.0.iter().sum()
    }

    /// Iterates `(class, toggles)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SignalClass, u32)> + '_ {
        SignalClass::ALL
            .iter()
            .map(move |&c| (c, self.0[c.index()]))
    }

    /// Adds another count set, class-wise.
    pub fn accumulate(&mut self, other: &TogglesByClass) {
        for i in 0..6 {
            self.0[i] += other.0[i];
        }
    }

    /// The raw counts, indexed by [`SignalClass::index`] — the zero-cost
    /// view energy models fold against their per-class weight arrays.
    pub fn as_array(&self) -> &[u32; 6] {
        &self.0
    }
}

/// A [`SignalFrame`] with every signal class packed into one word,
/// indexed by [`SignalClass::index`] — the representation the layer-1
/// per-cycle hot path diffs.
///
/// Packing happens once per frame; the cycle-boundary transition count
/// is then one XOR + `count_ones` per class ([`PackedFrame::diff`])
/// instead of a walk over individual wires. An energy model keeps the
/// *packed* previous frame, so each cycle packs only the new frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedFrame([u64; 6]);

impl PackedFrame {
    /// Bit toggles per signal class between `prev` and `self` — the
    /// word-packed fast path, byte-for-byte equal to
    /// [`SignalFrame::diff_reference`] on the corresponding frames.
    pub fn diff(&self, prev: &PackedFrame) -> TogglesByClass {
        let mut t = [0u32; 6];
        for (i, out) in t.iter_mut().enumerate() {
            *out = (self.0[i] ^ prev.0[i]).count_ones();
        }
        TogglesByClass(t)
    }
}

/// The settled value of every interface signal in one clock cycle.
///
/// Defaults represent the idle bus: all valid/ready/error flags low, buses
/// holding their last value (zero at reset). Undriven buses *hold* rather
/// than float — consecutive idle frames therefore diff to zero toggles,
/// matching a keeper-equipped on-chip bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SignalFrame {
    /// Address phase valid.
    pub a_valid: bool,
    /// Address bus (36 bits).
    pub a_addr: u64,
    /// Access kind field.
    pub a_kind: u8,
    /// Width field.
    pub a_width: u8,
    /// Burst field.
    pub a_burst: u8,
    /// Slave address-phase ready.
    pub a_ready: bool,
    /// Address-phase error.
    pub a_error: bool,

    /// Read data valid.
    pub r_valid: bool,
    /// Read data bus (32 bits).
    pub r_data: u32,
    /// Read transaction tag (3 bits).
    pub r_id: u8,
    /// Master ready to accept read data.
    pub r_ready: bool,
    /// Read-phase error.
    pub r_error: bool,

    /// Write data valid.
    pub w_valid: bool,
    /// Write data bus (32 bits).
    pub w_data: u32,
    /// Write byte enables (4 bits).
    pub w_ben: u8,
    /// Write transaction tag (3 bits).
    pub w_id: u8,
    /// Slave ready to accept write data.
    pub w_ready: bool,
    /// Write-phase error.
    pub w_error: bool,
}

impl SignalFrame {
    /// Drives the address-phase signals for a transaction.
    pub fn drive_address(
        &mut self,
        addr: u64,
        kind: AccessKind,
        width: DataWidth,
        burst: BurstLen,
        ready: bool,
        error: bool,
    ) {
        self.a_valid = true;
        self.a_addr = addr & ((1u64 << 36) - 1);
        self.a_kind = kind.encode();
        self.a_width = width.encode();
        self.a_burst = burst.encode();
        self.a_ready = ready;
        self.a_error = error;
    }

    /// Drives the read-data-phase signals for one beat.
    pub fn drive_read(&mut self, data: u32, id: u8, ready: bool, error: bool) {
        self.r_valid = true;
        self.r_data = data;
        self.r_id = id & 0x7;
        self.r_ready = ready;
        self.r_error = error;
    }

    /// Drives the write-data-phase signals for one beat.
    pub fn drive_write(&mut self, data: u32, ben: u8, id: u8, ready: bool, error: bool) {
        self.w_valid = true;
        self.w_data = data;
        self.w_ben = ben & 0xf;
        self.w_id = id & 0x7;
        self.w_ready = ready;
        self.w_error = error;
    }

    /// Returns this frame with all handshake flags idle, buses holding
    /// their values — the value the interface settles to on a cycle with
    /// no activity in that phase.
    pub fn to_idle(mut self) -> SignalFrame {
        self.a_valid = false;
        self.a_ready = false;
        self.a_error = false;
        self.r_valid = false;
        self.r_ready = false;
        self.r_error = false;
        self.w_valid = false;
        self.w_ready = false;
        self.w_error = false;
        self
    }

    /// Packs the address-phase control bits into one word for diffing.
    fn addr_ctl(&self) -> u64 {
        (self.a_valid as u64)
            | ((self.a_kind as u64 & 0x3) << 1)
            | ((self.a_width as u64 & 0x3) << 3)
            | ((self.a_burst as u64 & 0x3) << 5)
            | ((self.a_ready as u64) << 7)
            | ((self.a_error as u64) << 8)
    }

    fn read_ctl(&self) -> u64 {
        (self.r_valid as u64)
            | ((self.r_id as u64 & 0x7) << 1)
            | ((self.r_ready as u64) << 4)
            | ((self.r_error as u64) << 5)
    }

    fn write_ctl(&self) -> u64 {
        (self.w_valid as u64)
            | ((self.w_ben as u64 & 0xf) << 1)
            | ((self.w_id as u64 & 0x7) << 5)
            | ((self.w_ready as u64) << 8)
            | ((self.w_error as u64) << 9)
    }

    /// Packs every signal class into its word (one-time cost per frame;
    /// see [`PackedFrame`]).
    pub fn packed(&self) -> PackedFrame {
        PackedFrame([
            self.a_addr,
            self.addr_ctl(),
            self.r_data as u64,
            self.read_ctl(),
            self.w_data as u64,
            self.write_ctl(),
        ])
    }

    /// Bit toggles per signal class between `prev` and `self` — the
    /// layer-1 energy model's per-cycle transition count (word-packed
    /// fast path).
    pub fn diff(&self, prev: &SignalFrame) -> TogglesByClass {
        self.packed().diff(&prev.packed())
    }

    /// The original wire-by-wire transition count: walks every bit
    /// position of every class and compares the two frames' settled
    /// values individually, exactly as the first layer-1 power module
    /// did. Kept as the reference implementation the differential tests
    /// hold [`diff`](Self::diff) (and [`PackedFrame::diff`]) to — both
    /// must agree toggle-for-toggle on every class for every frame
    /// pair.
    pub fn diff_reference(&self, prev: &SignalFrame) -> TogglesByClass {
        let mut t = TogglesByClass::default();
        let mut count = |class: SignalClass, new: u64, old: u64| {
            let mut toggles = 0u32;
            for bit in 0..u64::BITS {
                if (new >> bit) & 1 != (old >> bit) & 1 {
                    toggles += 1;
                }
            }
            t.0[class.index()] = toggles;
        };
        count(SignalClass::AddrBus, self.a_addr, prev.a_addr);
        count(SignalClass::AddrCtl, self.addr_ctl(), prev.addr_ctl());
        count(
            SignalClass::ReadData,
            self.r_data as u64,
            prev.r_data as u64,
        );
        count(SignalClass::ReadCtl, self.read_ctl(), prev.read_ctl());
        count(
            SignalClass::WriteData,
            self.w_data as u64,
            prev.w_data as u64,
        );
        count(SignalClass::WriteCtl, self.write_ctl(), prev.write_ctl());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_wire_counts_cover_interface() {
        let total: u32 = SignalClass::ALL.iter().map(|c| c.wires()).sum();
        // 36 addr + 8 actl + 32 rdata + 6 rctl + 32 wdata + 10 wctl
        assert_eq!(total, 124);
    }

    #[test]
    fn identical_frames_diff_to_zero() {
        let f = SignalFrame::default();
        assert_eq!(f.diff(&f).total(), 0);
    }

    #[test]
    fn address_drive_toggles_addr_classes_only() {
        let prev = SignalFrame::default();
        let mut cur = prev;
        cur.drive_address(
            0xFFF,
            AccessKind::DataRead,
            DataWidth::W32,
            BurstLen::Single,
            true,
            false,
        );
        let d = cur.diff(&prev);
        assert_eq!(d.get(SignalClass::AddrBus), 12);
        assert!(d.get(SignalClass::AddrCtl) > 0);
        assert_eq!(d.get(SignalClass::ReadData), 0);
        assert_eq!(d.get(SignalClass::WriteData), 0);
    }

    #[test]
    fn idle_clears_handshakes_but_holds_buses() {
        let mut f = SignalFrame::default();
        f.drive_address(
            0xABC,
            AccessKind::DataWrite,
            DataWidth::W16,
            BurstLen::Single,
            true,
            false,
        );
        f.drive_write(0x1234, 0b0011, 1, true, false);
        let idle = f.to_idle();
        assert!(!idle.a_valid && !idle.w_valid && !idle.w_ready);
        assert_eq!(idle.a_addr, 0xABC);
        assert_eq!(idle.w_data, 0x1234);
    }

    #[test]
    fn toggles_accumulate() {
        let prev = SignalFrame::default();
        let mut cur = prev;
        cur.drive_read(0xF, 1, true, false);
        let d = cur.diff(&prev);
        let mut acc = TogglesByClass::default();
        acc.accumulate(&d);
        acc.accumulate(&d);
        assert_eq!(acc.total(), 2 * d.total());
        assert_eq!(acc.get(SignalClass::ReadData), 8);
    }

    #[test]
    fn control_packing_keeps_fields_disjoint() {
        let a = SignalFrame {
            a_valid: true,
            ..SignalFrame::default()
        };
        let b = SignalFrame {
            a_error: true,
            ..SignalFrame::default()
        };
        // Different single-bit fields must land on different packed bits.
        assert_eq!(a.diff(&SignalFrame::default()).get(SignalClass::AddrCtl), 1);
        assert_eq!(b.diff(&SignalFrame::default()).get(SignalClass::AddrCtl), 1);
        assert_eq!(a.diff(&b).get(SignalClass::AddrCtl), 2);
    }

    #[test]
    fn packed_diff_matches_reference_on_driven_frames() {
        let mut frames = vec![SignalFrame::default()];
        let mut f = SignalFrame::default();
        f.drive_address(
            0xF0F0_F0F0F,
            AccessKind::DataWrite,
            DataWidth::W32,
            BurstLen::B4,
            true,
            false,
        );
        f.drive_write(0xDEAD_BEEF, 0xF, 3, true, false);
        frames.push(f);
        frames.push(f.to_idle());
        let mut e = SignalFrame::default();
        e.drive_read(0x1234_5678, 5, true, true);
        frames.push(e);
        for a in &frames {
            for b in &frames {
                assert_eq!(a.diff(b), a.diff_reference(b));
                assert_eq!(a.packed().diff(&b.packed()), a.diff_reference(b));
            }
        }
    }

    #[test]
    fn drive_masks_oversized_fields() {
        let mut f = SignalFrame::default();
        f.drive_read(0, 0xFF, false, false);
        assert_eq!(f.r_id, 0x7);
        f.drive_write(0, 0xFF, 0xFF, false, false);
        assert_eq!(f.w_ben, 0xF);
        assert_eq!(f.w_id, 0x7);
    }
}
