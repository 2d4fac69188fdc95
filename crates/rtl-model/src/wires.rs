//! The explicit wire bundle of the bus interface.

use crate::signal::Vector;
use hierbus_ec::{SignalClass, SignalFrame};

/// Every wire of the interface, grouped as in
/// [`SignalClass`]. Control bits are packed into small
/// [`Vector`]s using the same layout as [`SignalFrame`]'s packing so
/// per-class transition counts line up exactly between this model and the
/// layer-1 reconstruction.
#[derive(Debug, Clone)]
pub struct InterfaceWires {
    /// 36 address wires.
    pub a_addr: Vector,
    /// Packed address-phase control (valid, kind, width, burst, ready, error).
    pub a_ctl: Vector,
    /// 32 read-data wires.
    pub r_data: Vector,
    /// Packed read-phase control (valid, id, ready, error).
    pub r_ctl: Vector,
    /// 32 write-data wires.
    pub w_data: Vector,
    /// Packed write-phase control (valid, byte enables, id, ready, error).
    pub w_ctl: Vector,
}

impl InterfaceWires {
    /// Creates the bundle with all wires low.
    pub fn new() -> Self {
        InterfaceWires {
            a_addr: Vector::new(36),
            a_ctl: Vector::new(SignalClass::AddrCtl.wires()),
            r_data: Vector::new(32),
            r_ctl: Vector::new(SignalClass::ReadCtl.wires()),
            w_data: Vector::new(32),
            w_ctl: Vector::new(SignalClass::WriteCtl.wires()),
        }
    }

    /// Schedules all wires to the values of `frame`.
    pub(crate) fn drive(&mut self, frame: &SignalFrame) {
        self.a_addr.set(frame.a_addr);
        self.a_ctl.set(Self::pack_a_ctl(frame));
        self.r_data.set(frame.r_data as u64);
        self.r_ctl.set(Self::pack_r_ctl(frame));
        self.w_data.set(frame.w_data as u64);
        self.w_ctl.set(Self::pack_w_ctl(frame));
    }

    /// Reads the settled wires back as a [`SignalFrame`].
    pub fn snapshot(&self) -> SignalFrame {
        let a = self.a_ctl.value();
        let r = self.r_ctl.value();
        let w = self.w_ctl.value();
        SignalFrame {
            a_valid: a & 1 != 0,
            a_addr: self.a_addr.value(),
            a_kind: ((a >> 1) & 0x3) as u8,
            a_width: ((a >> 3) & 0x3) as u8,
            a_burst: ((a >> 5) & 0x3) as u8,
            a_ready: (a >> 7) & 1 != 0,
            a_error: (a >> 8) & 1 != 0,
            r_valid: r & 1 != 0,
            r_data: self.r_data.value() as u32,
            r_id: ((r >> 1) & 0x7) as u8,
            r_ready: (r >> 4) & 1 != 0,
            r_error: (r >> 5) & 1 != 0,
            w_valid: w & 1 != 0,
            w_data: self.w_data.value() as u32,
            w_ben: ((w >> 1) & 0xf) as u8,
            w_id: ((w >> 5) & 0x7) as u8,
            w_ready: (w >> 8) & 1 != 0,
            w_error: (w >> 9) & 1 != 0,
        }
    }

    /// The wire group of `class` as a shared reference.
    pub fn group(&self, class: SignalClass) -> &Vector {
        match class {
            SignalClass::AddrBus => &self.a_addr,
            SignalClass::AddrCtl => &self.a_ctl,
            SignalClass::ReadData => &self.r_data,
            SignalClass::ReadCtl => &self.r_ctl,
            SignalClass::WriteData => &self.w_data,
            SignalClass::WriteCtl => &self.w_ctl,
        }
    }

    /// The wire group of `class` as an exclusive reference.
    pub(crate) fn group_mut(&mut self, class: SignalClass) -> &mut Vector {
        match class {
            SignalClass::AddrBus => &mut self.a_addr,
            SignalClass::AddrCtl => &mut self.a_ctl,
            SignalClass::ReadData => &mut self.r_data,
            SignalClass::ReadCtl => &mut self.r_ctl,
            SignalClass::WriteData => &mut self.w_data,
            SignalClass::WriteCtl => &mut self.w_ctl,
        }
    }

    fn pack_a_ctl(f: &SignalFrame) -> u64 {
        (f.a_valid as u64)
            | ((f.a_kind as u64 & 0x3) << 1)
            | ((f.a_width as u64 & 0x3) << 3)
            | ((f.a_burst as u64 & 0x3) << 5)
            | ((f.a_ready as u64) << 7)
            | ((f.a_error as u64) << 8)
    }

    fn pack_r_ctl(f: &SignalFrame) -> u64 {
        (f.r_valid as u64)
            | ((f.r_id as u64 & 0x7) << 1)
            | ((f.r_ready as u64) << 4)
            | ((f.r_error as u64) << 5)
    }

    fn pack_w_ctl(f: &SignalFrame) -> u64 {
        (f.w_valid as u64)
            | ((f.w_ben as u64 & 0xf) << 1)
            | ((f.w_id as u64 & 0x7) << 5)
            | ((f.w_ready as u64) << 8)
            | ((f.w_error as u64) << 9)
    }
}

impl Default for InterfaceWires {
    fn default() -> Self {
        InterfaceWires::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::VectorUpdate;
    use hierbus_ec::{AccessKind, BurstLen, DataWidth};

    /// Applies all scheduled values, returning per-group transition
    /// masks indexed by [`SignalClass::index`].
    fn settle(wires: &mut InterfaceWires) -> [VectorUpdate; 6] {
        let mut updates = [VectorUpdate::default(); 6];
        for class in SignalClass::ALL {
            updates[class.index()] = wires.group_mut(class).update();
        }
        updates
    }

    #[test]
    fn drive_settle_snapshot_roundtrip() {
        let mut wires = InterfaceWires::new();
        let mut frame = SignalFrame::default();
        frame.drive_address(
            0xA_BCDE_F012,
            AccessKind::DataWrite,
            DataWidth::W16,
            BurstLen::Single,
            true,
            false,
        );
        frame.drive_write(0x1234_5678, 0b0011, 5, true, false);
        frame.drive_read(0x9ABC_DEF0, 2, true, true);
        wires.drive(&frame);
        settle(&mut wires);
        assert_eq!(wires.snapshot(), frame);
    }

    #[test]
    fn settle_toggle_counts_match_frame_diff() {
        let mut wires = InterfaceWires::new();
        let prev = SignalFrame::default();
        let mut cur = prev;
        cur.drive_address(
            0xFF,
            AccessKind::DataRead,
            DataWidth::W32,
            BurstLen::B4,
            true,
            false,
        );
        cur.drive_read(0xFFFF_0000, 3, true, false);
        wires.drive(&cur);
        let settled = settle(&mut wires);
        let diff = cur.diff(&prev);
        for class in SignalClass::ALL {
            assert_eq!(
                settled[class.index()].toggles(),
                diff.get(class),
                "mismatch in {class}"
            );
        }
    }

    #[test]
    fn group_accessors_select_the_right_widths() {
        let wires = InterfaceWires::new();
        for class in SignalClass::ALL {
            assert_eq!(wires.group(class).width(), class.wires(), "{class}");
        }
    }
}
