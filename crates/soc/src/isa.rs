//! A MIPS32 instruction subset with authentic encodings.
//!
//! Covers the arithmetic/logic, shift, branch, jump, and load/store
//! instructions a smart-card workload needs. [`Instr::encode`] and
//! [`Instr::decode`] round-trip bit-exactly (property-tested), so
//! programs built with [`Program`](crate::program::Program) are genuine
//! MIPS32 machine code words.

use std::fmt;

/// A general-purpose register index (0..=31); register 0 reads as zero
/// and ignores writes, as in the architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Hardwired zero.
    pub const ZERO: Reg = Reg(0);
    /// Assembler temporary.
    pub const AT: Reg = Reg(1);
    /// Function results.
    pub const V0: Reg = Reg(2);
    /// Function results.
    pub const V1: Reg = Reg(3);
    /// Argument registers.
    pub const A0: Reg = Reg(4);
    /// Argument registers.
    pub const A1: Reg = Reg(5);
    /// Argument registers.
    pub const A2: Reg = Reg(6);
    /// Argument registers.
    pub const A3: Reg = Reg(7);
    /// Caller-saved temporaries.
    pub const T0: Reg = Reg(8);
    /// Caller-saved temporaries.
    pub const T1: Reg = Reg(9);
    /// Caller-saved temporaries.
    pub const T2: Reg = Reg(10);
    /// Caller-saved temporaries.
    pub const T3: Reg = Reg(11);
    /// Caller-saved temporaries.
    pub const T4: Reg = Reg(12);
    /// Caller-saved temporaries.
    pub const T5: Reg = Reg(13);
    /// Caller-saved temporaries.
    pub const T6: Reg = Reg(14);
    /// Caller-saved temporaries.
    pub const T7: Reg = Reg(15);
    /// Callee-saved.
    pub const S0: Reg = Reg(16);
    /// Callee-saved.
    pub const S1: Reg = Reg(17);
    /// Callee-saved.
    pub const S2: Reg = Reg(18);
    /// Callee-saved.
    pub const S3: Reg = Reg(19);
    /// Stack pointer.
    pub const SP: Reg = Reg(29);
    /// Return address.
    pub const RA: Reg = Reg(31);

    fn field(self) -> u32 {
        (self.0 & 0x1F) as u32
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow the MIPS32 manual
pub enum Instr {
    // Shifts (R-type with shamt).
    Sll {
        rd: Reg,
        rt: Reg,
        sh: u8,
    },
    Srl {
        rd: Reg,
        rt: Reg,
        sh: u8,
    },
    Sra {
        rd: Reg,
        rt: Reg,
        sh: u8,
    },
    // Three-register ALU ops.
    Addu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Subu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    And {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Or {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Xor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Nor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Slt {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sltu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// SPECIAL2 MUL: low 32 bits of rs × rt.
    Mul {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    // Register jump and software break (used as HALT by the ISS).
    Jr {
        rs: Reg,
    },
    Break,
    // Immediate ALU ops.
    Addiu {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Slti {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Sltiu {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Andi {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Ori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Xori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Lui {
        rt: Reg,
        imm: u16,
    },
    // Branches (16-bit word offset from the next instruction).
    Beq {
        rs: Reg,
        rt: Reg,
        off: i16,
    },
    Bne {
        rs: Reg,
        rt: Reg,
        off: i16,
    },
    // Loads and stores.
    Lb {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lbu {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lh {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lhu {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Lw {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Sb {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Sh {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    Sw {
        rt: Reg,
        base: Reg,
        off: i16,
    },
    // Absolute jumps (26-bit word target).
    J {
        target: u32,
    },
    Jal {
        target: u32,
    },
}

const OP_SPECIAL: u32 = 0x00;
const OP_SPECIAL2: u32 = 0x1C;

impl Instr {
    /// The canonical no-op (`sll $0, $0, 0`, all-zero word).
    pub const NOP: Instr = Instr::Sll {
        rd: Reg::ZERO,
        rt: Reg::ZERO,
        sh: 0,
    };

    /// Encodes to a MIPS32 machine word.
    pub fn encode(self) -> u32 {
        fn r(funct: u32, rs: Reg, rt: Reg, rd: Reg, sh: u8) -> u32 {
            (rs.field() << 21)
                | (rt.field() << 16)
                | (rd.field() << 11)
                | (((sh & 0x1F) as u32) << 6)
                | funct
        }
        fn i(op: u32, rs: Reg, rt: Reg, imm: u16) -> u32 {
            (op << 26) | (rs.field() << 21) | (rt.field() << 16) | imm as u32
        }
        match self {
            Instr::Sll { rd, rt, sh } => r(0x00, Reg::ZERO, rt, rd, sh),
            Instr::Srl { rd, rt, sh } => r(0x02, Reg::ZERO, rt, rd, sh),
            Instr::Sra { rd, rt, sh } => r(0x03, Reg::ZERO, rt, rd, sh),
            Instr::Jr { rs } => r(0x08, rs, Reg::ZERO, Reg::ZERO, 0),
            Instr::Break => 0x0000_000D,
            Instr::Addu { rd, rs, rt } => r(0x21, rs, rt, rd, 0),
            Instr::Subu { rd, rs, rt } => r(0x23, rs, rt, rd, 0),
            Instr::And { rd, rs, rt } => r(0x24, rs, rt, rd, 0),
            Instr::Or { rd, rs, rt } => r(0x25, rs, rt, rd, 0),
            Instr::Xor { rd, rs, rt } => r(0x26, rs, rt, rd, 0),
            Instr::Nor { rd, rs, rt } => r(0x27, rs, rt, rd, 0),
            Instr::Slt { rd, rs, rt } => r(0x2A, rs, rt, rd, 0),
            Instr::Sltu { rd, rs, rt } => r(0x2B, rs, rt, rd, 0),
            Instr::Mul { rd, rs, rt } => (OP_SPECIAL2 << 26) | r(0x02, rs, rt, rd, 0),
            Instr::Addiu { rt, rs, imm } => i(0x09, rs, rt, imm as u16),
            Instr::Slti { rt, rs, imm } => i(0x0A, rs, rt, imm as u16),
            Instr::Sltiu { rt, rs, imm } => i(0x0B, rs, rt, imm as u16),
            Instr::Andi { rt, rs, imm } => i(0x0C, rs, rt, imm),
            Instr::Ori { rt, rs, imm } => i(0x0D, rs, rt, imm),
            Instr::Xori { rt, rs, imm } => i(0x0E, rs, rt, imm),
            Instr::Lui { rt, imm } => i(0x0F, Reg::ZERO, rt, imm),
            Instr::Beq { rs, rt, off } => i(0x04, rs, rt, off as u16),
            Instr::Bne { rs, rt, off } => i(0x05, rs, rt, off as u16),
            Instr::Lb { rt, base, off } => i(0x20, base, rt, off as u16),
            Instr::Lh { rt, base, off } => i(0x21, base, rt, off as u16),
            Instr::Lw { rt, base, off } => i(0x23, base, rt, off as u16),
            Instr::Lbu { rt, base, off } => i(0x24, base, rt, off as u16),
            Instr::Lhu { rt, base, off } => i(0x25, base, rt, off as u16),
            Instr::Sb { rt, base, off } => i(0x28, base, rt, off as u16),
            Instr::Sh { rt, base, off } => i(0x29, base, rt, off as u16),
            Instr::Sw { rt, base, off } => i(0x2B, base, rt, off as u16),
            Instr::J { target } => (0x02 << 26) | (target & 0x03FF_FFFF),
            Instr::Jal { target } => (0x03 << 26) | (target & 0x03FF_FFFF),
        }
    }

    /// Decodes a machine word; `None` for encodings outside the subset.
    pub fn decode(word: u32) -> Option<Instr> {
        let op = word >> 26;
        let rs = Reg(((word >> 21) & 0x1F) as u8);
        let rt = Reg(((word >> 16) & 0x1F) as u8);
        let rd = Reg(((word >> 11) & 0x1F) as u8);
        let sh = ((word >> 6) & 0x1F) as u8;
        let imm = (word & 0xFFFF) as u16;
        let simm = imm as i16;
        match op {
            OP_SPECIAL => match word & 0x3F {
                0x00 => Some(Instr::Sll { rd, rt, sh }),
                0x02 => Some(Instr::Srl { rd, rt, sh }),
                0x03 => Some(Instr::Sra { rd, rt, sh }),
                0x08 => Some(Instr::Jr { rs }),
                0x0D => Some(Instr::Break),
                0x21 => Some(Instr::Addu { rd, rs, rt }),
                0x23 => Some(Instr::Subu { rd, rs, rt }),
                0x24 => Some(Instr::And { rd, rs, rt }),
                0x25 => Some(Instr::Or { rd, rs, rt }),
                0x26 => Some(Instr::Xor { rd, rs, rt }),
                0x27 => Some(Instr::Nor { rd, rs, rt }),
                0x2A => Some(Instr::Slt { rd, rs, rt }),
                0x2B => Some(Instr::Sltu { rd, rs, rt }),
                _ => None,
            },
            OP_SPECIAL2 => match word & 0x3F {
                0x02 => Some(Instr::Mul { rd, rs, rt }),
                _ => None,
            },
            0x02 => Some(Instr::J {
                target: word & 0x03FF_FFFF,
            }),
            0x03 => Some(Instr::Jal {
                target: word & 0x03FF_FFFF,
            }),
            0x04 => Some(Instr::Beq { rs, rt, off: simm }),
            0x05 => Some(Instr::Bne { rs, rt, off: simm }),
            0x09 => Some(Instr::Addiu { rt, rs, imm: simm }),
            0x0A => Some(Instr::Slti { rt, rs, imm: simm }),
            0x0B => Some(Instr::Sltiu { rt, rs, imm: simm }),
            0x0C => Some(Instr::Andi { rt, rs, imm }),
            0x0D => Some(Instr::Ori { rt, rs, imm }),
            0x0E => Some(Instr::Xori { rt, rs, imm }),
            0x0F => Some(Instr::Lui { rt, imm }),
            0x20 => Some(Instr::Lb {
                rt,
                base: rs,
                off: simm,
            }),
            0x21 => Some(Instr::Lh {
                rt,
                base: rs,
                off: simm,
            }),
            0x23 => Some(Instr::Lw {
                rt,
                base: rs,
                off: simm,
            }),
            0x24 => Some(Instr::Lbu {
                rt,
                base: rs,
                off: simm,
            }),
            0x25 => Some(Instr::Lhu {
                rt,
                base: rs,
                off: simm,
            }),
            0x28 => Some(Instr::Sb {
                rt,
                base: rs,
                off: simm,
            }),
            0x29 => Some(Instr::Sh {
                rt,
                base: rs,
                off: simm,
            }),
            0x2B => Some(Instr::Sw {
                rt,
                base: rs,
                off: simm,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierbus_ec::SplitMix64;

    #[test]
    fn nop_is_all_zero() {
        assert_eq!(Instr::NOP.encode(), 0);
        assert_eq!(Instr::decode(0), Some(Instr::NOP));
    }

    #[test]
    fn known_encodings_match_the_manual() {
        // addu $3, $1, $2 → 0x00221821
        assert_eq!(
            Instr::Addu {
                rd: Reg(3),
                rs: Reg(1),
                rt: Reg(2)
            }
            .encode(),
            0x0022_1821
        );
        // lw $8, 4($29) → 0x8FA80004
        assert_eq!(
            Instr::Lw {
                rt: Reg::T0,
                base: Reg::SP,
                off: 4
            }
            .encode(),
            0x8FA8_0004
        );
        // ori $2, $0, 0xFFFF → 0x3402FFFF
        assert_eq!(
            Instr::Ori {
                rt: Reg::V0,
                rs: Reg::ZERO,
                imm: 0xFFFF
            }
            .encode(),
            0x3402_FFFF
        );
        // j 0x100 (word target) → 0x08000100
        assert_eq!(Instr::J { target: 0x100 }.encode(), 0x0800_0100);
        // break → 0x0000000D
        assert_eq!(Instr::Break.encode(), 0x0000_000D);
    }

    #[test]
    fn negative_immediates_roundtrip() {
        let i = Instr::Addiu {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: -4,
        };
        assert_eq!(Instr::decode(i.encode()), Some(i));
        let b = Instr::Beq {
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            off: -10,
        };
        assert_eq!(Instr::decode(b.encode()), Some(b));
    }

    #[test]
    fn unknown_opcodes_decode_to_none() {
        assert_eq!(Instr::decode(0xFC00_0000), None); // opcode 0x3F
        assert_eq!(Instr::decode(0x0000_003F), None); // SPECIAL funct 0x3F
    }

    fn arb_reg(rng: &mut SplitMix64) -> Reg {
        Reg(rng.range_u32(0, 32) as u8)
    }

    #[test]
    fn encode_decode_roundtrip_rtype() {
        let mut rng = SplitMix64::new(0x47E5);
        for case in 0..256 {
            let (rd, rs, rt) = (arb_reg(&mut rng), arb_reg(&mut rng), arb_reg(&mut rng));
            let sh = rng.range_u32(0, 32) as u8;
            for i in [
                Instr::Sll { rd, rt, sh },
                Instr::Srl { rd, rt, sh },
                Instr::Addu { rd, rs, rt },
                Instr::Subu { rd, rs, rt },
                Instr::Xor { rd, rs, rt },
                Instr::Slt { rd, rs, rt },
                Instr::Mul { rd, rs, rt },
            ] {
                assert_eq!(Instr::decode(i.encode()), Some(i), "case {case}");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_itype() {
        let mut rng = SplitMix64::new(0x17E5);
        for case in 0..256 {
            let (rs, rt) = (arb_reg(&mut rng), arb_reg(&mut rng));
            let imm = rng.next_u32() as u16 as i16;
            let uimm = rng.next_u32() as u16;
            for i in [
                Instr::Addiu { rt, rs, imm },
                Instr::Ori { rt, rs, imm: uimm },
                Instr::Lui { rt, imm: uimm },
                Instr::Beq { rs, rt, off: imm },
                Instr::Lw {
                    rt,
                    base: rs,
                    off: imm,
                },
                Instr::Sb {
                    rt,
                    base: rs,
                    off: imm,
                },
            ] {
                assert_eq!(Instr::decode(i.encode()), Some(i), "case {case}");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_jtype() {
        let mut rng = SplitMix64::new(0x77E5);
        for case in 0..256 {
            let target = rng.range_u32(0, 1 << 26);
            for i in [Instr::J { target }, Instr::Jal { target }] {
                assert_eq!(Instr::decode(i.encode()), Some(i), "case {case}");
            }
        }
    }
}
