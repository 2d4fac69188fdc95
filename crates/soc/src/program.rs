//! A label-resolving program builder.
//!
//! The paper's verification flow needed "an assembly language test
//! program ... to initiate the required bus transactions" (§4.1). This
//! builder is that facility: emit instructions through typed methods,
//! branch/jump to named labels, and [`assemble`](Program::assemble) into
//! machine words for a program memory.
//!
//! ```
//! use hierbus_soc::{Program, Reg};
//!
//! let mut p = Program::new(0x0000_0000);
//! p.li(Reg::T0, 5);
//! p.label("loop");
//! p.addiu(Reg::T0, Reg::T0, -1);
//! p.bne(Reg::T0, Reg::ZERO, "loop");
//! p.halt();
//! let words = p.assemble().expect("labels resolve");
//! assert_eq!(words.len(), 4); // li expands to a single ori here
//! ```

use crate::isa::{Instr, Reg};
use std::collections::HashMap;
use std::fmt;

/// What a fixup patches once its label is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FixupKind {
    /// 16-bit branch offset relative to the following instruction.
    Branch,
    /// 26-bit absolute word target.
    Jump,
}

/// Errors from [`Program::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch or jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target is further than a 16-bit offset can reach.
    BranchOutOfRange(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange(l) => write!(f, "branch to `{l}` out of range"),
        }
    }
}

impl std::error::Error for AsmError {}

/// A program under construction: instructions plus pending label fixups.
#[derive(Debug, Clone, Default)]
pub struct Program {
    base: u32,
    words: Vec<u32>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String, FixupKind)>,
    duplicate: Option<String>,
}

impl Program {
    /// Starts a program whose first instruction lives at byte address
    /// `base` (must be word aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word aligned.
    pub fn new(base: u32) -> Self {
        assert!(
            base.is_multiple_of(4),
            "program base {base:#x} must be word aligned"
        );
        Program {
            base,
            ..Program::default()
        }
    }

    /// The base byte address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no instruction has been emitted.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_owned(), self.words.len())
            .is_some()
            && self.duplicate.is_none()
        {
            self.duplicate = Some(name.to_owned());
        }
        self
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.words.push(instr.encode());
        self
    }

    /// Emits a raw data word (e.g. a constant pool entry).
    pub fn word(&mut self, w: u32) -> &mut Self {
        self.words.push(w);
        self
    }

    // --- ALU ---

    /// `rd = rs + rt` (no overflow trap).
    pub fn addu(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Addu { rd, rs, rt })
    }

    /// `rd = rs - rt`.
    pub fn subu(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Subu { rd, rs, rt })
    }

    /// `rd = rs & rt`.
    pub fn and(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::And { rd, rs, rt })
    }

    /// `rd = rs | rt`.
    pub fn or(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Or { rd, rs, rt })
    }

    /// `rd = rs ^ rt`.
    pub fn xor(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Xor { rd, rs, rt })
    }

    /// `rd = (rs * rt) as u32`.
    pub fn mul(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
        self.emit(Instr::Mul { rd, rs, rt })
    }

    /// `rd = rt >> sh` (logical).
    pub fn srl(&mut self, rd: Reg, rt: Reg, sh: u8) -> &mut Self {
        self.emit(Instr::Srl { rd, rt, sh })
    }

    /// `rt = rs + imm` (sign-extended).
    pub fn addiu(&mut self, rt: Reg, rs: Reg, imm: i16) -> &mut Self {
        self.emit(Instr::Addiu { rt, rs, imm })
    }

    /// `rt = rs & imm` (zero-extended).
    pub fn andi(&mut self, rt: Reg, rs: Reg, imm: u16) -> &mut Self {
        self.emit(Instr::Andi { rt, rs, imm })
    }

    /// `rt = rs | imm` (zero-extended).
    fn ori(&mut self, rt: Reg, rs: Reg, imm: u16) -> &mut Self {
        self.emit(Instr::Ori { rt, rs, imm })
    }

    /// `rt = imm << 16`.
    fn lui(&mut self, rt: Reg, imm: u16) -> &mut Self {
        self.emit(Instr::Lui { rt, imm })
    }

    /// Pseudo-instruction: load a full 32-bit constant (one or two
    /// words).
    pub fn li(&mut self, rt: Reg, value: u32) -> &mut Self {
        let hi = (value >> 16) as u16;
        let lo = (value & 0xFFFF) as u16;
        if hi != 0 {
            self.lui(rt, hi);
            if lo != 0 {
                self.ori(rt, rt, lo);
            }
            self
        } else {
            self.ori(rt, Reg::ZERO, lo)
        }
    }

    /// Pseudo-instruction: `rd = rs`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.or(rd, rs, Reg::ZERO)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::NOP)
    }

    // --- memory ---

    /// `rt = mem8[base+off]` sign-extended.
    pub fn lb(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lb { rt, base, off })
    }

    /// `rt = mem8[base+off]` zero-extended.
    pub fn lbu(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lbu { rt, base, off })
    }

    /// `rt = mem16[base+off]` sign-extended.
    pub fn lh(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lh { rt, base, off })
    }

    /// `rt = mem32[base+off]`.
    pub fn lw(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Lw { rt, base, off })
    }

    /// `mem8[base+off] = rt`.
    pub fn sb(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Sb { rt, base, off })
    }

    /// `mem16[base+off] = rt`.
    pub fn sh(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Sh { rt, base, off })
    }

    /// `mem32[base+off] = rt`.
    pub fn sw(&mut self, rt: Reg, base: Reg, off: i16) -> &mut Self {
        self.emit(Instr::Sw { rt, base, off })
    }

    // --- control flow ---

    /// Branch to `label` if `rs == rt`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Self {
        self.fixups
            .push((self.words.len(), label.to_owned(), FixupKind::Branch));
        self.emit(Instr::Beq { rs, rt, off: 0 })
    }

    /// Branch to `label` if `rs != rt`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Self {
        self.fixups
            .push((self.words.len(), label.to_owned(), FixupKind::Branch));
        self.emit(Instr::Bne { rs, rt, off: 0 })
    }

    /// Jump to `label`.
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.fixups
            .push((self.words.len(), label.to_owned(), FixupKind::Jump));
        self.emit(Instr::J { target: 0 })
    }

    /// Jump-and-link to `label` (return address in `$ra`).
    pub fn jal(&mut self, label: &str) -> &mut Self {
        self.fixups
            .push((self.words.len(), label.to_owned(), FixupKind::Jump));
        self.emit(Instr::Jal { target: 0 })
    }

    /// Jump to the address in `rs`.
    pub fn jr(&mut self, rs: Reg) -> &mut Self {
        self.emit(Instr::Jr { rs })
    }

    /// Software breakpoint — the ISS treats it as HALT.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr::Break)
    }

    /// Resolves labels and returns the machine words.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for undefined or duplicate labels, or
    /// branch targets outside the ±32 k-instruction range.
    pub fn assemble(mut self) -> Result<Vec<u32>, AsmError> {
        if let Some(dup) = self.duplicate {
            return Err(AsmError::DuplicateLabel(dup));
        }
        for (at, label, kind) in &self.fixups {
            let &target = self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
            match kind {
                FixupKind::Branch => {
                    let delta = target as i64 - (*at as i64 + 1);
                    let off = i16::try_from(delta)
                        .map_err(|_| AsmError::BranchOutOfRange(label.clone()))?;
                    self.words[*at] |= (off as u16) as u32;
                }
                FixupKind::Jump => {
                    let word_target = (self.base / 4) as u64 + target as u64;
                    self.words[*at] |= (word_target as u32) & 0x03FF_FFFF;
                }
            }
        }
        Ok(self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut p = Program::new(0);
        p.label("top");
        p.addiu(Reg::T0, Reg::T0, 1);
        p.bne(Reg::T0, Reg::T1, "top"); // backward: -2
        p.beq(Reg::T0, Reg::T1, "end"); // forward: +1
        p.nop();
        p.label("end");
        p.halt();
        let words = p.assemble().unwrap();
        assert_eq!(
            Instr::decode(words[1]),
            Some(Instr::Bne {
                rs: Reg::T0,
                rt: Reg::T1,
                off: -2
            })
        );
        assert_eq!(
            Instr::decode(words[2]),
            Some(Instr::Beq {
                rs: Reg::T0,
                rt: Reg::T1,
                off: 1
            })
        );
    }

    #[test]
    fn jumps_use_absolute_word_targets() {
        let mut p = Program::new(0x100);
        p.j("fn"); // word index 0 at byte 0x100
        p.nop();
        p.label("fn");
        p.halt();
        let words = p.assemble().unwrap();
        // "fn" is the third instruction: byte 0x108, word target 0x42.
        assert_eq!(Instr::decode(words[0]), Some(Instr::J { target: 0x42 }));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut p = Program::new(0);
        p.j("nowhere");
        assert_eq!(
            p.assemble(),
            Err(AsmError::UndefinedLabel("nowhere".to_owned()))
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut p = Program::new(0);
        p.label("x");
        p.nop();
        p.label("x");
        assert_eq!(p.assemble(), Err(AsmError::DuplicateLabel("x".to_owned())));
    }

    #[test]
    fn li_expands_minimally() {
        let mut p = Program::new(0);
        p.li(Reg::T0, 0x12); // one word
        p.li(Reg::T1, 0x1234_0000); // one word (lui only)
        p.li(Reg::T2, 0x1234_5678); // two words
        let words = p.assemble().unwrap();
        assert_eq!(words.len(), 4);
        assert_eq!(
            Instr::decode(words[1]),
            Some(Instr::Lui {
                rt: Reg::T1,
                imm: 0x1234
            })
        );
    }

    #[test]
    fn emitted_words_are_counted() {
        let mut p = Program::new(0x40);
        assert!(p.is_empty());
        p.nop();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "word aligned")]
    fn misaligned_base_rejected() {
        let _ = Program::new(0x41);
    }
}
