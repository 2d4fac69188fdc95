//! The instruction-set simulator: a non-pipelined MIPS32-subset core
//! whose every fetch, load and store travels the TLM bus.
//!
//! Modeling choices (simplifications versus 4Ksc silicon, chosen to keep
//! the *bus* — the object of study — fully exercised):
//!
//! * by default every instruction fetch is a bus transaction (the
//!   configuration a smart card boots in); an optional direct-mapped
//!   instruction cache ([`MipsCore::with_icache`]) turns fetch misses
//!   into 4-beat burst line fills instead;
//! * no data cache, branch delay slots or pipeline: one instruction
//!   completes before the next fetch issues;
//! * `BREAK` halts the core (the ISS's exit convention).

use crate::isa::{Instr, Reg};
use hierbus_core::{CycleBus, PollStatus};
use hierbus_ec::{Address, BurstLen, DataWidth, Transaction, TxnId};
use std::fmt;

/// Why the core stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuFault {
    /// Fetched word is outside the implemented instruction subset.
    ReservedInstruction(u32),
    /// A bus transaction terminated with an error.
    BusError,
}

impl fmt::Display for CpuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuFault::ReservedInstruction(w) => {
                write!(f, "reserved instruction {w:#010x}")
            }
            CpuFault::BusError => f.write_str("bus error"),
        }
    }
}

/// A pending load's writeback shape.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    LoadSigned8(Reg),
    LoadZero8(Reg),
    LoadSigned16(Reg),
    LoadZero16(Reg),
    Load32(Reg),
    Store,
}

#[derive(Debug, Clone, Copy)]
enum CpuState {
    NeedFetch,
    /// The instruction is already in hand (cache hit); it executes at
    /// the next rising edge, pacing hits at one instruction per cycle.
    FetchReady(u32),
    FetchWait(TxnId),
    MemWait(TxnId, MemOp),
}

/// Architectural and micro-architectural state of the core.
#[derive(Debug)]
pub struct MipsCore {
    regs: [u32; 32],
    pc: u32,
    next_id: TxnId,
    state: CpuState,
    retired: u64,
    halted: bool,
    fault: Option<CpuFault>,
    icache: Option<crate::cache::ICache>,
}

impl MipsCore {
    /// Creates a core that starts fetching at `reset_pc`.
    ///
    /// # Panics
    ///
    /// Panics if `reset_pc` is not word aligned.
    pub fn new(reset_pc: u32) -> Self {
        assert!(
            reset_pc.is_multiple_of(4),
            "reset pc {reset_pc:#x} must be word aligned"
        );
        MipsCore {
            regs: [0; 32],
            pc: reset_pc,
            next_id: TxnId(0),
            state: CpuState::NeedFetch,
            retired: 0,
            halted: false,
            fault: None,
            icache: None,
        }
    }

    /// Creates a core with a direct-mapped instruction cache of
    /// `cache_lines` 4-word lines; misses fill via 4-beat burst fetches.
    ///
    /// # Panics
    ///
    /// Panics if `reset_pc` is misaligned or `cache_lines` is not a
    /// power of two.
    pub fn with_icache(reset_pc: u32, cache_lines: usize) -> Self {
        let mut core = MipsCore::new(reset_pc);
        core.icache = Some(crate::cache::ICache::new(cache_lines));
        core
    }

    /// The instruction cache, if configured.
    pub fn icache(&self) -> Option<&crate::cache::ICache> {
        self.icache.as_ref()
    }

    /// Reads a register (register 0 is always zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// Writes a register (writes to register 0 are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True once the core executed `BREAK` or faulted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The fault that stopped the core, if any.
    pub fn fault(&self) -> Option<CpuFault> {
        self.fault
    }

    fn issue_fetch<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        if let Some(cache) = &mut self.icache {
            if let Some(word) = cache.lookup(self.pc) {
                // Hit: no bus traffic; execute at the next rising edge.
                self.state = CpuState::FetchReady(word);
                return;
            }
            // Miss: fetch the whole aligned line as one burst.
            let id = self.next_id;
            self.next_id = id.next();
            bus.issue(
                Transaction::fetch(id, crate::cache::ICache::line_base(self.pc), BurstLen::B4),
                cycle,
            );
            self.state = CpuState::FetchWait(id);
            return;
        }
        let id = self.next_id;
        self.next_id = id.next();
        bus.issue(
            Transaction::fetch(id, Address::new(self.pc as u64), BurstLen::Single),
            cycle,
        );
        self.state = CpuState::FetchWait(id);
    }

    fn issue_mem<B: CycleBus>(
        &mut self,
        bus: &mut B,
        cycle: u64,
        addr: u32,
        width: DataWidth,
        store: Option<u32>,
        op: MemOp,
    ) {
        let id = self.next_id;
        self.next_id = id.next();
        let txn = match store {
            Some(value) => Transaction::single_write(id, Address::new(addr as u64), width, value),
            None => Transaction::single_read(id, Address::new(addr as u64), width),
        };
        bus.issue(txn, cycle);
        self.state = CpuState::MemWait(id, op);
    }

    /// Rising-edge step: polls outstanding transactions and advances the
    /// execute loop, issuing at most one new transaction.
    pub fn rising_edge<B: CycleBus>(&mut self, bus: &mut B, cycle: u64) {
        if self.halted {
            return;
        }
        match self.state {
            CpuState::NeedFetch => self.issue_fetch(bus, cycle),
            CpuState::FetchReady(word) => match Instr::decode(word) {
                None => self.halt_with(CpuFault::ReservedInstruction(word)),
                Some(instr) => self.execute(bus, cycle, instr),
            },
            CpuState::FetchWait(id) => match bus.poll(id) {
                PollStatus::Pending => {}
                PollStatus::Done(done) => {
                    if done.error.is_some() {
                        self.halt_with(CpuFault::BusError);
                        return;
                    }
                    let word = match &mut self.icache {
                        Some(cache) => cache.fill(self.pc, &done.data),
                        None => done.data[0],
                    };
                    match Instr::decode(word) {
                        None => self.halt_with(CpuFault::ReservedInstruction(word)),
                        Some(instr) => self.execute(bus, cycle, instr),
                    }
                }
            },
            CpuState::MemWait(id, op) => match bus.poll(id) {
                PollStatus::Pending => {}
                PollStatus::Done(done) => {
                    if done.error.is_some() {
                        self.halt_with(CpuFault::BusError);
                        return;
                    }
                    match op {
                        MemOp::LoadSigned8(rt) => {
                            self.set_reg(rt, done.data[0] as u8 as i8 as i32 as u32)
                        }
                        MemOp::LoadZero8(rt) => self.set_reg(rt, done.data[0] & 0xFF),
                        MemOp::LoadSigned16(rt) => {
                            self.set_reg(rt, done.data[0] as u16 as i16 as i32 as u32)
                        }
                        MemOp::LoadZero16(rt) => self.set_reg(rt, done.data[0] & 0xFFFF),
                        MemOp::Load32(rt) => self.set_reg(rt, done.data[0]),
                        MemOp::Store => {}
                    }
                    self.retired += 1;
                    self.issue_fetch(bus, cycle);
                }
            },
        }
    }

    fn halt_with(&mut self, fault: CpuFault) {
        self.halted = true;
        self.fault = Some(fault);
        self.state = CpuState::NeedFetch;
    }

    /// Executes a fetched instruction. ALU and control-flow instructions
    /// retire immediately and the next fetch issues in the same cycle;
    /// loads/stores issue their data transaction instead.
    fn execute<B: CycleBus>(&mut self, bus: &mut B, cycle: u64, instr: Instr) {
        use Instr::*;
        let mut next_pc = self.pc.wrapping_add(4);
        match instr {
            Sll { rd, rt, sh } => self.set_reg(rd, self.reg(rt) << sh),
            Srl { rd, rt, sh } => self.set_reg(rd, self.reg(rt) >> sh),
            Sra { rd, rt, sh } => self.set_reg(rd, ((self.reg(rt) as i32) >> sh) as u32),
            Addu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt))),
            Subu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt))),
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                self.set_reg(rd, ((self.reg(rs) as i32) < (self.reg(rt) as i32)) as u32)
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, (self.reg(rs) < self.reg(rt)) as u32),
            Mul { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_mul(self.reg(rt))),
            Jr { rs } => next_pc = self.reg(rs),
            Break => {
                self.retired += 1;
                self.halted = true;
                return;
            }
            Addiu { rt, rs, imm } => self.set_reg(rt, self.reg(rs).wrapping_add(imm as i32 as u32)),
            Slti { rt, rs, imm } => self.set_reg(rt, ((self.reg(rs) as i32) < imm as i32) as u32),
            Sltiu { rt, rs, imm } => self.set_reg(rt, (self.reg(rs) < imm as i32 as u32) as u32),
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & imm as u32),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | imm as u32),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ imm as u32),
            Lui { rt, imm } => self.set_reg(rt, (imm as u32) << 16),
            Beq { rs, rt, off } => {
                if self.reg(rs) == self.reg(rt) {
                    next_pc = self
                        .pc
                        .wrapping_add(4)
                        .wrapping_add((off as i32 as u32) << 2);
                }
            }
            Bne { rs, rt, off } => {
                if self.reg(rs) != self.reg(rt) {
                    next_pc = self
                        .pc
                        .wrapping_add(4)
                        .wrapping_add((off as i32 as u32) << 2);
                }
            }
            J { target } => next_pc = (self.pc & 0xF000_0000) | (target << 2),
            Jal { target } => {
                self.set_reg(Reg::RA, self.pc.wrapping_add(4));
                next_pc = (self.pc & 0xF000_0000) | (target << 2);
            }
            Lb { rt, base, off }
            | Lbu { rt, base, off }
            | Lh { rt, base, off }
            | Lhu { rt, base, off }
            | Lw { rt, base, off } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                let (width, op) = match instr {
                    Lb { .. } => (DataWidth::W8, MemOp::LoadSigned8(rt)),
                    Lbu { .. } => (DataWidth::W8, MemOp::LoadZero8(rt)),
                    Lh { .. } => (DataWidth::W16, MemOp::LoadSigned16(rt)),
                    Lhu { .. } => (DataWidth::W16, MemOp::LoadZero16(rt)),
                    _ => (DataWidth::W32, MemOp::Load32(rt)),
                };
                self.pc = next_pc;
                self.issue_mem(bus, cycle, addr, width, None, op);
                return;
            }
            Sb { rt, base, off } | Sh { rt, base, off } | Sw { rt, base, off } => {
                let addr = self.reg(base).wrapping_add(off as i32 as u32);
                let width = match instr {
                    Sb { .. } => DataWidth::W8,
                    Sh { .. } => DataWidth::W16,
                    _ => DataWidth::W32,
                };
                let value = self.reg(rt) & width.value_mask();
                self.pc = next_pc;
                self.issue_mem(bus, cycle, addr, width, Some(value), MemOp::Store);
                return;
            }
        }
        self.retired += 1;
        self.pc = next_pc;
        self.issue_fetch(bus, cycle);
    }
}

/// Summary of a completed core run.
#[derive(Debug, Clone, Copy)]
pub struct CpuReport {
    /// Bus cycles executed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Fault that stopped the run, if any.
    pub fault: Option<CpuFault>,
}

impl CpuReport {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            f64::NAN
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// Drives a [`MipsCore`] against a [`CycleBus`], cycle by cycle.
#[derive(Debug)]
pub struct CpuSystem<B> {
    bus: B,
    core: MipsCore,
    cycle: u64,
}

impl<B: CycleBus> CpuSystem<B> {
    /// Creates a system with the core resetting at `reset_pc`.
    pub fn new(bus: B, reset_pc: u32) -> Self {
        CpuSystem {
            bus,
            core: MipsCore::new(reset_pc),
            cycle: 0,
        }
    }

    /// Creates a system whose core carries an instruction cache of
    /// `cache_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `cache_lines` is not a power of two.
    pub fn with_icache(bus: B, reset_pc: u32, cache_lines: usize) -> Self {
        CpuSystem {
            bus,
            core: MipsCore::with_icache(reset_pc, cache_lines),
            cycle: 0,
        }
    }

    /// Shared access to the bus.
    pub fn bus(&self) -> &B {
        &self.bus
    }

    /// Exclusive access to the bus.
    pub fn bus_mut(&mut self) -> &mut B {
        &mut self.bus
    }

    /// The core's architectural state.
    pub fn core(&self) -> &MipsCore {
        &self.core
    }

    /// Executes one bus cycle: the core at the rising edge, the bus's
    /// falling edge, then `hook` if the bus process ran.
    pub fn step_cycle(&mut self, hook: &mut impl FnMut(&mut B)) {
        self.core.rising_edge(&mut self.bus, self.cycle);
        if self.bus.falling_edge(self.cycle) {
            hook(&mut self.bus);
        }
        self.cycle += 1;
    }

    /// Runs until the core halts.
    ///
    /// # Panics
    ///
    /// Panics if the core does not halt within `max_cycles` (runaway
    /// program).
    pub fn run_until_halt(&mut self, max_cycles: u64, mut hook: impl FnMut(&mut B)) -> CpuReport {
        while !self.core.is_halted() {
            assert!(
                self.cycle < max_cycles,
                "core did not halt within {max_cycles} cycles (pc={:#x})",
                self.core.pc()
            );
            self.step_cycle(&mut hook);
        }
        CpuReport {
            cycles: self.cycle,
            instructions: self.core.retired(),
            fault: self.core.fault(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, PlatformMap};
    use crate::program::Program;

    /// §3.2 on the ISS driver: an icache-resident loop leaves the bus
    /// idle on cache hits. The layer-1 bus emitting frames stays
    /// sensitive every cycle; the layer-2 bus is skipped while idle; the
    /// architecture cannot tell the difference.
    #[test]
    fn hook_runs_only_on_bus_activations() {
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, 50);
        p.li(Reg::T1, 0);
        p.label("loop");
        p.addu(Reg::T1, Reg::T1, Reg::T0);
        p.addiu(Reg::T0, Reg::T0, -1);
        p.bne(Reg::T0, Reg::ZERO, "loop");
        p.halt();
        let words = p.assemble().unwrap();
        let platform = || {
            let mut platform = Platform::new();
            platform.load_boot_program(&words);
            platform
        };
        let regs = |core: &MipsCore| (0..32).map(|r| core.reg(Reg(r))).collect::<Vec<_>>();

        let mut bus = platform().into_tlm1();
        bus.enable_frames();
        let mut l1 = CpuSystem::with_icache(bus, PlatformMap::RESET_PC, 16);
        let mut l1_hooks = 0u64;
        let l1_report = l1.run_until_halt(100_000, |_| l1_hooks += 1);
        assert_eq!(l1_hooks, l1_report.cycles);

        let mut l2 = CpuSystem::with_icache(platform().into_tlm2(), PlatformMap::RESET_PC, 16);
        let mut l2_hooks = 0u64;
        let l2_report = l2.run_until_halt(100_000, |_| l2_hooks += 1);
        assert!(l2_hooks > 0);
        assert!(
            l2_hooks < l2_report.cycles,
            "{l2_hooks} activations over {} cycles",
            l2_report.cycles
        );

        assert!(l1_report.fault.is_none() && l2_report.fault.is_none());
        assert_eq!(l1.core().reg(Reg::T1), 50 * 51 / 2);
        assert_eq!(regs(l1.core()), regs(l2.core()));
    }
}
