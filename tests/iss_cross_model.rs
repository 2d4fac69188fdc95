//! The instruction-set simulator as a cross-model oracle: the same MIPS
//! program must produce identical architectural results on the
//! cycle-true reference and the layer-1 and layer-2 buses, with layer 1
//! cycle-exact against the reference and layer-2 timing never
//! optimistic.

use hierbus::core::{CycleBus, SlaveReply};
use hierbus::ec::Address;
use hierbus::soc::cpu::CpuReport;
use hierbus::soc::crypto::{ctrl, xtea_encrypt};
use hierbus::soc::{CpuSystem, Platform, PlatformMap, Program, Reg};

/// Runs a program to its halt on `bus`; returns the report and the final
/// value of `observe`.
fn run_on<B: CycleBus>(bus: B, observe: Reg) -> (CpuReport, u32) {
    let mut sys = CpuSystem::new(bus, PlatformMap::RESET_PC);
    let report = sys.run_until_halt(5_000_000, |_| {});
    (report, sys.core().reg(observe))
}

fn platform(words: &[u32]) -> Platform {
    let mut platform = Platform::new();
    platform.load_boot_program(words);
    platform
}

/// Runs a program on the reference, layer 1 and layer 2, asserts that
/// the reference and layer 1 agree exactly (observed register, cycles,
/// instructions, fault), and returns the (layer1, layer2) results.
fn run_both(words: &[u32], observe: Reg) -> ((CpuReport, u32), (CpuReport, u32)) {
    let (r0, v0) = run_on(platform(words).into_rtl(), observe);
    let (r1, v1) = run_on(platform(words).into_tlm1(), observe);
    assert_eq!(v0, v1, "reference and layer 1 disagree on {observe:?}");
    assert_eq!(
        (r0.cycles, r0.instructions, r0.fault),
        (r1.cycles, r1.instructions, r1.fault),
        "layer 1 must be cycle-exact against the reference"
    );
    ((r1, v1), run_on(platform(words).into_tlm2(), observe))
}

#[test]
fn arithmetic_program_agrees_across_layers() {
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, 123);
    p.li(Reg::T1, 456);
    p.mul(Reg::T2, Reg::T0, Reg::T1);
    p.addiu(Reg::T2, Reg::T2, -88);
    p.halt();
    let words = p.assemble().unwrap();
    let ((r1, v1), (r2, v2)) = run_both(&words, Reg::T2);
    assert_eq!(v1, 123 * 456 - 88);
    assert_eq!(v1, v2);
    assert!(r1.fault.is_none() && r2.fault.is_none());
    assert!(r2.cycles >= r1.cycles, "layer 2 must not be optimistic");
}

#[test]
fn memory_mixed_width_program_agrees() {
    // Write a word to RAM, rewrite one byte and one halfword, read back.
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::RAM_BASE);
    p.li(Reg::T1, 0xAABB_CCDD);
    p.sw(Reg::T1, Reg::T0, 0x10);
    p.li(Reg::T2, 0x99);
    p.sb(Reg::T2, Reg::T0, 0x11); // byte lane 1
    p.li(Reg::T2, 0x1234);
    p.sh(Reg::T2, Reg::T0, 0x12); // upper halfword
    p.lw(Reg::T3, Reg::T0, 0x10);
    p.halt();
    let words = p.assemble().unwrap();
    let ((_, v1), (_, v2)) = run_both(&words, Reg::T3);
    assert_eq!(v1, 0x1234_99DD);
    assert_eq!(v2, v1);
}

#[test]
fn sign_extension_of_loads() {
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::RAM_BASE);
    p.li(Reg::T1, 0x0000_80F3);
    p.sw(Reg::T1, Reg::T0, 0);
    p.lb(Reg::T2, Reg::T0, 0); // 0xF3 sign-extends negative
    p.lh(Reg::T3, Reg::T0, 0); // 0x80F3 sign-extends negative
    p.lbu(Reg::T4, Reg::T0, 0);
    p.subu(Reg::T5, Reg::T2, Reg::T4); // (-13) - 243 = -256
    p.halt();
    let words = p.assemble().unwrap();
    let ((_, v1), (_, v2)) = run_both(&words, Reg::T5);
    assert_eq!(v1 as i32, -256);
    assert_eq!(v1, v2);
}

#[test]
fn function_calls_with_jal_jr() {
    // double(x) = x + x, called twice.
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::A0, 21);
    p.jal("double");
    p.mv(Reg::A0, Reg::V0);
    p.jal("double");
    p.halt();
    p.label("double");
    p.addu(Reg::V0, Reg::A0, Reg::A0);
    p.jr(Reg::RA);
    let words = p.assemble().unwrap();
    let ((_, v1), (_, v2)) = run_both(&words, Reg::V0);
    assert_eq!(v1, 84);
    assert_eq!(v1, v2);
}

#[test]
fn eeprom_writes_cost_more_than_ram_writes() {
    let store_loop = |base: u32| {
        let mut p = Program::new(PlatformMap::RESET_PC);
        p.li(Reg::T0, base);
        p.li(Reg::T2, 16);
        p.label("loop");
        p.sw(Reg::T2, Reg::T0, 0);
        p.addiu(Reg::T0, Reg::T0, 4);
        p.addiu(Reg::T2, Reg::T2, -1);
        p.bne(Reg::T2, Reg::ZERO, "loop");
        p.halt();
        p.assemble().unwrap()
    };
    let ((ram, _), _) = run_both(&store_loop(PlatformMap::RAM_BASE), Reg::T2);
    let ((eeprom, _), _) = run_both(&store_loop(PlatformMap::EEPROM_BASE), Reg::T2);
    assert!(
        eeprom.cycles > ram.cycles + 100,
        "eeprom {} vs ram {}: programming waits must show",
        eeprom.cycles,
        ram.cycles
    );
}

#[test]
fn rng_reads_are_deterministic_across_layers() {
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::RNG_BASE);
    p.lw(Reg::T1, Reg::T0, 0);
    p.lw(Reg::T2, Reg::T0, 0);
    p.xor(Reg::T3, Reg::T1, Reg::T2);
    p.halt();
    let words = p.assemble().unwrap();
    let ((_, v1), (_, v2)) = run_both(&words, Reg::T3);
    assert_ne!(v1, 0, "consecutive draws must differ");
    assert_eq!(v1, v2, "the rng stream is deterministic");
}

#[test]
fn timer_advances_under_instruction_execution() {
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::TIMER_BASE);
    p.li(Reg::T1, 10_000);
    p.sw(Reg::T1, Reg::T0, 0x4); // T0 count
    p.li(Reg::T1, 1);
    p.sw(Reg::T1, Reg::T0, 0x0); // enable
                                 // Burn some cycles.
    p.li(Reg::T2, 50);
    p.label("burn");
    p.addiu(Reg::T2, Reg::T2, -1);
    p.bne(Reg::T2, Reg::ZERO, "burn");
    p.lw(Reg::T3, Reg::T0, 0x4); // read count back
    p.halt();
    let words = p.assemble().unwrap();
    let ((r1, v1), _) = run_both(&words, Reg::T3);
    assert!(v1 < 10_000, "timer must have counted down");
    assert!(
        (10_000 - v1) as u64 <= r1.cycles,
        "timer cannot count faster than cycles"
    );
}

#[test]
fn uart_transmits_bytes_written_by_software() {
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::UART_BASE);
    p.li(Reg::T1, 2);
    p.sw(Reg::T1, Reg::T0, 0x8); // fast baud
    for b in [0x48u32, 0x49] {
        p.li(Reg::T1, b); // 'H', 'I'
        p.sw(Reg::T1, Reg::T0, 0x0);
    }
    p.label("drain");
    p.lw(Reg::T2, Reg::T0, 0x4);
    p.andi(Reg::T2, Reg::T2, 1);
    p.bne(Reg::T2, Reg::ZERO, "drain");
    p.halt();
    let words = p.assemble().unwrap();

    let mut platform = Platform::new();
    platform.load_boot_program(&words);
    let mut sys = CpuSystem::new(platform.into_tlm1(), PlatformMap::RESET_PC);
    let report = sys.run_until_halt(1_000_000, |_| {});
    assert!(report.fault.is_none());
    // The UART slave is reachable through the bus; check what it sent by
    // reading its internals via a scratch RAM echo instead: simplest is
    // a functional probe through the slave trait.
    let uart = sys.bus_mut().slave_mut(PlatformMap::UART);
    // STATUS must be idle now.
    match uart.read_word(Address::new(PlatformMap::UART_BASE as u64 + 4)) {
        SlaveReply::Ok(s) => assert_eq!(s & 1, 0, "tx must be idle"),
        other => panic!("status read failed: {other:?}"),
    }
}

#[test]
fn reserved_instruction_faults() {
    let mut platform = Platform::new();
    platform.rom.load(Address::new(0), &[0xFC00_0000]); // unknown opcode
    let mut sys = CpuSystem::new(platform.into_tlm1(), PlatformMap::RESET_PC);
    let report = sys.run_until_halt(1_000, |_| {});
    assert!(matches!(
        report.fault,
        Some(hierbus::soc::cpu::CpuFault::ReservedInstruction(_))
    ));
}

#[test]
fn cpi_is_reasonable_without_caches() {
    // Every instruction costs at least a fetch; memory ops add a data
    // transaction. A tight ALU loop should sit near CPI 2 (fetch +
    // issue overhead), never below 1.
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T2, 200);
    p.label("loop");
    p.addiu(Reg::T2, Reg::T2, -1);
    p.bne(Reg::T2, Reg::ZERO, "loop");
    p.halt();
    let words = p.assemble().unwrap();
    let ((r1, _), _) = run_both(&words, Reg::T2);
    let cpi = r1.cpi();
    assert!(cpi >= 1.0, "CPI {cpi} below the fetch bound");
    assert!(cpi < 4.0, "CPI {cpi} unreasonably high for an ALU loop");
}

/// The crypto coprocessor answers `Wait` to a CTRL write while a block
/// is in flight, so a second start issued at once holds its beat until
/// the first block completes, on the same cycles at layer 1 and the
/// reference. Layer 2 holds its data phase until then and reaches the
/// same result, never in fewer cycles.
#[test]
fn crypto_back_pressure_agrees_across_layers() {
    let key = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
    let block = [0xDEAD_BEEF, 0xCAFE_F00D];
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::CRYPTO_BASE);
    for (i, k) in key.iter().enumerate() {
        p.li(Reg::T1, *k);
        p.sw(Reg::T1, Reg::T0, 0x08 + 4 * i as i16);
    }
    p.li(Reg::T1, block[0]);
    p.sw(Reg::T1, Reg::T0, 0x18);
    p.li(Reg::T1, block[1]);
    p.sw(Reg::T1, Reg::T0, 0x1C);
    // Two starts back to back: the second waits out the first block and
    // then encrypts its ciphertext.
    p.li(Reg::T1, ctrl::START_ENC);
    p.sw(Reg::T1, Reg::T0, 0x00);
    p.sw(Reg::T1, Reg::T0, 0x00);
    p.label("poll");
    p.lw(Reg::T2, Reg::T0, 0x04);
    p.andi(Reg::T2, Reg::T2, 0x1); // BUSY
    p.bne(Reg::T2, Reg::ZERO, "poll");
    p.lw(Reg::T3, Reg::T0, 0x18);
    p.halt();
    let words = p.assemble().unwrap();
    let ((r1, v1), (r2, v2)) = run_both(&words, Reg::T3);
    assert_eq!(v1, xtea_encrypt(xtea_encrypt(block, key), key)[0]);
    assert_eq!(v1, v2);
    assert!(r1.fault.is_none() && r2.fault.is_none());
    assert!(r2.cycles >= r1.cycles, "layer 2 must not be optimistic");
}
