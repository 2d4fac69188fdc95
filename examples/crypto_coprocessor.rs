//! Drive the cryptographic coprocessor from a real MIPS program over the
//! bus — the HW/SW interface scenario that motivates the paper.
//!
//! The program loads a key and a plaintext block into the coprocessor's
//! special function registers, starts an encryption, polls the status
//! register until done, and reads the ciphertext back into scratchpad
//! RAM. The run is repeated on the layer-1 and layer-2 buses and on the
//! cycle-true reference; results must match the XTEA reference, the
//! reference must take exactly layer 1's cycles, layer 2 must take at
//! least layer 1's (Table 1's shape), and the layer-1 and reference runs
//! carry an energy estimate.
//!
//! ```sh
//! cargo run --example crypto_coprocessor
//! ```

use hierbus::core::{HasSlaves, Tlm1Bus};
use hierbus::ec::Address;
use hierbus::jcvm; // (unused here; the facade keeps paths uniform)
use hierbus::power::{CharacterizationDb, Layer1EnergyModel};
use hierbus::soc::crypto::{ctrl, xtea_encrypt};
use hierbus::soc::{CpuSystem, Platform, PlatformMap, Program, Reg, ScratchpadRam};

const KEY: [u32; 4] = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
const BLOCK: [u32; 2] = [0xDEAD_BEEF, 0xCAFE_F00D];
/// RAM address the program stores the ciphertext to.
const RESULT_ADDR: u32 = PlatformMap::RAM_BASE + 0x40;

/// The driver program, in MIPS assembly via the program builder.
fn driver() -> Vec<u32> {
    let mut p = Program::new(PlatformMap::RESET_PC);
    let base = Reg::T0;
    p.li(base, PlatformMap::CRYPTO_BASE);
    // Load the key into KEY0..KEY3 (offsets 0x08..0x14).
    for (i, k) in KEY.iter().enumerate() {
        p.li(Reg::T1, *k);
        p.sw(Reg::T1, base, 0x08 + 4 * i as i16);
    }
    // Load the plaintext into DATA0/DATA1.
    p.li(Reg::T1, BLOCK[0]);
    p.sw(Reg::T1, base, 0x18);
    p.li(Reg::T1, BLOCK[1]);
    p.sw(Reg::T1, base, 0x1C);
    // Start encryption.
    p.li(Reg::T1, ctrl::START_ENC);
    p.sw(Reg::T1, base, 0x00);
    // Poll STATUS until the busy bit clears.
    p.label("poll");
    p.lw(Reg::T2, base, 0x04);
    p.andi(Reg::T2, Reg::T2, 0x1); // BUSY
    p.bne(Reg::T2, Reg::ZERO, "poll");
    // Read the ciphertext and store it to RAM.
    p.li(Reg::T3, RESULT_ADDR);
    p.lw(Reg::T1, base, 0x18);
    p.sw(Reg::T1, Reg::T3, 0);
    p.lw(Reg::T1, base, 0x1C);
    p.sw(Reg::T1, Reg::T3, 4);
    p.halt();
    p.assemble().expect("driver assembles")
}

/// The ciphertext the driver stored to RAM, read back from the bus's RAM
/// slave.
fn read_result(bus: &impl HasSlaves) -> [u32; 2] {
    let ram: &ScratchpadRam = bus.slave_as(PlatformMap::RAM).expect("platform ram");
    let word = |offset: u64| ram.peek(Address::new(RESULT_ADDR as u64 + offset));
    [word(0), word(4)]
}

fn main() {
    let _ = jcvm::Context::JCRE; // facade smoke reference
    let expected = xtea_encrypt(BLOCK, KEY);
    let words = driver();
    println!("driver program: {} instructions", words.len());

    // ---- layer 1, with energy ------------------------------------------
    let mut platform = Platform::new();
    platform.load_boot_program(&words);
    let mut bus = platform.into_tlm1();
    bus.enable_frames();
    let mut sys = CpuSystem::new(bus, PlatformMap::RESET_PC);
    let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
    let report = sys.run_until_halt(1_000_000, |bus: &mut Tlm1Bus| {
        model.on_frame(bus.last_frame());
    });
    assert!(report.fault.is_none(), "driver must not fault");

    let got = read_result(sys.bus());
    assert_eq!(
        got, expected,
        "hardware result must match the XTEA reference"
    );

    println!("\nlayer 1:");
    println!(
        "  ciphertext: {:08x} {:08x}  (matches the XTEA reference)",
        got[0], got[1]
    );
    println!(
        "  {} instructions in {} cycles (CPI {:.2}), {:.0} pJ of bus energy",
        report.instructions,
        report.cycles,
        report.cpi(),
        model.total_energy()
    );

    // ---- layer 2, timing estimation ------------------------------------
    let mut platform = Platform::new();
    platform.load_boot_program(&words);
    let bus = platform.into_tlm2();
    let mut sys2 = CpuSystem::new(bus, PlatformMap::RESET_PC);
    let report2 = sys2.run_until_halt(1_000_000, |_| {});
    assert!(report2.fault.is_none());
    assert_eq!(read_result(sys2.bus()), expected);
    assert!(
        report2.cycles >= report.cycles,
        "layer 2 must not be optimistic: {} < {} cycles",
        report2.cycles,
        report.cycles
    );

    println!("\nlayer 2:");
    println!(
        "  same ciphertext in {} cycles ({:+.1}% vs layer 1) — the timing\n\
         \x20 estimate a designer would explore interfaces with",
        report2.cycles,
        (report2.cycles as f64 - report.cycles as f64) / report.cycles as f64 * 100.0
    );

    // ---- the reference, gate-level energy -------------------------------
    let mut platform = Platform::new();
    platform.load_boot_program(&words);
    let mut sys0 = CpuSystem::new(platform.into_rtl(), PlatformMap::RESET_PC);
    let report0 = sys0.run_until_halt(1_000_000, |_| {});
    assert!(report0.fault.is_none());
    assert_eq!(read_result(sys0.bus()), expected);
    assert_eq!(
        (report0.cycles, report0.instructions),
        (report.cycles, report.instructions),
        "layer 1 must be cycle-exact against the reference"
    );

    println!("\nreference:");
    println!(
        "  same ciphertext in the same {} cycles, {:.0} pJ of gate-level bus energy",
        report0.cycles,
        sys0.bus().estimator().total_energy()
    );
}
