//! A miniature smart-card boot flow on the full platform: copy a data
//! table from ROM to RAM, checksum it, configure a timer, and transmit
//! the checksum over the UART — all as real MIPS code fetching over the
//! bus, with a layer-1 energy estimate and a Perfetto trace of every bus
//! transaction.
//!
//! ```sh
//! cargo run --example smartcard_boot
//! ```

use hierbus::core::Tlm1Bus;
use hierbus::ec::Address;
use hierbus::power::{CharacterizationDb, Layer1EnergyModel};
use hierbus::soc::{CpuSystem, Platform, PlatformMap, Program, Reg};

/// Table of words the boot code copies and checksums.
const TABLE: [u32; 8] = [
    0x1111_0001,
    0x2222_0002,
    0x3333_0003,
    0x4444_0004,
    0x5555_0005,
    0x6666_0006,
    0x7777_0007,
    0x8888_0008,
];
const TABLE_ROM: u32 = PlatformMap::ROM_BASE + 0x1000;
const TABLE_RAM: u32 = PlatformMap::RAM_BASE + 0x100;

fn boot_program() -> Vec<u32> {
    let mut p = Program::new(PlatformMap::RESET_PC);
    // Copy loop: T0 = src, T1 = dst, T2 = count.
    p.li(Reg::T0, TABLE_ROM);
    p.li(Reg::T1, TABLE_RAM);
    p.li(Reg::T2, TABLE.len() as u32);
    p.label("copy");
    p.lw(Reg::T3, Reg::T0, 0);
    p.sw(Reg::T3, Reg::T1, 0);
    p.addiu(Reg::T0, Reg::T0, 4);
    p.addiu(Reg::T1, Reg::T1, 4);
    p.addiu(Reg::T2, Reg::T2, -1);
    p.bne(Reg::T2, Reg::ZERO, "copy");
    // Checksum loop over the RAM copy: T4 = xor accumulator.
    p.li(Reg::T1, TABLE_RAM);
    p.li(Reg::T2, TABLE.len() as u32);
    p.li(Reg::T4, 0);
    p.label("sum");
    p.lw(Reg::T3, Reg::T1, 0);
    p.xor(Reg::T4, Reg::T4, Reg::T3);
    p.addiu(Reg::T1, Reg::T1, 4);
    p.addiu(Reg::T2, Reg::T2, -1);
    p.bne(Reg::T2, Reg::ZERO, "sum");
    // Start timer 0 as a 1000-cycle watchdog (auto-reload).
    p.li(Reg::T0, PlatformMap::TIMER_BASE);
    p.li(Reg::T1, 1000);
    p.sw(Reg::T1, Reg::T0, 0x4); // count
    p.sw(Reg::T1, Reg::T0, 0x8); // reload
    p.li(Reg::T1, 0b11); // enable | auto-reload
    p.sw(Reg::T1, Reg::T0, 0x0);
    // Transmit the checksum's four bytes over the UART.
    p.li(Reg::T0, PlatformMap::UART_BASE);
    p.li(Reg::T1, 4); // fast baud for the demo
    p.sw(Reg::T1, Reg::T0, 0x8);
    for shift in [0u8, 8, 16, 24] {
        p.srl(Reg::T3, Reg::T4, shift);
        p.andi(Reg::T3, Reg::T3, 0xFF);
        p.sw(Reg::T3, Reg::T0, 0x0);
    }
    // Drain: poll STATUS until TX idle.
    p.label("drain");
    p.lw(Reg::T3, Reg::T0, 0x4);
    p.andi(Reg::T3, Reg::T3, 0x1);
    p.bne(Reg::T3, Reg::ZERO, "drain");
    p.halt();
    p.assemble().expect("boot program assembles")
}

fn main() {
    let expected: u32 = TABLE.iter().fold(0, |a, w| a ^ w);

    let mut platform = Platform::new();
    platform.load_boot_program(&boot_program());
    platform.rom.load(Address::new(TABLE_ROM as u64), &TABLE);
    let mut bus = platform.into_tlm1();
    bus.enable_frames();
    bus.enable_obs();

    let mut sys = CpuSystem::new(bus, PlatformMap::RESET_PC);
    let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
    model.enable_trace();

    let report = sys.run_until_halt(1_000_000, |bus: &mut Tlm1Bus| {
        model.on_frame(bus.last_frame());
    });

    assert!(
        report.fault.is_none(),
        "boot must not fault: {:?}",
        report.fault
    );
    assert_eq!(sys.core().reg(Reg::T4), expected, "checksum must match");

    println!("boot completed:");
    println!(
        "  {} instructions, {} cycles (CPI {:.2})",
        report.instructions,
        report.cycles,
        report.cpi()
    );
    println!("  checksum 0x{expected:08x} verified");
    println!("  bus energy estimate: {:.0} pJ", model.total_energy());

    // Peripheral cross-checks.
    let trace = model.trace().expect("trace enabled");
    let busiest = trace
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty trace");
    println!("  busiest bus cycle: {} at {:.1} pJ", busiest.0, busiest.1);

    // Component energy — the paper's announced extension: the UART's
    // transmitted bytes and the running timer show up as dynamic energy.
    let components = hierbus::soc::platform_component_energy(sys.bus(), report.cycles);
    println!("\n{components}");

    // Observability artifacts: every bus transaction of the boot as
    // Perfetto spans with a cumulative energy counter track, plus a
    // metrics CSV covering the run and the peripherals.
    let mut obs = sys.bus().obs().clone();
    let mut total = 0.0;
    for (cycle, e) in trace.iter().enumerate() {
        total += e;
        obs.counter_sample("energy_pj", cycle as u64, total);
    }
    let mut reg = hierbus::obs::MetricsRegistry::new();
    let instructions = reg.counter("boot.instructions");
    reg.add(instructions, report.instructions);
    let cycles = reg.counter("boot.cycles");
    reg.add(cycles, report.cycles);
    hierbus::soc::export_platform_metrics(sys.bus(), &mut reg);

    let dir = hierbus::observe::default_dir();
    std::fs::create_dir_all(&dir).expect("create results/obs");
    let trace_path = dir.join("smartcard_boot.trace.json");
    hierbus::obs::perfetto::save(&trace_path, std::slice::from_ref(&obs))
        .expect("write boot trace");
    let snapshot = reg.snapshot();
    let csv_path = dir.join("smartcard_boot.metrics.csv");
    hierbus::obs::save_csv(&csv_path, &snapshot).expect("write boot metrics");
    let prom_path = dir.join("smartcard_boot.metrics.prom");
    std::fs::write(&prom_path, hierbus::obs::prometheus_text(&snapshot))
        .expect("write boot exposition");
    println!("\nObservability artifacts:");
    println!("  {} ({} spans)", trace_path.display(), obs.span_count());
    println!("  {}", csv_path.display());
    println!("  {}", prom_path.display());
}
