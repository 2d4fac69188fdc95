//! The interrupt system (Fig. 1): peripherals raise level-sensitive
//! lines, the bus aggregates them into a mask, and software observes and
//! acknowledges them over the bus.

use hierbus::core::{CycleBus, SlaveReply, Tlm1Bus};
use hierbus::ec::Address;
use hierbus::rtl::RtlBus;
use hierbus::soc::{timer, CpuSystem, Platform, PlatformMap, Program, Reg};

/// Runs a program on `bus` to its halt; returns every interrupt line the
/// bus raised along the way and its mask after the halt.
fn irq_lines<B: CycleBus>(bus: B, irq_mask: fn(&B) -> u64) -> (u64, u64) {
    let mut sys = CpuSystem::new(bus, PlatformMap::RESET_PC);
    let mut mask_bits = 0u64;
    for _ in 0..10_000 {
        if sys.core().is_halted() {
            break;
        }
        sys.step_cycle(&mut |bus: &mut B| mask_bits |= irq_mask(bus));
    }
    assert!(sys.core().is_halted(), "runaway");
    assert_ne!(mask_bits, 0, "no interrupt line ever asserted");
    (mask_bits, irq_mask(sys.bus()))
}

#[test]
fn timer_expiry_raises_and_ack_clears_the_line() {
    // Start a 20-cycle one-shot timer, spin until its expiry flag reads
    // set, acknowledge it, halt.
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::TIMER_BASE);
    p.li(Reg::T1, 20);
    p.sw(Reg::T1, Reg::T0, 0x4);
    p.li(Reg::T1, timer::ctrl::ENABLE);
    p.sw(Reg::T1, Reg::T0, 0x0);
    p.label("wait");
    p.lw(Reg::T2, Reg::T0, 0xC);
    p.beq(Reg::T2, Reg::ZERO, "wait");
    // Leave the flag set for a few cycles so the test can observe the
    // line, then acknowledge.
    p.li(Reg::T1, 1);
    p.sw(Reg::T1, Reg::T0, 0xC);
    p.nop();
    p.halt();
    let words = p.assemble().unwrap();
    let platform = || {
        let mut platform = Platform::new();
        platform.load_boot_program(&words);
        platform
    };

    // Layer 1 and the reference raise the same line.
    for (mask_bits, after_ack) in [
        irq_lines(platform().into_tlm1(), Tlm1Bus::irq_mask),
        irq_lines(platform().into_rtl(), RtlBus::irq_mask),
    ] {
        assert_eq!(
            mask_bits,
            1 << PlatformMap::TIMER.0,
            "only the timer's line should assert"
        );
        // After the acknowledge, the line is low again.
        assert_eq!(after_ack, 0);
    }
}

#[test]
fn uart_rx_line_follows_fifo_state() {
    // Software polls the UART and drains one received byte.
    let mut p = Program::new(PlatformMap::RESET_PC);
    p.li(Reg::T0, PlatformMap::UART_BASE);
    p.label("wait");
    p.lw(Reg::T1, Reg::T0, 0x4);
    p.andi(Reg::T1, Reg::T1, 0x2); // RX_READY
    p.beq(Reg::T1, Reg::ZERO, "wait");
    p.lw(Reg::T2, Reg::T0, 0x0); // drain the byte
    p.halt();
    let words = p.assemble().unwrap();

    let mut platform = Platform::new();
    platform.uart.receive(0x42);
    platform.load_boot_program(&words);
    let mut sys = CpuSystem::new(platform.into_tlm1(), PlatformMap::RESET_PC);

    let mut saw_uart_line = false;
    while !sys.core().is_halted() {
        sys.step_cycle(&mut |bus: &mut Tlm1Bus| {
            if bus.irq_mask() & (1 << PlatformMap::UART.0) != 0 {
                saw_uart_line = true;
            }
        });
    }
    assert!(saw_uart_line);
    assert_eq!(sys.core().reg(Reg::T2), 0x42);
    assert_eq!(sys.bus().irq_mask(), 0, "line drops once the fifo drains");
}

#[test]
fn crypto_done_line_asserts_until_restart() {
    use hierbus::soc::crypto;
    let platform = Platform::new();
    let mut bus = platform.into_tlm1();
    // Drive the coprocessor directly through the slave interface.
    let base = PlatformMap::CRYPTO_BASE as u64;
    {
        let c = bus.slave_mut(PlatformMap::CRYPTO);
        c.write_word(Address::new(base), crypto::ctrl::START_ENC, 0b1111);
        c.tick(100); // block latency elapses
    }
    {
        let c = bus.slave_mut(PlatformMap::CRYPTO);
        assert!(c.irq(), "done flag must assert the line");
        // Restarting clears done (and the line) while busy.
        assert_eq!(
            c.write_word(Address::new(base), crypto::ctrl::START_ENC, 0b1111),
            SlaveReply::Ok(())
        );
        assert!(!c.irq());
    }
}
