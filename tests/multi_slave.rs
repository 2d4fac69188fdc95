//! Multi-slave equivalence: traffic spanning several slaves with
//! *different* wait-state profiles and rights must behave identically on
//! the RTL reference and the layer-1 bus, and within bounds on layer 2.

use hierbus::core::{MemSlave, Tlm1Bus, Tlm2Bus, TlmSystem};
use hierbus::ec::record::first_divergence;
use hierbus::ec::sequences::MasterOp;
use hierbus::ec::{
    AccessKind, AccessRights, Address, AddressRange, BurstLen, DataWidth, SlaveConfig, WaitProfile,
};
use hierbus::rtl::{GlitchConfig, PowerConfig, RtlBus};
use hierbus::sim::SplitMix64;

/// Four windows with very different personalities.
fn slave_configs() -> Vec<SlaveConfig> {
    vec![
        // Fast RAM.
        SlaveConfig::new(
            AddressRange::new(Address::new(0x0000), 0x4000),
            WaitProfile::ZERO,
            AccessRights::RWX,
        ),
        // Slow EEPROM-ish: slow writes.
        SlaveConfig::new(
            AddressRange::new(Address::new(0x4000), 0x4000),
            WaitProfile::new(0, 1, 8),
            AccessRights::RW,
        ),
        // ROM: no writes at all.
        SlaveConfig::new(
            AddressRange::new(Address::new(0x8000), 0x4000),
            WaitProfile::new(1, 1, 0),
            AccessRights::RX,
        ),
        // Pokey peripheral window.
        SlaveConfig::new(
            AddressRange::new(Address::new(0xC000), 0x4000),
            WaitProfile::new(2, 3, 3),
            AccessRights::RW,
        ),
    ]
}

/// Mixed traffic across all four windows, avoiding rights violations
/// (and adding a couple of deliberate ones at the end).
fn traffic(seed: u64, count: usize) -> Vec<MasterOp> {
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::new();
    for _ in 0..count {
        let window = rng.range_u64(0, 4);
        let base = window * 0x4000;
        let addr = base + 4 * rng.range_u64(0, 0x400);
        let op = match window {
            2 => {
                // ROM: reads and fetches only.
                if rng.bool(0.5) {
                    MasterOp::fetch(addr, BurstLen::B4)
                } else {
                    MasterOp::read(addr)
                }
            }
            _ => {
                if rng.bool(0.5) {
                    MasterOp::read(addr)
                } else {
                    MasterOp::write(addr, rng.next_u32())
                }
            }
        };
        ops.push(op.after_idle(rng.range_u32(0, 3)));
    }
    // Deliberate violations: write to ROM, fetch from the peripheral.
    ops.push(MasterOp::write(0x8000, 0xBAD).after_idle(30));
    ops.push(MasterOp::fetch(0xC000, BurstLen::Single).after_idle(30));
    ops
}

fn run_rtl(ops: Vec<MasterOp>) -> hierbus::core::TlmReport {
    let bus = RtlBus::new(tlm_slaves(), PowerConfig::default(), GlitchConfig::off());
    TlmSystem::new(bus, ops).run(10_000_000, |_| {})
}

fn tlm_slaves() -> Vec<Box<dyn hierbus::core::TlmSlave>> {
    slave_configs()
        .into_iter()
        .map(|c| Box::new(MemSlave::new(c)) as Box<dyn hierbus::core::TlmSlave>)
        .collect()
}

#[test]
fn layer1_is_cycle_exact_across_heterogeneous_slaves() {
    for seed in 0..4 {
        let ops = traffic(seed, 250);
        let rtl = run_rtl(ops.clone());
        let mut sys = TlmSystem::new(Tlm1Bus::new(tlm_slaves()), ops);
        let l1 = sys.run(10_000_000, |_| {});
        assert_eq!(rtl.cycles, l1.cycles, "seed {seed}");
        if let Some((i, r, c)) = first_divergence(&rtl.records, &l1.records) {
            panic!("seed {seed}: record {i} diverges\n  rtl: {r:?}\n  tlm1: {c:?}");
        }
    }
}

#[test]
fn layer2_stays_pessimistic_and_bounded_across_slaves() {
    for seed in 0..4 {
        let ops = traffic(seed, 250);
        let n = ops.len() as u64;
        let rtl = run_rtl(ops.clone());
        let mut sys = TlmSystem::new(Tlm2Bus::new(tlm_slaves()), ops);
        let l2 = sys.run(10_000_000, |_| {});
        assert!(l2.cycles >= rtl.cycles, "seed {seed}");
        assert!(l2.cycles <= rtl.cycles + n, "seed {seed}");
    }
}

#[test]
fn rights_violations_error_identically() {
    let ops = vec![
        MasterOp::write(0x8000, 1),                               // ROM write
        MasterOp::fetch(0xC000, BurstLen::Single).after_idle(20), // periph fetch
        MasterOp {
            idle_before: 20,
            kind: AccessKind::DataRead,
            addr: Address::new(0x1_0000), // unmapped
            width: DataWidth::W32,
            burst: BurstLen::Single,
            data: Vec::new().into(),
        },
    ];
    let rtl = run_rtl(ops.clone());
    let mut sys = TlmSystem::new(Tlm1Bus::new(tlm_slaves()), ops.clone());
    let l1 = sys.run(100_000, |_| {});
    let mut sys = TlmSystem::new(Tlm2Bus::new(tlm_slaves()), ops);
    let l2 = sys.run(100_000, |_| {});
    for (i, records) in [&rtl.records, &l1.records, &l2.records].iter().enumerate() {
        assert!(
            matches!(
                records[0].error,
                Some(hierbus::ec::BusError::AccessViolation(..))
            ),
            "model {i}: {:?}",
            records[0].error
        );
        assert!(
            matches!(
                records[1].error,
                Some(hierbus::ec::BusError::AccessViolation(..))
            ),
            "model {i}"
        );
        assert!(
            matches!(records[2].error, Some(hierbus::ec::BusError::Decode(_))),
            "model {i}"
        );
    }
}

#[test]
fn per_slave_wait_profiles_shape_latency() {
    // The same single read against each window; latency must follow the
    // window's profile on every model.
    let mut expected = Vec::new();
    for (i, cfg) in slave_configs().iter().enumerate() {
        let addr = (i as u64) * 0x4000;
        let ops = vec![MasterOp::read(addr)];
        let rtl = run_rtl(ops.clone());
        let lat = rtl.records[0].latency().unwrap();
        // addr waits + read waits + 1 completion cycle.
        assert_eq!(
            lat,
            (cfg.waits.address + cfg.waits.read + 1) as u64,
            "window {i}"
        );
        expected.push(lat);
    }
    // Fast RAM 1, EEPROM 2, ROM 3, peripheral 6.
    assert_eq!(expected, vec![1, 2, 3, 6]);
}
