//! Cross-model equivalence: the layer-1 TLM bus must be cycle-exact
//! against the RTL reference (Table 1's 0% row), and the layer-2 model
//! must stay within a small pessimistic margin.

use hierbus_core::{MemSlave, Tlm1Bus, Tlm2Bus, TlmSystem};
use hierbus_ec::record::first_divergence;
use hierbus_ec::sequences::{self, MixParams, Scenario};
use hierbus_ec::{AccessRights, Address, AddressRange, SlaveConfig};
use hierbus_rtl::{GlitchConfig, PowerConfig, RtlBus};

fn slave_config(scenario: &Scenario) -> SlaveConfig {
    SlaveConfig::new(
        AddressRange::new(Address::new(0), 0x2_0000),
        scenario.waits,
        AccessRights::RWX,
    )
}

fn rtl_bus(scenario: &Scenario) -> RtlBus {
    let mem = MemSlave::new(slave_config(scenario));
    RtlBus::new(
        vec![Box::new(mem)],
        PowerConfig::default(),
        GlitchConfig::off(),
    )
}

fn run_rtl(scenario: &Scenario) -> hierbus_core::TlmReport {
    let mut sys = TlmSystem::new(rtl_bus(scenario), scenario.ops.clone());
    sys.run(5_000_000, |_| {})
}

fn run_tlm1(scenario: &Scenario) -> hierbus_core::TlmReport {
    let mem = MemSlave::new(slave_config(scenario));
    let mut sys = TlmSystem::new(Tlm1Bus::new(vec![Box::new(mem)]), scenario.ops.clone());
    sys.run(5_000_000, |_| {})
}

fn run_tlm2(scenario: &Scenario) -> hierbus_core::TlmReport {
    let mem = MemSlave::new(slave_config(scenario));
    let mut sys = TlmSystem::new(Tlm2Bus::new(vec![Box::new(mem)]), scenario.ops.clone());
    sys.run(5_000_000, |_| {})
}

#[test]
fn layer1_is_cycle_exact_on_the_verification_suite() {
    for scenario in sequences::all_scenarios() {
        let rtl = run_rtl(&scenario);
        let tlm = run_tlm1(&scenario);
        assert_eq!(rtl.cycles, tlm.cycles, "{}", scenario.name);
        if let Some((i, r, c)) = first_divergence(&rtl.records, &tlm.records) {
            panic!(
                "{}: record {i} diverges\n  rtl: {r:?}\n  tlm1: {c:?}",
                scenario.name
            );
        }
    }
}

#[test]
fn layer1_is_cycle_exact_on_random_mixes() {
    for seed in 0..5 {
        let scenario = sequences::random_mix(
            seed,
            MixParams {
                count: 400,
                ..MixParams::default()
            },
        );
        let rtl = run_rtl(&scenario);
        let tlm = run_tlm1(&scenario);
        assert_eq!(rtl.cycles, tlm.cycles, "seed {seed}");
        if let Some((i, r, c)) = first_divergence(&rtl.records, &tlm.records) {
            panic!("seed {seed}: record {i} diverges\n  rtl: {r:?}\n  tlm1: {c:?}");
        }
    }
}

#[test]
fn layer2_timing_error_is_small_and_pessimistic() {
    let mut total_rtl = 0u64;
    let mut total_l2 = 0u64;
    for scenario in sequences::all_scenarios() {
        let rtl = run_rtl(&scenario);
        let l2 = run_tlm2(&scenario);
        assert!(
            l2.cycles >= rtl.cycles,
            "{}: layer 2 optimistic ({} < {})",
            scenario.name,
            l2.cycles,
            rtl.cycles
        );
        total_rtl += rtl.cycles;
        total_l2 += l2.cycles;
    }
    let error = (total_l2 as f64 - total_rtl as f64) / total_rtl as f64;
    assert!(
        error < 0.10,
        "layer-2 suite timing error {:.2}% too large",
        error * 100.0
    );
}

#[test]
fn layer2_matches_architectural_results() {
    for seed in [11, 12] {
        let scenario = sequences::random_mix(
            seed,
            MixParams {
                count: 300,
                ..MixParams::default()
            },
        );
        let l1 = run_tlm1(&scenario);
        let l2 = run_tlm2(&scenario);
        assert_eq!(l1.records.len(), l2.records.len());
        for (a, b) in l1.records.iter().zip(&l2.records) {
            assert_eq!(a.data, b.data, "data mismatch on {}", a.id);
            assert_eq!(a.error, b.error, "error mismatch on {}", a.id);
        }
    }
}

#[test]
fn layer1_frames_match_rtl_settled_wires_without_glitches() {
    for scenario in sequences::all_scenarios() {
        let mut bus = rtl_bus(&scenario);
        bus.enable_frame_log();
        let mut rtl = TlmSystem::new(bus, scenario.ops.clone());
        let rtl_report = rtl.run(100_000, |_| {});

        let mem = MemSlave::new(slave_config(&scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        let mut frames = Vec::new();
        sys.run(100_000, |b: &mut Tlm1Bus| frames.push(*b.last_frame()));

        let rtl_frames = rtl.bus().frames().expect("frame log enabled");
        // With frame emission on, the layer-1 bus process runs every
        // cycle (like the RTL), so the frame streams must be identical,
        // idle gaps and the trailing return-to-idle cycle included.
        assert_eq!(
            frames.len(),
            rtl_frames.len(),
            "{}: frame count (report: {} cycles)",
            scenario.name,
            rtl_report.cycles
        );
        for (i, (t, r)) in frames.iter().zip(rtl_frames.iter()).enumerate() {
            assert_eq!(t, r, "{}: frame {i} differs", scenario.name);
        }
    }
}
