//! Cross-model equivalence: the layer-1 TLM bus must be cycle-exact
//! against the RTL reference (Table 1's 0% row), and the layer-2 model
//! must stay within a small pessimistic margin.

use hierbus_core::{HasSlaves, MemSlave, SlaveReply, Tlm1Bus, Tlm2Bus, TlmSlave, TlmSystem};
use hierbus_ec::record::first_divergence;
use hierbus_ec::sequences::{self, MasterOp, MixParams, Scenario};
use hierbus_ec::{
    AccessRights, Address, AddressRange, BurstLen, BusError, DataWidth, FaultParams, FaultPlan,
    RetryPolicy, SlaveConfig, SlaveId, SplitMix64, WaitProfile,
};
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

/// Memory that answers `Wait` on every `every`-th word call and `Error`
/// on every call to the word at `bad`, so bursts stall and fail
/// mid-way on both data channels.
struct FlakyMem {
    mem: MemSlave,
    calls: u64,
    every: u64,
    bad: u64,
}

impl FlakyMem {
    /// The reply that preempts the memory on this call, if any.
    fn preempt<T>(&mut self, addr: Address) -> Option<SlaveReply<T>> {
        self.calls += 1;
        if self.calls.is_multiple_of(self.every) {
            Some(SlaveReply::Wait)
        } else {
            (addr.raw() & !0x3 == self.bad).then_some(SlaveReply::Error)
        }
    }
}

impl TlmSlave for FlakyMem {
    fn config(&self) -> SlaveConfig {
        self.mem.config()
    }
    fn wants_tick(&self) -> bool {
        false
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
    fn read_word(&mut self, addr: Address) -> SlaveReply<u32> {
        self.preempt(addr)
            .unwrap_or_else(|| self.mem.read_word(addr))
    }
    fn write_word(&mut self, addr: Address, data: u32, ben: u8) -> SlaveReply<()> {
        self.preempt(addr)
            .unwrap_or_else(|| self.mem.write_word(addr, data, ben))
    }
}

/// The words committed to a bus's [`FlakyMem`].
fn flaky_memory<B: HasSlaves>(bus: &B) -> Vec<(u64, u32)> {
    let flaky = bus.slave_as::<FlakyMem>(SlaveId(0));
    flaky.expect("the flaky memory").mem.snapshot()
}

/// A seeded burst-heavy mix over a 32-word window: word bursts of every
/// length (reads, fetches, writes) and sub-word reads and writes.
fn flaky_mix(seed: u64, count: usize) -> Vec<MasterOp> {
    let mut rng = SplitMix64::new(seed);
    let bursts = [BurstLen::Single, BurstLen::B2, BurstLen::B4, BurstLen::B8];
    (0..count)
        .map(|_| {
            let addr = 0x100 + 4 * rng.range_u64(0, 32);
            let burst = bursts[rng.range_u32(0, 4) as usize];
            let op = match rng.range_u32(0, 6) {
                0 => MasterOp::burst_read(addr, burst),
                1 => MasterOp::fetch(addr, burst),
                2 | 3 => {
                    let data = (0..burst.beats()).map(|_| rng.next_u32()).collect();
                    MasterOp::burst_write(addr, data)
                }
                kind => {
                    let (width, lane) = if rng.chance(50) {
                        (DataWidth::W8, rng.range_u64(0, 4))
                    } else {
                        (DataWidth::W16, 2 * rng.range_u64(0, 2))
                    };
                    let write = kind == 4 || rng.chance(50);
                    MasterOp {
                        width,
                        addr: Address::new(addr + lane),
                        ..if write {
                            MasterOp::write(addr, rng.next_u32())
                        } else {
                            MasterOp::read(addr)
                        }
                    }
                }
            };
            op.after_idle(rng.range_u32(0, 3))
        })
        .collect()
}

/// Layer 1 against the reference under slave `Wait` and `Error` replies
/// mid-burst on both data channels, sub-word lanes and injected stalls
/// and slave errors with retries: timing, records, outcomes, committed
/// memory and every settled frame agree cycle by cycle.
#[test]
fn layer1_matches_rtl_under_mid_burst_wait_and_error() {
    for seed in [0x5EED_0001, 0x5EED_0002, 0x5EED_0003] {
        let ops = flaky_mix(seed, 300);
        let plan = FaultPlan::random(seed, ops.len(), FaultParams::default());
        let flaky = || {
            let cfg = SlaveConfig::new(
                AddressRange::new(Address::new(0), 0x2_0000),
                WaitProfile::new(1, 1, 2),
                AccessRights::RWX,
            );
            Box::new(FlakyMem {
                mem: MemSlave::new(cfg),
                calls: 0,
                every: 7,
                bad: 0x100 + 4 * 13,
            })
        };

        let mut bus = RtlBus::new(vec![flaky()], PowerConfig::default(), GlitchConfig::off());
        bus.enable_frame_log();
        let mut rtl = TlmSystem::new(bus, ops.clone());
        rtl.set_master_faults(0, plan.clone(), RetryPolicy::retries(2));
        let rtl_report = rtl.run(5_000_000, |_| {});

        let mut bus = Tlm1Bus::new(vec![flaky()]);
        bus.enable_frames();
        let mut l1 = TlmSystem::new(bus, ops.clone());
        l1.set_master_faults(0, plan, RetryPolicy::retries(2));
        let mut frames = Vec::new();
        let l1_report = l1.run(5_000_000, |b: &mut Tlm1Bus| frames.push(*b.last_frame()));

        let tag = format!("seed {seed:#x}");
        // The run exercises what it claims to: mid-burst slave errors on
        // both channels and waits on both.
        let mid_burst_error = |read: bool| {
            rtl_report.records.iter().any(|r| {
                r.kind.is_read() == read
                    && matches!(r.error, Some(BusError::SlaveError(a)) if a.raw() & !3 != r.addr.raw() & !3)
            })
        };
        assert!(
            mid_burst_error(true) && mid_burst_error(false),
            "{tag}: no mid-burst error"
        );
        assert!(rtl_report.fault.injected > 0, "{tag}: no injected fault");

        assert_eq!(rtl_report.cycles, l1_report.cycles, "{tag}: cycles");
        if let Some((i, r, c)) = first_divergence(&rtl_report.records, &l1_report.records) {
            panic!("{tag}: record {i} diverges\n  rtl: {r:?}\n  tlm1: {c:?}");
        }
        assert_eq!(rtl_report.outcomes, l1_report.outcomes, "{tag}: outcomes");
        assert_eq!(
            flaky_memory(rtl.bus()),
            flaky_memory(l1.bus()),
            "{tag}: memory"
        );
        let rtl_frames = rtl.bus().frames().expect("frame log enabled");
        assert_eq!(frames.len(), rtl_frames.len(), "{tag}: frame count");
        for (i, (t, r)) in frames.iter().zip(rtl_frames).enumerate() {
            assert_eq!(t, r, "{tag}: frame {i} differs");
        }
    }
}
