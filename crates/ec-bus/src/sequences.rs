//! Verification and workload sequences.
//!
//! §4.1 of the paper verifies the models against *"transaction examples
//! defined in the EC interface specification: single read and write with
//! and without wait states, back-to-back reads, back-to-back writes, read
//! followed by write and write followed by read with reordering, and at
//! least burst read and writes"*. This module encodes that suite as data
//! every model can replay, plus the random mixed-traffic generator used
//! for the simulation-performance measurements (§4.2: *"all combinations
//! between single read, single write, burst read, and burst write
//! transactions"*).

use crate::addr::Address;
use crate::merge::DataWidth;
use crate::slave::WaitProfile;
use crate::txn::{AccessKind, BurstLen};
use hierbus_sim::SplitMix64;
use std::fmt;

/// One master-side stimulus: wait `idle_before` cycles after the previous
/// op has been *issued*, then start this transaction.
///
/// `idle_before = 0` requests back-to-back issue (the next transaction's
/// address phase as early as the protocol allows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterOp {
    /// Idle cycles inserted before issuing.
    pub idle_before: u32,
    /// Fetch, load or store.
    pub kind: AccessKind,
    /// Start address.
    pub addr: Address,
    /// Beat width.
    pub width: DataWidth,
    /// Beat count.
    pub burst: BurstLen,
    /// Write payload (one word per beat); empty for reads. Shared for
    /// the same reason as [`Scenario::ops`]: issuing a transaction
    /// hands the payload to the bus as a reference-count bump instead
    /// of an allocation per write.
    pub data: std::sync::Arc<[u32]>,
}

impl MasterOp {
    /// A single-beat word read at `addr`.
    pub fn read(addr: u64) -> Self {
        MasterOp {
            idle_before: 0,
            kind: AccessKind::DataRead,
            addr: Address::new(addr),
            width: DataWidth::W32,
            burst: BurstLen::Single,
            data: Vec::new().into(),
        }
    }

    /// A single-beat word write of `value` at `addr`.
    pub fn write(addr: u64, value: u32) -> Self {
        MasterOp {
            idle_before: 0,
            kind: AccessKind::DataWrite,
            addr: Address::new(addr),
            width: DataWidth::W32,
            burst: BurstLen::Single,
            data: vec![value].into(),
        }
    }

    /// An instruction fetch at `addr` (single or burst).
    pub fn fetch(addr: u64, burst: BurstLen) -> Self {
        MasterOp {
            idle_before: 0,
            kind: AccessKind::InstrFetch,
            addr: Address::new(addr),
            width: DataWidth::W32,
            burst,
            data: Vec::new().into(),
        }
    }

    /// A burst read of `burst` beats at `addr`.
    pub fn burst_read(addr: u64, burst: BurstLen) -> Self {
        MasterOp {
            burst,
            ..MasterOp::read(addr)
        }
    }

    /// A burst write at `addr` with the given beat payloads.
    ///
    /// # Panics
    ///
    /// Panics if `data` length is not a legal burst beat count (1/2/4/8).
    pub fn burst_write(addr: u64, data: Vec<u32>) -> Self {
        let burst = match data.len() {
            1 => BurstLen::Single,
            2 => BurstLen::B2,
            4 => BurstLen::B4,
            8 => BurstLen::B8,
            n => panic!("no burst length with {n} beats"),
        };
        MasterOp {
            idle_before: 0,
            kind: AccessKind::DataWrite,
            addr: Address::new(addr),
            width: DataWidth::W32,
            burst,
            data: data.into(),
        }
    }

    /// Returns this op with `idle` idle cycles before issue.
    pub fn after_idle(mut self, idle: u32) -> Self {
        self.idle_before = idle;
        self
    }
}

/// A named stimulus sequence plus the wait-state profile the target test
/// slave must be configured with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Short identifier, e.g. `"single_read_wait"`.
    pub name: &'static str,
    /// The stimuli, in issue order. Shared so that handing a scenario
    /// to a system is a reference-count bump, not a deep copy — perf
    /// arms and campaign workers re-run the same scenario thousands of
    /// times and the per-run clone/drop of the op list (with its burst
    /// data vectors) used to dominate setup cost.
    pub ops: std::sync::Arc<[MasterOp]>,
    /// Wait states the test slave inserts.
    pub waits: WaitProfile,
}

impl Scenario {
    /// Total data beats across all ops (useful for throughput accounting).
    pub fn total_beats(&self) -> u64 {
        self.ops.iter().map(|op| op.burst.beats() as u64).sum()
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the scenario has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} txns, waits {})",
            self.name,
            self.ops.len(),
            self.waits
        )
    }
}

/// Base address the canned scenarios target (inside the test slave's
/// window).
pub const SCENARIO_BASE: u64 = 0x100;

/// The full §4.1 verification suite.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        single_read(false),
        single_read(true),
        single_write(false),
        single_write(true),
        back_to_back_reads(),
        back_to_back_writes(),
        write_after_read(),
        read_after_write_reordered(),
        burst_reads(),
        burst_writes(),
    ]
}

/// The subset used to characterize the energy models (disjoint use from
/// evaluation is the caller's responsibility; see `hierbus-power`).
pub fn training_scenarios() -> Vec<Scenario> {
    vec![
        single_read(false),
        single_write(true),
        back_to_back_reads(),
        burst_writes(),
    ]
}

/// Single word read; `wait` selects a slave with one address and two read
/// wait states.
pub fn single_read(wait: bool) -> Scenario {
    Scenario {
        name: if wait {
            "single_read_wait"
        } else {
            "single_read"
        },
        ops: vec![MasterOp::read(SCENARIO_BASE)].into(),
        waits: if wait {
            WaitProfile::new(1, 2, 2)
        } else {
            WaitProfile::ZERO
        },
    }
}

/// Single word write; `wait` selects a slave with one address and three
/// write wait states.
pub fn single_write(wait: bool) -> Scenario {
    Scenario {
        name: if wait {
            "single_write_wait"
        } else {
            "single_write"
        },
        ops: vec![MasterOp::write(SCENARIO_BASE, 0xCAFE_F00D)].into(),
        waits: if wait {
            WaitProfile::new(1, 0, 3)
        } else {
            WaitProfile::ZERO
        },
    }
}

/// Four reads issued back to back at consecutive word addresses.
pub fn back_to_back_reads() -> Scenario {
    Scenario {
        name: "back_to_back_reads",
        ops: (0..4)
            .map(|i| MasterOp::read(SCENARIO_BASE + 4 * i))
            .collect(),
        waits: WaitProfile::ZERO,
    }
}

/// Four writes issued back to back at consecutive word addresses.
pub fn back_to_back_writes() -> Scenario {
    Scenario {
        name: "back_to_back_writes",
        ops: (0..4)
            .map(|i| MasterOp::write(SCENARIO_BASE + 4 * i, 0x1111_1111 * (i as u32 + 1)))
            .collect(),
        waits: WaitProfile::ZERO,
    }
}

/// A read immediately followed by a write to a different word.
pub fn write_after_read() -> Scenario {
    Scenario {
        name: "write_after_read",
        ops: vec![
            MasterOp::read(SCENARIO_BASE),
            MasterOp::write(SCENARIO_BASE + 0x20, 0xAA55_AA55),
        ]
        .into(),
        waits: WaitProfile::new(0, 2, 0),
    }
}

/// A slow write followed by a fast read: with independent read/write data
/// buses the read completes first — the reordering case of the spec.
pub fn read_after_write_reordered() -> Scenario {
    Scenario {
        name: "read_after_write_reordered",
        ops: vec![
            MasterOp::write(SCENARIO_BASE + 0x40, 0xDEAD_BEEF),
            MasterOp::read(SCENARIO_BASE),
        ]
        .into(),
        waits: WaitProfile::new(0, 0, 4),
    }
}

/// A 4-beat and an 8-beat burst read.
pub fn burst_reads() -> Scenario {
    Scenario {
        name: "burst_reads",
        ops: vec![
            MasterOp::burst_read(SCENARIO_BASE, BurstLen::B4),
            MasterOp::burst_read(SCENARIO_BASE + 0x40, BurstLen::B8).after_idle(1),
        ]
        .into(),
        waits: WaitProfile::new(0, 1, 1),
    }
}

/// A 4-beat and a 2-beat burst write.
pub fn burst_writes() -> Scenario {
    Scenario {
        name: "burst_writes",
        ops: vec![
            MasterOp::burst_write(
                SCENARIO_BASE,
                vec![0x0101_0101, 0x0202_0202, 0x0404_0404, 0x0808_0808],
            ),
            MasterOp::burst_write(SCENARIO_BASE + 0x40, vec![0xF0F0_F0F0, 0x0F0F_0F0F])
                .after_idle(1),
        ]
        .into(),
        waits: WaitProfile::new(1, 0, 1),
    }
}

/// The statistical shape of write payloads in a generated mix.
///
/// Characterization stimulus traditionally uses uniform-random data;
/// real smart-card traffic (stack values, pointers, counters, padded
/// buffers) has far lower switching activity. The gap between the two is
/// one of the drivers of the layer-2 energy model's overestimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataProfile {
    /// Uniform-random 32-bit words (synthetic characterization traffic).
    #[default]
    Random,
    /// Small integers and repeated bytes with occasional random words —
    /// the correlated data of real workloads.
    SmallValues,
}

/// Generation parameters for [`random_mix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixParams {
    /// Number of transactions.
    pub count: usize,
    /// First byte of the target window.
    pub base: u64,
    /// Window size in bytes (must hold the largest burst).
    pub window: u64,
    /// Percentage (0..=100) of ops that are reads.
    pub read_pct: u32,
    /// Percentage (0..=100) of ops that are bursts.
    pub burst_pct: u32,
    /// Maximum idle cycles inserted between ops.
    pub max_idle: u32,
    /// Percentage (0..=100) of reads that are instruction fetches.
    pub fetch_pct: u32,
    /// Address locality: percentage (0..=100) of ops addressed
    /// sequentially after the previous op rather than at random. High
    /// locality is what makes layer-2's correlation-blind energy estimate
    /// pessimistic.
    pub sequential_pct: u32,
    /// Statistical shape of write payloads.
    pub data_profile: DataProfile,
}

impl Default for MixParams {
    fn default() -> Self {
        MixParams {
            count: 1000,
            base: 0,
            window: 0x1_0000,
            read_pct: 60,
            burst_pct: 30,
            max_idle: 2,
            fetch_pct: 40,
            sequential_pct: 70,
            data_profile: DataProfile::Random,
        }
    }
}

/// The slave wait states every [`random_mix`] scenario carries.
pub const MIX_WAITS: WaitProfile = WaitProfile::new(0, 1, 1);

/// Deterministic random mixed traffic: all combinations of single/burst
/// reads/writes and fetches, with tunable locality.
pub fn random_mix(seed: u64, params: MixParams) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::with_capacity(params.count);
    let mut next_seq_addr = params.base;
    let window_words = (params.window / 4).max(16);
    for _ in 0..params.count {
        let is_read = rng.chance(params.read_pct);
        let is_burst = rng.chance(params.burst_pct);
        let burst = if is_burst {
            match rng.range_u32(0, 3) {
                0 => BurstLen::B2,
                1 => BurstLen::B4,
                _ => BurstLen::B8,
            }
        } else {
            BurstLen::Single
        };
        let sequential = rng.chance(params.sequential_pct);
        let addr = if sequential {
            next_seq_addr
        } else {
            params.base + 4 * rng.range_u64(0, window_words - 8)
        };
        // Keep the whole burst inside the window.
        let span = 4 * burst.beats() as u64;
        let addr = addr.min(params.base + params.window - span) & !0x3;
        next_seq_addr = if addr + span >= params.base + params.window - 32 {
            params.base
        } else {
            addr + span
        };

        let kind = if is_read {
            if rng.chance(params.fetch_pct) {
                AccessKind::InstrFetch
            } else {
                AccessKind::DataRead
            }
        } else {
            AccessKind::DataWrite
        };
        let data = if kind == AccessKind::DataWrite {
            (0..burst.beats())
                .map(|_| match params.data_profile {
                    DataProfile::Random => rng.next_u32(),
                    DataProfile::SmallValues => match rng.range_u32(0, 10) {
                        0 => rng.next_u32(),
                        1..=4 => rng.range_u32(0, 0x100),
                        5..=7 => rng.range_u32(0, 0x1_0000),
                        _ => 0,
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        ops.push(MasterOp {
            idle_before: rng.range_u32(0, params.max_idle + 1),
            kind,
            addr: Address::new(addr),
            width: DataWidth::W32,
            burst,
            data: data.into(),
        });
    }
    Scenario {
        name: "random_mix",
        ops: ops.into(),
        waits: MIX_WAITS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_the_spec_examples() {
        let names: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
        for expected in [
            "single_read",
            "single_read_wait",
            "single_write",
            "single_write_wait",
            "back_to_back_reads",
            "back_to_back_writes",
            "write_after_read",
            "read_after_write_reordered",
            "burst_reads",
            "burst_writes",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
    }

    #[test]
    fn training_is_a_strict_subset() {
        let all: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
        let training = training_scenarios();
        assert!(training.len() < all.len());
        for s in training {
            assert!(all.contains(&s.name));
        }
    }

    #[test]
    fn write_ops_carry_payloads_reads_do_not() {
        for s in all_scenarios() {
            for op in s.ops.iter() {
                if op.kind == AccessKind::DataWrite {
                    assert_eq!(op.data.len(), op.burst.beats() as usize, "{}", s.name);
                } else {
                    assert!(op.data.is_empty(), "{}", s.name);
                }
            }
        }
    }

    #[test]
    fn scenario_beat_accounting() {
        let s = burst_reads();
        assert_eq!(s.total_beats(), 12);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn random_mix_is_deterministic_per_seed() {
        let p = MixParams {
            count: 50,
            ..MixParams::default()
        };
        let a = random_mix(7, p);
        let b = random_mix(7, p);
        let c = random_mix(8, p);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn random_mix_stays_in_window_and_aligned() {
        let p = MixParams {
            count: 500,
            base: 0x1000,
            window: 0x2000,
            ..MixParams::default()
        };
        for op in random_mix(42, p).ops.iter() {
            let span = 4 * op.burst.beats() as u64;
            assert!(op.addr.raw() >= p.base);
            assert!(op.addr.raw() + span <= p.base + p.window);
            assert!(op.addr.is_aligned(4));
        }
    }

    #[test]
    #[should_panic(expected = "no burst length")]
    fn burst_write_rejects_odd_beat_counts() {
        let _ = MasterOp::burst_write(0, vec![1, 2, 3]);
    }
}
