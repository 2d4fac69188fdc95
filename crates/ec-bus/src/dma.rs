//! A DMA engine master: seeded, deterministic descriptor programs.
//!
//! The second bus master of the multi-master configuration. A DMA
//! controller executes a *descriptor program* — a finite list of block
//! transfers, each a burst read or burst write at a programmed address
//! with a programmed inter-descriptor gap. Descriptors compile to the
//! same [`MasterOp`] stimulus form the CPU replays, so every model
//! layer (RTL, layer 1, layer 2) reuses its existing master replay
//! machinery unchanged; only the arbiter decides who drives the bus.
//!
//! Programs are generated from a seed ([`DmaProgram::seeded`]) exactly
//! like [`sequences::random_mix`](crate::sequences::random_mix)
//! generates CPU traffic, so a `(seed, params)` pair names the same
//! program in every layer, campaign worker and serve session.
//!
//! DMA transactions draw their [`TxnId`](crate::TxnId)s from
//! [`DMA_ID_BASE`] upward, so any transaction id — and hence any span
//! trace id or phase event — is attributable to its master with a
//! single threshold compare ([`master_of_trace`]).

use crate::arbiter::ArbitrationPolicy;
use crate::prng::SplitMix64;
use crate::sequences::{MasterOp, Scenario};
use crate::txn::BurstLen;
use std::sync::Arc;

/// First transaction id of the DMA master. CPU ids count from 0; no
/// realistic stimulus reaches 2^32 transactions, so the ranges never
/// collide and `id >= DMA_ID_BASE` identifies DMA traffic. The 3-bit
/// wire tag (`id & 7`) is unaffected: `DMA_ID_BASE` is 8-aligned, so
/// the tag sequence on the bus is the same as a CPU master's.
pub const DMA_ID_BASE: u64 = 1 << 32;

/// Master names, indexed by master number (0 = CPU, 1 = DMA).
pub const MASTER_NAMES: [&str; 2] = ["cpu", "dma"];

/// The master a transaction id (equivalently: span trace id, phase
/// event trace id) belongs to — 0 for CPU, 1 for DMA.
fn master_index_of_trace(trace_id: u64) -> usize {
    usize::from(trace_id >= DMA_ID_BASE)
}

/// The stable name of the master owning `trace_id`.
pub fn master_of_trace(trace_id: u64) -> &'static str {
    MASTER_NAMES[master_index_of_trace(trace_id)]
}

/// Transfer direction of one descriptor, seen from memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDir {
    /// Burst read from memory (device-bound stream).
    FromMem,
    /// Burst write into memory (device-sourced stream).
    ToMem,
}

/// One DMA descriptor: a single burst transfer plus the idle gap the
/// engine waits before starting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Transfer direction.
    pub dir: DmaDir,
    /// Word-aligned start address.
    pub addr: u64,
    /// Beats in the burst.
    pub burst: BurstLen,
    /// Idle cycles before this descriptor issues.
    pub gap: u32,
    /// Write payload, one word per beat ([`DmaDir::ToMem`] only).
    pub data: Vec<u32>,
}

/// Generation parameters for a seeded descriptor program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaParams {
    /// Number of descriptors.
    pub descriptors: usize,
    /// Burst length of every transfer (the campaign axis).
    pub burst: BurstLen,
    /// Percentage of descriptors that read ([`DmaDir::FromMem`]).
    pub read_pct: u32,
    /// Gaps are drawn uniformly from `0..=max_gap`.
    pub max_gap: u32,
    /// Start of the DMA address window.
    pub base: u64,
    /// Window size in bytes. Kept disjoint from the CPU window by
    /// default so contention never makes final memory order-dependent.
    pub window: u64,
}

impl Default for DmaParams {
    fn default() -> Self {
        DmaParams {
            descriptors: 16,
            burst: BurstLen::B4,
            read_pct: 50,
            max_gap: 3,
            // The CPU mix defaults to [0, 0x1_0000); the DMA window
            // sits directly above it.
            base: 0x1_0000,
            window: 0x1_0000,
        }
    }
}

/// A compiled descriptor program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaProgram {
    /// The descriptors, in execution order.
    pub descriptors: Vec<DmaDescriptor>,
}

impl DmaProgram {
    /// Generates a deterministic program from `seed`. The same
    /// `(seed, params)` pair yields the same program everywhere.
    pub fn seeded(seed: u64, params: DmaParams) -> Self {
        let beats = u64::from(params.burst.beats());
        let window_words = params.window / 4;
        assert!(window_words >= beats, "DMA window smaller than one burst");
        let mut rng = SplitMix64::new(seed);
        let descriptors = (0..params.descriptors)
            .map(|_| {
                let dir = if rng.chance(params.read_pct) {
                    DmaDir::FromMem
                } else {
                    DmaDir::ToMem
                };
                let word = rng.range_u64(0, window_words - beats + 1);
                let addr = params.base + 4 * word;
                let gap = rng.range_u32(0, params.max_gap + 1);
                let data = match dir {
                    DmaDir::FromMem => Vec::new(),
                    DmaDir::ToMem => (0..beats).map(|_| rng.next_u32()).collect(),
                };
                DmaDescriptor {
                    dir,
                    addr,
                    burst: params.burst,
                    gap,
                    data,
                }
            })
            .collect();
        DmaProgram { descriptors }
    }

    /// Compiles the program to master stimulus ops.
    fn to_ops(&self) -> Arc<[MasterOp]> {
        self.descriptors
            .iter()
            .map(|d| {
                let op = match d.dir {
                    DmaDir::FromMem => MasterOp::burst_read(d.addr, d.burst),
                    DmaDir::ToMem => {
                        debug_assert_eq!(d.data.len(), d.burst.beats() as usize);
                        MasterOp::burst_write(d.addr, d.data.clone())
                    }
                };
                op.after_idle(d.gap)
            })
            .collect::<Vec<_>>()
            .into()
    }

    /// Total beats transferred by the program.
    pub fn total_beats(&self) -> u64 {
        self.descriptors
            .iter()
            .map(|d| u64::from(d.burst.beats()))
            .sum()
    }
}

/// A complete multi-master workload: CPU stimulus, a DMA program and
/// the arbitration policy tying them together. The slave wait profile
/// is the CPU scenario's — both masters target the same slave(s).
#[derive(Debug, Clone)]
pub struct MultiScenario {
    /// Short identifier for reports and cache keys.
    pub name: &'static str,
    /// The CPU master's stimulus (master 0).
    pub cpu: Scenario,
    /// The DMA master's compiled stimulus (master 1).
    pub dma_ops: Arc<[MasterOp]>,
    /// Who wins contended cycles.
    pub policy: ArbitrationPolicy,
}

impl MultiScenario {
    /// Builds a multi-master workload from a CPU scenario and a DMA
    /// program.
    pub fn new(
        name: &'static str,
        cpu: Scenario,
        program: &DmaProgram,
        policy: ArbitrationPolicy,
    ) -> Self {
        MultiScenario {
            name,
            cpu,
            dma_ops: program.to_ops(),
            policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_programs_are_deterministic() {
        let p = DmaParams::default();
        let a = DmaProgram::seeded(7, p);
        let b = DmaProgram::seeded(7, p);
        let c = DmaProgram::seeded(8, p);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn descriptors_stay_inside_the_window() {
        let params = DmaParams {
            descriptors: 200,
            burst: BurstLen::B8,
            ..DmaParams::default()
        };
        let prog = DmaProgram::seeded(11, params);
        for d in &prog.descriptors {
            assert!(d.addr >= params.base);
            assert!(d.addr + 4 * u64::from(d.burst.beats()) <= params.base + params.window);
            assert_eq!(d.addr % 4, 0);
        }
    }

    #[test]
    fn writes_carry_one_word_per_beat() {
        let params = DmaParams {
            read_pct: 0,
            burst: BurstLen::B2,
            ..DmaParams::default()
        };
        let prog = DmaProgram::seeded(3, params);
        for d in &prog.descriptors {
            assert_eq!(d.dir, DmaDir::ToMem);
            assert_eq!(d.data.len(), 2);
        }
        let ops = prog.to_ops();
        assert_eq!(ops.len(), params.descriptors);
        assert!(ops.iter().all(|op| op.data.len() == 2));
    }

    #[test]
    fn trace_ids_partition_by_master() {
        assert_eq!(master_of_trace(0), "cpu");
        assert_eq!(master_of_trace(DMA_ID_BASE - 1), "cpu");
        assert_eq!(master_of_trace(DMA_ID_BASE), "dma");
        assert_eq!(master_index_of_trace(DMA_ID_BASE + 5), 1);
        assert_eq!(DMA_ID_BASE % 8, 0);
    }
}
