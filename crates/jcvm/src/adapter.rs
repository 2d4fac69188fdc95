//! The master adapter: [`OperandStack`] calls → bus transactions.
//!
//! "The bytecode interpreter invokes the same interface functions as in
//! the pure functional model. The master adapter translates them into
//! bus transactions. ... Communication is performed by using special
//! function register. During HW/SW interface evaluation we change the
//! address map, organization of these registers and used bus
//! transactions to access them." (§4.3) — [`IfaceConfig`] is that
//! variation space, [`BusStack`] the adapter.

use crate::error::JcvmError;
use crate::hwstack::regs;
use crate::stack::OperandStack;
use hierbus_core::{Completed, CycleBus, PollStatus};
use hierbus_ec::{Address, BurstLen, DataWidth, Transaction, TxnId, WaitProfile};

/// How the stack's special function registers are organised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOrganization {
    /// One DATA register: writes push, reads pop. Peeking costs a
    /// pop-and-repush.
    SingleDataReg,
    /// Separate PUSH/POP registers plus a non-destructive TOP register.
    SeparatePushPop,
}

/// When the adapter polls the STATUS register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusPolicy {
    /// Never — rely on bus errors for overflow/underflow.
    Never,
    /// Before every push (defensive software).
    EveryPush,
    /// Before every push and pop.
    EveryOp,
}

/// One point of the HW/SW interface design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceConfig {
    /// Byte address of the stack's register window.
    pub base: u64,
    /// Interface width (hardware build parameter and software access
    /// width).
    pub width: DataWidth,
    /// Register organisation.
    pub organization: RegOrganization,
    /// STATUS polling discipline.
    pub status_policy: StatusPolicy,
    /// Hardware stack capacity in entries.
    pub capacity: usize,
    /// True to place the window behind one bus wait state (the
    /// address-map axis: a slow peripheral segment instead of the
    /// zero-wait SFR segment).
    pub slow_window: bool,
    /// True to move multi-value transfers (e.g. call arguments) as burst
    /// transactions through the stack's FIFO window instead of one
    /// single transfer per value — the "used bus transactions" axis.
    /// Only effective at 32-bit width (bursts are word-width).
    pub burst_transfers: bool,
}

impl IfaceConfig {
    /// A sensible default: 32-bit, separate registers, no polling, fast
    /// window.
    pub fn baseline(base: u64) -> Self {
        IfaceConfig {
            base,
            width: DataWidth::W32,
            organization: RegOrganization::SeparatePushPop,
            status_policy: StatusPolicy::Never,
            capacity: 64,
            slow_window: false,
            burst_transfers: false,
        }
    }

    /// The baseline with burst transfers through the FIFO window.
    pub fn with_bursts(base: u64) -> Self {
        IfaceConfig {
            burst_transfers: true,
            ..IfaceConfig::baseline(base)
        }
    }

    /// Every combination of width × organisation × polling × placement
    /// (24 design points).
    pub fn all_variants(base: u64) -> Vec<IfaceConfig> {
        let mut v = Vec::new();
        for width in DataWidth::ALL {
            for organization in [
                RegOrganization::SingleDataReg,
                RegOrganization::SeparatePushPop,
            ] {
                for status_policy in [StatusPolicy::Never, StatusPolicy::EveryPush] {
                    for slow_window in [false, true] {
                        v.push(IfaceConfig {
                            base,
                            width,
                            organization,
                            status_policy,
                            capacity: 64,
                            slow_window,
                            burst_transfers: false,
                        });
                    }
                }
            }
        }
        v
    }

    /// The bus wait profile of the chosen window placement. The slow
    /// segment inserts an address wait state too, so burst transfers
    /// (which pay the address phase once per block) have something to
    /// amortise.
    pub fn waits(&self) -> WaitProfile {
        if self.slow_window {
            WaitProfile::new(1, 1, 1)
        } else {
            WaitProfile::ZERO
        }
    }

    /// A compact human-readable identifier, e.g. `w32/sep/poll0/fast`.
    pub fn label(&self) -> String {
        format!(
            "w{}/{}/{}/{}{}",
            self.width.bits(),
            match self.organization {
                RegOrganization::SingleDataReg => "single",
                RegOrganization::SeparatePushPop => "sep",
            },
            match self.status_policy {
                StatusPolicy::Never => "poll0",
                StatusPolicy::EveryPush => "pollW",
                StatusPolicy::EveryOp => "pollRW",
            },
            if self.slow_window { "slow" } else { "fast" },
            if self.burst_transfers { "/burst" } else { "" }
        )
    }

    /// Byte-lane offsets of one value transfer for this width.
    fn lane_offsets(&self) -> &'static [u64] {
        match self.width {
            DataWidth::W8 => &[0, 1, 2, 3],
            DataWidth::W16 => &[0, 2],
            DataWidth::W32 => &[0],
        }
    }
}

/// The master adapter: owns the bus and the simulated clock, translating
/// stack calls into run-to-completion bus transactions. `tap` runs after
/// every bus-process activation (energy models hook in here); the
/// default is a no-op.
pub struct BusStack<B, T = fn(&mut B)> {
    bus: B,
    config: IfaceConfig,
    cycle: u64,
    next_id: TxnId,
    txns: u64,
    tap: T,
}

impl<B: CycleBus> BusStack<B> {
    /// Wraps `bus` (which must already contain the matching
    /// [`HwStackSlave`](crate::hwstack::HwStackSlave)) with no tap.
    pub fn new(bus: B, config: IfaceConfig) -> Self {
        BusStack::with_tap(bus, config, |_| {})
    }
}

impl<B: CycleBus, T: FnMut(&mut B)> BusStack<B, T> {
    /// Wraps `bus` like [`new`](BusStack::new), calling `tap` after
    /// every bus-process activation.
    pub fn with_tap(bus: B, config: IfaceConfig, tap: T) -> Self {
        BusStack {
            bus,
            config,
            cycle: 0,
            next_id: TxnId(0),
            txns: 0,
            tap,
        }
    }

    /// Bus cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Bus transactions issued so far.
    pub fn transactions(&self) -> u64 {
        self.txns
    }

    /// The interface configuration.
    pub fn config(&self) -> IfaceConfig {
        self.config
    }

    /// Shared access to the bus.
    pub fn bus(&self) -> &B {
        &self.bus
    }

    /// Consumes the adapter, returning the bus (and releasing the tap).
    pub fn into_bus(self) -> B {
        self.bus
    }

    /// Runs one transaction to completion, advancing the clock.
    fn do_txn(&mut self, txn: Transaction) -> Completed {
        let id = txn.id;
        self.txns += 1;
        self.bus.issue(txn, self.cycle);
        loop {
            if self.bus.falling_edge(self.cycle) {
                (self.tap)(&mut self.bus);
            }
            self.cycle += 1;
            if let PollStatus::Done(done) = self.bus.poll(id) {
                return done;
            }
        }
    }

    fn fresh_id(&mut self) -> TxnId {
        let id = self.next_id;
        self.next_id = id.next();
        id
    }

    fn read_reg(&mut self, reg: u64) -> Result<u32, JcvmError> {
        let id = self.fresh_id();
        let done = self.do_txn(Transaction::single_read(
            id,
            Address::new(self.config.base + reg),
            DataWidth::W32,
        ));
        if done.error.is_some() {
            return Err(JcvmError::BusFault);
        }
        Ok(done.data[0])
    }

    /// Transfers one value to a data register as lane writes.
    fn write_value(&mut self, reg: u64, value: i32) -> Result<(), JcvmError> {
        let word = value as u32;
        for &off in self.config.lane_offsets() {
            let id = self.fresh_id();
            let lane_value = self.config.width.extract(Address::new(off), word);
            let done = self.do_txn(Transaction::single_write(
                id,
                Address::new(self.config.base + reg + off),
                self.config.width,
                lane_value,
            ));
            if done.error.is_some() {
                return Err(JcvmError::StackOverflow);
            }
        }
        Ok(())
    }

    /// Transfers one value from a data register as lane reads.
    fn read_value(&mut self, reg: u64, destructive: bool) -> Result<i32, JcvmError> {
        let mut word = 0u32;
        for &off in self.config.lane_offsets() {
            let id = self.fresh_id();
            let done = self.do_txn(Transaction::single_read(
                id,
                Address::new(self.config.base + reg + off),
                self.config.width,
            ));
            if done.error.is_some() {
                return Err(if destructive {
                    JcvmError::StackUnderflow
                } else {
                    JcvmError::BusFault
                });
            }
            word |= done.data[0] << (8 * off as u32);
        }
        Ok(word as i32)
    }

    fn push_reg(&self) -> u64 {
        match self.config.organization {
            RegOrganization::SingleDataReg => regs::DATA,
            RegOrganization::SeparatePushPop => regs::PUSH,
        }
    }

    fn pop_reg(&self) -> u64 {
        match self.config.organization {
            RegOrganization::SingleDataReg => regs::DATA,
            RegOrganization::SeparatePushPop => regs::POP,
        }
    }

    fn check_depth(&mut self, for_push: bool) -> Result<(), JcvmError> {
        let s = self.read_reg(regs::STATUS)?;
        let depth = (s & 0xFFFF) as usize;
        if for_push && depth >= self.config.capacity {
            return Err(JcvmError::StackOverflow);
        }
        if !for_push && depth == 0 {
            return Err(JcvmError::StackUnderflow);
        }
        Ok(())
    }
}

impl<B: CycleBus, T: FnMut(&mut B)> BusStack<B, T> {
    /// Largest legal burst not exceeding `n` beats.
    fn burst_for(n: usize) -> BurstLen {
        match n {
            8.. => BurstLen::B8,
            4..=7 => BurstLen::B4,
            2..=3 => BurstLen::B2,
            _ => BurstLen::Single,
        }
    }

    fn burst_push(&mut self, values: &[i32]) -> Result<(), JcvmError> {
        let mut rest = values;
        while !rest.is_empty() {
            let burst = Self::burst_for(rest.len());
            let beats = burst.beats() as usize;
            let (chunk, tail) = rest.split_at(beats);
            let id = self.fresh_id();
            let txn = Transaction::new(
                id,
                hierbus_ec::AccessKind::DataWrite,
                Address::new(self.config.base + regs::WINDOW),
                DataWidth::W32,
                burst,
                chunk.iter().map(|&v| v as u32).collect::<Vec<u32>>(),
            );
            if self.do_txn(txn).error.is_some() {
                return Err(JcvmError::StackOverflow);
            }
            rest = tail;
        }
        Ok(())
    }

    fn burst_pop(&mut self, n: usize) -> Result<Vec<i32>, JcvmError> {
        let mut out = Vec::with_capacity(n);
        let mut left = n;
        while left > 0 {
            let burst = Self::burst_for(left);
            let id = self.fresh_id();
            let txn = Transaction::new(
                id,
                hierbus_ec::AccessKind::DataRead,
                Address::new(self.config.base + regs::WINDOW),
                DataWidth::W32,
                burst,
                Vec::<u32>::new(),
            );
            let done = self.do_txn(txn);
            if done.error.is_some() {
                return Err(JcvmError::StackUnderflow);
            }
            out.extend(done.data.iter().map(|&w| w as i32));
            left -= burst.beats() as usize;
        }
        Ok(out)
    }

    fn bursts_enabled(&self) -> bool {
        self.config.burst_transfers && self.config.width == DataWidth::W32
    }
}

impl<B: CycleBus, T: FnMut(&mut B)> OperandStack for BusStack<B, T> {
    fn push(&mut self, value: i32) -> Result<(), JcvmError> {
        match self.config.status_policy {
            StatusPolicy::EveryPush | StatusPolicy::EveryOp => self.check_depth(true)?,
            StatusPolicy::Never => {}
        }
        let reg = self.push_reg();
        self.write_value(reg, value)
    }

    fn pop(&mut self) -> Result<i32, JcvmError> {
        if self.config.status_policy == StatusPolicy::EveryOp {
            self.check_depth(false)?;
        }
        let reg = self.pop_reg();
        self.read_value(reg, true)
    }

    fn push_slice(&mut self, values: &[i32]) -> Result<(), JcvmError> {
        if self.bursts_enabled() && values.len() > 1 {
            self.burst_push(values)
        } else {
            for &v in values {
                self.push(v)?;
            }
            Ok(())
        }
    }

    fn pop_many(&mut self, n: usize) -> Result<Vec<i32>, JcvmError> {
        if self.bursts_enabled() && n > 1 {
            self.burst_pop(n)
        } else {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(self.pop()?);
            }
            Ok(out)
        }
    }

    fn peek(&mut self) -> Result<i32, JcvmError> {
        match self.config.organization {
            RegOrganization::SeparatePushPop => self.read_value(regs::TOP, false),
            RegOrganization::SingleDataReg => {
                // No TOP register: a peek costs a full pop plus re-push —
                // exactly the kind of interface cost the exploration
                // surfaces.
                let v = self.pop()?;
                self.push(v)?;
                Ok(v)
            }
        }
    }
}

impl<B, T> std::fmt::Debug for BusStack<B, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusStack")
            .field("config", &self.config.label())
            .field("cycle", &self.cycle)
            .field("txns", &self.txns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hwstack::HwStackSlave;
    use hierbus_core::Tlm1Bus;
    use hierbus_ec::AddressRange;

    const BASE: u64 = 0x8000;

    fn slaves(config: IfaceConfig) -> Vec<Box<dyn hierbus_core::TlmSlave>> {
        vec![Box::new(HwStackSlave::new(
            AddressRange::new(Address::new(BASE), 0x100),
            config.width,
            config.capacity,
            config.waits(),
        ))]
    }

    fn make(config: IfaceConfig) -> BusStack<Tlm1Bus> {
        BusStack::new(Tlm1Bus::new(slaves(config)), config)
    }

    #[test]
    fn w32_push_pop_roundtrip() {
        let mut s = make(IfaceConfig::baseline(BASE));
        s.push(0x1234_5678).unwrap();
        s.push(-7).unwrap();
        assert_eq!(s.pop(), Ok(-7));
        assert_eq!(s.pop(), Ok(0x1234_5678));
        assert_eq!(s.pop(), Err(JcvmError::StackUnderflow));
        assert_eq!(s.transactions(), 5);
    }

    #[test]
    fn w8_roundtrip_costs_four_transactions_per_op() {
        let cfg = IfaceConfig {
            width: DataWidth::W8,
            ..IfaceConfig::baseline(BASE)
        };
        let mut s = make(cfg);
        s.push(0x5AA5_C33C_u32 as i32).unwrap();
        assert_eq!(s.transactions(), 4);
        assert_eq!(s.pop(), Ok(0x5AA5_C33C_u32 as i32));
        assert_eq!(s.transactions(), 8);
    }

    #[test]
    fn w16_roundtrip() {
        let cfg = IfaceConfig {
            width: DataWidth::W16,
            ..IfaceConfig::baseline(BASE)
        };
        let mut s = make(cfg);
        s.push(0x7FFF_8001).unwrap();
        assert_eq!(s.pop(), Ok(0x7FFF_8001));
        assert_eq!(s.transactions(), 4);
    }

    #[test]
    fn separate_org_peek_is_nondestructive_and_cheap() {
        let mut s = make(IfaceConfig::baseline(BASE));
        s.push(42).unwrap();
        let before = s.transactions();
        assert_eq!(s.peek(), Ok(42));
        assert_eq!(s.transactions(), before + 1);
        assert_eq!(s.pop(), Ok(42));
    }

    #[test]
    fn single_org_peek_pops_and_repushes() {
        let cfg = IfaceConfig {
            organization: RegOrganization::SingleDataReg,
            ..IfaceConfig::baseline(BASE)
        };
        let mut s = make(cfg);
        s.push(9).unwrap();
        let before = s.transactions();
        assert_eq!(s.peek(), Ok(9));
        assert_eq!(s.transactions(), before + 2);
        assert_eq!(s.pop(), Ok(9));
    }

    #[test]
    fn status_polling_catches_overflow_without_bus_error() {
        let cfg = IfaceConfig {
            status_policy: StatusPolicy::EveryPush,
            capacity: 2,
            ..IfaceConfig::baseline(BASE)
        };
        let mut s = make(cfg);
        s.push(1).unwrap();
        s.push(2).unwrap();
        assert_eq!(s.push(3), Err(JcvmError::StackOverflow));
        // The stack itself never saw the third push.
        assert_eq!(s.pop(), Ok(2));
    }

    #[test]
    fn slow_window_costs_more_cycles() {
        let fast = {
            let mut s = make(IfaceConfig::baseline(BASE));
            s.push(1).unwrap();
            s.pop().unwrap();
            s.cycles()
        };
        let slow = {
            let cfg = IfaceConfig {
                slow_window: true,
                ..IfaceConfig::baseline(BASE)
            };
            let mut s = make(cfg);
            s.push(1).unwrap();
            s.pop().unwrap();
            s.cycles()
        };
        assert!(slow > fast, "slow {slow} !> fast {fast}");
    }

    #[test]
    fn all_variants_cover_the_axes() {
        let v = IfaceConfig::all_variants(BASE);
        assert_eq!(v.len(), 24);
        let labels: std::collections::HashSet<String> = v.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 24, "labels must be unique");
    }

    #[test]
    fn burst_push_pop_roundtrip_through_the_window() {
        let mut s = make(IfaceConfig::with_bursts(BASE));
        let values: Vec<i32> = (0..10).map(|i| i * 3 - 5).collect();
        s.push_slice(&values).unwrap();
        // Pop order is top-first: the reverse of the pushed slice.
        let popped = s.pop_many(values.len()).unwrap();
        let expected: Vec<i32> = values.iter().rev().copied().collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn bursts_cut_transaction_count() {
        use crate::stack::OperandStack as _;
        let values: Vec<i32> = (0..8).collect();
        let mut single = make(IfaceConfig::baseline(BASE));
        single.push_slice(&values).unwrap();
        single.pop_many(8).unwrap();
        let mut burst = make(IfaceConfig::with_bursts(BASE));
        burst.push_slice(&values).unwrap();
        burst.pop_many(8).unwrap();
        assert_eq!(single.transactions(), 16);
        assert_eq!(burst.transactions(), 2, "one B8 write + one B8 read");
        // On the zero-wait window bursts only tie on cycles (one beat
        // per cycle either way) — their win is transactions.
        assert!(burst.cycles() <= single.cycles());
    }

    #[test]
    fn bursts_amortise_address_waits_on_the_slow_window() {
        use crate::stack::OperandStack as _;
        let slow = |burst_transfers| IfaceConfig {
            slow_window: true,
            burst_transfers,
            ..IfaceConfig::baseline(BASE)
        };
        let values: Vec<i32> = (0..8).collect();
        let mut single = make(slow(false));
        single.push_slice(&values).unwrap();
        single.pop_many(8).unwrap();
        let mut burst = make(slow(true));
        burst.push_slice(&values).unwrap();
        burst.pop_many(8).unwrap();
        assert!(
            burst.cycles() < single.cycles(),
            "burst {} !< single {}",
            burst.cycles(),
            single.cycles()
        );
    }

    #[test]
    fn bursts_require_word_width() {
        let cfg = IfaceConfig {
            width: DataWidth::W16,
            ..IfaceConfig::with_bursts(BASE)
        };
        let mut s = make(cfg);
        s.push_slice(&[1, 2, 3]).unwrap(); // falls back to singles
        assert_eq!(s.pop_many(3).unwrap(), vec![3, 2, 1]);
    }

    /// The tap runs on every cycle of every transaction: inside a
    /// transaction the bus is never idle, so routing the adapter through
    /// `falling_edge` skips nothing even with frames off.
    #[test]
    fn tap_sees_every_bus_activation() {
        fn push_pop<B: CycleBus>(bus: B, config: IfaceConfig) {
            let mut taps = 0u64;
            let mut s = BusStack::with_tap(bus, config, |_: &mut B| taps += 1);
            s.push(5).unwrap();
            assert_eq!(s.pop(), Ok(5));
            let cycles = s.cycles();
            drop(s);
            assert!(cycles >= 2);
            assert_eq!(taps, cycles);
        }
        let config = IfaceConfig::baseline(BASE);
        push_pop(Tlm1Bus::new(slaves(config)), config);
        push_pop(hierbus_core::Tlm2Bus::new(slaves(config)), config);
    }
}
