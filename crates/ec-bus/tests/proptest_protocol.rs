//! Randomized tests of the protocol layer's algebra: merge patterns,
//! address arithmetic, frame diffs, and outstanding-limit accounting.
//!
//! Formerly `proptest` properties; now deterministic seeded loops over
//! the same value spaces so the suite runs with no registry access and
//! every failure reproduces from its printed case index.

use hierbus_ec::record::TxnRecord;
use hierbus_ec::SplitMix64;
use hierbus_ec::*;

const CASES: u64 = 256;

const WIDTHS: [DataWidth; 3] = [DataWidth::W8, DataWidth::W16, DataWidth::W32];

#[test]
fn merge_extract_insert_roundtrip() {
    let mut rng = SplitMix64::new(0xA110);
    for case in 0..CASES {
        let word = rng.next_u32();
        let value = rng.next_u32();
        let width = WIDTHS[rng.range_u32(0, 3) as usize];
        // Align the offset to the width.
        let offset = rng.range_u64(0, 4) & !(width.bytes() - 1);
        let addr = Address::new(0x1000 + offset);
        let merged = width.insert(addr, word, value);
        // Extracting what was inserted returns the masked value.
        assert_eq!(
            width.extract(addr, merged),
            value & width.value_mask(),
            "case {case}"
        );
        // Lanes outside the byte enables are untouched.
        let ben = width.byte_enables(addr);
        for lane in 0..4u32 {
            if ben & (1 << lane) == 0 {
                let mask = 0xFFu32 << (8 * lane);
                assert_eq!(merged & mask, word & mask, "case {case} lane {lane}");
            }
        }
    }
}

#[test]
fn byte_enables_cover_exactly_the_width() {
    // Small enough to check exhaustively.
    for width in WIDTHS {
        for offset in 0..4u64 {
            let offset = offset & !(width.bytes() - 1);
            let ben = width.byte_enables(Address::new(offset));
            assert_eq!(u64::from(ben.count_ones()), width.bytes());
        }
    }
}

#[test]
fn address_masking_is_idempotent() {
    let mut rng = SplitMix64::new(0xADD7);
    for _ in 0..CASES {
        let a = Address::new(rng.next_u64());
        assert_eq!(Address::new(a.raw()), a);
        assert!(a.raw() < (1u64 << 36));
    }
}

#[test]
fn frame_diff_is_symmetric_and_zero_on_self() {
    let mut rng = SplitMix64::new(0xF8A3);
    for case in 0..CASES {
        let addr = rng.range_u64(0, 1 << 36);
        let rdata = rng.next_u32();
        let wdata = rng.next_u32();
        let flags = rng.next_u32() as u8;
        let a = SignalFrame {
            a_addr: addr,
            r_data: rdata,
            w_data: wdata,
            a_valid: flags & 1 != 0,
            r_valid: flags & 2 != 0,
            w_valid: flags & 4 != 0,
            ..SignalFrame::default()
        };
        let b = SignalFrame::default();
        assert_eq!(a.diff(&a).total(), 0, "case {case}");
        assert_eq!(a.diff(&b).total(), b.diff(&a).total(), "case {case}");
        // The diff equals the Hamming distance of the packed fields.
        let expected = addr.count_ones()
            + rdata.count_ones()
            + wdata.count_ones()
            + u32::from(a.a_valid)
            + u32::from(a.r_valid)
            + u32::from(a.w_valid);
        assert_eq!(a.diff(&b).total(), expected, "case {case}");
    }
}

#[test]
fn outstanding_tracker_never_exceeds_limits() {
    let mut rng = SplitMix64::new(0x0575);
    for case in 0..64 {
        let mut t = OutstandingTracker::new(OutstandingLimits::CORE_DEFAULT);
        let steps = rng.range_u64(1, 200);
        for _ in 0..steps {
            let cat = TxnCategory::ALL[rng.range_u32(0, 3) as usize];
            if rng.bool(0.5) {
                let _ = t.try_issue(cat);
            } else if t.in_flight(cat) > 0 {
                t.complete(cat);
            }
            for c in TxnCategory::ALL {
                assert!(
                    t.in_flight(c) <= OutstandingLimits::CORE_DEFAULT.limit(c),
                    "case {case}"
                );
            }
        }
    }
}

#[test]
fn burst_beat_addresses_stay_in_order_and_aligned() {
    let mut rng = SplitMix64::new(0xB425);
    for case in 0..CASES {
        let word = rng.range_u64(0, 1 << 30);
        let burst = BurstLen::ALL[rng.range_u32(0, 4) as usize];
        let txn = Transaction::fetch(TxnId(0), Address::new(word * 4), burst);
        let mut prev = None;
        for i in 0..txn.beats() {
            let a = txn.beat_addr(i);
            assert!(a.is_aligned(4), "case {case}");
            if let Some(p) = prev {
                assert_eq!(a.raw(), p + 4, "case {case}");
            }
            prev = Some(a.raw());
        }
    }
}

#[test]
fn record_latency_is_positive_and_consistent() {
    let mut rng = SplitMix64::new(0x1A7C);
    for case in 0..CASES {
        let issue = rng.range_u64(0, 1_000_000);
        let duration = rng.range_u64(0, 10_000);
        let r = TxnRecord {
            id: TxnId(0),
            kind: AccessKind::DataRead,
            addr: Address::new(0),
            width: DataWidth::W32,
            burst: BurstLen::Single,
            issue_cycle: issue,
            addr_done_cycle: Some(issue),
            done_cycle: Some(issue + duration),
            error: None,
            data: Vec::new(),
        };
        assert_eq!(r.latency(), Some(duration + 1), "case {case}");
    }
}
