//! Allocation pins for the bus hot paths: a run's heap allocations must
//! not grow with the stimulus length. The recycled transaction slots,
//! the flat finish queue and the allocation-free layer-2 completion are
//! what keep both buses there; this binary counts allocations with its
//! own [`CountingAlloc`] and fails if one of them starts allocating per
//! transaction again.

use hierbus::core::{PhaseKind, Tlm2Bus, TlmSystem};
use hierbus::ec::sequences::{random_mix, MixParams, Scenario};
use hierbus::power::run::{tlm1_bus, tlm2_bus, MAX_CYCLES};
use std::cell::Cell;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations performed on the calling thread since it started —
/// monotone, so a caller reads a before/after delta.
fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// A counting global allocator: forwards to the system allocator and
/// counts allocations per thread.
struct CountingAlloc;

fn count_alloc() {
    // `try_with` because allocation can happen while thread-locals are
    // being torn down; dropping the count there is fine.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to `std::alloc::System`; the only addition
// is a destructor-free thread-local counter bump, which itself never
// allocates.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc();
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc();
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

/// Allocations a run may differ by without allocating per transaction:
/// queue growth and bookkeeping that is sized once per run.
const SLACK: u64 = 16;

fn mix(count: usize) -> Scenario {
    random_mix(
        11,
        MixParams {
            count,
            ..MixParams::default()
        },
    )
}

/// Heap allocations `f` performs on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = thread_allocations();
    let r = f();
    (thread_allocations() - before, r)
}

/// A lean layer-1 run: records off, no frames.
fn layer1_lean(s: &Scenario) -> u64 {
    allocations(|| {
        let mut sys = TlmSystem::new(tlm1_bus(s), s.ops.clone());
        sys.disable_records();
        sys.run(MAX_CYCLES, |_| {}).cycles
    })
    .0
}

/// A layer-2 run with records off; with `events`, also returns the
/// number of data-phase events the run emitted.
fn layer2(s: &Scenario, events: bool) -> (u64, u64) {
    let mut data_events = 0u64;
    let (allocs, _) = allocations(|| {
        let mut bus = tlm2_bus(s);
        if events {
            bus.enable_events();
        }
        let mut sys = TlmSystem::new(bus, s.ops.clone());
        sys.disable_records();
        sys.run(MAX_CYCLES, |b: &mut Tlm2Bus| {
            for ev in b.drain_events() {
                if ev.kind != PhaseKind::Address {
                    data_events += 1;
                }
            }
        })
        .cycles
    });
    (allocs, data_events)
}

#[test]
fn lean_runs_allocate_a_constant_independent_of_length() {
    let (short, long) = (mix(1_000), mix(10_000));
    let (l1_short, l1_long) = (layer1_lean(&short), layer1_lean(&long));
    let (l2_short, l2_long) = (layer2(&short, false).0, layer2(&long, false).0);
    for (tag, a, b) in [
        ("layer 1, 1k vs 10k ops", l1_short, l1_long),
        ("layer 2, 1k vs 10k ops", l2_short, l2_long),
        ("layer 1 vs layer 2, 1k ops", l1_short, l2_short),
        ("layer 1 vs layer 2, 10k ops", l1_long, l2_long),
    ] {
        assert!(a.abs_diff(b) <= SLACK, "{tag}: {a} vs {b} allocations");
    }
}

#[test]
fn layer2_events_add_at_most_one_allocation_per_data_phase() {
    for count in [1_000, 10_000] {
        let s = mix(count);
        let (quiet, _) = layer2(&s, false);
        let (loud, data_events) = layer2(&s, true);
        assert_eq!(data_events, count as u64, "one data phase per op");
        assert!(
            loud <= quiet + data_events + SLACK,
            "{count} ops: {loud} allocations with events, {quiet} without, \
             {data_events} data-phase events"
        );
    }
}

#[test]
fn counting_allocator_reports_thread_allocations() {
    let before = thread_allocations();
    let v: Vec<u64> = Vec::with_capacity(64);
    std::hint::black_box(&v);
    let after = thread_allocations();
    assert!(after > before, "allocation not counted: {before} → {after}");
}
