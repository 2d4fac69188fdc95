//! **Table 3** — simulation performance of the TLM models in executed
//! bus transactions per second, with and without energy estimation.
//!
//! Paper values: layer 1 85.3 kT/s (with) / 94.6 kT/s (without, ×1.1);
//! layer 2 129.6 kT/s (×1.52) / 145.8 kT/s (×1.7), so layer 2 runs
//! 1.52× (with) and 1.54× (without) faster than layer 1. Plus the §4.2
//! text: RTL→TLM acceleration around two orders of magnitude. Absolute
//! numbers depend on the host; the factors are the reproducible shape.
//!
//! The arms — layers 1 and 2 with and without estimation, layer 3, the
//! layer-1 bit-loop reference and layer 1 with spans on — run on one
//! `Session`, in an order that rotates every round, until a time budget
//! is spent. Each run is timed with the thread's CPU time (wall time,
//! which also counts other processes on a shared host, is reported
//! beside it). Every ratio is the median of the per-round ratios of two
//! arms in the same round, with its interquartile range, so host drift
//! between rounds cancels. The bin also prints the cycles each layer
//! stepped next to its bus-process activations, and writes the Table 3
//! numbers to the `layers` section of `BENCH_throughput.json` at the
//! repo root. (Campaign throughput is the `campaign_scaling` bin's.)
//! Run with `cargo run --release -p hierbus-bench --bin table3_simperf`.

use hierbus::harness;
use hierbus_bench::{grouped, table3_mix, TextTable, THROUGHPUT_JSON};
use hierbus_campaign::Json;
use hierbus_ec::sequences::Scenario;
use hierbus_ec::SignalFrame;
use hierbus_power::{
    Capture, CharacterizationDb, Layer, Layer1EnergyModel, Materialized, RunSpec, Session,
};
use std::time::Instant;

/// Seed of the measured Table 3 mix.
const SEED: u64 = 0xBE9C;
/// Transactions in the measured mix ("all combinations between single
/// read, single write, burst read, and burst write transactions").
const TXNS: usize = 60_000;
/// Frames in the synthetic stream of the model-only hot-path pair.
const FRAMES: u64 = 1_000_000;
/// Repetitions of the model-only pair and the reference context runs.
const REPS: u32 = 3;
/// Wall-clock seconds the rotating rounds may take, and the fewest
/// rounds run whatever the budget.
const BUDGET_S: f64 = 15.0;
const MIN_ROUNDS: usize = 5;

/// CPU time this thread has used, in seconds. Unlike wall time it does
/// not count the time other processes take on a shared host.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is Linux's.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Runs `f` `REPS` times and returns the best throughput in thousands
/// of the items (transactions or frames) `f` reports per CPU second.
fn measure(mut f: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let start = thread_cpu_s();
        let items = f();
        let secs = thread_cpu_s() - start;
        best = best.max(items as f64 / secs / 1000.0);
    }
    best
}

/// Feeds [`FRAMES`] synthetic frames (no bus) through `on` on a fresh
/// layer-1 model; returns the frame count.
fn frame_stream(on: impl Fn(&mut Layer1EnergyModel, &SignalFrame)) -> u64 {
    let mut model = Layer1EnergyModel::new(CharacterizationDb::uniform());
    let mut frame = SignalFrame::default();
    for i in 0..FRAMES {
        frame.a_addr = i.wrapping_mul(0x9E37_79B9);
        frame.r_data = (i as u32).rotate_left(7);
        on(&mut model, &frame);
    }
    std::hint::black_box(model.total_energy());
    FRAMES
}

/// One rotated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    L1Est,
    L1EstBitLoop,
    L1,
    L1Spans,
    L2Est,
    L2,
    L3,
}

impl Arm {
    const ALL: [Arm; 7] = [
        Arm::L1Est,
        Arm::L1EstBitLoop,
        Arm::L1,
        Arm::L1Spans,
        Arm::L2Est,
        Arm::L2,
        Arm::L3,
    ];

    fn idx(self) -> usize {
        self as usize
    }

    fn label(self) -> &'static str {
        match self {
            Arm::L1Est => "TL layer 1, with est.",
            Arm::L1EstBitLoop => "TL layer 1, with est. (bit-loop reference)",
            Arm::L1 => "TL layer 1, without est.",
            Arm::L1Spans => "TL layer 1, with est., spans on",
            Arm::L2Est => "TL layer 2, with est.",
            Arm::L2 => "TL layer 2, without est.",
            Arm::L3 => "TL layer 3 (untimed)",
        }
    }
}

/// Per-arm CPU and wall seconds, one entry per round.
struct Rounds {
    cpu: Vec<[f64; 7]>,
    wall: Vec<[f64; 7]>,
}

/// Sorted copy of `xs`.
fn sorted(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = xs.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q` quantile of sorted `v`, linearly interpolated.
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median and interquartile range of a paired ratio.
#[derive(Debug, Clone, Copy)]
struct Ratio {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Rounds {
    /// kT/s of `arm` in every round, by CPU time, sorted.
    fn kts(&self, arm: Arm) -> Vec<f64> {
        sorted(self.cpu.iter().map(|r| TXNS as f64 / r[arm.idx()] / 1e3))
    }

    /// The median kT/s of `arm` by wall time.
    fn wall_kts(&self, arm: Arm) -> f64 {
        let v = sorted(self.wall.iter().map(|r| TXNS as f64 / r[arm.idx()] / 1e3));
        quantile(&v, 0.5)
    }

    /// How much faster `fast` ran than `slow`: per round the ratio of
    /// their CPU times, then the median and quartiles over rounds.
    fn speedup(&self, fast: Arm, slow: Arm) -> Ratio {
        let v = sorted(self.cpu.iter().map(|r| r[slow.idx()] / r[fast.idx()]));
        Ratio {
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
        }
    }
}

/// Runs every arm once per round, in an order rotated by one each
/// round, until the budget is spent; checks each run completed the mix.
fn rotate(session: &mut Session, scenario: &Scenario, db: &CharacterizationDb) -> Rounds {
    let stimulus: &Materialized = &scenario.clone().into();
    let with = |layer| RunSpec::new(layer, Capture::Lean);
    let without = |layer| RunSpec::new(layer, Capture::Lean).timing_only();
    let l2 = Layer::L2 { correlation: false };
    let mut run = |arm: Arm| -> usize {
        let out = match arm {
            Arm::L1Est => session.run(&with(Layer::L1), stimulus),
            Arm::L1EstBitLoop => harness::reference::run_layer1(scenario, db, Capture::Lean),
            Arm::L1 => session.run(&without(Layer::L1), stimulus),
            Arm::L1Spans => session.run(&RunSpec::new(Layer::L1, Capture::Spans), stimulus),
            Arm::L2Est => session.run(&with(l2), stimulus),
            Arm::L2 => session.run(&without(l2), stimulus),
            Arm::L3 => session.run(&without(Layer::L3), stimulus),
        };
        out.outcomes.len()
    };
    let mut rounds = Rounds {
        cpu: Vec::new(),
        wall: Vec::new(),
    };
    let start = Instant::now();
    while rounds.cpu.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < BUDGET_S {
        let k = rounds.cpu.len();
        let (mut cpu, mut wall) = ([0.0; 7], [0.0; 7]);
        for j in 0..Arm::ALL.len() {
            let arm = Arm::ALL[(k + j) % Arm::ALL.len()];
            let (c0, w0) = (thread_cpu_s(), Instant::now());
            let done = run(arm);
            cpu[arm.idx()] = thread_cpu_s() - c0;
            wall[arm.idx()] = w0.elapsed().as_secs_f64();
            assert_eq!(done, TXNS, "{arm:?} did not settle every op");
        }
        rounds.cpu.push(cpu);
        rounds.wall.push(wall);
    }
    rounds
}

fn main() {
    println!(
        "Measuring {} transactions per run, arms rotated each round for {BUDGET_S:.0} s \
         (at least {MIN_ROUNDS} rounds)...\n",
        grouped(TXNS as u64)
    );
    let scenario = table3_mix(SEED, TXNS);
    let stimulus: Materialized = scenario.clone().into();
    let db = harness::shared_db();
    let mut session = Session::new(&db);
    let rounds = rotate(&mut session, &scenario, &db);
    let n = rounds.cpu.len();
    let kts = |arm| quantile(&rounds.kts(arm), 0.5);
    let ratio = |r: Ratio| format!("{:.2} [{:.2}, {:.2}]", r.median, r.q1, r.q3);

    let base = kts(Arm::L1Est);
    let mut table3 = TextTable::new([
        "model",
        "with est. kT/s",
        "factor",
        "without est. kT/s",
        "factor",
    ]);
    for (name, with, without) in [
        ("TL layer 1", Some(Arm::L1Est), Arm::L1),
        ("TL layer 2", Some(Arm::L2Est), Arm::L2),
        ("TL layer 3 (untimed)", None, Arm::L3),
    ] {
        let (with_kts, with_factor) = match with {
            Some(arm) => (
                format!("{:.1}", kts(arm)),
                format!("{:.2}", kts(arm) / base),
            ),
            None => ("-".to_owned(), "-".to_owned()),
        };
        table3.row([
            name.to_owned(),
            with_kts,
            with_factor,
            format!("{:.1}", kts(without)),
            format!("{:.2}", kts(without) / base),
        ]);
    }
    println!("Table 3 — simulation performance (paper factors: 1 / 1.1 / 1.52 / 1.7):\n");
    println!("{}", table3.render());

    let mut arms = TextTable::new(["arm", "CPU kT/s median", "min", "max", "wall kT/s median"]);
    for arm in Arm::ALL {
        let v = rounds.kts(arm);
        arms.row([
            arm.label().to_owned(),
            format!("{:.1}", quantile(&v, 0.5)),
            format!("{:.1}", v[0]),
            format!("{:.1}", v[v.len() - 1]),
            format!("{:.1}", rounds.wall_kts(arm)),
        ]);
    }
    println!("Per arm over {n} rounds (thread CPU time; wall time beside it):\n");
    println!("{}", arms.render());

    let l2_l1_with = rounds.speedup(Arm::L2Est, Arm::L1Est);
    let l2_l1_without = rounds.speedup(Arm::L2, Arm::L1);
    let l2_l3 = rounds.speedup(Arm::L2, Arm::L3);
    let hotpath = rounds.speedup(Arm::L1Est, Arm::L1EstBitLoop);
    let spans = rounds.speedup(Arm::L1Spans, Arm::L1Est);
    println!("Paired ratios, median [interquartile range] of {n} per-round ratios:");
    println!(
        "  layer 2 / layer 1, with est.:     {}  (paper 1.52)",
        ratio(l2_l1_with)
    );
    println!(
        "  layer 2 / layer 1, without est.:  {}  (paper 1.54)",
        ratio(l2_l1_without)
    );
    println!("  layer 2 / layer 3:                {}", ratio(l2_l3));
    println!("  layer 1 hot path / bit-loop:      {}", ratio(hotpath));
    println!(
        "  layer 1 spans on / spans off:     {}  (the span probes' cost)\n",
        ratio(spans)
    );

    // The model-only pair: a synthetic frame stream with no bus, so
    // simulation cost cannot dilute the ratio.
    let model_kfps = measure(|| frame_stream(Layer1EnergyModel::on_frame));
    let model_reference_kfps = measure(|| frame_stream(Layer1EnergyModel::on_frame_reference));
    println!(
        "Layer-1 energy model alone: {model_kfps:.1} kframes/s vs {model_reference_kfps:.1} \
         kframes/s bit-loop reference ({:.2}x over reference)\n",
        model_kfps / model_reference_kfps
    );

    // What each layer steps: the cycles it ran, the cycles the system
    // stepped (the others it skipped to the next wake), and the falling
    // edges whose bus process ran.
    let mut steps = TextTable::new(["model", "cycles", "cycles stepped", "bus activations"]);
    for (name, layer) in [
        ("TL layer 1", Layer::L1),
        ("TL layer 2", Layer::L2 { correlation: false }),
        ("TL layer 3 (untimed)", Layer::L3),
    ] {
        let out = session.run(&RunSpec::new(layer, Capture::Lean).timing_only(), &stimulus);
        steps.row([
            name.to_owned(),
            grouped(out.cycles),
            grouped(out.cycles_stepped),
            grouped(out.bus_activations),
        ]);
    }
    println!("Cycles stepped (without est.):\n");
    println!("{}", steps.render());

    // Export an observed run of a small slice of the mix so the span
    // layout behind these numbers can be inspected in Perfetto.
    let mut run = hierbus::observe::run_observed(&table3_mix(SEED, 60), &db);
    run.name = "table3_simperf".to_owned();
    match hierbus::observe::export(&run, &hierbus::observe::default_dir()) {
        Ok((trace, csv)) => println!(
            "Observability artifacts:\n  {}\n  {}\n",
            trace.display(),
            csv.display()
        ),
        Err(e) => eprintln!("warning: could not write results/obs artifacts: {e}"),
    }

    // Machine-readable perf trajectory for regression tracking.
    let mut layer_fields = vec![
        ("rounds".to_owned(), Json::Num(n as f64)),
        ("tlm1_with_kts".to_owned(), Json::Num(base)),
        (
            "tlm1_with_reference_kts".to_owned(),
            Json::Num(kts(Arm::L1EstBitLoop)),
        ),
        ("tlm1_hotpath_speedup".to_owned(), Json::Num(hotpath.median)),
        ("tlm1_without_kts".to_owned(), Json::Num(kts(Arm::L1))),
        ("tlm1_observed_kts".to_owned(), Json::Num(kts(Arm::L1Spans))),
        ("tlm2_with_kts".to_owned(), Json::Num(kts(Arm::L2Est))),
        ("tlm2_without_kts".to_owned(), Json::Num(kts(Arm::L2))),
        ("tlm3_kts".to_owned(), Json::Num(kts(Arm::L3))),
    ];
    for (name, r) in [
        ("tlm2_over_tlm1_with", l2_l1_with),
        ("tlm2_over_tlm1_without", l2_l1_without),
        ("tlm2_over_tlm3", l2_l3),
        ("tlm1_spans_over_off", spans),
    ] {
        layer_fields.push((name.to_owned(), Json::Num(r.median)));
        layer_fields.push((format!("{name}_q1"), Json::Num(r.q1)));
        layer_fields.push((format!("{name}_q3"), Json::Num(r.q3)));
    }
    match hierbus_bench::write_throughput_section(
        hierbus_bench::throughput_json_path(),
        "layers",
        layer_fields,
    ) {
        Ok(()) => println!("Perf trajectory written to {THROUGHPUT_JSON}\n"),
        Err(e) => eprintln!("warning: could not write {THROUGHPUT_JSON}: {e}"),
    }

    // §4.2 context: the RTL reference's throughput on a smaller run.
    let small: Materialized = table3_mix(SEED, 6_000).into();
    let mut lean = |layer| {
        measure(|| {
            session
                .run(&RunSpec::new(layer, Capture::Lean), &small)
                .outcomes
                .len() as u64
        })
    };
    let rtl = lean(Layer::Rtl { glitches: true });
    let rtl_ideal = lean(Layer::Rtl { glitches: false });
    println!("Context (§4.2): signal-level reference with gate-level estimation:");
    println!(
        "  reference (glitches on):   {rtl:.1} kT/s  (TL1-with is {:.2}x faster)",
        base / rtl
    );
    println!("  reference (ideal netlist): {rtl_ideal:.1} kT/s");
    println!(
        "\nNote: the paper cites a ~100x RTL-to-TLM acceleration from prior work\n\
         measured against an event-driven RTL simulator evaluating a full\n\
         netlist. Our layer-0 substitute is a behavioral signal-level model\n\
         (see DESIGN.md), so only the estimation overhead — not the netlist\n\
         evaluation cost — appears in its throughput."
    );
}
