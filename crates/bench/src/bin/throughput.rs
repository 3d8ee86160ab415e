//! E23 — replay throughput of the streaming session (instrs/s per
//! thread).
//!
//! For every suite workload this binary times, single-threaded,
//! `Session::options(&cfg).run(&trace)`: the record-by-record
//! delayed-update loop every served session runs (`Session::feed` →
//! `ReplayCore::step`).
//!
//! Wall times are best-of-`REPS`: shared CI machines jitter individual
//! timings by 25–40%, and the minimum is the stable estimator of the
//! achievable rate (PERFORMANCE.md §Measurement protocol). Statistics
//! must be byte-identical across reps — the binary asserts this, so
//! every timing run doubles as a determinism check.
//!
//! Stdout carries only deterministic columns (workload, instrs, mpki)
//! so `run_all`'s captured results file is byte-identical run to run;
//! the measured rates print to stderr, like simpoint's wall times.
//!
//! With `--json PATH`, one schema-6 [`ThroughputRecord`] per workload
//! plus one suite row append to the JSON Lines file. Every row carries
//! `path: "generic"`, continuing the series older files recorded next
//! to a since-deleted buffered path.

use std::time::Instant;
use zbp_bench::{append_throughput_records, BenchArgs, ThroughputRecord};
use zbp_core::{GenerationPreset, PredictorConfig};
use zbp_serve::{Session, SessionReport};
use zbp_trace::workloads;

/// Timing repetitions per workload; the reported wall time is
/// the minimum.
const REPS: u32 = 5;

/// Stable FNV-1a fingerprint of the full configuration, so rate
/// comparisons across commits only pair up identical configs.
fn config_hash(cfg: &PredictorConfig) -> String {
    let canon = format!("{cfg:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Best-of-`REPS` wall time for `run`, asserting the report is
/// identical on every rep (determinism check riding on the timing
/// loop).
fn best_of(mut run: impl FnMut() -> SessionReport) -> (f64, SessionReport) {
    let first = run();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let rep = run();
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(rep, first, "throughput reps must be byte-identical");
        best = best.min(wall);
    }
    (best, first)
}

fn main() {
    let args = BenchArgs::parse();
    let cfg = GenerationPreset::Z15.config();
    let hash = config_hash(&cfg);
    let record = |workload: &str, seed: u64, instrs: u64, wall: f64, mpki: f64| ThroughputRecord {
        experiment: "throughput".into(),
        config: cfg.name.clone(),
        config_hash: hash.clone(),
        workload: workload.into(),
        seed,
        threads: 1,
        path: "generic".into(),
        reps: u64::from(REPS),
        instrs,
        wall_ms: wall * 1e3,
        instrs_per_s: instrs as f64 / wall,
        mpki,
    };
    let mut records = Vec::new();
    let (mut suite_instrs, mut suite_wall, mut suite_mispredicts) = (0u64, 0.0f64, 0u64);

    // Stdout carries only the deterministic columns so `run_all`'s
    // captured results/throughput.txt is byte-identical run to run;
    // wall-clock rates go to stderr, like simpoint's timing lines.
    println!("E23 replay throughput — config {} ({}), best of {REPS}", cfg.name, hash);
    println!("{:<28} {:>10} {:>8}", "workload", "instrs", "mpki");
    eprintln!("{:<28} {:>12}", "workload", "M instrs/s");
    for w in workloads::suite(args.seed, args.instrs) {
        let trace = w.cached_trace();
        let (wall, rep) = best_of(|| Session::options(&cfg).run(&trace));
        let instrs = rep.stats.instructions.get();
        let mpki = rep.stats.mpki();
        println!("{:<28} {:>10} {:>8.3}", trace.label(), instrs, mpki);
        eprintln!("{:<28} {:>12.1}", trace.label(), instrs as f64 / wall / 1e6);
        suite_instrs += instrs;
        suite_wall += wall;
        suite_mispredicts += rep.stats.mispredictions();
        records.push(record(trace.label(), w.seed, instrs, wall, mpki));
    }

    let mpki =
        if suite_instrs == 0 { 0.0 } else { suite_mispredicts as f64 * 1e3 / suite_instrs as f64 };
    println!("suite: {suite_instrs} instrs, mpki {mpki:.3}");
    eprintln!(
        "suite: {:.1} M instrs/s per thread ({:.1} ms)",
        suite_instrs as f64 / suite_wall / 1e6,
        suite_wall * 1e3,
    );
    records.push(record("suite", args.seed, suite_instrs, suite_wall, mpki));

    if let Some(path) = &args.json {
        append_throughput_records(path, &records).expect("append schema-6 records");
        println!("appended {} schema-6 records to {}", records.len(), path.display());
    }
}
