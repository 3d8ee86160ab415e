//! In-process replay rate of the served path: the `serve-stream`
//! benchmark's inputs fed through `Session::feed` in 4096-record
//! batches, with no server in between. Prints per-feed rates (the
//! 99th percentile is the fast edge the benchmark's `instrs_per_s`
//! reads) and the suite MPKI, which must not move with the code.
//!
//! ```text
//! cargo run --release --example feed_rate -- [seed] [seconds]
//! ```
//!
//! Defaults: seed 1001, 20 s. The inputs are the suite's six programs
//! (program seed 1) at 200k instructions, executed with the executor
//! seeds perfbench derives from `seed`.

use std::time::Instant;
use zbp::core::GenerationPreset;
use zbp::model::MispredictStats;
use zbp::serve::{Session, DEFAULT_BATCH};
use zbp::trace::workloads;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(1001, |s| s.parse().expect("seed"));
    let seconds: f64 = args.next().map_or(20.0, |s| s.parse().expect("seconds"));
    let cfg = GenerationPreset::Z15.config();
    let traces: Vec<_> = workloads::suite(1, 200_000)
        .into_iter()
        .enumerate()
        .map(|(i, mut w)| {
            w.seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            w.dynamic_trace()
        })
        .collect();

    let mut rates = Vec::new();
    let mut suite = MispredictStats::new();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
        suite = MispredictStats::new();
        for trace in &traces {
            let mut session = Session::options(&cfg).open(trace.label());
            for batch in trace.as_slice().chunks(DEFAULT_BATCH) {
                let instrs: u64 = batch.iter().map(|r| 1 + u64::from(r.gap_instrs)).sum();
                let t0 = Instant::now();
                session.feed(batch);
                let dt = t0.elapsed().as_secs_f64();
                // A stream's last, partial batch is not timed.
                if batch.len() == DEFAULT_BATCH {
                    rates.push(instrs as f64 / dt);
                }
            }
            suite.merge(&session.finish(trace.tail_instrs()).stats);
        }
    }
    rates.sort_by(f64::total_cmp);
    let at = |q: f64| rates[((rates.len() - 1) as f64 * q).round() as usize] / 1e6;
    println!(
        "feeds {}  p99 {:.2} M instrs/s  p90 {:.2}  p50 {:.2}  mpki {:.3}",
        rates.len(),
        at(0.99),
        at(0.90),
        at(0.50),
        suite.mpki()
    );
}
