//! What recycling a predictor costs: for each generation preset, the
//! time to build one with `ZPredictor::new` and the time to `reset` one
//! that has just served a 600-instruction suite stream, the stream
//! length of the `serve-churn` benchmark. Every reset predictor's image
//! must equal a freshly built one's, or the example panics.
//!
//! ```text
//! cargo run --release --example reset_cost -- [reps]
//! ```
//!
//! Default: 51 repetitions per preset; the medians are printed.

use std::hint::black_box;
use std::time::Instant;
use zbp::core::{GenerationPreset, ZPredictor};
use zbp::model::ReplayCore;
use zbp::trace::workloads;

fn median_us(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    1e6 * times[times.len() / 2]
}

fn main() {
    let reps: usize = std::env::args().nth(1).map_or(51, |s| s.parse().expect("reps"));
    let traces: Vec<_> = workloads::suite(1, 600)
        .into_iter()
        .enumerate()
        .map(|(i, mut w)| {
            w.seed = 1001 * 1_000_003 + i as u64;
            w.dynamic_trace()
        })
        .collect();
    println!("{:<6} {:>8} {:>10}", "preset", "new µs", "reset µs");
    for preset in GenerationPreset::ALL {
        let cfg = preset.config();
        let fresh = format!("{:?}", ZPredictor::new(cfg.clone()).snapshot());
        let new_s: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(ZPredictor::new(cfg.clone()));
                t.elapsed().as_secs_f64()
            })
            .collect();
        // One predictor serves every stream, as a serving shard's
        // recycled predictor does.
        let mut pred = ZPredictor::new(cfg.clone());
        let reset_s: Vec<f64> = traces
            .iter()
            .cycle()
            .take(reps)
            .map(|trace| {
                ReplayCore::replay(32, &mut pred, trace);
                let t = Instant::now();
                pred.reset();
                t.elapsed().as_secs_f64()
            })
            .collect();
        // Compared once, after the last reset: formatting an image
        // sweeps the caches, which would slow the next reset down.
        assert!(
            format!("{:?}", pred.snapshot()) == fresh,
            "{preset}: a reset predictor differs from a fresh one"
        );
        println!(
            "{:<6} {:>8.1} {:>10.1}",
            preset.to_string(),
            median_us(new_s),
            median_us(reset_s)
        );
    }
    println!("every reset image equals a fresh one");
}
