//! Command-line arguments, metric records, order statistics and the
//! process memory reading shared by the untraced and traced runs.

use std::time::{Duration, Instant};

/// Parsed command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad(&"must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One named, unit-carrying number in the result line.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }
}

/// Per-op latencies and rates of a timed phase, plus the failure tally.
#[derive(Debug, Default)]
pub struct Ops {
    /// Host seconds per completed op.
    pub lat_s: Vec<f64>,
    /// Simulated instructions per completed op.
    pub instrs: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn push(&mut self, lat: Duration, instrs: u64) {
        self.lat_s.push(lat.as_secs_f64());
        self.instrs.push(instrs);
    }

    /// Host nanoseconds per simulated instruction over every op.
    pub fn ns_per_instr(&self) -> f64 {
        ratio(self.lat_s.iter().sum::<f64>() * 1e9, self.instrs.iter().sum::<u64>() as f64)
    }

    /// Mean host microseconds per op.
    pub fn mean_op_us(&self) -> f64 {
        ratio(self.lat_s.iter().sum::<f64>() * 1e6, self.lat_s.len() as f64)
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Runs `f` `reps` times and returns the median wall time in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads peak memory through the 64-bit Linux getrusage layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage { times: [0; 4], maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `u` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux (checked by the cfg gate above),
    // and RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    u.maxrss_kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn args_round_trip_and_reject_garbage() {
        let a = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let ok = a("--workload serve-stream --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve-stream", 7, 10.0, true)
        );
        assert!(a("--workload serve-stream --seed x --seconds 10").is_err());
        assert!(a("--workload serve-stream --seed 1 --seconds 10 --trace 2").is_err());
        assert!(a("--seed 1 --seconds 10").is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
