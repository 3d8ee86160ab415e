//! The untraced timed phase of each workload: closed loops of ops,
//! every op checked against its reference.

use crate::inputs::{Input, Kind, Reference, Setup};
use crate::measure::{percentile, Ops, Outcome};
use std::time::{Duration, Instant};
use zbp_core::GenerationPreset;
use zbp_model::BranchRecord;
use zbp_serve::{Client, Frame, WireMode, WirePreset, DEFAULT_BATCH};

/// Runs the workload's ops in a closed loop until `deadline` (at least
/// one stream), timing each into `ops`. Streams are served in the order
/// `order` gives input indices.
pub fn run_ops(
    setup: &Setup,
    client: &mut Client,
    order: &mut impl Iterator<Item = usize>,
    deadline: Instant,
    ops: &mut Ops,
) {
    for i in order {
        let (input, want) = (&setup.inputs[i], &setup.refs[i]);
        let served = serve_once(client, input, want);
        let feeds = input.trace.as_slice().chunks(DEFAULT_BATCH);
        match (setup.kind, served) {
            (Kind::ServeStream, Ok(rtts)) => {
                // A stream's last, partial batch is checked but not
                // timed: it would put a size mix into the latency
                // percentiles.
                for (rtt, batch) in rtts.feeds.iter().zip(feeds) {
                    ops.attempted += 1;
                    if batch.len() == DEFAULT_BATCH {
                        ops.push(*rtt, batch_instrs(batch));
                    }
                }
            }
            (Kind::ServeStream, Err(())) => {
                let n = feeds.len() as u64;
                ops.attempted += n;
                ops.failed += n;
            }
            (Kind::ServeChurn, Ok(rtts)) => {
                ops.attempted += 1;
                ops.push(rtts.total(), input.trace.instruction_count());
            }
            (Kind::ServeChurn, Err(())) => {
                ops.attempted += 1;
                ops.failed += 1;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// The end-to-end metrics of an untraced run.
///
/// Host speed here switches between a fast and a roughly 2× slower mode
/// every 0.05–3 s, in proportions that hold for minutes and change from
/// run to run (README.md, Steadiness). Any statistic in the middle of
/// the per-op distribution lands on that proportion. The fastest 1% of
/// ops are fast-mode ops in almost every run, so the time statistics are
/// taken there: the rate the fastest 1% of ops reach (p99 of per-op
/// rates) and the latency they stay under (p1).
pub fn end_to_end(setup: &Setup, ops: &Ops, setup_s: f64, out: &mut Outcome) {
    let rates: Vec<f64> = ops.lat_s.iter().zip(&ops.instrs).map(|(s, &n)| n as f64 / s).collect();
    let lat_us: Vec<f64> = ops.lat_s.iter().map(|s| s * 1e6).collect();
    out.attempted = ops.attempted;
    out.failed = ops.failed;
    out.put("instrs_per_s", "instrs/s", percentile(&rates, 0.99));
    out.put("op_p1_us", "us", percentile(&lat_us, 0.01));
    out.put("mpki", "1/kinstr", setup.mpki());
    out.put("setup_s", "s", setup_s);
    out.put("peak_rss_mib", "MiB", crate::measure::peak_rss_mib());
    out.put("ok_frac", "frac", (ops.attempted - ops.failed) as f64 / ops.attempted as f64);
}

/// Simulated instructions a batch of records retires.
pub fn batch_instrs(batch: &[BranchRecord]) -> u64 {
    batch.iter().map(|r| 1 + u64::from(r.gap_instrs)).sum()
}

/// Round trips of one served stream.
#[derive(Debug, Default)]
pub struct StreamRtts {
    pub open: Duration,
    pub feeds: Vec<Duration>,
    pub close: Duration,
}

impl StreamRtts {
    pub fn total(&self) -> Duration {
        self.open + self.feeds.iter().sum::<Duration>() + self.close
    }
}

/// Serves one input as a z15 stream: open, feed in `DEFAULT_BATCH`
/// frames, close, timing each round trip (frames are built before the
/// clock starts). `Err` when any request is refused (`Busy` included)
/// or fails, or when the `CloseOk` differs from the in-process
/// reference.
pub fn serve_once(client: &mut Client, input: &Input, want: &Reference) -> Result<StreamRtts, ()> {
    let mut rtts = StreamRtts::default();
    let open = Frame::Open {
        preset: WirePreset::Generation(GenerationPreset::Z15),
        mode: WireMode::default(),
        traced: false,
        label: input.trace.label().to_string(),
    };
    let (reply, rtt) = timed_call(client, &open)?;
    rtts.open = rtt;
    let Frame::OpenOk { id, .. } = reply else { return Err(()) };
    for chunk in input.trace.as_slice().chunks(DEFAULT_BATCH) {
        let feed = Frame::Feed { id, batch: chunk.to_vec() };
        let (reply, rtt) = timed_call(client, &feed)?;
        rtts.feeds.push(rtt);
        let Frame::FeedOk { .. } = reply else { return Err(()) };
    }
    let close = Frame::Close { id, tail_instrs: input.trace.tail_instrs() };
    let (reply, rtt) = timed_call(client, &close)?;
    rtts.close = rtt;
    match reply {
        Frame::CloseOk { stats, flushes, records }
            if (Reference { stats, flushes, records }) == *want =>
        {
            Ok(rtts)
        }
        _ => Err(()),
    }
}

fn timed_call(client: &mut Client, frame: &Frame) -> Result<(Frame, Duration), ()> {
    let t = Instant::now();
    let reply = client.call(frame).map_err(|_| ())?;
    Ok((reply, t.elapsed()))
}
