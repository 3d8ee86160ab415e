//! The traced run: the per-layer ledger, measured from outside.
//!
//! Nothing here reaches inside the program. Layers are timed around
//! calls into their public functions: a timing [`Predictor`] wrapper
//! around `ZPredictor`, the standalone BTB1/BTB2/PHT/perceptron/CTB and
//! `ZStats` replaying an event stream captured through the `Probe`
//! trait, `Session`, `ShardPool` and `Frame` driven in process on the
//! same requests a `Client` sent over loopback. Each ledger ends in a
//! named residual (`core.glue_ns`, `serve.server.self_us`): the traced
//! per-op time minus the rows measured on their own. A ledger closes
//! when no residual is negative and the measured rows fit inside the
//! total; a ledger that does not close fails the run.

use crate::inputs::{self, Input, Kind, Reference, Setup};
use crate::measure::{median, median_secs, ratio, Args, Ops, Outcome};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zbp_bench::Experiment;
use zbp_core::btb::BtbEntry;
use zbp_core::btb1::Btb1;
use zbp_core::btb2::{Btb2, SearchReason};
use zbp_core::ctb::Ctb;
use zbp_core::direction::DirectionProvider as Dp;
use zbp_core::events::{BplEvent, Probe};
use zbp_core::gpv::Gpv;
use zbp_core::perceptron::Perceptron;
use zbp_core::stats::ZStats;
use zbp_core::tage::Pht;
use zbp_core::target::TargetProvider as Tp;
use zbp_core::{GenerationPreset, PredictorConfig, ZPredictor};
use zbp_model::{
    BranchRecord, DynamicTrace, MispredictStats, Prediction, Predictor, ReplayCore, RunStats,
    ThreadId,
};
use zbp_serve::{
    Client, Frame, PoolConfig, ReplayMode, Session, ShardPool, WireMode, WirePreset, DEFAULT_BATCH,
    DEFAULT_DEPTH,
};
use zbp_telemetry::Telemetry;
use zbp_zarch::{BranchClass, Direction, InstrAddr};

/// Shares of `--seconds` for the timed serve ledger and the timed core
/// ledger. The rest of a traced run (capture, structure replays, preset
/// pass, `Experiment` runs) is fixed work.
const SERVE_SHARE: f64 = 0.35;
const CORE_SHARE: f64 = 0.45;
/// Captured events to replay against the standalone structures.
const CAPTURE_EVENTS: usize = 150_000;
/// Repetitions of each standalone timing; the median is reported.
const REPS: usize = 5;

/// Host time and calls accumulated by one `Predictor` method.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTime {
    pub ns: u64,
    pub calls: u64,
}

impl CallTime {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    fn add(&mut self, o: CallTime) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

/// The cost of [`CallTime::time`] itself: `inside_ns` is what it adds
/// to the recorded interval, `total_ns` what it adds to the caller.
struct Timer {
    inside_ns: f64,
    total_ns: f64,
}

impl Timer {
    fn calibrate() -> Timer {
        const N: u32 = 200_000;
        let runs: Vec<(f64, f64)> = (0..REPS)
            .map(|_| {
                let mut c = CallTime::default();
                let t = Instant::now();
                for i in 0..N {
                    c.time(|| black_box(i));
                }
                (c.ns as f64 / f64::from(N), ns_since(t) / f64::from(N))
            })
            .collect();
        Timer {
            inside_ns: median(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
            total_ns: median(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
        }
    }
}

/// Times every predict/resolve/flush call into the wrapped predictor.
/// It only observes: the wrapped predictor sees exactly the calls it
/// would see unwrapped.
pub struct Timed<P> {
    pub inner: P,
    pub predict: CallTime,
    pub resolve: CallTime,
    pub flush: CallTime,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            predict: CallTime::default(),
            resolve: CallTime::default(),
            flush: CallTime::default(),
        }
    }
}

impl<P: Predictor> Predictor for Timed<P> {
    fn predict(&mut self, addr: InstrAddr, class: BranchClass) -> Prediction {
        let Timed { inner, predict, .. } = self;
        predict.time(|| inner.predict(addr, class))
    }

    fn resolve(&mut self, rec: &BranchRecord, pred: &Prediction) {
        let Timed { inner, resolve, .. } = self;
        resolve.time(|| inner.resolve(rec, pred))
    }

    fn flush(&mut self, rec: &BranchRecord) {
        let Timed { inner, flush, .. } = self;
        flush.time(|| inner.flush(rec))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn predict_on(&mut self, thread: ThreadId, addr: InstrAddr, class: BranchClass) -> Prediction {
        let Timed { inner, predict, .. } = self;
        predict.time(|| inner.predict_on(thread, addr, class))
    }

    fn resolve_on(&mut self, thread: ThreadId, rec: &BranchRecord, pred: &Prediction) {
        let Timed { inner, resolve, .. } = self;
        resolve.time(|| inner.resolve_on(thread, rec, pred))
    }

    fn flush_on(&mut self, thread: ThreadId, rec: &BranchRecord) {
        let Timed { inner, flush, .. } = self;
        flush.time(|| inner.flush_on(thread, rec))
    }
}

/// One op replayed the way `Session::options(cfg).run` replays it — a
/// fresh predictor, `ReplayCore` at the default depth — but through
/// the timing wrapper, with an optional probe installed.
pub struct TracedOp {
    pub total_ns: u64,
    pub new_ns: u64,
    pub pred: Timed<ZPredictor>,
    pub run: RunStats,
}

pub fn traced_op(
    cfg: &PredictorConfig,
    trace: &DynamicTrace,
    probe: Option<Box<dyn Probe + Send>>,
) -> TracedOp {
    let t = Instant::now();
    let mut inner = ZPredictor::new(cfg.clone());
    let new_ns = t.elapsed().as_nanos() as u64;
    if let Some(p) = probe {
        inner.set_probe(p);
    }
    let mut pred = Timed::new(inner);
    let mut core = ReplayCore::new(DEFAULT_DEPTH);
    let mut tel = Telemetry::disabled();
    for rec in trace.as_slice() {
        core.step(&mut pred, rec, &mut tel);
    }
    let run = core.finish(&mut pred, trace.tail_instrs());
    TracedOp { total_ns: t.elapsed().as_nanos() as u64, new_ns, pred, run }
}

fn matches(run: &RunStats, want: &Reference) -> bool {
    run.stats == want.stats && run.flushes == want.flushes
}

/// Event counts, and (while `record` is set) the events themselves.
#[derive(Debug, Default)]
struct CaptureState {
    record: bool,
    events: Vec<BplEvent>,
    btb1_searches: u64,
    btb1_writes: u64,
    btb2_hit_searches: u64,
}

/// A `Probe` feeding a [`CaptureState`] the benchmark keeps a handle to.
#[derive(Debug, Default, Clone)]
pub struct Capture(Arc<Mutex<CaptureState>>);

impl Capture {
    fn state(&self) -> std::sync::MutexGuard<'_, CaptureState> {
        self.0.lock().expect("no code panics while holding the capture lock")
    }
}

impl Probe for Capture {
    fn event(&mut self, ev: &BplEvent) {
        let mut s = self.state();
        match ev {
            BplEvent::Btb1Search { .. } => s.btb1_searches += 1,
            BplEvent::Btb1Install { .. }
            | BplEvent::Btb1Update { .. }
            | BplEvent::Btb1Remove { .. } => s.btb1_writes += 1,
            BplEvent::Btb2Search { staged, .. } if *staged > 0 => s.btb2_hit_searches += 1,
            _ => {}
        }
        if s.record {
            s.events.push(ev.clone());
        }
    }
}

/// Deterministic simulated counts over one pass of the workload's z15
/// inputs, plus the captured events of the first ops.
#[derive(Default)]
struct Counts {
    stats: MispredictStats,
    flushes: u64,
    zstats: Vec<ZStats>,
    btb1_searches: u64,
    btb1_writes: u64,
    btb2_searches: u64,
    btb2_hit_searches: u64,
    pht_lookups: u64,
    perceptron_lookups: u64,
    ctb_lookups: u64,
    /// Captured ops, each its own event stream from a fresh predictor.
    captured: Vec<Vec<BplEvent>>,
    /// The last captured op's direction and target tables, as it left
    /// them.
    warm: Option<(Pht, Option<Perceptron>, Option<Ctb>)>,
}

impl Counts {
    fn dir(&self, ps: &[Dp]) -> u64 {
        self.zstats
            .iter()
            .map(|z| ps.iter().map(|&p| z.direction.tally(p).predictions).sum::<u64>())
            .sum()
    }

    fn tgt(&self, p: Tp) -> u64 {
        self.zstats.iter().map(|z| z.target.tally(p).predictions).sum()
    }

    fn records(&self) -> u64 {
        self.zstats.iter().map(|z| z.direction_total() + z.target.total()).sum()
    }
}

fn count_pass(
    cfg: &PredictorConfig,
    inputs: &[Input],
    refs: &[Reference],
    ops: &mut Ops,
) -> Counts {
    let mut c = Counts::default();
    let mut captured_events = 0;
    for (input, want) in inputs.iter().zip(refs) {
        let capture = Capture::default();
        capture.state().record = captured_events < CAPTURE_EVENTS;
        let op = traced_op(cfg, &input.trace, Some(Box::new(capture.clone())));
        ops.attempted += 1;
        if !matches(&op.run, want) {
            ops.failed += 1;
        }
        let mut s = capture.state();
        c.stats.merge(&op.run.stats);
        c.flushes += op.run.flushes;
        c.btb1_searches += s.btb1_searches;
        c.btb1_writes += s.btb1_writes;
        c.btb2_hit_searches += s.btb2_hit_searches;
        let st = op.pred.inner.structures();
        c.btb2_searches += st.btb2.map_or(0, |b| b.stats.searches);
        c.pht_lookups += st.pht.stats.lookups;
        c.perceptron_lookups += st.perceptron.map_or(0, |p| p.stats.lookups);
        c.ctb_lookups += st.ctb.map_or(0, |t| t.stats.lookups);
        if s.record {
            captured_events += s.events.len();
            c.captured.push(std::mem::take(&mut s.events));
            c.warm = Some((st.pht.clone(), st.perceptron.cloned(), st.ctb.cloned()));
        }
        c.zstats.push(op.pred.inner.stats.clone());
    }
    c
}

/// The captured events turned into per-structure call streams.
#[derive(Default)]
struct Streams {
    btb1: Vec<Vec<B1>>,
    btb2: Vec<Vec<B2>>,
    pht: Vec<(InstrAddr, usize, Gpv)>,
    perceptron: Vec<(InstrAddr, Gpv)>,
    ctb: Vec<(InstrAddr, Gpv)>,
    dir: Vec<(Dp, bool)>,
    tgt: Vec<(Tp, bool)>,
}

enum B1 {
    Search(InstrAddr),
    Install(BtbEntry),
    Update(BtbEntry),
    Remove(InstrAddr),
}

enum B2 {
    Fill(BtbEntry),
    Refresh(BtbEntry),
    Search(InstrAddr, SearchReason),
}

/// Rebuilds each op's structure calls from its events: BTB1 writes and
/// searches as captured; BTB2 fills from the z15 write-through of fresh
/// installs plus refreshes, and searches as captured; a PHT/perceptron
/// lookup for every dynamic prediction of a bidirectional conditional
/// and a CTB lookup for every multi-target one (the entry read from a
/// standalone BTB1 following the same writes), each with a `Gpv`
/// rebuilt from captured completions; a stats record per completion.
fn streams(cfg: &PredictorConfig, captured: &[Vec<BplEvent>]) -> Streams {
    let mut s = Streams::default();
    for events in captured {
        let mut btb1 = Btb1::new(&cfg.btb1);
        let mut gpv = Gpv::new(cfg.gpv_depth);
        let mut last_hit: Option<(usize, BtbEntry)> = None;
        let mut pending = VecDeque::new();
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for ev in events {
            match ev {
                BplEvent::Btb1Search { addr, .. } => {
                    b1.push(B1::Search(*addr));
                    last_hit = btb1.lookup(*addr);
                }
                BplEvent::Btb1Install { entry, duplicate, .. } => {
                    b1.push(B1::Install(*entry));
                    btb1.install(*entry);
                    if !duplicate {
                        b2.push(B2::Fill(*entry));
                    }
                }
                BplEvent::Btb1Update { entry } => {
                    b1.push(B1::Update(*entry));
                    btb1.update(entry.branch_addr, |e| *e = *entry);
                }
                BplEvent::Btb1Remove { addr } => {
                    b1.push(B1::Remove(*addr));
                    btb1.remove(*addr);
                }
                BplEvent::Btb2Search { addr, reason, .. } => b2.push(B2::Search(*addr, *reason)),
                BplEvent::Btb2Refresh { entry } => b2.push(B2::Refresh(*entry)),
                BplEvent::Predict { addr, dynamic, dir_provider, tgt_provider, .. } => {
                    if let Some((way, e)) =
                        last_hit.filter(|(_, e)| *dynamic && e.branch_addr == *addr)
                    {
                        if !e.is_unconditional() && e.bidirectional {
                            s.pht.push((*addr, way, gpv));
                            s.perceptron.push((*addr, gpv));
                        }
                        if e.multi_target {
                            s.ctb.push((*addr, gpv));
                        }
                    }
                    pending.push_back((*dir_provider, *tgt_provider));
                }
                BplEvent::Complete { addr, resolved, mispredicted, .. } => {
                    if *resolved == Direction::Taken {
                        gpv.push_taken(*addr);
                    }
                    if let Some((d, t)) = pending.pop_front() {
                        s.dir.push((d, !mispredicted));
                        if let Some(t) = t {
                            s.tgt.push((t, !mispredicted));
                        }
                    }
                }
                _ => {}
            }
        }
        s.btb1.push(b1);
        s.btb2.push(b2);
    }
    s
}

/// Host ns to replay every op's BTB1 stream on a fresh BTB1 (built
/// outside the clock), with or without the searches.
fn time_btb1(cfg: &PredictorConfig, ops: &[Vec<B1>], searches: bool) -> f64 {
    let mut ns = 0;
    for op in ops {
        let mut b = Btb1::new(&cfg.btb1);
        let t = Instant::now();
        for call in op {
            match call {
                B1::Search(a) if searches => {
                    black_box(b.lookup(*a));
                }
                B1::Search(_) => {}
                B1::Install(e) => {
                    black_box(b.install(*e));
                }
                B1::Update(e) => {
                    black_box(b.update(e.branch_addr, |x| *x = *e));
                }
                B1::Remove(a) => {
                    black_box(b.remove(*a));
                }
            }
        }
        ns += t.elapsed().as_nanos() as u64;
    }
    ns as f64
}

fn time_btb2(cfg: &PredictorConfig, ops: &[Vec<B2>], searches: bool) -> f64 {
    let Some(b2cfg) = &cfg.btb2 else { return 0.0 };
    let mut ns = 0;
    for op in ops {
        let mut b = Btb2::new(b2cfg, cfg.btb1.search_bytes);
        let t = Instant::now();
        for call in op {
            match call {
                B2::Search(a, r) if searches => {
                    black_box(b.search(*a, *r));
                    while b.pop_staged().is_some() {}
                }
                B2::Search(..) => {}
                B2::Fill(e) => b.fill(*e),
                B2::Refresh(e) => b.refresh(*e),
            }
        }
        ns += t.elapsed().as_nanos() as u64;
    }
    ns as f64
}

/// Median over [`REPS`] of `f`'s host ns, divided by `calls`.
fn per_call(calls: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    ratio(median(&v), calls as f64)
}

/// Times a lookup loop over `inputs` on a fresh copy of `table` each
/// repetition (copied outside the clock).
fn time_lookups<T: Clone, I>(
    table: Option<&T>,
    inputs: &[I],
    mut look: impl FnMut(&mut T, &I),
) -> f64 {
    let Some(table) = table else { return 0.0 };
    per_call(inputs.len(), || {
        let mut t = table.clone();
        let start = Instant::now();
        for i in inputs {
            look(&mut t, i);
        }
        start.elapsed().as_nanos() as f64
    })
}

/// Per-call host ns of each standalone structure.
struct StructureCosts {
    btb1_search: f64,
    btb1_write: f64,
    btb2_search: f64,
    pht: f64,
    perceptron: f64,
    ctb: f64,
    stats_record: f64,
}

fn structure_costs(cfg: &PredictorConfig, c: &Counts) -> StructureCosts {
    let s = streams(cfg, &c.captured);
    let n_search = s.btb1.iter().flatten().filter(|x| matches!(x, B1::Search(_))).count();
    let n_write = s.btb1.iter().map(Vec::len).sum::<usize>() - n_search;
    let n_b2 = s.btb2.iter().flatten().filter(|x| matches!(x, B2::Search(..))).count();
    let b1_all = per_call(1, || time_btb1(cfg, &s.btb1, true));
    let b1_writes = per_call(1, || time_btb1(cfg, &s.btb1, false));
    let b2_all = per_call(1, || time_btb2(cfg, &s.btb2, true));
    let b2_fills = per_call(1, || time_btb2(cfg, &s.btb2, false));
    let (pht, perc, ctb) = match &c.warm {
        Some((p, q, t)) => (Some(p), q.as_ref(), t.as_ref()),
        None => (None, None, None),
    };
    StructureCosts {
        btb1_search: ratio(b1_all - b1_writes, n_search as f64),
        btb1_write: ratio(b1_writes, n_write as f64),
        btb2_search: ratio(b2_all - b2_fills, n_b2 as f64),
        pht: time_lookups(pht, &s.pht, |t: &mut Pht, (a, w, g)| {
            black_box(t.lookup(*a, *w, g));
        }),
        perceptron: time_lookups(perc, &s.perceptron, |t: &mut Perceptron, (a, g)| {
            black_box(t.lookup(*a, g));
        }),
        ctb: time_lookups(ctb, &s.ctb, |t: &mut Ctb, (a, g)| {
            black_box(t.lookup(*a, g));
        }),
        stats_record: per_call(s.dir.len() + s.tgt.len(), || {
            let mut z = ZStats::new();
            let start = Instant::now();
            for &(p, ok) in &s.dir {
                z.record_direction(p, ok);
            }
            for &(p, ok) in &s.tgt {
                z.record_target(p, ok);
            }
            black_box(&z);
            start.elapsed().as_nanos() as f64
        }),
    }
}

/// The timed core ledger: traced z15 ops over the inputs, round robin
/// until the deadline (at least one pass).
#[derive(Default)]
struct CoreTimes {
    ops: u64,
    total_ns: u64,
    new_ns: u64,
    branches: u64,
    instrs: u64,
    predict: CallTime,
    resolve: CallTime,
    flush: CallTime,
}

/// Runs the timed core ledger. Each traced op follows the same op
/// untraced (`Session::options(cfg).run`), the reference for the
/// tracing overhead; pairing them keeps host-speed switches out of the
/// comparison.
fn core_ledger(
    setup: &Setup,
    cfg: &PredictorConfig,
    deadline: Instant,
    ops: &mut Ops,
) -> (CoreTimes, Ops) {
    let mut t = CoreTimes::default();
    let mut plain = Ops::default();
    loop {
        for (input, want) in setup.inputs.iter().zip(&setup.refs) {
            let (r, ns) = timed(|| Session::options(cfg).run(&input.trace));
            plain.push(Duration::from_nanos(ns as u64), r.stats.instructions.get());
            let op = traced_op(cfg, &input.trace, None);
            ops.attempted += 2;
            ops.failed += u64::from(Reference::from(&r) != *want);
            ops.failed += u64::from(!matches(&op.run, want));
            t.ops += 1;
            t.total_ns += op.total_ns;
            t.new_ns += op.new_ns;
            t.branches += op.run.stats.branches.get();
            t.instrs += op.run.stats.instructions.get();
            t.predict.add(op.pred.predict);
            t.resolve.add(op.pred.resolve);
            t.flush.add(op.pred.flush);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    (t, plain)
}

/// The serve ledger, in the workload's op granularity: one full-size
/// Feed request, or (for `serve-churn`) one whole open→feed→close
/// session.
#[derive(Default)]
struct ServeTimes {
    ops: u64,
    rtt_ns: f64,
    session_ns: f64,
    pool_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    /// Clock intervals summed into `pool_ns + encode_ns + decode_ns`.
    intervals: u64,
    feed_requests: u64,
    session_feed_ns: f64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Runs `f` and returns its result with its host ns.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ns_since(t))
}

/// Host ns to encode, and to decode, a request and its reply.
fn proto_ns(request: &Frame, reply: &Frame) -> (f64, f64) {
    let (mut enc, mut dec) = (0.0, 0.0);
    for frame in [request, reply] {
        let (bytes, e) = timed(|| frame.encode());
        let (back, d) = timed(|| Frame::decode(&bytes));
        debug_assert!(back.as_ref().is_ok_and(|f| f == frame));
        black_box(back.ok());
        enc += e;
        dec += d;
    }
    (enc, dec)
}

/// One request's host ns: the client round trip, the same request on an
/// in-process `Session` and on the ledger's `ShardPool`, and its frames'
/// encode and decode.
struct RequestNs {
    rtt: f64,
    session: f64,
    pool: f64,
    encode: f64,
    decode: f64,
}

/// Serves one input three ways in lockstep — over the client, on an
/// in-process `Session`, and on `pool` — timing each request the three
/// ways back to back, so that a host-speed switch seldom falls between
/// them. Returns the open's, each feed's and the close's times, or
/// `Err` when a request fails or any of the three results differs from
/// the reference.
fn serve_lockstep(
    client: &mut Client,
    pool: &ShardPool,
    cfg: &PredictorConfig,
    input: &Input,
    want: &Reference,
) -> Result<Vec<RequestNs>, ()> {
    let trace = &input.trace;
    let label = trace.label();
    let mut times = Vec::new();
    let open = Frame::Open {
        preset: WirePreset::Generation(GenerationPreset::Z15),
        mode: WireMode::default(),
        traced: false,
        label: label.to_string(),
    };
    let (reply, rtt) = timed(|| client.call(&open));
    let reply = reply.map_err(|_| ())?;
    let Frame::OpenOk { id, .. } = reply else { return Err(()) };
    let (mut session, session_ns) =
        timed(|| Session::open(label, cfg, ReplayMode::default(), false));
    let (opened, pool_ns) = timed(|| pool.open(label, cfg, ReplayMode::default(), false));
    let pool_id = opened.map_err(|_| ())?.id;
    let (encode, decode) = proto_ns(&open, &reply);
    times.push(RequestNs { rtt, session: session_ns, pool: pool_ns, encode, decode });

    for chunk in trace.as_slice().chunks(DEFAULT_BATCH) {
        let feed = Frame::Feed { id, batch: chunk.to_vec() };
        let (reply, rtt) = timed(|| client.call(&feed));
        let reply = reply.map_err(|_| ())?;
        let Frame::FeedOk { .. } = reply else { return Err(()) };
        let ((), session_ns) = timed(|| session.feed(chunk));
        let batch = chunk.to_vec();
        let (fed, pool_ns) = timed(|| pool.feed(pool_id, batch));
        fed.map_err(|_| ())?;
        let (encode, decode) = proto_ns(&feed, &reply);
        times.push(RequestNs { rtt, session: session_ns, pool: pool_ns, encode, decode });
    }

    let close = Frame::Close { id, tail_instrs: trace.tail_instrs() };
    let (reply, rtt) = timed(|| client.call(&close));
    let reply = reply.map_err(|_| ())?;
    let (report, session_ns) = timed(|| session.finish(trace.tail_instrs()));
    let (closed, pool_ns) = timed(|| pool.close(pool_id, trace.tail_instrs()));
    let (encode, decode) = proto_ns(&close, &reply);
    times.push(RequestNs { rtt, session: session_ns, pool: pool_ns, encode, decode });
    let Frame::CloseOk { stats, flushes, records } = reply else { return Err(()) };
    let served = Reference { stats, flushes, records };
    let pooled = closed.map(|r| Reference::from(&r)).map_err(|_| ())?;
    if served == *want && Reference::from(&report) == *want && pooled == *want {
        Ok(times)
    } else {
        Err(())
    }
}

/// The timed serve ledger: streams served in lockstep, round robin until
/// the deadline (at least one stream).
fn serve_ledger(
    setup: &Setup,
    cfg: &PredictorConfig,
    addr: std::net::SocketAddr,
    deadline: Instant,
    ops: &mut Ops,
) -> ServeTimes {
    let mut client = Client::connect(addr).expect("connect to the loopback benchmark server");
    let pool = ShardPool::new(PoolConfig { shards: 1, ..PoolConfig::default() });
    let mut st = ServeTimes::default();
    for (input, want) in setup.inputs.iter().zip(&setup.refs).cycle() {
        ops.attempted += 1;
        let Ok(times) = serve_lockstep(&mut client, &pool, cfg, input, want) else {
            ops.failed += 1;
            break;
        };
        let feeds = &times[1..times.len() - 1];
        st.feed_requests += feeds.len() as u64;
        st.session_feed_ns += feeds.iter().map(|r| r.session).sum::<f64>();
        // `serve-stream` ops are the full-size Feed requests, as in the
        // untraced run.
        let chunks = input.trace.as_slice().chunks(DEFAULT_BATCH);
        let groups: Vec<&[RequestNs]> = match setup.kind {
            Kind::ServeChurn => vec![&times[..]],
            Kind::ServeStream => feeds
                .iter()
                .zip(chunks)
                .filter(|(_, c)| c.len() == DEFAULT_BATCH)
                .map(|(r, _)| std::slice::from_ref(r))
                .collect(),
        };
        for group in groups {
            st.ops += 1;
            for r in group {
                st.rtt_ns += r.rtt;
                st.session_ns += r.session;
                st.pool_ns += r.pool;
                st.encode_ns += r.encode;
                st.decode_ns += r.decode;
                // One pool interval and four proto intervals.
                st.intervals += 5;
            }
        }
        if Instant::now() >= deadline && st.ops > 0 {
            break;
        }
    }
    pool.shutdown();
    st
}

/// Per-preset construction cost, replay cost and MPKI over the
/// workload's inputs.
struct PresetRow {
    name: &'static str,
    new_us: f64,
    ns_per_branch: f64,
    mpki: f64,
}

fn preset_pass(inputs: &[Input]) -> Vec<PresetRow> {
    GenerationPreset::ALL
        .iter()
        .zip(["zec12", "z13", "z14", "z15"])
        .map(|(p, name)| {
            let cfg = p.config();
            let new_us = 1e6
                * median_secs(9, || {
                    black_box(ZPredictor::new(cfg.clone()));
                });
            let (mut ns, mut branches, mut stats) = (0.0, 0, MispredictStats::new());
            for input in inputs {
                let t = Instant::now();
                let r = Session::options(&cfg).run(&input.trace);
                ns += ns_since(t);
                branches += r.records;
                stats.merge(&r.stats);
            }
            PresetRow {
                name,
                new_us,
                ns_per_branch: ratio(ns, branches as f64),
                mpki: stats.mpki(),
            }
        })
        .collect()
}

/// Share of `Experiment::run` wall time spent outside its cells, for
/// one z15 cell per input on one worker thread; median of three runs.
fn experiment_self_frac(setup: &Setup, cfg: &PredictorConfig) -> f64 {
    let workloads: Vec<_> = setup.inputs.iter().map(|i| i.workload.clone()).collect();
    let fracs: Vec<f64> = (0..3)
        .map(|_| {
            let res = Experiment::bare()
                .name("perfbench-ledger")
                .config(cfg.name.clone(), cfg)
                .workloads(workloads.clone())
                .threads(1)
                .run();
            let cells: Duration =
                res.entries.iter().flat_map(|e| &e.cells).map(|c| c.wall_time).sum();
            1.0 - cells.as_secs_f64() / res.wall_time.as_secs_f64()
        })
        .collect();
    median(&fracs)
}

/// One ledger: rows measured independently, and named residuals (the
/// total minus everything else, by construction). It closes when every
/// residual is non-negative and the measured rows fit inside the total
/// to within `tolerance`, the clock error they can carry.
struct Ledger<'a> {
    title: &'a str,
    unit: &'a str,
    total: f64,
    tolerance: f64,
    measured: Vec<(&'a str, f64)>,
    residuals: Vec<(&'a str, f64)>,
}

impl Ledger<'_> {
    /// Prints the ledger to stderr and says whether it closes.
    fn check(&self) -> bool {
        eprintln!("ledger {} ({}):", self.title, self.unit);
        for (name, v) in self.measured.iter().chain(&self.residuals) {
            eprintln!("  {name:<28} {v:>12.3}  {:>6.1}%", 100.0 * ratio(*v, self.total));
        }
        let measured: f64 = self.measured.iter().map(|r| r.1).sum();
        eprintln!(
            "  {:<28} {:>12.3}  (measured rows {measured:.3}, tolerance {:.3})",
            "traced per-op total", self.total, self.tolerance
        );
        let mut ok = measured <= self.total + self.tolerance;
        if !ok {
            eprintln!("perfbench: ledger {}: measured rows exceed the total", self.title);
        }
        for (name, v) in &self.residuals {
            if *v < 0.0 {
                eprintln!("perfbench: ledger {}: residual {name} is negative", self.title);
                ok = false;
            }
        }
        ok
    }
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let s = args.seconds;
    let after = |share: f64| Instant::now() + Duration::from_secs_f64(share * s);
    let (setup, server) = inputs::setup_repeated(kind, args.seed, crate::SETUP_REPS);
    let z15 = GenerationPreset::Z15.config();
    let mut checked = Ops::default();
    let mut out = Outcome::default();

    // The serve ledger comes first. The server stops before the
    // in-process timings, so its mux thread's idle polling overlaps none
    // of them.
    let serve = serve_ledger(&setup, &z15, server.local_addr(), after(SERVE_SHARE), &mut checked);
    server.shutdown();
    let counts = count_pass(&z15, &setup.inputs, &setup.refs, &mut checked);
    let (core, plain) = core_ledger(&setup, &z15, after(CORE_SHARE), &mut checked);
    let costs = structure_costs(&z15, &counts);
    let presets = preset_pass(&setup.inputs);
    let exp_self = experiment_self_frac(&setup, &z15);
    let mut p = ZPredictor::new(z15.clone());
    let reset_us = 1e6 * median_secs(9, || p.reset());
    drop(p);

    // Core ledger, per z15 branch. The wrapper's own clock reads are
    // calibrated out of the rows they inflate and shown as their own.
    let timer = Timer::calibrate();
    let br = core.branches as f64;
    let calls = (core.predict.calls + core.resolve.calls + core.flush.calls) as f64;
    let inside = (core.predict.ns + core.resolve.ns + core.flush.ns) as f64;
    let core_ns = (inside - calls * timer.inside_ns) / br;
    let model_self = (core.total_ns as f64
        - core.new_ns as f64
        - inside
        - calls * (timer.total_ns - timer.inside_ns))
        / br;
    let count_br = counts.stats.branches.get() as f64;
    let per_br = |calls: u64, ns_per_call: f64| calls as f64 / count_br * ns_per_call;
    let structure_rows = [
        ("core.btb1.search", per_br(counts.btb1_searches, costs.btb1_search)),
        ("core.btb1.write", per_br(counts.btb1_writes, costs.btb1_write)),
        ("core.btb2.search", per_br(counts.btb2_searches, costs.btb2_search)),
        ("core.pht.lookup", per_br(counts.pht_lookups, costs.pht)),
        ("core.perceptron.lookup", per_br(counts.perceptron_lookups, costs.perceptron)),
        ("core.ctb.lookup", per_br(counts.ctb_lookups, costs.ctb)),
        ("core.stats.record", per_br(counts.records(), costs.stats_record)),
    ];
    let glue = core_ns - structure_rows.iter().map(|r| r.1).sum::<f64>();
    let mut measured = vec![
        ("core.new (in op)", core.new_ns as f64 / br),
        ("ledger.timer (tracing)", calls * timer.total_ns / br),
    ];
    measured.extend(structure_rows);
    let core_closed = Ledger {
        title: "core, z15 ops",
        unit: "ns/branch",
        total: core.total_ns as f64 / br,
        tolerance: calls * timer.inside_ns / br,
        measured,
        residuals: vec![("model.replay (self)", model_self), ("core.glue (residual)", glue)],
    }
    .check();
    let net = |c: CallTime| ratio(c.ns as f64, c.calls as f64) - timer.inside_ns;

    // Serve ledger, per op.
    let n = serve.ops as f64;
    let (sess, pool_self) = (serve.session_ns / n, (serve.pool_ns - serve.session_ns) / n);
    let (enc, dec) = (serve.encode_ns / n, serve.decode_ns / n);
    let server_self = (serve.rtt_ns - serve.pool_ns - serve.encode_ns - serve.decode_ns) / n;
    let serve_closed = Ledger {
        title: "serve",
        unit: "us/op",
        total: serve.rtt_ns / n / 1e3,
        tolerance: serve.intervals as f64 / n * timer.total_ns / 1e3,
        measured: vec![
            ("serve.session", sess / 1e3),
            ("serve.pool (self)", pool_self / 1e3),
            ("serve.proto.encode", enc / 1e3),
            ("serve.proto.decode", dec / 1e3),
        ],
        residuals: vec![("serve.server (residual)", server_self / 1e3)],
    }
    .check();
    if !(core_closed && serve_closed) {
        eprintln!("perfbench: a ledger does not close");
        checked.failed += 1;
    }

    // Tracing overhead: the wrapper's cost on the workload's own traces,
    // traced z15 ops against the same ops untraced, per simulated
    // instruction. The served path carries no tracing (its in-process
    // mirrors are timed apart from the round trips), so this is all the
    // traced run adds.
    let traced_ns_per_instr = core.total_ns as f64 / core.instrs as f64;
    let overhead = traced_ns_per_instr / plain.ns_per_instr() - 1.0;
    eprintln!(
        "tracing overhead on {}: {:.1}% ({:.3} traced vs {:.3} untraced ns/instr)",
        kind.name(),
        100.0 * overhead,
        traced_ns_per_instr,
        plain.ns_per_instr()
    );
    let mpki_of = |name: &str| presets.iter().find(|r| r.name == name).map_or(0.0, |r| r.mpki);
    let step = |a: &str, b: &str| mpki_of(b) / mpki_of(a) - 1.0;
    eprintln!(
        "MPKI step z13->z14 {:+.1}% (paper, LSPR on hardware: -9.6%), z14->z15 {:+.1}% (paper: -25%); \
         the synthetic suite is not validated against hardware",
        100.0 * step("z13", "z14"),
        100.0 * step("z14", "z15"),
    );

    out.attempted = checked.attempted;
    out.failed = checked.failed;
    let kinstr = counts.stats.instructions.get() as f64 / 1e3;
    let branches = counts.stats.branches.get() as f64;
    let dir_total: u64 = counts.zstats.iter().map(ZStats::direction_total).sum();
    let dir = |ps: &[Dp]| ratio(counts.dir(ps) as f64, dir_total as f64);
    let tgt_total: u64 = counts.zstats.iter().map(|z| z.target.total()).sum();
    let tgt = |p: Tp| ratio(counts.tgt(p) as f64, tgt_total as f64);

    out.put("trace.generate_s", "s", setup.steps.generate_s());
    out.put("model.replay.self_ns", "ns", model_self);
    out.put("core.predict_ns", "ns", net(core.predict));
    out.put("core.resolve_ns", "ns", net(core.resolve));
    out.put("core.flush_ns", "ns", net(core.flush));
    out.put("core.flush_per_branch", "count", ratio(counts.flushes as f64, branches));
    out.put("core.new_in_op_us", "us", core.new_ns as f64 / core.ops as f64 / 1e3);
    out.put("core.btb1.search_ns", "ns", costs.btb1_search);
    out.put("core.btb1.write_ns", "ns", costs.btb1_write);
    out.put("core.btb2.search_ns", "ns", costs.btb2_search);
    out.put("core.pht.lookup_ns", "ns", costs.pht);
    out.put("core.perceptron.lookup_ns", "ns", costs.perceptron);
    out.put("core.ctb.lookup_ns", "ns", costs.ctb);
    out.put("core.stats.record_ns", "ns", costs.stats_record);
    out.put("core.glue_ns", "ns", glue);
    for r in &presets {
        out.put(format!("core.new_us.{}", r.name), "us", r.new_us);
        out.put(format!("core.ns_per_branch.{}", r.name), "ns", r.ns_per_branch);
    }
    out.put("core.reset_us", "us", reset_us);
    out.put("bench.experiment.self_frac", "frac", exp_self);
    out.put(
        "serve.session.feed_us",
        "us",
        ratio(serve.session_feed_ns, serve.feed_requests as f64) / 1e3,
    );
    out.put("serve.pool.self_us", "us", pool_self / 1e3);
    out.put("serve.proto.encode_us", "us", enc / 1e3);
    out.put("serve.proto.decode_us", "us", dec / 1e3);
    out.put("serve.server.self_us", "us", server_self / 1e3);
    out.put("serve.inproc_ratio", "ratio", serve.session_ns / serve.rtt_ns);
    out.put("core.btb1.hit_frac", "frac", counts.stats.dynamic_predictions.get() as f64 / branches);
    out.put("core.btb2.searches_per_kinstr", "1/kinstr", counts.btb2_searches as f64 / kinstr);
    out.put(
        "core.btb2.hit_frac",
        "frac",
        ratio(counts.btb2_hit_searches as f64, counts.btb2_searches as f64),
    );
    out.put("core.surprise_per_kinstr", "1/kinstr", counts.stats.surprises.get() as f64 / kinstr);
    out.put("core.flushes_per_kinstr", "1/kinstr", counts.flushes as f64 / kinstr);
    out.put("core.dir.bht_frac", "frac", dir(&[Dp::Bht]));
    out.put("core.dir.tage_frac", "frac", dir(&[Dp::TageShort, Dp::TageLong]));
    out.put("core.dir.perceptron_frac", "frac", dir(&[Dp::Perceptron]));
    out.put("core.dir.spec_frac", "frac", dir(&[Dp::Sbht, Dp::Spht]));
    out.put("core.dir.static_frac", "frac", dir(&[Dp::StaticGuess]));
    out.put("core.tgt.btb_frac", "frac", tgt(Tp::Btb));
    out.put("core.tgt.ctb_frac", "frac", tgt(Tp::Ctb));
    out.put("core.tgt.crs_frac", "frac", tgt(Tp::Crs));
    out.put("core.mpki_step.z13_z14", "frac", step("z13", "z14"));
    out.put("core.mpki_step.z14_z15", "frac", step("z14", "z15"));
    out.put("ledger.traced_op_us", "us", core.total_ns as f64 / core.ops as f64 / 1e3);
    out.put("ledger.untraced_op_us", "us", plain.mean_op_us());
    out.put("ledger.tracing_overhead_frac", "frac", overhead);
    out.put("ledger.timer_ns", "ns", timer.total_ns);
    out.put("ledger.core.glue_share", "frac", glue / core_ns);
    out.put("ledger.serve.server_share", "frac", server_self / (serve.rtt_ns / n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrapper and the capture probe only observe: every
    /// simulated statistic, down to the predictor's own `ZStats`,
    /// matches an unobserved `Session` replay byte for byte.
    #[test]
    fn tracing_changes_no_simulated_number() {
        for preset in GenerationPreset::ALL {
            let cfg = preset.config();
            for w in zbp_trace::workloads::suite(3, 8_000) {
                let trace = w.dynamic_trace();
                let capture = Capture::default();
                capture.state().record = true;
                let traced = traced_op(&cfg, &trace, Some(Box::new(capture.clone())));
                let plain = Session::options(&cfg).run(&trace);
                let mut s = Session::options(&cfg).open(trace.label());
                s.feed(trace.as_slice());
                let (_, pred) = s.finish_into(trace.tail_instrs());
                let pred = pred.expect("delayed sessions hand back their predictor");
                let label = format!("{preset:?} {}", trace.label());
                assert_eq!(
                    format!("{:?}", traced.run.stats),
                    format!("{:?}", plain.stats),
                    "{label}"
                );
                assert_eq!(traced.run.flushes, plain.flushes, "{label}");
                assert_eq!(
                    format!("{:?}", traced.pred.inner.stats),
                    format!("{:?}", pred.stats),
                    "{label}"
                );
                assert_eq!(traced.pred.predict.calls, trace.branch_count(), "{label}");
                assert!(!capture.state().events.is_empty(), "{label}");
            }
        }
    }

    #[test]
    fn captured_streams_rebuild_every_structure_call() {
        let cfg = GenerationPreset::Z15.config();
        let trace = zbp_trace::workloads::lspr_like(5, 30_000).dynamic_trace();
        let capture = Capture::default();
        capture.state().record = true;
        let op = traced_op(&cfg, &trace, Some(Box::new(capture.clone())));
        let events = std::mem::take(&mut capture.state().events);
        let s = streams(&cfg, &[events]);
        let searches = s.btb1[0].iter().filter(|x| matches!(x, B1::Search(_))).count();
        assert_eq!(searches as u64, trace.branch_count());
        assert_eq!((s.dir.len() as u64), op.pred.inner.stats.direction_total());
        assert!(!s.pht.is_empty() && !s.btb2[0].is_empty());
    }
}
