//! Workload inputs: generated from the seed, replayed once in process
//! for the reference results every timed op is checked against.

use std::sync::Arc;
use std::time::Instant;
use zbp_core::GenerationPreset;
use zbp_model::{DynamicTrace, MispredictStats};
use zbp_serve::{PoolConfig, Server, Session, SessionReport};
use zbp_trace::{workloads, TraceCache, Workload};

/// The two workloads. Why each exists is in `perfbench/README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The suite served over loopback, one Feed request per op.
    ServeStream,
    /// Many short served streams, one open→feed→close session per op.
    ServeChurn,
}

/// Instructions per suite workload for `serve-stream`: enough that the
/// LSPR-like footprints spill into the BTB2.
const STREAM_INSTRS: u64 = 200_000;
/// Instructions per `serve-churn` stream.
const CHURN_INSTRS: u64 = 600;
/// Executions of each suite program in the `serve-churn` input pool.
const CHURN_SUITES: u64 = 96;
/// Seed of the suite's generator programs.
const PROGRAM_SEED: u64 = 1;

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::ServeStream, Kind::ServeChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeStream => "serve-stream",
            Kind::ServeChurn => "serve-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's inputs: the suite's six generator programs, built
    /// once from [`PROGRAM_SEED`], each executed with a seed derived
    /// from `seed` — `serve-churn` executes them with 96 distinct seeds
    /// each. Programs stay fixed because program shape, not the
    /// executed path, sets most of the run-to-run MPKI difference
    /// between seeds (see README.md).
    fn workloads(self, seed: u64) -> Vec<Workload> {
        let (instrs, copies) = match self {
            Kind::ServeStream => (STREAM_INSTRS, 1),
            Kind::ServeChurn => (CHURN_INSTRS, CHURN_SUITES),
        };
        let programs = workloads::suite(PROGRAM_SEED, instrs);
        (0..copies)
            .flat_map(|c| {
                programs.iter().enumerate().map(move |(i, w)| {
                    let mut w = w.clone();
                    w.seed = seed.wrapping_mul(1_000_003).wrapping_add(c * 8 + i as u64);
                    w.label = format!("{}/x{}", w.label, w.seed);
                    w
                })
            })
            .collect()
    }
}

/// The outcome every replay of one trace must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub stats: MispredictStats,
    pub flushes: u64,
    pub records: u64,
}

impl From<&SessionReport> for Reference {
    fn from(r: &SessionReport) -> Self {
        Reference { stats: r.stats, flushes: r.flushes, records: r.records }
    }
}

pub struct Input {
    pub workload: Workload,
    pub trace: Arc<DynamicTrace>,
}

/// Everything a run needs before its timed phase, apart from the server.
pub struct Setup {
    pub kind: Kind,
    pub inputs: Vec<Input>,
    /// `refs[i]`: the first z15 replay of input `i`.
    pub refs: Vec<Reference>,
    pub steps: Steps,
}

impl Setup {
    /// Simulated mispredictions per 1000 simulated instructions over one
    /// pass of every input. Every timed op is checked equal to its
    /// reference, so this is also the MPKI of every complete pass of ops.
    pub fn mpki(&self) -> f64 {
        let mut total = MispredictStats::new();
        for r in &self.refs {
            total.merge(&r.stats);
        }
        total.mpki()
    }
}

/// Host seconds of each step of a set-up: building the generator
/// programs, generating each input's trace, replaying each for its
/// reference, and binding the server.
#[derive(Debug, Clone)]
pub struct Steps {
    programs: f64,
    generate: Vec<f64>,
    replay: Vec<f64>,
    bind: f64,
}

impl Steps {
    /// Keeps each step's faster time of `self` and `other`.
    ///
    /// A set-up takes 0.1–0.5 s, and host speed switches between a fast
    /// and a roughly 2× slower mode every 0.05–3 s, for minutes at a
    /// stretch in one proportion (README.md, Steadiness). So one set-up
    /// time, or a median of a few, lands on whatever mix the run had.
    /// Each step takes milliseconds; its fastest of several set-ups
    /// spread over the run is its fast-mode time.
    pub fn fastest(&mut self, other: &Steps) {
        let min = |a: &mut f64, b: f64| *a = a.min(b);
        min(&mut self.programs, other.programs);
        for (a, &b) in self.generate.iter_mut().zip(&other.generate) {
            min(a, b);
        }
        for (a, &b) in self.replay.iter_mut().zip(&other.replay) {
            min(a, b);
        }
        min(&mut self.bind, other.bind);
    }

    /// Seconds spent building programs and generating traces.
    pub fn generate_s(&self) -> f64 {
        self.programs + self.generate.iter().sum::<f64>()
    }

    /// Seconds of the whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s() + self.replay.iter().sum::<f64>() + self.bind
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Generates the inputs (through the process-wide trace cache, emptied
/// first so every call pays for generation), replays each on z15 for
/// the references, and binds the loopback server, timing each step.
pub fn setup(kind: Kind, seed: u64) -> (Setup, Server) {
    TraceCache::global().clear();
    let t = Instant::now();
    let workloads = kind.workloads(seed);
    let programs = secs_since(t);
    let mut generate = Vec::with_capacity(workloads.len());
    let inputs: Vec<Input> = workloads
        .into_iter()
        .map(|workload| {
            let t = Instant::now();
            let trace = workload.cached_trace();
            generate.push(secs_since(t));
            Input { trace, workload }
        })
        .collect();
    let cfg = GenerationPreset::Z15.config();
    let mut replay = Vec::with_capacity(inputs.len());
    let refs = inputs
        .iter()
        .map(|i| {
            let t = Instant::now();
            let r = Reference::from(&Session::options(&cfg).run(&i.trace));
            replay.push(secs_since(t));
            r
        })
        .collect();
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", PoolConfig { shards: 1, ..PoolConfig::default() })
        .expect("bind a loopback port for the benchmark server");
    let steps = Steps { programs, generate, replay, bind: secs_since(t) };
    (Setup { kind, inputs, refs, steps }, server)
}

/// Sets up `reps` times back to back and keeps the last, with each
/// step's fastest time in `steps`.
pub fn setup_repeated(kind: Kind, seed: u64, reps: usize) -> (Setup, Server) {
    let (mut setup, mut server) = setup(kind, seed);
    for _ in 1..reps {
        server.shutdown();
        let fastest = setup.steps;
        (setup, server) = self::setup(kind, seed);
        setup.steps.fastest(&fastest);
    }
    (setup, server)
}
