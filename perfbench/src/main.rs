//! The zbp benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-stream|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics of `BENCHMARK.json`; `--trace 1` prints the per-layer ledger
//! instead. Every op is checked against a reference replay; the last
//! stdout line is one JSON object, and a failed op, a mismatch or a
//! metric set differing from `BENCHMARK.json` exits non-zero.

mod inputs;
mod ledger;
mod measure;
mod run;

use inputs::Kind;
use measure::{Args, Ops, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use zbp_bench::Json;
use zbp_serve::Client;

/// Set-ups per run; `setup_s` sums each step's fastest of them.
pub const SETUP_REPS: usize = 15;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let declared = match declared_metrics(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };

    let out = if args.trace { ledger::run(kind, &args) } else { untraced(kind, &args) };

    let printed: BTreeMap<String, String> =
        out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    let names_ok = printed == declared && printed.len() == out.metrics.len();
    if !names_ok {
        eprintln!("perfbench: printed metrics differ from BENCHMARK.json");
        for (name, unit) in &printed {
            if declared.get(name) != Some(unit) {
                eprintln!("  printed but not declared: {name} [{unit}]");
            }
        }
        for (name, unit) in &declared {
            if printed.get(name) != Some(unit) {
                eprintln!("  declared but not printed: {name} [{unit}]");
            }
        }
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    let correct = out.failed == 0 && out.attempted > 0 && names_ok && finite;

    eprintln!("{:<34} {:>16}  unit", "metric", "value");
    for m in &out.metrics {
        eprintln!("{:<34} {:>16.6}  {}", m.name, m.value, m.unit);
    }
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(BTreeMap::from([
                ("value".to_string(), Json::Num(if m.value.is_finite() { m.value } else { 0.0 })),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]));
            (m.name.clone(), v)
        })
        .collect();
    let line = Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]));
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run: set up, run the timed phase, report end to end.
///
/// The timed phase is cut into [`SETUP_REPS`] slices, and between two
/// slices the whole set-up is repeated, timed step by step and dropped,
/// so the set-up samples span the run's host modes as the ops do
/// (see [`inputs::Steps::fastest`]).
fn untraced(kind: Kind, args: &Args) -> Outcome {
    let (setup, server) = inputs::setup(kind, args.seed);
    let mut steps = setup.steps.clone();
    let mut client =
        Client::connect(server.local_addr()).expect("connect to the loopback benchmark server");
    let mut order = (0..setup.inputs.len()).cycle();
    let mut ops = Ops::default();
    let slice = Duration::from_secs_f64(args.seconds / SETUP_REPS as f64);
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            let (again, again_server) = inputs::setup(kind, args.seed);
            again_server.shutdown();
            steps.fastest(&again.steps);
        }
        run::run_ops(&setup, &mut client, &mut order, Instant::now() + slice, &mut ops);
    }
    drop(client);
    let mut out = Outcome::default();
    run::end_to_end(&setup, &ops, steps.total_s(), &mut out);
    server.shutdown();
    out
}

/// The `(name → unit)` set `BENCHMARK.json` declares for this mode,
/// read from the working directory (the repository root).
fn declared_metrics(trace: bool) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Err(format!("no `{key}` array"));
    };
    items
        .iter()
        .map(|m| {
            match (m.get("name").and_then(Json::as_str), m.get("unit").and_then(Json::as_str)) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a `{key}` entry lacks a name or unit")),
            }
        })
        .collect()
}
