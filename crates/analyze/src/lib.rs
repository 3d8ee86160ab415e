//! zbp-analyze: determinism & concurrency static analysis for the zbp
//! workspace.
//!
//! The replay stack promises byte-identical results at any thread or
//! shard count (DESIGN.md §4.4). That promise dies quietly: a `HashMap`
//! iteration here, an `Instant::now()` there, and a float `+=` in a
//! merge path will each pass every unit test while making `--threads 8`
//! diverge from `--threads 1` one run in fifty. This crate is the gate
//! that keeps those patterns out. It lexes every product source file
//! (no `syn` in this offline environment — see [`lexer`]), parses the
//! token stream into items ([`parser`]), builds a per-crate symbol
//! table and conservative call graph ([`symbols`], [`callgraph`]), and
//! runs eleven lints:
//!
//! | id | rule |
//! |----|------|
//! | `nondet-iter` | no `HashMap`/`HashSet` iteration in deterministic paths |
//! | `wall-clock` | no `Instant::now`/`SystemTime`/`thread_rng`/thread-id reads outside whitelisted latency modules |
//! | `float-accum` | no `f32`/`f64` fields or `+=` in merged statistics |
//! | `deprecated-expiry` | every `#[deprecated]` names `remove-by: PR-N` and fails once expired |
//! | `unbounded-channel` | all inter-thread queues in ShardPool paths are bounded |
//! | `panic-path` | no `unwrap`/`expect`/panicking macro/indexing/unchecked div reachable from the mux loop or shard workers |
//! | `lock-order` | the `ShardPool` lock-order graph is acyclic |
//! | `lock-held-blocking` | no guard held across a blocking call in mux/worker paths |
//! | `schema-consistency` | every bench.json `schema: N` writer has a unique N in 1–7 and a checking reader |
//! | `proto-exhaustive` | every wire tag is matched in both `encode` and `decode` |
//! | `stale-waiver` | every waiver still suppresses at least one finding |
//!
//! Intentional exceptions carry an inline waiver with a mandatory
//! reason — `// zbp-analyze: allow(<lint>): <why>` on or directly above
//! the offending line — and every run emits `results/analyze.json`
//! (schema 1) plus a SARIF 2.1.0 log for CI and tooling. Warm reruns
//! are served from a content-hash cache ([`cache`]). Run it as
//! `cargo xtask analyze`.

pub mod cache;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod parser;
pub mod report;
pub mod symbols;

use callgraph::{CallGraph, Root};
use lints::{FileLex, RawFinding};
use report::{CacheStats, Finding, InvalidWaiverAt, Report, UnusedWaiverAt};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use symbols::SymbolTable;

/// What to scan and which lint applies where. All paths are
/// workspace-relative with `/` separators; a lint applies to a file
/// when some entry is a prefix of its path.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Current PR number for `deprecated-expiry`.
    pub current_pr: u32,
    /// Directories to walk for `.rs` files.
    pub scan: Vec<String>,
    /// D1 scope: deterministic replay paths.
    pub nondet_iter: Vec<String>,
    /// D2 scope.
    pub wall_clock: Vec<String>,
    /// D2 exceptions: `(path, reason)` for latency-measurement modules
    /// that intentionally read the wall clock.
    pub wall_clock_whitelist: Vec<(String, String)>,
    /// D3 scope.
    pub float_accum: Vec<String>,
    /// D5 scope: ShardPool / inter-thread queue paths.
    pub unbounded_channel: Vec<String>,
    /// P1 reachability roots: the functions that must never panic.
    pub panic_roots: Vec<Root>,
    /// L1/L2 scope: files whose `Mutex`/`RwLock` fields form the
    /// lock-order graph.
    pub lock_scope: Vec<String>,
    /// S1 target: the bench.json serializer file.
    pub schema_file: Option<String>,
    /// S2 target: the wire-protocol file.
    pub proto_file: Option<String>,
    /// Incremental cache path (no caching when `None`).
    pub cache: Option<PathBuf>,
    /// Where to write the SARIF log (skipped when `None`).
    pub sarif: Option<PathBuf>,
    /// Where to write `analyze.json` (skipped when `None`).
    pub output: Option<PathBuf>,
}

impl Config {
    /// The production configuration for this workspace.
    pub fn workspace(root: &Path) -> Config {
        let det = |s: &str| format!("crates/{s}/src");
        Config {
            root: root.to_path_buf(),
            current_pr: current_pr(root),
            scan: vec!["crates".into(), "src".into()],
            nondet_iter: ["core", "model", "trace", "telemetry", "serve", "simpoint"]
                .iter()
                .map(|c| det(c))
                .collect(),
            wall_clock: [
                "core",
                "model",
                "trace",
                "telemetry",
                "serve",
                "simpoint",
                "zarch",
                "uarch",
                "baselines",
                "verify",
                "bench",
            ]
            .iter()
            .map(|c| det(c))
            .collect(),
            wall_clock_whitelist: vec![
                (
                    "crates/bench/src/lib.rs".into(),
                    "hosts the wall-time helpers the latency columns are built from".into(),
                ),
                (
                    "crates/bench/src/experiment.rs".into(),
                    "cell wall-time measurement feeding bench.json latency columns".into(),
                ),
                (
                    "crates/bench/src/bin/run_all.rs".into(),
                    "suite wall-time reporting for the operator console".into(),
                ),
                (
                    "crates/bench/src/bin/loadgen.rs".into(),
                    "client-side service latency measurement".into(),
                ),
                (
                    "crates/bench/src/bin/simpoint.rs".into(),
                    "full-vs-sampled wall-time comparison for the speedup record".into(),
                ),
                (
                    "crates/bench/src/bin/throughput.rs".into(),
                    "E23 replay-rate measurement: best-of-N wall times per path".into(),
                ),
            ],
            float_accum: [
                "core",
                "model",
                "trace",
                "telemetry",
                "serve",
                "simpoint",
                "zarch",
                "uarch",
                "baselines",
                "verify",
                "bench",
            ]
            .iter()
            .map(|c| det(c))
            .collect(),
            unbounded_channel: vec!["crates/serve/src".into()],
            panic_roots: vec![
                Root { file: "crates/serve/src/server.rs".into(), func: "mux_loop".into() },
                Root { file: "crates/serve/src/pool.rs".into(), func: "shard_worker".into() },
            ],
            lock_scope: vec!["crates/serve/src".into()],
            schema_file: Some("crates/bench/src/json.rs".into()),
            proto_file: Some("crates/serve/src/proto.rs".into()),
            cache: Some(root.join("results").join("analyze-cache.json")),
            sarif: Some(root.join("results").join("analyze.sarif")),
            output: Some(root.join("results").join("analyze.json")),
        }
    }

    /// A configuration for a self-test fixture tree: every lint applies
    /// to everything under `root`, nothing is whitelisted, no JSON.
    pub fn fixture(root: &Path, current_pr: u32) -> Config {
        let all = vec![String::new()];
        Config {
            root: root.to_path_buf(),
            current_pr,
            scan: vec![String::new()],
            nondet_iter: all.clone(),
            wall_clock: all.clone(),
            wall_clock_whitelist: Vec::new(),
            float_accum: all.clone(),
            unbounded_channel: all,
            panic_roots: vec![
                Root { file: "src/panic.rs".into(), func: "mux_loop".into() },
                Root { file: "src/locks.rs".into(), func: "worker_loop".into() },
            ],
            lock_scope: vec![String::new()],
            schema_file: Some("src/schema.rs".into()),
            proto_file: Some("src/proto.rs".into()),
            cache: None,
            sarif: None,
            output: None,
        }
    }
}

/// Derives the current PR number from CHANGES.md: each landed PR
/// appends one `- PR …` line, so the PR in flight is that count + 1.
pub fn current_pr(root: &Path) -> u32 {
    let text = std::fs::read_to_string(root.join("CHANGES.md")).unwrap_or_default();
    let landed = text.lines().filter(|l| l.trim_start().starts_with("- PR")).count() as u32;
    landed + 1
}

/// Directory names never scanned: test trees (covered by `#[cfg(test)]`
/// masking where inline, excluded wholesale where out-of-line), vendored
/// stand-ins, fixtures, and build output.
const SKIP_DIRS: [&str; 6] = ["tests", "benches", "examples", "compat", "testdata", "target"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn in_scope(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

/// Runs the full analysis per `cfg`, writing `analyze.json`, the SARIF
/// log, and the incremental cache when configured, and returns the
/// report. A warm run whose file hashes all match the cache skips the
/// analysis entirely.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let mut paths = Vec::new();
    for scan in &cfg.scan {
        let dir = if scan.is_empty() { cfg.root.clone() } else { cfg.root.join(scan) };
        walk(&dir, &mut paths);
    }
    paths.sort();
    paths.dedup();

    let mut sources = Vec::with_capacity(paths.len());
    let mut hashes: Vec<(String, u64)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = std::fs::read_to_string(path)?;
        let rel = rel_of(&cfg.root, path);
        hashes.push((rel.clone(), cache::hash_bytes(src.as_bytes())));
        sources.push((rel, src));
    }

    // Whole-tree cache: reuse is all-or-nothing because several passes
    // (D3 merge types, the call graph, lock order) are cross-file.
    let mut cold_stats = None;
    if let Some(cache_path) = &cfg.cache {
        if let Some(cached) = cache::load(cache_path) {
            if cached.pr == cfg.current_pr {
                let (reused, stats) = cache::try_reuse(&cached, &hashes);
                if let Some(report) = reused {
                    write_outputs(cfg, &report)?;
                    return Ok(report);
                }
                cold_stats = Some(stats);
            }
        }
        if cold_stats.is_none() {
            cold_stats = Some(CacheStats { hits: 0, total: hashes.len() });
        }
    }

    // Lex everything once; D3 needs a cross-file prepass (a struct and
    // the impl carrying its merge method may live in different files).
    let mut files = Vec::new();
    for (rel, src) in &sources {
        files.push(FileLex::new(rel.clone(), src));
    }
    let mut merge_types: BTreeSet<String> = BTreeSet::new();
    for f in &files {
        if in_scope(&f.rel, &cfg.float_accum) {
            merge_types.extend(lints::collect_merge_types(f));
        }
    }

    // Symbol/call-graph passes: P1 panic paths from the configured
    // roots, then L1/L2 lock discipline over the same reachability.
    let (symbols, _parsed) = SymbolTable::build(&files);
    let graph = CallGraph::build(&files, &symbols);
    let reach = graph.reachable(&files, &symbols, &cfg.panic_roots);
    let mut cross: BTreeMap<usize, Vec<RawFinding>> =
        callgraph::lint_panic_path(&files, &symbols, &reach);
    for (fi, findings) in locks::lint_locks(&files, &symbols, &graph, &reach, &cfg.lock_scope) {
        cross.entry(fi).or_default().extend(findings);
    }

    let mut report = Report {
        pr: cfg.current_pr,
        files_scanned: files.len(),
        cache: cold_stats,
        ..Report::default()
    };
    for (fi, f) in files.iter().enumerate() {
        let mut raw = Vec::new();
        if let Some(extra) = cross.remove(&fi) {
            raw.extend(extra);
        }
        if cfg.schema_file.as_deref() == Some(f.rel.as_str()) {
            raw.extend(lints::lint_schema_consistency(f));
        }
        if cfg.proto_file.as_deref() == Some(f.rel.as_str()) {
            raw.extend(lints::lint_proto_exhaustive(f));
        }
        if in_scope(&f.rel, &cfg.nondet_iter) {
            raw.extend(lints::lint_nondet_iter(f));
        }
        if in_scope(&f.rel, &cfg.wall_clock)
            && !cfg.wall_clock_whitelist.iter().any(|(p, _)| *p == f.rel)
        {
            raw.extend(lints::lint_wall_clock(f));
        }
        if in_scope(&f.rel, &cfg.float_accum) {
            for ff in lints::collect_float_fields(f) {
                if merge_types.contains(&ff.strukt) {
                    raw.push(lints::RawFinding {
                        lint: "float-accum",
                        line: ff.line,
                        message: format!(
                            "field `{}: {}` of `{}`, which has a merge method: float \
                             accumulation is order-sensitive; store integer units and \
                             derive ratios at the edge",
                            ff.field, ff.ty, ff.strukt
                        ),
                    });
                }
            }
            raw.extend(lints::lint_float_merge_arith(f));
        }
        raw.extend(lints::lint_deprecated_expiry(f, cfg.current_pr));
        if in_scope(&f.rel, &cfg.unbounded_channel) {
            raw.extend(lints::lint_unbounded_channel(f));
        }

        let (waivers, invalid) = lints::parse_waivers(&f.lexed.comments);
        for w in invalid {
            report.invalid_waivers.push(InvalidWaiverAt {
                file: f.rel.clone(),
                line: w.line,
                problem: w.problem,
            });
        }
        // A waiver covers findings of its lint on its own line (trailing
        // comment) or the next code line (directive above, possibly with
        // continuation comment lines in between).
        let mut used = vec![false; waivers.len()];
        raw.sort_by_key(|r| (r.line, r.lint));
        for r in raw {
            let mut waived = false;
            let mut reason = None;
            for (wi, w) in waivers.iter().enumerate() {
                if w.lint != r.lint {
                    continue;
                }
                let covers = r.line == w.line || f.next_code_line(w.line) == Some(r.line);
                if covers {
                    waived = true;
                    reason = Some(w.reason.clone());
                    used[wi] = true;
                    break;
                }
            }
            report.findings.push(Finding {
                lint: r.lint.to_string(),
                file: f.rel.clone(),
                line: r.line,
                message: r.message,
                waived,
                waiver_reason: reason,
            });
        }
        // W1 — stale-waiver: an `allow` that suppressed nothing is now a
        // hard failure (it hides the next real finding at that site),
        // surfaced both in the legacy `unused_waivers` list and as an
        // unwaivable finding.
        for (wi, w) in waivers.iter().enumerate() {
            if !used[wi] {
                report.unused_waivers.push(UnusedWaiverAt {
                    file: f.rel.clone(),
                    line: w.line,
                    lint: w.lint.clone(),
                });
                report.findings.push(Finding {
                    lint: "stale-waiver".to_string(),
                    file: f.rel.clone(),
                    line: w.line,
                    message: format!(
                        "waiver for `{}` no longer suppresses any finding; delete it (a \
                         stale allow masks the next real violation on this line)",
                        w.lint
                    ),
                    waived: false,
                    waiver_reason: None,
                });
            }
        }
    }

    if let Some(cache_path) = &cfg.cache {
        cache::store(cache_path, &hashes, &report)?;
    }
    write_outputs(cfg, &report)?;
    Ok(report)
}

/// Write the configured `analyze.json` and SARIF outputs.
fn write_outputs(cfg: &Config, report: &Report) -> std::io::Result<()> {
    for (path, text) in [(&cfg.output, report.to_json()), (&cfg.sarif, report.to_sarif())] {
        if let Some(out) = path {
            if let Some(parent) = out.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(out, text)?;
        }
    }
    Ok(())
}
