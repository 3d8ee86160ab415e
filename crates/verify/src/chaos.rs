//! Chaos campaigns through the TCP serve path: inject service-level
//! faults — crashed shards, backpressure storms, orphaned connections —
//! while streams replay over the wire, then hold every surviving or
//! recovered stream to **byte-identical parity** with an isolated local
//! replay.
//!
//! This is the serving-layer sibling of `inject` (the feature-gated
//! fault-injection module):
//! where fault injection corrupts the predictor's internal arrays to
//! prove the *monitors* fire, chaos kills whole shards to prove the
//! *service contract* holds — a lost stream is told
//! `unknown stream`, recovery is reopen-and-replay, and the replayed
//! stream reports exactly what a never-interrupted run reports. The
//! paper's determinism story (same stimulus, same state, same answer)
//! is what makes that check possible at all.
//!
//! The campaign drives a real [`Server`] over loopback TCP with every
//! stream multiplexed on one connection, so the readiness-driven
//! multiplexer, the versioned handshake, and the pool's migration
//! tombstones are all in the blast radius.

use std::time::Instant;
use zbp_model::DynamicTrace;
use zbp_serve::{
    Client, ClientError, Frame, PoolConfig, Server, Session, SessionReport, WireMode, WirePreset,
};
use zbp_trace::workloads;

/// A service-level fault the campaign injects mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Crash shards with [`kill_shard`](zbp_serve::ShardPool::kill_shard):
    /// their sessions are dropped without reports and clients must
    /// recover by reopening and replaying.
    ShardKill,
    /// Park every shard behind a [`pause`](zbp_serve::ShardPool::pause_shard)
    /// guard while feeds keep arriving: the bounded queues fill and the
    /// client's `Busy` retry loop has to absorb the storm.
    BusyStorm,
    /// Open streams on a second connection, feed them, and hang up
    /// without closing: the server's orphan cleanup must finalize them
    /// while the main connection stays unaffected.
    OrphanConnection,
}

impl ChaosFault {
    /// Every fault, campaign order.
    pub const ALL: [ChaosFault; 3] =
        [ChaosFault::ShardKill, ChaosFault::BusyStorm, ChaosFault::OrphanConnection];

    /// Stable lowercase tag (bench JSON, CLI).
    pub fn tag(self) -> &'static str {
        match self {
            ChaosFault::ShardKill => "shard-kill",
            ChaosFault::BusyStorm => "busy-storm",
            ChaosFault::OrphanConnection => "orphan-connection",
        }
    }

    /// Parses a [`tag`](ChaosFault::tag).
    pub fn from_tag(tag: &str) -> Option<ChaosFault> {
        ChaosFault::ALL.into_iter().find(|f| f.tag() == tag)
    }
}

impl std::fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Which fault to inject.
    pub fault: ChaosFault,
    /// Streams multiplexed on the main connection.
    pub streams: usize,
    /// Shards in the server's pool.
    pub shards: usize,
    /// How many times the fault fires.
    pub faults: usize,
    /// Instructions per stream's synthetic workload.
    pub instrs: u64,
    /// Records per feed frame.
    pub batch: usize,
    /// Workload seed base.
    pub seed: u64,
    /// Predictor preset for every stream.
    pub preset: WirePreset,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            fault: ChaosFault::ShardKill,
            streams: 16,
            shards: 4,
            faults: 2,
            instrs: 3_000,
            batch: 257,
            seed: 42,
            preset: WirePreset::Soak,
        }
    }
}

/// What a campaign observed. `parity_failures == 0` is the pass
/// criterion: every stream, interrupted or not, matched its isolated
/// local replay byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The fault injected.
    pub fault: ChaosFault,
    /// Streams driven.
    pub streams: usize,
    /// Times the fault fired.
    pub faults_injected: u64,
    /// Streams that died and were replayed from scratch.
    pub recoveries: u64,
    /// `Busy` replies absorbed by the retry loop.
    pub busy_retries: u64,
    /// Streams whose final report diverged from the local baseline.
    pub parity_failures: u64,
    /// Wall-clock campaign time in milliseconds.
    pub wall_ms: u64,
}

impl ChaosReport {
    /// Whether every stream recovered to byte-identical parity.
    pub fn is_clean(&self) -> bool {
        self.parity_failures == 0
    }
}

/// One multiplexed stream's drive state.
struct Drive {
    label: String,
    trace: DynamicTrace,
    /// Stream id on the server, once opened.
    id: Option<u64>,
    /// Records acknowledged so far (reset on recovery).
    fed: usize,
    report: Option<SessionReport>,
}

/// Errors that mean the stream is gone (killed shard, purged route,
/// worker that died with the command queued) rather than the campaign
/// being broken.
fn is_dead_stream(e: &ClientError) -> bool {
    matches!(e, ClientError::Server(msg)
        if msg.contains("unknown stream") || msg.contains("shutting down"))
}

/// Runs one chaos campaign and returns what it observed.
///
/// # Panics
///
/// Panics on infrastructure failures (bind/connect/protocol errors) —
/// those are test-harness bugs, not injected faults.
pub fn run_campaign(cfg: &ChaosConfig) -> ChaosReport {
    // zbp-analyze: allow(wall-clock): campaign wall time is reporting-only
    // (ChaosReport::wall_ms); no predictor or parity state derives from it.
    let started = Instant::now();
    let server =
        Server::bind("127.0.0.1:0", PoolConfig { shards: cfg.shards, ..PoolConfig::default() })
            .expect("bind chaos server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut drives: Vec<Drive> = (0..cfg.streams)
        .map(|i| {
            let label = format!("chaos-{i}");
            let t =
                workloads::lspr_like(cfg.seed.wrapping_add(i as u64), cfg.instrs).dynamic_trace();
            let tail = t.tail_instrs();
            let mut trace = DynamicTrace::from_records(label.clone(), t.as_slice().to_vec());
            trace.push_tail_instrs(tail);
            Drive { label, trace, id: None, fed: 0, report: None }
        })
        .collect();

    let mut recoveries = 0u64;
    let mut busy_retries = 0u64;
    let mut faults_injected = 0u64;

    // Phase 1: open everything and feed the first half, round-robin.
    for d in &mut drives {
        open_stream(&mut client, cfg, d, &mut busy_retries);
    }
    feed_to_fraction(&mut client, cfg, &mut drives, 0.5, &mut busy_retries, &mut recoveries);

    // Phase 2: the fault.
    match cfg.fault {
        ChaosFault::ShardKill => {
            for k in 0..cfg.faults {
                server.pool().kill_shard(k % cfg.shards).expect("kill shard");
                faults_injected += 1;
            }
        }
        ChaosFault::BusyStorm => {
            // Park every shard briefly from another thread while the
            // driver below keeps feeding; the bounded queues fill and
            // every reply is Busy until the guards drop.
            for _ in 0..cfg.faults {
                let pauses: Vec<_> =
                    (0..cfg.shards).filter_map(|s| server.pool().pause_shard(s).ok()).collect();
                faults_injected += pauses.len() as u64;
                let unpause = std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    drop(pauses);
                });
                feed_to_fraction(
                    &mut client,
                    cfg,
                    &mut drives,
                    0.75,
                    &mut busy_retries,
                    &mut recoveries,
                );
                unpause.join().expect("unpause");
            }
        }
        ChaosFault::OrphanConnection => {
            for k in 0..cfg.faults {
                let mut doomed = Client::connect(server.local_addr()).expect("connect doomed");
                let t =
                    workloads::lspr_like(cfg.seed ^ 0xdead ^ k as u64, cfg.instrs).dynamic_trace();
                let (id, _) = doomed
                    .open(cfg.preset, WireMode::default(), false, &format!("orphan-{k}"))
                    .expect("open orphan");
                doomed.feed(id, t.as_slice()).expect("feed orphan");
                faults_injected += 1;
                // Dropped here without a close: the stream is the
                // server's problem now.
            }
        }
    }

    // Phase 3: finish every stream, recovering the ones the fault
    // killed, then close and compare against isolated local replays.
    feed_to_fraction(&mut client, cfg, &mut drives, 1.0, &mut busy_retries, &mut recoveries);
    for d in &mut drives {
        close_stream(&mut client, cfg, d, &mut busy_retries, &mut recoveries);
    }

    let local_cfg = cfg.preset.config();
    let parity_failures = drives
        .iter()
        .filter(|d| {
            let baseline = Session::options(&local_cfg).run(&d.trace);
            d.report.as_ref() != Some(&baseline)
        })
        .count() as u64;

    let summary = server.shutdown();
    // Sanity: orphaned streams were finalized, not leaked (they show up
    // in the drained summary alongside the closed ones).
    if cfg.fault == ChaosFault::OrphanConnection {
        assert!(
            summary.completed >= cfg.streams as u64,
            "orphan cleanup lost sessions: {} < {}",
            summary.completed,
            cfg.streams
        );
    }

    ChaosReport {
        fault: cfg.fault,
        streams: cfg.streams,
        faults_injected,
        recoveries,
        busy_retries,
        parity_failures,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

fn open_stream(client: &mut Client, cfg: &ChaosConfig, d: &mut Drive, busy: &mut u64) {
    let open = Frame::Open {
        preset: cfg.preset,
        mode: WireMode::default(),
        traced: false,
        label: d.label.clone(),
    };
    let (reply, r) = client.call_retrying(&open).expect("open");
    *busy += r;
    match reply {
        Frame::OpenOk { id, .. } => d.id = Some(id),
        other => panic!("expected OpenOk, got {other:?}"),
    }
}

/// Feeds every live stream up to `fraction` of its trace in
/// round-robin batches, replaying streams the fault killed.
fn feed_to_fraction(
    client: &mut Client,
    cfg: &ChaosConfig,
    drives: &mut [Drive],
    fraction: f64,
    busy: &mut u64,
    recoveries: &mut u64,
) {
    loop {
        let mut progressed = false;
        for d in drives.iter_mut() {
            if d.report.is_some() {
                continue;
            }
            let records = d.trace.as_slice();
            let goal = ((records.len() as f64) * fraction) as usize;
            if d.fed >= goal {
                continue;
            }
            let end = (d.fed + cfg.batch).min(goal);
            let id = d.id.expect("stream is open");
            match client.feed(id, &records[d.fed..end]) {
                Ok(_) => {
                    d.fed = end;
                    progressed = true;
                }
                Err(e) if is_dead_stream(&e) => {
                    // The fault took this stream's shard. Determinism
                    // makes recovery simple: reopen and replay from
                    // record zero — the result must be byte-identical.
                    *recoveries += 1;
                    d.fed = 0;
                    open_stream(client, cfg, d, busy);
                    progressed = true;
                }
                Err(e) => panic!("feed {}: {e}", d.label),
            }
        }
        if !progressed {
            break;
        }
    }
}

fn close_stream(
    client: &mut Client,
    cfg: &ChaosConfig,
    d: &mut Drive,
    busy: &mut u64,
    recoveries: &mut u64,
) {
    loop {
        let id = d.id.expect("stream is open");
        match client.close(id, d.trace.tail_instrs()) {
            Ok((stats, flushes, records)) => {
                d.report = Some(SessionReport { stats, flushes, records, ..Default::default() });
                return;
            }
            Err(e) if is_dead_stream(&e) => {
                // Killed between the last feed and the close: replay
                // everything and try again.
                *recoveries += 1;
                d.fed = 0;
                open_stream(client, cfg, d, busy);
                let records = d.trace.as_slice().to_vec();
                let mut at = 0usize;
                while at < records.len() {
                    let end = (at + cfg.batch).min(records.len());
                    client.feed(d.id.expect("reopened"), &records[at..end]).expect("replay feed");
                    at = end;
                }
            }
            Err(e) => panic!("close {}: {e}", d.label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_recovers_to_parity() {
        for fault in ChaosFault::ALL {
            let report = run_campaign(&ChaosConfig {
                fault,
                streams: 8,
                shards: 2,
                faults: 1,
                instrs: 1_500,
                ..ChaosConfig::default()
            });
            assert!(report.is_clean(), "{fault}: {report:?}");
            if fault == ChaosFault::ShardKill {
                assert!(report.recoveries > 0, "a kill must cost at least one stream");
            }
        }
    }

    #[test]
    fn fault_tags_roundtrip() {
        for f in ChaosFault::ALL {
            assert_eq!(ChaosFault::from_tag(f.tag()), Some(f));
        }
        assert_eq!(ChaosFault::from_tag("nope"), None);
    }
}
