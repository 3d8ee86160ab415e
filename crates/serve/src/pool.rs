//! The sharded session multiplexer: N worker threads, each owning a
//! bounded work queue and a free list of recycled predictors, serving
//! many concurrently-open prediction streams.
//!
//! Streams hash to shards by label (FNV-1a), mirroring the paper's
//! decoupling of the BPL from its consumers: clients are the ICM/IDU
//! side, shards are BPL instances, and the bounded per-shard queue is
//! the handoff — when it fills, the producer is told to back off
//! ([`ServeError::Busy`] with a retry-after hint) instead of blocking
//! the whole service.
//!
//! Every session runs on its **own** predictor (taken from the shard's
//! free list and [`ZPredictor::reset`] between sessions), so per-stream
//! statistics are byte-identical to an isolated
//! [`SessionOptions::run`](crate::SessionOptions::run) no
//! matter how many streams interleave on a shard — the property the
//! pool tests pin down.
//!
//! A worker answers a close first and bookkeeps after: it sends the
//! report and wakes the mux, and only then records the completed
//! session and recycles the predictor. A migration export likewise
//! sends the image before recycling the emptied predictor. Recycling is
//! one `ZPredictor::new` over the predictor's configuration, about
//! 40 µs for a z15 on a 2-vCPU x86-64 KVM guest, so it runs off the
//! session's blocking path. It still runs on the worker and finishes
//! before the worker takes its next command, so the next open on the
//! shard always gets a power-on predictor; a client that turns around
//! faster than the reset waits out the rest of it.
//!
//! A worker wakes the server's multiplexer thread (when one registered
//! itself) right after answering each feed or close, so a reply never
//! waits out the mux's idle park. A pool used in process has no waker.
//! Between commands a worker polls its queue, yielding, for up to
//! [`IDLE_SLEEP`] after its last command, then blocks: a closed-loop
//! client's next command is taken without a thread wake-up, and an idle
//! worker uses no CPU.
//!
//! Completed sessions are counted exactly, but only the newest 1024
//! (by stream id) are kept for the [`PoolSummary`], so a
//! long-running pool holds a bounded tail, not one report per session
//! ever served. Telemetry, which only traced sessions carry, is kept
//! whole until shutdown, so the summary's reduction is the same
//! stream-id-ordered merge over every session.
//!
//! # Live migration and elasticity
//!
//! A warm delayed-mode session can be **migrated** between shards
//! mid-stream ([`ShardPool::migrate`]): the source worker images it
//! ([`Session::snapshot`] → predictor
//! [`StateImage`](zbp_core::StateImage)), the image travels over a
//! channel, and the target worker resumes it — the continued stream is
//! byte-identical to one that never moved. Migration is what makes the
//! pool elastic: [`ShardPool::resize`] grows or shrinks the shard set
//! under load (draining doomed shards via migration), and
//! [`ShardPool::restart_shard`] replaces a worker thread while its warm
//! sessions survive through export/import — a rolling restart.
//!
//! During the short export→import window a stream's commands answer
//! [`ServeError::Busy`]; the client's existing retry loop carries them
//! across the move. [`ShardPool::kill_shard`] is the chaos hook: it
//! drops a shard's sessions on the floor (no reports, no migration),
//! respawns the worker, and lets clients discover the loss as
//! [`ServeError::UnknownStream`] — recovery is reopen-and-replay.

use crate::session::{ReplayMode, Session, SessionImage, SessionReport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};
use zbp_core::{PredictorConfig, ZPredictor};
use zbp_model::BranchRecord;
use zbp_telemetry::Snapshot;

/// Pool sizing and backpressure parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Number of predictor shards (worker threads).
    pub shards: usize,
    /// Bounded command-queue depth per shard; a full queue rejects with
    /// [`ServeError::Busy`].
    pub queue_depth: usize,
    /// Largest accepted feed batch, in records.
    pub max_batch: usize,
    /// Retry hint handed back with [`ServeError::Busy`].
    pub retry_after_ms: u32,
    /// Recycled predictors kept per shard.
    pub free_list: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            shards: 2,
            queue_depth: 64,
            max_batch: 65_536,
            retry_after_ms: 1,
            free_list: 8,
        }
    }
}

/// Identifies one stream for the lifetime of a pool; ascending in open
/// order, which also keys the deterministic telemetry reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Why a pool operation did not happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The target shard's queue is full — or the stream is mid-
    /// migration between shards; retry after the hinted delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// No open stream with that id (never opened, already closed, or
    /// lost with a killed shard).
    UnknownStream(u64),
    /// The batch exceeds [`PoolConfig::max_batch`].
    BatchTooLarge {
        /// Records in the rejected batch.
        len: usize,
        /// The configured limit.
        max: usize,
    },
    /// No shard with that index.
    NoSuchShard(usize),
    /// The stream cannot be imaged mid-flight (whole-stream analysis
    /// modes and traced sessions are pinned to their shard).
    NotMigratable(u64),
    /// The pool is draining and no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy { retry_after_ms } => {
                write!(f, "shard busy, retry after {retry_after_ms} ms")
            }
            ServeError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            ServeError::BatchTooLarge { len, max } => {
                write!(f, "batch of {len} records exceeds limit {max}")
            }
            ServeError::NoSuchShard(i) => write!(f, "no shard {i}"),
            ServeError::NotMigratable(id) => {
                write!(f, "stream {id} cannot be migrated (whole-stream or traced session)")
            }
            ServeError::ShuttingDown => f.write_str("pool is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successfully opened stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opened {
    /// The stream's pool-wide id.
    pub id: StreamId,
    /// The shard the stream's label hashed to.
    pub shard: usize,
}

/// One closed session, as collected for the pool summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSession {
    /// Stream id (open order).
    pub id: StreamId,
    /// Stream label.
    pub label: String,
    /// Shard that served the stream.
    pub shard: usize,
    /// The session's final report.
    pub report: SessionReport,
}

/// The serving layer's one timing constant. The server's mux and every
/// shard worker spin (`yield_now`) for this long after their last
/// progress before they wait; the mux then parks for at most this long,
/// and a worker blocks on its queue.
pub(crate) const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Completed sessions a pool keeps for its [`PoolSummary`]: the ones
/// with the highest stream ids. Older ones are counted, not kept.
const RETAINED_SESSIONS: usize = 1024;

/// What [`ShardPool::shutdown`] hands back after the graceful drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolSummary {
    /// Sessions completed over the pool's lifetime, every one counted
    /// (closed, force-finished at a shrink or at shutdown).
    pub completed: u64,
    /// The newest completed sessions — the 1024 with the highest stream
    /// ids, or all of them if fewer completed — sorted by stream id.
    pub sessions: Vec<CompletedSession>,
    /// All session telemetry reduced with [`Snapshot::merge_keyed`] by
    /// stream id — identical at any shard count for the same stream
    /// set.
    pub merged_telemetry: Snapshot,
    /// Feed/open/close attempts rejected with [`ServeError::Busy`].
    pub busy_rejections: u64,
}

enum Cmd {
    Open {
        id: StreamId,
        label: String,
        cfg: Box<PredictorConfig>,
        mode: ReplayMode,
        traced: bool,
        reply: SyncSender<()>,
    },
    Feed {
        id: StreamId,
        batch: Vec<BranchRecord>,
        reply: SyncSender<Result<u64, ServeError>>,
    },
    Close {
        id: StreamId,
        tail_instrs: u64,
        reply: SyncSender<Result<SessionReport, ServeError>>,
    },
    /// Maintenance/test hook: acknowledges on `ack`, then parks the
    /// worker until `resume` disconnects — used to drain or to exercise
    /// the backpressure path deterministically.
    Pause {
        ack: SyncSender<()>,
        resume: Receiver<()>,
    },
    /// Migration source half: image the session, remove it, and leave a
    /// tombstone so late commands answer `Busy` until the routes table
    /// points at the new home.
    Export {
        id: StreamId,
        reply: SyncSender<Result<Box<SessionImage>, ServeError>>,
    },
    /// Migration target half: resume an imaged session on this shard.
    Import {
        id: StreamId,
        image: Box<SessionImage>,
        reply: SyncSender<()>,
    },
    /// Chaos hook: drop every open session (no reports) and exit
    /// immediately, simulating a crashed shard. Replies with the number
    /// of sessions lost.
    Die {
        reply: SyncSender<u64>,
    },
}

struct Shard {
    tx: SyncSender<Cmd>,
    worker: JoinHandle<()>,
}

/// Where shard workers record finished sessions. Workers hold the lock
/// only to insert, never across a blocking call.
#[derive(Default)]
struct CompletionLog {
    completed: u64,
    /// The newest [`RETAINED_SESSIONS`] sessions by stream id.
    recent: BTreeMap<StreamId, CompletedSession>,
    /// Every session's telemetry, for the keyed merge at shutdown.
    telemetry: BTreeMap<StreamId, Snapshot>,
}

impl CompletionLog {
    fn record(&mut self, session: CompletedSession) {
        self.completed += 1;
        if let Some(t) = &session.report.telemetry {
            self.telemetry.insert(session.id, t.clone());
        }
        self.recent.insert(session.id, session);
        if self.recent.len() > RETAINED_SESSIONS {
            self.recent.pop_first();
        }
    }
}

/// What every shard worker shares with the pool.
#[derive(Clone, Default)]
struct WorkerShared {
    log: Arc<Mutex<CompletionLog>>,
    /// The thread to unpark after each feed or close reply — the
    /// server's multiplexer, once it registers itself.
    waker: Arc<OnceLock<Thread>>,
}

impl WorkerShared {
    fn complete(&self, session: CompletedSession) {
        relock(self.log.lock()).record(session);
    }

    fn wake(&self) {
        if let Some(t) = self.waker.get() {
            t.unpark();
        }
    }
}

/// The sharded session pool. See the module docs for the execution
/// model.
pub struct ShardPool {
    cfg: PoolConfig,
    /// Lock order: `shards` before `routes` — never the reverse.
    shards: RwLock<Vec<Shard>>,
    /// Stream-id → shard routing for feeds/closes.
    routes: Mutex<BTreeMap<u64, usize>>,
    next_id: AtomicU64,
    busy: AtomicU64,
    migrations: AtomicU64,
    shared: WorkerShared,
}

impl fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shards())
            .field("queue_depth", &self.cfg.queue_depth)
            .finish_non_exhaustive()
    }
}

/// FNV-1a, the stream→shard hash (stable, documented: clients can
/// compute placement offline).
pub fn shard_for_label(label: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // zbp-analyze: allow(panic-path): the divisor is `shards.max(1)`,
    // clamped to >= 1 right here, so `% 0` cannot occur.
    (h % shards.max(1) as u64) as usize
}

/// Recover the data behind a poisoned lock. A shard worker that
/// panicked mid-update poisons the lock, but every structure behind the
/// pool's locks is valid after any partial update (map insert/remove
/// and `Vec` replacement are atomic at our granularity), and the mux
/// thread must outlive any worker crash — so recovery is always safe
/// and a panic here would take down every connection at once.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ShardPool {
    /// Starts `cfg.shards` worker threads.
    pub fn new(cfg: PoolConfig) -> ShardPool {
        let shards = cfg.shards.max(1);
        let shared = WorkerShared::default();
        let mut out = Vec::with_capacity(shards);
        for shard in 0..shards {
            out.push(spawn_shard(shard, &cfg, shared.clone()));
        }
        ShardPool {
            cfg,
            shards: RwLock::new(out),
            routes: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            shared,
        }
    }

    /// Registers `thread` to be unparked whenever a worker answers a
    /// feed or close, or a killed shard abandons its queue. Only the
    /// first registration takes effect.
    pub(crate) fn set_waker(&self, thread: Thread) {
        let _ = self.shared.waker.set(thread);
    }

    /// The pool configuration in force (`shards` is the *initial*
    /// count; [`ShardPool::shards`] is the live one).
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Current number of shards.
    pub fn shards(&self) -> usize {
        relock(self.shards.read()).len()
    }

    /// Sessions moved between shards so far (migrations, rebalances and
    /// rolling restarts all count).
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    fn busy_err(&self) -> ServeError {
        self.busy.fetch_add(1, Ordering::Relaxed);
        ServeError::Busy { retry_after_ms: self.cfg.retry_after_ms }
    }

    fn try_send(&self, shard: usize, cmd: Cmd) -> Result<(), ServeError> {
        let shards = relock(self.shards.read());
        let s = shards.get(shard).ok_or(ServeError::NoSuchShard(shard))?;
        match s.tx.try_send(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(self.busy_err()),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Opens a stream: hashes `label` to a shard, assigns the next
    /// stream id, and hands the shard an open command. Fails with
    /// [`ServeError::Busy`] when the shard's queue is full (nothing is
    /// allocated in that case — retry later).
    pub fn open(
        &self,
        label: &str,
        cfg: &PredictorConfig,
        mode: ReplayMode,
        traced: bool,
    ) -> Result<Opened, ServeError> {
        let opened = self.open_async(label, cfg, mode, traced)?;
        opened.1.recv().map_err(|_| ServeError::ShuttingDown)?;
        Ok(opened.0)
    }

    /// Enqueues an open without waiting for the shard to build the
    /// session — the event-loop path. The route is installed eagerly:
    /// the per-shard queue is FIFO, so feeds enqueued after this call
    /// land behind the open.
    pub fn open_async(
        &self,
        label: &str,
        cfg: &PredictorConfig,
        mode: ReplayMode,
        traced: bool,
    ) -> Result<(Opened, Receiver<()>), ServeError> {
        let shard = shard_for_label(label, self.shards());
        let id = StreamId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (reply, confirm) = sync_channel(1);
        self.try_send(
            shard,
            Cmd::Open {
                id,
                label: label.to_string(),
                cfg: Box::new(cfg.clone()),
                mode,
                traced,
                reply,
            },
        )?;
        relock(self.routes.lock()).insert(id.0, shard);
        Ok((Opened { id, shard }, confirm))
    }

    fn route(&self, id: StreamId) -> Result<usize, ServeError> {
        relock(self.routes.lock()).get(&id.0).copied().ok_or(ServeError::UnknownStream(id.0))
    }

    /// Feeds a batch to an open stream; returns the stream's total
    /// records so far. [`ServeError::Busy`] means nothing was consumed
    /// — retry the same batch after the hinted delay.
    pub fn feed(&self, id: StreamId, batch: Vec<BranchRecord>) -> Result<u64, ServeError> {
        self.feed_async(id, batch)?.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Enqueues a feed without waiting for the shard to process it —
    /// the pipelined path (and what makes backpressure deterministic to
    /// test: the enqueue happens before this returns). The receiver
    /// yields the stream's running record count once the shard has
    /// consumed the batch.
    pub fn feed_async(
        &self,
        id: StreamId,
        batch: Vec<BranchRecord>,
    ) -> Result<Receiver<Result<u64, ServeError>>, ServeError> {
        if batch.len() > self.cfg.max_batch {
            return Err(ServeError::BatchTooLarge { len: batch.len(), max: self.cfg.max_batch });
        }
        let shard = self.route(id)?;
        let (reply, confirm) = sync_channel(1);
        self.try_send(shard, Cmd::Feed { id, batch, reply })?;
        Ok(confirm)
    }

    /// Closes a stream, returning its final report. The stream's
    /// predictor returns to the shard's free list (reset) for reuse.
    pub fn close(&self, id: StreamId, tail_instrs: u64) -> Result<SessionReport, ServeError> {
        let confirm = self.close_async(id, tail_instrs)?;
        let report = confirm.recv().map_err(|_| ServeError::ShuttingDown)?;
        if report.is_ok() {
            relock(self.routes.lock()).remove(&id.0);
        }
        report
    }

    /// Enqueues a close without waiting — the event-loop path. The
    /// caller is responsible for dropping the route once the reply
    /// arrives Ok ([`ShardPool::forget_route`]).
    pub fn close_async(
        &self,
        id: StreamId,
        tail_instrs: u64,
    ) -> Result<Receiver<Result<SessionReport, ServeError>>, ServeError> {
        let shard = self.route(id)?;
        let (reply, confirm) = sync_channel(1);
        self.try_send(shard, Cmd::Close { id, tail_instrs, reply })?;
        Ok(confirm)
    }

    /// Drops the routing entry for a stream whose close has been
    /// confirmed (the deferred half of [`ShardPool::close_async`]).
    pub fn forget_route(&self, id: StreamId) {
        relock(self.routes.lock()).remove(&id.0);
    }

    /// Parks a shard's worker until the returned guard is dropped —
    /// the maintenance drain hook, and the deterministic way to fill a
    /// queue in backpressure tests. Blocks until the worker has
    /// actually parked (so the queue is empty and at full capacity).
    pub fn pause_shard(&self, shard: usize) -> Result<ShardPause, ServeError> {
        let (ack_tx, ack_rx) = sync_channel(1);
        let (resume_tx, resume_rx) = sync_channel(1);
        self.try_send(shard, Cmd::Pause { ack: ack_tx, resume: resume_rx })?;
        ack_rx.recv().map_err(|_| ServeError::ShuttingDown)?;
        Ok(ShardPause { _resume: resume_tx })
    }

    /// Live-migrates an open delayed-mode stream to `to_shard`: the
    /// source worker images the session mid-flight, the target worker
    /// resumes it, and the continued stream is byte-identical to one
    /// that never moved. Commands racing the move answer
    /// [`ServeError::Busy`] and succeed on retry.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownStream`] for unrouted ids,
    /// [`ServeError::NoSuchShard`] for a bad target,
    /// [`ServeError::NotMigratable`] for whole-stream or traced
    /// sessions (they stay put), [`ServeError::Busy`] when the source
    /// queue is full.
    pub fn migrate(&self, id: StreamId, to_shard: usize) -> Result<(), ServeError> {
        // Lock order: shards before routes. Holding both for the whole
        // move (a) freezes the shard set and (b) makes the route update
        // atomic with respect to every other router.
        let shards = self.shards.read().expect("shards");
        let mut routes = self.routes.lock().expect("routes");
        let from = *routes.get(&id.0).ok_or(ServeError::UnknownStream(id.0))?;
        if to_shard >= shards.len() {
            return Err(ServeError::NoSuchShard(to_shard));
        }
        if from == to_shard {
            return Ok(());
        }
        let image = export_session(&shards[from], id)?;
        import_session(&shards[to_shard], id, image)?;
        routes.insert(id.0, to_shard);
        self.migrations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Grows or shrinks the pool to `new_shards` workers under load.
    /// Growth spawns fresh workers (new opens hash over the larger
    /// set). Shrinking drains each doomed shard by live-migrating its
    /// delayed-mode sessions to their new label-hash home; sessions
    /// that cannot migrate are force-finished into the completion log
    /// (same as shutdown). Returns the number of sessions migrated.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once the pool is draining.
    pub fn resize(&self, new_shards: usize) -> Result<u64, ServeError> {
        let new_shards = new_shards.max(1);
        let mut shards = self.shards.write().expect("shards");
        let old = shards.len();
        if new_shards == old {
            return Ok(0);
        }
        if new_shards > old {
            for shard in old..new_shards {
                shards.push(spawn_shard(shard, &self.cfg, self.shared.clone()));
            }
            return Ok(0);
        }
        // Shrink: move every movable session off the doomed shards.
        let mut migrated = 0u64;
        let mut routes = self.routes.lock().expect("routes");
        let doomed: Vec<u64> =
            routes.iter().filter(|(_, s)| **s >= new_shards).map(|(id, _)| *id).collect();
        for id in doomed {
            let from = routes[&id];
            match export_session(&shards[from], StreamId(id)) {
                Ok(image) => {
                    let to = shard_for_label(image.label(), new_shards);
                    import_session(&shards[to], StreamId(id), image)?;
                    routes.insert(id, to);
                    migrated += 1;
                    self.migrations.fetch_add(1, Ordering::Relaxed);
                }
                // Pinned (whole-stream/traced) sessions are force-
                // finished by the worker's drain below; their reports
                // still reach the completion log.
                Err(ServeError::NotMigratable(_)) => {
                    routes.remove(&id);
                }
                Err(e) => return Err(e),
            }
        }
        for dead in shards.drain(new_shards..) {
            drop(dead.tx);
            let _ = dead.worker.join();
        }
        Ok(migrated)
    }

    /// Rolling restart of one shard: exports every movable session,
    /// replaces the worker thread with a fresh one (new free list, new
    /// state), and imports the sessions back — warm predictor state
    /// survives the restart byte-identically. Pinned sessions are
    /// force-finished by the old worker's drain. Returns the number of
    /// sessions carried across.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchShard`] for a bad index,
    /// [`ServeError::ShuttingDown`] once the pool is draining.
    pub fn restart_shard(&self, shard: usize) -> Result<u64, ServeError> {
        let mut shards = self.shards.write().expect("shards");
        if shard >= shards.len() {
            return Err(ServeError::NoSuchShard(shard));
        }
        let mut routes = self.routes.lock().expect("routes");
        let resident: Vec<u64> =
            routes.iter().filter(|(_, s)| **s == shard).map(|(id, _)| *id).collect();
        let mut images = Vec::new();
        for id in resident {
            match export_session(&shards[shard], StreamId(id)) {
                Ok(image) => images.push((StreamId(id), image)),
                Err(ServeError::NotMigratable(_)) => {
                    routes.remove(&id);
                }
                Err(e) => return Err(e),
            }
        }
        let fresh = spawn_shard(shard, &self.cfg, self.shared.clone());
        let old = std::mem::replace(&mut shards[shard], fresh);
        drop(old.tx);
        let _ = old.worker.join();
        let carried = images.len() as u64;
        for (id, image) in images {
            import_session(&shards[shard], id, image)?;
            self.migrations.fetch_add(1, Ordering::Relaxed);
        }
        Ok(carried)
    }

    /// Chaos hook: crash a shard. Every session on it is dropped
    /// without a report, the worker is respawned empty, and the lost
    /// streams' routes are purged so clients see
    /// [`ServeError::UnknownStream`] and recover by reopening. Returns
    /// the number of sessions lost.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchShard`] for a bad index,
    /// [`ServeError::ShuttingDown`] once the pool is draining.
    pub fn kill_shard(&self, shard: usize) -> Result<u64, ServeError> {
        let mut shards = self.shards.write().expect("shards");
        if shard >= shards.len() {
            return Err(ServeError::NoSuchShard(shard));
        }
        let (reply, rx) = sync_channel(1);
        shards[shard].tx.send(Cmd::Die { reply }).map_err(|_| ServeError::ShuttingDown)?;
        let dropped = rx.recv().map_err(|_| ServeError::ShuttingDown)?;
        let fresh = spawn_shard(shard, &self.cfg, self.shared.clone());
        let old = std::mem::replace(&mut shards[shard], fresh);
        drop(old.tx);
        let _ = old.worker.join();
        self.routes.lock().expect("routes").retain(|_, s| *s != shard);
        Ok(dropped)
    }

    /// Graceful drain: stops accepting work, lets every shard finish
    /// its queue (force-finishing sessions never closed, with a zero
    /// tail), joins the workers and returns the summary. Telemetry is
    /// reduced by stream id, so the result is identical at any shard
    /// count.
    pub fn shutdown(self) -> PoolSummary {
        let mut workers = Vec::new();
        for shard in self.shards.into_inner().expect("shards") {
            drop(shard.tx);
            workers.push(shard.worker);
        }
        for w in workers {
            let _ = w.join();
        }
        let log = std::mem::take(&mut *relock(self.shared.log.lock()));
        PoolSummary {
            completed: log.completed,
            sessions: log.recent.into_values().collect(),
            merged_telemetry: Snapshot::merge_keyed(log.telemetry),
            busy_rejections: self.busy.load(Ordering::Relaxed),
        }
    }
}

/// Guard returned by [`ShardPool::pause_shard`]; dropping it resumes
/// the worker.
#[derive(Debug)]
pub struct ShardPause {
    _resume: SyncSender<()>,
}

fn spawn_shard(shard: usize, cfg: &PoolConfig, shared: WorkerShared) -> Shard {
    let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
    let free_cap = cfg.free_list;
    let retry_ms = cfg.retry_after_ms;
    let worker = std::thread::Builder::new()
        .name(format!("zbp-shard-{shard}"))
        .spawn(move || shard_worker(shard, rx, &shared, free_cap, retry_ms))
        .expect("spawn shard worker");
    Shard { tx, worker }
}

/// Blocking export of one session's image from a shard (migration
/// source half). Blocking sends are safe here: every caller holds the
/// shards lock, and workers never take it.
fn export_session(shard: &Shard, id: StreamId) -> Result<Box<SessionImage>, ServeError> {
    let (reply, rx) = sync_channel(1);
    shard.tx.send(Cmd::Export { id, reply }).map_err(|_| ServeError::ShuttingDown)?;
    rx.recv().map_err(|_| ServeError::ShuttingDown)?
}

/// Blocking import of an imaged session into a shard (migration target
/// half).
fn import_session(shard: &Shard, id: StreamId, image: Box<SessionImage>) -> Result<(), ServeError> {
    let (reply, rx) = sync_channel(1);
    shard.tx.send(Cmd::Import { id, image, reply }).map_err(|_| ServeError::ShuttingDown)?;
    rx.recv().map_err(|_| ServeError::ShuttingDown)
}

fn shard_worker(
    shard: usize,
    rx: Receiver<Cmd>,
    shared: &WorkerShared,
    free_cap: usize,
    retry_ms: u32,
) {
    let mut open: BTreeMap<u64, Session> = BTreeMap::new();
    let mut free: Vec<ZPredictor> = Vec::new();
    // Streams exported to another shard. A command racing the move is
    // told Busy; by the time the client retries, the routes table
    // points at the new home. Bounded by migrations off this worker.
    let mut moved: BTreeSet<u64> = BTreeSet::new();
    while let Some(cmd) = next_cmd(&rx) {
        match cmd {
            Cmd::Open { id, label, cfg, mode, traced, reply } => {
                let session = match mode {
                    ReplayMode::Delayed { depth } => {
                        // Recycle a predictor with a matching
                        // configuration if one is free; reset() returned
                        // it to power-on state, so the session behaves
                        // exactly like one on a fresh predictor.
                        match free.iter().position(|p| *p.config() == *cfg) {
                            Some(i) => {
                                Session::open_recycled(label, free.swap_remove(i), depth, traced)
                            }
                            None => {
                                Session::open(label, &cfg, ReplayMode::Delayed { depth }, traced)
                            }
                        }
                    }
                    mode => Session::open(label, &cfg, mode, traced),
                };
                open.insert(id.0, session);
                let _ = reply.send(());
            }
            Cmd::Feed { id, batch, reply } => {
                let res = match open.get_mut(&id.0) {
                    Some(s) => {
                        s.feed(&batch);
                        Ok(s.records_fed())
                    }
                    None => Err(missing(&moved, id, retry_ms)),
                };
                let _ = reply.send(res);
                shared.wake();
            }
            Cmd::Close { id, tail_instrs, reply } => {
                let Some(s) = open.remove(&id.0) else {
                    let _ = reply.send(Err(missing(&moved, id, retry_ms)));
                    shared.wake();
                    continue;
                };
                let label = s.label().to_string();
                let (report, pred) = s.finish_into(tail_instrs);
                let _ = reply.send(Ok(report.clone()));
                shared.wake();
                // The client has its report: bookkeeping and the reset
                // run off its path, before the next command.
                shared.complete(CompletedSession { id, label, shard, report });
                recycle(pred, &mut free, free_cap);
            }
            Cmd::Pause { ack, resume } => {
                let _ = ack.send(());
                // Parked until the guard drops (recv errors on
                // disconnect).
                let _ = resume.recv();
            }
            Cmd::Export { id, reply } => {
                let Some(s) = open.remove(&id.0) else {
                    let _ = reply.send(Err(ServeError::UnknownStream(id.0)));
                    continue;
                };
                let Some(image) = s.snapshot() else {
                    // Pinned session: put it back untouched.
                    open.insert(id.0, s);
                    let _ = reply.send(Err(ServeError::NotMigratable(id.0)));
                    continue;
                };
                moved.insert(id.0);
                let _ = reply.send(Ok(Box::new(image)));
                // The predictor inside `s` was imaged, not consumed —
                // recycle it for the next open, after the image is on
                // its way so the move's Busy window stays short.
                let (_, pred) = s.finish_into(0);
                recycle(pred, &mut free, free_cap);
            }
            Cmd::Import { id, image, reply } => {
                let recycled = free
                    .iter()
                    .position(|p| *p.config() == *image.config())
                    .map(|i| free.swap_remove(i));
                let session = Session::resume_recycled(*image, recycled);
                moved.remove(&id.0);
                open.insert(id.0, session);
                let _ = reply.send(());
            }
            Cmd::Die { reply } => {
                let _ = reply.send(open.len() as u64);
                // Crash semantics: no reports, no recycling, queue
                // abandoned. Dropping the receiver drops the queued
                // commands, so their repliers see a disconnect; wake
                // the mux to collect it.
                drop(rx);
                shared.wake();
                return;
            }
        }
    }
    // Drain: the pool is shutting down (or this shard is being retired);
    // force-finish whatever is still open.
    for (id, s) in open {
        let label = s.label().to_string();
        let (report, pred) = s.finish_into(0);
        recycle(pred, &mut free, free_cap);
        shared.complete(CompletedSession { id: StreamId(id), label, shard, report });
    }
}

/// The worker's next command, or `None` once the queue is closed. It
/// polls, yielding in between, while the worker has been idle for less
/// than [`IDLE_SLEEP`], and then blocks.
fn next_cmd(rx: &Receiver<Cmd>) -> Option<Cmd> {
    let mut idle_since: Option<Instant> = None;
    loop {
        match rx.try_recv() {
            Ok(cmd) => return Some(cmd),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        // zbp-analyze: allow(wall-clock): the clock only decides whether
        // the worker yields or blocks; no reply or statistic derives from it.
        let idle = *idle_since.get_or_insert_with(Instant::now);
        if idle.elapsed() >= IDLE_SLEEP {
            return rx.recv().ok();
        }
        std::thread::yield_now();
    }
}

/// The answer to a command naming a stream this worker does not hold:
/// `Busy` while the stream is moving to another shard, else unknown.
fn missing(moved: &BTreeSet<u64>, id: StreamId, retry_ms: u32) -> ServeError {
    if moved.contains(&id.0) {
        ServeError::Busy { retry_after_ms: retry_ms }
    } else {
        ServeError::UnknownStream(id.0)
    }
}

fn recycle(pred: Option<ZPredictor>, free: &mut Vec<ZPredictor>, cap: usize) {
    if let Some(mut p) = pred {
        if free.len() < cap {
            p.reset();
            free.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::workloads;

    /// Waits for `rx` the way the server's mux does once idle: parks
    /// between checks. Without a worker's unpark, the first park lasts
    /// until `deadline`.
    fn park_until<T>(rx: &Receiver<T>, deadline: Instant) -> T {
        loop {
            match rx.try_recv() {
                Ok(v) => return v,
                Err(TryRecvError::Empty) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    assert!(!left.is_zero(), "the reply was only seen at the deadline");
                    std::thread::park_timeout(left);
                }
                Err(TryRecvError::Disconnected) => panic!("the worker hung up"),
            }
        }
    }

    #[test]
    fn workers_unpark_the_registered_waker_after_feed_and_close() {
        let pool = ShardPool::new(PoolConfig { shards: 1, ..PoolConfig::default() });
        pool.set_waker(std::thread::current());
        let cfg = crate::proto::soak_config();
        let trace = workloads::lspr_like(3, 2_000).dynamic_trace();
        let opened = pool.open(trace.label(), &cfg, ReplayMode::default(), false).expect("open");

        let start = Instant::now();
        let deadline = start + Duration::from_secs(30);
        let feed = pool.feed_async(opened.id, trace.as_slice().to_vec()).expect("feed");
        assert_eq!(park_until(&feed, deadline), Ok(trace.branch_count()));
        let close = pool.close_async(opened.id, trace.tail_instrs()).expect("close");
        let report = park_until(&close, deadline).expect("report");
        assert!(start.elapsed() < Duration::from_secs(10), "replies took {:?}", start.elapsed());
        assert_eq!(report, Session::options(&cfg).run(&trace));
        assert_eq!(pool.shutdown().completed, 1);
    }

    #[test]
    fn a_close_answered_before_its_reset_leaves_the_next_open_a_power_on_predictor() {
        const SESSIONS: u64 = 50;
        // One shard and one free slot: every open after the first takes
        // the predictor the previous close is still recycling.
        let pool = ShardPool::new(PoolConfig { shards: 1, free_list: 1, ..PoolConfig::default() });
        let cfg = crate::proto::soak_config();
        let traces: Vec<_> =
            (0..5).map(|seed| workloads::lspr_like(seed, 300).dynamic_trace()).collect();
        let want: Vec<_> = traces.iter().map(|t| Session::options(&cfg).run(t)).collect();
        for i in 0..SESSIONS {
            let k = i as usize % traces.len();
            let trace = &traces[k];
            let opened =
                pool.open(trace.label(), &cfg, ReplayMode::default(), false).expect("open");
            pool.feed(opened.id, trace.as_slice().to_vec()).expect("feed");
            let report = pool.close(opened.id, trace.tail_instrs()).expect("close");
            assert_eq!(report, want[k], "session {i}");
        }
        assert_eq!(pool.shutdown().completed, SESSIONS);
    }
}
