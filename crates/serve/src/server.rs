//! TCP front end for the [`ShardPool`]: a single readiness-driven
//! multiplexer thread over non-blocking sockets, so thousands of idle
//! connections cost buffers, not threads.
//!
//! Connections are accepted on their own thread, which blocks in
//! `accept`, makes each new socket non-blocking with `TCP_NODELAY`,
//! hands it to the mux over a bounded channel and unparks the mux. The
//! mux never calls `accept` itself, so a sweep makes no syscall for a
//! listener that has nothing ready.
//!
//! Every connection is a small state machine — a read reassembly
//! buffer, a pending-reply queue, and a write buffer — swept by one
//! event loop:
//!
//! 1. take the connections the acceptor has handed over;
//! 2. per connection, read whatever the socket has, decode complete
//!    frames, and translate each into a **non-blocking** pool enqueue
//!    ([`ShardPool::feed_async`] and friends) whose confirmation
//!    receiver is parked in the connection's reply queue;
//! 3. drain reply queues in request order (the wire contract: replies
//!    come back in the order requests were sent) into the write buffer;
//! 4. flush write buffers as far as the sockets accept.
//!
//! The loop is event-driven where std allows it. Sockets are polled,
//! but neither new connections nor shard replies are waited for on a
//! timer: the acceptor unparks the mux after each hand-over, and a
//! worker unparks it right after answering a feed or close (and when a
//! killed shard abandons its queue). A sweep that moved nothing yields and
//! sweeps again while the last progress is under [`IDLE_SLEEP`] old, so
//! a closed-loop client's next frame is picked up within microseconds;
//! after that the mux parks for at most [`IDLE_SLEEP`], so an idle
//! server still wakes every 100 µs and no more often. [`IDLE_SLEEP`] is
//! the serving layer's one timing constant, shared with the shard
//! workers, which spin for the same window before blocking on their
//! queues, and with the acceptor, which waits that long after a failed
//! `accept`.
//!
//! Memory per connection is bounded. A sweep stops reading once the
//! read buffer holds more than one largest frame ([`MAX_FRAME`] plus
//! its header). While a connection's unflushed replies exceed
//! [`MAX_FRAME`] bytes, the mux neither reads nor decodes from it, so a
//! client that pipelines requests without reading its replies is
//! stalled by TCP flow control instead of growing the write buffer.
//! Decoded frames are consumed by offset, and the read buffer is
//! compacted once per sweep.
//!
//! Backpressure is surfaced, not absorbed: a full shard queue answers
//! `Busy { retry_after_ms }` at enqueue time and the client decides
//! when to retry — the same contract the paper's prediction queue
//! enforces between the BPL and the instruction-fetch side.
//!
//! The protocol handshake (`Hello`/`HelloOk`, [`PROTO_VERSION`]) is
//! validated here; version-0 clients that open without a handshake are
//! still served.

use crate::pool::{PoolConfig, PoolSummary, ServeError, ShardPool, StreamId, IDLE_SLEEP};
use crate::proto::{close_ok, Frame, ProtoError, MAX_FRAME, PROTO_VERSION};
use crate::session::SessionReport;
use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// A running prediction service bound to a TCP address.
pub struct Server {
    addr: SocketAddr,
    pool: Arc<ShardPool>,
    stop: Arc<AtomicBool>,
    mux: JoinHandle<()>,
    acceptor: JoinHandle<()>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and the multiplexer over a fresh pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, cfg: PoolConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(ShardPool::new(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        // One slot: a burst of connections waits in the listen backlog
        // until the mux has taken the one before.
        let (handoff, incoming) = sync_channel(1);
        let mux = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("zbp-serve-mux".into())
                .spawn(move || mux_loop(&incoming, &pool, &stop))
                .expect("spawn multiplexer")
        };
        let acceptor = {
            let stop = Arc::clone(&stop);
            let mux = mux.thread().clone();
            std::thread::Builder::new()
                .name("zbp-serve-accept".into())
                .spawn(move || accept_loop(&listener, &handoff, &mux, &stop))
                .expect("spawn acceptor")
        };
        Ok(Server { addr, pool, stop, mux, acceptor })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard pool behind this server — usable in-process alongside
    /// TCP clients (the load generator reads merged telemetry, and the
    /// chaos harness drives migration and shard kills, this way).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Graceful shutdown: stops the multiplexer (orphaned streams are
    /// finalized with a zero tail) and the acceptor, drains the pool and
    /// returns the summary.
    pub fn shutdown(self) -> PoolSummary {
        self.stop.store(true, Ordering::SeqCst);
        self.mux.thread().unpark();
        let _ = self.mux.join();
        // The acceptor is blocked in `accept`: one connection of our own
        // wakes it to see `stop`. If that connection fails while the
        // acceptor still runs, it could not be woken, so it is left to
        // exit at the next connection instead of being waited for.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        if TcpStream::connect(wake).is_ok() || self.acceptor.is_finished() {
            let _ = self.acceptor.join();
        }
        match Arc::try_unwrap(self.pool) {
            Ok(pool) => pool.shutdown(),
            // Should be unreachable once the multiplexer has joined;
            // report an empty summary rather than panic.
            Err(_) => PoolSummary::default(),
        }
    }
}

/// A reply owed to the client, in request order. Pool confirmations
/// arrive on channels; the queue preserves the wire's request/reply
/// ordering even when shards complete out of order.
enum ReplySlot {
    /// Computable at enqueue time (handshakes, errors, open acks —
    /// the open's stream id and shard are assigned before the worker
    /// runs, and per-shard FIFO puts the open ahead of its feeds).
    Ready(Frame),
    /// A feed waiting for the owning shard to consume the batch.
    Feed { rx: Receiver<Result<u64, ServeError>>, id: u64 },
    /// A close waiting for the final report.
    Close { rx: Receiver<Result<SessionReport, ServeError>>, id: u64 },
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes (partial frames reassemble here).
    rbuf: Vec<u8>,
    /// Decoded prefix of `rbuf`, dropped once per sweep.
    rpos: usize,
    /// Outbound bytes the socket has not accepted yet.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf`.
    wpos: usize,
    /// Replies owed, in request order.
    // zbp-analyze: allow(unbounded-channel): occupancy is bounded by the
    // bounded per-shard command queues — a request either resolves to an
    // immediate reply (drained next sweep) or occupies a queue slot the
    // pool already capped; saturation surfaces as `Busy`, not growth.
    pending: VecDeque<ReplySlot>,
    /// Streams opened on this connection and not yet closed.
    live: BTreeSet<u64>,
    /// Stop parsing input; close once owed replies are flushed.
    closing: bool,
    /// Client sent EOF; close once owed replies are flushed.
    eof: bool,
    /// Tear down now (fatal I/O error or flushed-out `closing`).
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            // zbp-analyze: allow(unbounded-channel): see the field above.
            pending: VecDeque::new(),
            live: BTreeSet::new(),
            closing: false,
            eof: false,
            dead: false,
        }
    }

    fn queue_frame(&mut self, frame: &Frame) {
        let len = frame.append_to(&mut self.wbuf);
        debug_assert!(len <= MAX_FRAME, "encoded reply exceeds MAX_FRAME");
    }

    /// More than a frame's worth of replies is waiting for the client
    /// to read: take no new input until it drains.
    fn backpressured(&self) -> bool {
        self.wbuf.len() - self.wpos > MAX_FRAME
    }
}

/// Blocks in `accept` and hands each new connection, already
/// non-blocking with `TCP_NODELAY`, to the mux. Returns once `stop` is
/// set (seen at the next accepted connection) or the mux has gone.
fn accept_loop(
    listener: &TcpListener,
    handoff: &SyncSender<TcpStream>,
    mux: &Thread,
    stop: &AtomicBool,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // A socket the mux could block on is not served.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if handoff.send(stream).is_err() {
                    return;
                }
                mux.unpark();
            }
            // A failed accept (out of descriptors, say) is retried after
            // one idle period instead of in a spin.
            Err(_) => std::thread::sleep(IDLE_SLEEP),
        }
    }
}

fn mux_loop(incoming: &Receiver<TcpStream>, pool: &ShardPool, stop: &AtomicBool) {
    pool.set_waker(std::thread::current());
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // When the current run of sweeps without progress began.
    let mut idle_since: Option<Instant> = None;
    while !stop.load(Ordering::SeqCst) {
        let mut progressed = false;
        // 1. Take the connections the acceptor has handed over.
        while let Ok(stream) = incoming.try_recv() {
            conns.push(Conn::new(stream));
            progressed = true;
        }
        // 2.–4. Sweep every connection.
        for conn in &mut conns {
            progressed |= sweep_conn(conn, pool, &mut scratch);
        }
        // Tear down finished connections, finalizing orphans.
        conns.retain_mut(|c| {
            if c.dead {
                for id in std::mem::take(&mut c.live) {
                    let _ = pool.close(StreamId(id), 0);
                }
                false
            } else {
                true
            }
        });
        if progressed {
            idle_since = None;
            continue;
        }
        // zbp-analyze: allow(wall-clock): the clock only decides whether
        // the mux yields or parks; no reply or statistic derives from it.
        let idle = *idle_since.get_or_insert_with(Instant::now);
        if idle.elapsed() < IDLE_SLEEP {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(IDLE_SLEEP);
        }
    }
    // Shutdown: hang up on everyone; orphaned streams get a zero tail.
    for conn in conns {
        for id in conn.live {
            let _ = pool.close(StreamId(id), 0);
        }
    }
}

/// One readiness pass over a connection; returns whether anything
/// moved.
fn sweep_conn(conn: &mut Conn, pool: &ShardPool, scratch: &mut [u8]) -> bool {
    let mut progressed = false;
    // Read whatever the socket has.
    if !conn.closing && !conn.eof && !conn.backpressured() {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(scratch.get(..n).unwrap_or(scratch));
                    progressed = true;
                    // Enough for the largest frame: decode before reading on.
                    if conn.rbuf.len() > 4 + MAX_FRAME {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
    }
    // Decode complete frames and enqueue their work.
    loop {
        if conn.closing || conn.backpressured() {
            break;
        }
        let unread = conn.rbuf.get(conn.rpos..).unwrap_or_default();
        let Some(header) = unread.first_chunk::<4>() else { break };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME {
            let e = ProtoError::FrameTooLarge(len);
            conn.queue_frame(&Frame::Err { message: e.to_string() });
            conn.closing = true;
            break;
        }
        // An incomplete body also lands here and waits for more bytes.
        let Some(body) = unread.get(4..4 + len) else { break };
        let frame = Frame::decode(body);
        conn.rpos += 4 + len;
        progressed = true;
        match frame {
            Ok(f) => handle_frame(conn, f, pool),
            Err(e) => {
                conn.queue_frame(&Frame::Err { message: e.to_string() });
                conn.closing = true;
            }
        }
    }
    conn.rbuf.drain(..conn.rpos);
    conn.rpos = 0;
    // Resolve owed replies in request order. Each slot is popped, and a
    // not-ready slot is pushed straight back — ownership moves through
    // the match, so there is no "front changed under us" case at all.
    while let Some(slot) = conn.pending.pop_front() {
        let frame = match slot {
            ReplySlot::Ready(f) => f,
            ReplySlot::Feed { rx, id } => match rx.try_recv() {
                Ok(Ok(records)) => Frame::FeedOk { records },
                Ok(Err(e)) => error_frame(e),
                Err(TryRecvError::Empty) => {
                    conn.pending.push_front(ReplySlot::Feed { rx, id });
                    break;
                }
                // The worker died with the command queued (a killed
                // shard): the stream is gone.
                Err(TryRecvError::Disconnected) => error_frame(ServeError::UnknownStream(id)),
            },
            ReplySlot::Close { rx, id } => match rx.try_recv() {
                Ok(Ok(report)) => {
                    pool.forget_route(StreamId(id));
                    conn.live.remove(&id);
                    close_ok(&report)
                }
                Ok(Err(e)) => error_frame(e),
                Err(TryRecvError::Empty) => {
                    conn.pending.push_front(ReplySlot::Close { rx, id });
                    break;
                }
                Err(TryRecvError::Disconnected) => {
                    pool.forget_route(StreamId(id));
                    conn.live.remove(&id);
                    error_frame(ServeError::UnknownStream(id))
                }
            },
        };
        conn.queue_frame(&frame);
        progressed = true;
    }
    // Flush as much as the socket accepts.
    loop {
        let tail = conn.wbuf.get(conn.wpos..).unwrap_or_default();
        if tail.is_empty() {
            break;
        }
        match conn.stream.write(tail) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                conn.wpos += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() && !conn.wbuf.is_empty() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    // A closing or drained connection dies once nothing is owed.
    if (conn.closing || conn.eof) && conn.pending.is_empty() && conn.wbuf.is_empty() {
        conn.dead = true;
    }
    progressed
}

/// Translates one decoded frame into pool work and/or queued replies.
fn handle_frame(conn: &mut Conn, frame: Frame, pool: &ShardPool) {
    match frame {
        Frame::Hello { version } => {
            if version == PROTO_VERSION {
                conn.pending.push_back(ReplySlot::Ready(Frame::HelloOk { version: PROTO_VERSION }));
            } else {
                let e = ProtoError::VersionMismatch { ours: PROTO_VERSION, theirs: version };
                conn.pending.push_back(ReplySlot::Ready(Frame::Err { message: e.to_string() }));
                conn.closing = true;
            }
        }
        Frame::Open { preset, mode, traced, label } => {
            match pool.open_async(&label, &preset.config(), mode.replay_mode(), traced) {
                Ok((opened, _confirm)) => {
                    conn.live.insert(opened.id.0);
                    conn.pending.push_back(ReplySlot::Ready(Frame::OpenOk {
                        id: opened.id.0,
                        shard: opened.shard as u32,
                    }));
                }
                Err(e) => conn.pending.push_back(ReplySlot::Ready(error_frame(e))),
            }
        }
        Frame::Feed { id, batch } => match pool.feed_async(StreamId(id), batch) {
            Ok(rx) => conn.pending.push_back(ReplySlot::Feed { rx, id }),
            Err(e) => conn.pending.push_back(ReplySlot::Ready(error_frame(e))),
        },
        Frame::Close { id, tail_instrs } => match pool.close_async(StreamId(id), tail_instrs) {
            Ok(rx) => conn.pending.push_back(ReplySlot::Close { rx, id }),
            Err(e) => conn.pending.push_back(ReplySlot::Ready(error_frame(e))),
        },
        // Server-to-client frames arriving at the server are a
        // protocol violation.
        Frame::HelloOk { .. }
        | Frame::OpenOk { .. }
        | Frame::FeedOk { .. }
        | Frame::CloseOk { .. }
        | Frame::Busy { .. }
        | Frame::Err { .. } => {
            let e = ProtoError::Malformed("client sent a server frame");
            conn.pending.push_back(ReplySlot::Ready(Frame::Err { message: e.to_string() }));
            conn.closing = true;
        }
    }
}

fn error_frame(e: ServeError) -> Frame {
    match e {
        ServeError::Busy { retry_after_ms } => Frame::Busy { retry_after_ms },
        other => Frame::Err { message: other.to_string() },
    }
}
