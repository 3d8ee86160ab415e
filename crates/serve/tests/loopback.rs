//! TCP loopback integration tests: the full open → feed → close round
//! trip, frame-limit enforcement, deterministic `Busy` backpressure, the
//! per-connection reply-buffer bound, and the server's lifecycle
//! (accepting many connections, waking a parked mux, shutting down).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use zbp_core::GenerationPreset;
use zbp_serve::{
    Client, Frame, PoolConfig, ReplayMode, Server, Session, StreamId, WireMode, MAX_FRAME,
    PROTO_VERSION,
};
use zbp_trace::workloads;

fn test_server(shards: usize, queue_depth: usize) -> Server {
    Server::bind("127.0.0.1:0", PoolConfig { shards, queue_depth, ..PoolConfig::default() })
        .expect("bind loopback server")
}

/// The server's idle park: how long a mux that has seen nothing for a
/// while sleeps before it sweeps again.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// Opens one stream on `client` and returns its id.
fn open_stream(client: &mut Client, label: &str) -> u64 {
    let open = Frame::Open {
        preset: GenerationPreset::Z15.into(),
        mode: WireMode::default(),
        traced: false,
        label: label.into(),
    };
    match client.call(&open).expect("open") {
        Frame::OpenOk { id, .. } => id,
        other => panic!("expected OpenOk, got {other:?}"),
    }
}

#[test]
fn remote_replay_matches_local_session_exactly() {
    let server = test_server(2, 16);
    let trace = workloads::lspr_like(7, 20_000).dynamic_trace();
    let local = Session::options(&GenerationPreset::Z15.config()).run(&trace);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let remote = client
        .run_trace(GenerationPreset::Z15, WireMode::default(), &trace, 1000)
        .expect("remote replay");

    assert_eq!(remote.records, local.records);
    assert_eq!(remote.flushes, local.flushes);
    // Byte-identical statistics: the served stream ran the very same
    // open/feed/finish path as the local one.
    assert_eq!(remote.stats, local.stats);

    let summary = server.shutdown();
    assert_eq!(summary.sessions.len(), 1);
    assert_eq!(summary.sessions[0].report.stats, local.stats);
}

#[test]
fn lookahead_mode_works_over_the_wire() {
    let server = test_server(1, 16);
    let trace = workloads::lspr_like(11, 8_000).dynamic_trace();
    let local =
        Session::options(&GenerationPreset::Z15.config()).mode(ReplayMode::Lookahead).run(&trace);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let remote = client
        .run_trace(GenerationPreset::Z15, WireMode::Lookahead, &trace, 512)
        .expect("remote replay");
    assert_eq!(remote.stats, local.stats);
    assert_eq!(remote.flushes, local.flushes);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_and_connection_closed() {
    let server = test_server(1, 4);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    // Declare a payload bigger than the frame limit; the server must
    // answer with an error frame and hang up without reading it.
    raw.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes()).expect("write length");
    raw.flush().unwrap();
    let reply = Frame::read_from(&mut raw).expect("read error frame").expect("frame");
    match reply {
        Frame::Err { message } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected Err frame, got {other:?}"),
    }
    // The connection is closed: the next read reaches EOF.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("drained");
    assert!(rest.is_empty(), "no frames after the error");
    server.shutdown();
}

#[test]
fn malformed_open_gets_error_reply() {
    let server = test_server(1, 4);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    // Opcode 1 (Open) with a truncated body.
    raw.write_all(&2u32.to_le_bytes()).unwrap();
    raw.write_all(&[1u8, 0u8]).unwrap();
    raw.flush().unwrap();
    match Frame::read_from(&mut raw).expect("reply").expect("frame") {
        Frame::Err { message } => assert!(message.contains("malformed"), "{message}"),
        other => panic!("expected Err frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn full_shard_queue_answers_busy_then_recovers() {
    // One shard with a single-slot queue so the test controls exactly
    // when it fills.
    let server = test_server(1, 1);
    let trace = workloads::lspr_like(3, 2_000).dynamic_trace();
    let batch: Vec<_> = trace.as_slice().to_vec();

    // Stream A is driven in-process (so the queue can be filled without
    // a reader waiting); stream B is the TCP client that must observe
    // Busy.
    let pool = server.pool();
    let a = pool
        .open("stream-a", &GenerationPreset::Z15.config(), ReplayMode::default(), false)
        .expect("open A");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let opened = match client
        .call(&Frame::Open {
            preset: GenerationPreset::Z15.into(),
            mode: WireMode::default(),
            traced: false,
            label: "stream-b".into(),
        })
        .expect("open B")
    {
        Frame::OpenOk { id, .. } => id,
        other => panic!("expected OpenOk, got {other:?}"),
    };

    // Park the worker, then fill the queue's single slot synchronously.
    // The open for B is acknowledged at enqueue time, so its command
    // may still occupy the slot — retry until the worker has drained
    // it and the pause lands.
    let pause = loop {
        match pool.pause_shard(0) {
            Ok(p) => break p,
            Err(zbp_serve::ServeError::Busy { .. }) => std::thread::yield_now(),
            Err(e) => panic!("pause: {e}"),
        }
    };
    let pending = pool.feed_async(a.id, batch.clone()).expect("enqueue A's batch");

    // The shard is parked and its queue full: B's feed must be rejected
    // with Busy, deterministically.
    match client.call(&Frame::Feed { id: opened, batch: batch.clone() }).expect("feed B") {
        Frame::Busy { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Busy, got {other:?}"),
    }

    // Resume the worker; A's batch drains and B's retry now succeeds.
    drop(pause);
    let fed = pending.recv().expect("worker resumed").expect("A's feed lands");
    assert_eq!(fed, batch.len() as u64);
    let (reply, _) =
        client.call_retrying(&Frame::Feed { id: opened, batch: batch.clone() }).expect("retry B");
    match reply {
        Frame::FeedOk { records } => assert_eq!(records, batch.len() as u64),
        other => panic!("expected FeedOk, got {other:?}"),
    }

    pool.close(a.id, trace.tail_instrs()).expect("close A");
    match client
        .call_retrying(&Frame::Close { id: opened, tail_instrs: trace.tail_instrs() })
        .expect("close B")
        .0
    {
        Frame::CloseOk { stats, .. } => {
            // Both streams saw the same records on private predictors —
            // identical stats despite the contention.
            let local = Session::options(&GenerationPreset::Z15.config()).run(&trace);
            assert_eq!(stats, local.stats);
        }
        other => panic!("expected CloseOk, got {other:?}"),
    }

    let summary = server.shutdown();
    assert_eq!(summary.sessions.len(), 2);
    assert!(summary.busy_rejections >= 1, "the Busy rejection is counted");
}

#[test]
fn feeding_an_unknown_stream_is_an_error() {
    let server = test_server(1, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.call(&Frame::Close { id: 999, tail_instrs: 0 }).expect("reply") {
        Frame::Err { message } => assert!(message.contains("unknown stream"), "{message}"),
        other => panic!("expected Err, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn dropped_connection_does_not_leak_sessions() {
    let server = test_server(1, 8);
    let trace = workloads::lspr_like(5, 1_000).dynamic_trace();
    {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        match client
            .call(&Frame::Open {
                preset: GenerationPreset::Z15.into(),
                mode: WireMode::default(),
                traced: false,
                label: "orphan".into(),
            })
            .expect("open")
        {
            Frame::OpenOk { .. } => {}
            other => panic!("expected OpenOk, got {other:?}"),
        }
        let _ = client.feed(0, trace.as_slice());
        // Client drops here without closing the stream.
    }
    let summary = server.shutdown();
    assert_eq!(summary.sessions.len(), 1, "orphaned stream was finalized");
    assert_eq!(summary.sessions[0].id, StreamId(0));
    assert_eq!(summary.sessions[0].report.records, trace.branch_count());
}

#[test]
fn a_client_that_never_reads_its_replies_is_stalled() {
    let server = test_server(1, 4);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_write_timeout(Some(Duration::from_millis(500))).expect("write timeout");
    let hello = Frame::Hello { version: PROTO_VERSION }.encode();
    let mut frame = (hello.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&hello);
    let chunk = frame.repeat(64 * 1024 / frame.len());
    // Far more than the server's reply bound plus every loopback socket
    // buffer: a server that kept reading would take all of it.
    let limit = 128 << 20;
    let (mut sent, mut at) = (0usize, 0usize);
    let stalled = loop {
        match raw.write(&chunk[at..]) {
            Ok(n) => {
                sent += n;
                at = (at + n) % chunk.len();
                if sent >= limit {
                    break false;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break true
            }
            Err(e) => panic!("write failed after {sent} bytes: {e}"),
        }
    };
    assert!(stalled, "the server took {sent} bytes of requests whose replies were never read");
    drop(raw);
    server.shutdown();
}

#[test]
fn sequential_connections_are_all_served() {
    const CYCLES: u64 = 64;
    let server = test_server(1, 8);
    for i in 0..CYCLES {
        // `connect` completes the handshake; the connection then drops
        // with its stream still open.
        let mut client = Client::connect(server.local_addr()).expect("connect and handshake");
        assert_eq!(open_stream(&mut client, &format!("cycle-{i}")), i);
    }
    let summary = server.shutdown();
    assert_eq!(summary.completed, CYCLES, "every dropped connection's stream was finalized");
}

#[test]
fn a_connection_to_a_parked_mux_is_answered_without_waiting_out_its_park() {
    let server = test_server(1, 8);
    // A single handshake's latency is at the mercy of the scheduler,
    // and the other tests in this binary load the machine while they
    // run, so the test keeps trying until one handshake beats a park.
    // A server that only saw new connections when its park ran out
    // would make them all wait, on average, half a park.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut tries = 0;
    let fastest = loop {
        // Long enough for the mux to stop spinning and park.
        std::thread::sleep(Duration::from_millis(5));
        let t = Instant::now();
        let client = Client::connect(server.local_addr()).expect("connect and handshake");
        let took = t.elapsed();
        drop(client);
        tries += 1;
        if took < IDLE_SLEEP || Instant::now() > deadline {
            break took;
        }
    };
    assert!(fastest < IDLE_SLEEP, "no handshake to a parked mux beat one park in {tries} tries");
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_the_acceptor_blocked_in_accept() {
    let server = test_server(2, 8);
    // Let the acceptor reach its blocking `accept`.
    std::thread::sleep(Duration::from_millis(20));
    let (done, finished) = mpsc::channel();
    let shutting = std::thread::spawn(move || {
        let t = Instant::now();
        let summary = server.shutdown();
        let _ = done.send(t.elapsed());
        summary
    });
    // `shutdown` joins the mux and the acceptor, so returning at all
    // proves that neither thread is left behind.
    let took = finished.recv_timeout(Duration::from_secs(10)).expect("shutdown hung");
    assert_eq!(shutting.join().expect("shutdown thread").completed, 0);
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
}
