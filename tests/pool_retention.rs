//! Bounded completion retention: a pool that serves more sessions than
//! it keeps still counts every one exactly, keeps the newest by stream
//! id, and merges every traced session's telemetry, kept or not.

use zbp::core::PredictorConfig;
use zbp::model::DynamicTrace;
use zbp::serve::{soak_config, PoolConfig, ReplayMode, Session, ShardPool, StreamId};
use zbp::telemetry::Snapshot;
use zbp::trace::workloads;

/// More sessions than the pool keeps (1024).
const SESSIONS: u64 = 1_300;
/// Sessions held open at once; closed newest-first so completion order
/// is not id order.
const WAVE: u64 = 50;
/// Every `TRACED`-th stream records telemetry.
const TRACED: u64 = 97;

fn traces() -> Vec<DynamicTrace> {
    (0..8u64)
        .map(|seed| {
            let t = workloads::lspr_like(seed, 300).dynamic_trace();
            let mut out =
                DynamicTrace::from_records(format!("retain-{seed}"), t.as_slice().to_vec());
            out.push_tail_instrs(t.tail_instrs());
            out
        })
        .collect()
}

fn trace_of(traces: &[DynamicTrace], id: StreamId) -> &DynamicTrace {
    &traces[id.0 as usize % traces.len()]
}

fn fresh(cfg: &PredictorConfig, trace: &DynamicTrace, traced: bool) -> zbp::serve::SessionReport {
    Session::options(cfg).telemetry(traced).run(trace)
}

#[test]
fn pool_counts_every_session_and_keeps_the_newest() {
    let cfg = soak_config();
    let traces = traces();
    let pool = ShardPool::new(PoolConfig { shards: 2, ..PoolConfig::default() });
    let mut next = 0u64;
    while next < SESSIONS {
        let wave: Vec<_> = (next..SESSIONS.min(next + WAVE))
            .map(|i| {
                let t = trace_of(&traces, StreamId(i));
                let opened = pool
                    .open(t.label(), &cfg, ReplayMode::default(), i % TRACED == 0)
                    .expect("open");
                assert_eq!(opened.id, StreamId(i), "ids follow open order");
                pool.feed(opened.id, t.as_slice().to_vec()).expect("feed");
                opened.id
            })
            .collect();
        for &id in wave.iter().rev() {
            pool.close(id, trace_of(&traces, id).tail_instrs()).expect("close");
        }
        next += wave.len() as u64;
    }
    let summary = pool.shutdown();

    assert_eq!(summary.completed, SESSIONS, "every session is counted");
    let kept = summary.sessions.len() as u64;
    assert!(kept > 0 && kept < SESSIONS, "kept {kept} of {SESSIONS}: retention must be bounded");
    let ids: Vec<u64> = summary.sessions.iter().map(|s| s.id.0).collect();
    assert_eq!(ids, (SESSIONS - kept..SESSIONS).collect::<Vec<_>>(), "the newest ids, sorted");
    for s in &summary.sessions {
        let traced = s.id.0 % TRACED == 0;
        assert_eq!(s.report, fresh(&cfg, trace_of(&traces, s.id), traced), "stream {}", s.id);
    }

    let dropped_traced = (0..SESSIONS - kept).filter(|i| i % TRACED == 0).count();
    assert!(dropped_traced > 1, "some traced sessions fell out of the retained tail");
    let want = Snapshot::merge_keyed((0..SESSIONS).filter(|i| i % TRACED == 0).map(|i| {
        let report = fresh(&cfg, trace_of(&traces, StreamId(i)), true);
        (i, report.telemetry.expect("traced sessions carry telemetry"))
    }));
    assert_eq!(summary.merged_telemetry, want, "telemetry merges every session, kept or not");
}
