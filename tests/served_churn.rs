//! Back-to-back short served sessions on one shard: the shard answers
//! each close before it recycles the predictor, and every later session
//! still runs on a power-on predictor.

use zbp::core::GenerationPreset;
use zbp::model::DynamicTrace;
use zbp::serve::{close_ok, Client, Frame, PoolConfig, Server, Session, WireMode};
use zbp::trace::workloads;

const SESSIONS: usize = 200;
/// Instructions per stream, as in the `serve-churn` benchmark.
const INSTRS: u64 = 600;

#[test]
fn every_served_close_matches_a_fresh_in_process_session() {
    let cfg = GenerationPreset::Z15.config();
    let traces: Vec<DynamicTrace> = (0..4u64)
        .flat_map(|seed| workloads::suite(seed, INSTRS))
        .map(|w| w.dynamic_trace())
        .collect();
    let want: Vec<Frame> =
        traces.iter().map(|t| close_ok(&Session::options(&cfg).run(t))).collect();

    let server = Server::bind("127.0.0.1:0", PoolConfig { shards: 1, ..PoolConfig::default() })
        .expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..SESSIONS {
        let k = i % traces.len();
        let trace = &traces[k];
        let (id, _) = client
            .open(GenerationPreset::Z15, WireMode::default(), false, trace.label())
            .expect("open");
        client.feed(id, trace.as_slice()).expect("feed");
        let close = Frame::Close { id, tail_instrs: trace.tail_instrs() };
        let (reply, _) = client.call_retrying(&close).expect("close");
        assert_eq!(reply, want[k], "session {i} ({})", trace.label());
    }
    drop(client);
    assert_eq!(server.shutdown().completed, SESSIONS as u64);
}
