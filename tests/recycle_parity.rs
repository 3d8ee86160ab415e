//! Recycling parity for the lazily paged BTB2: a predictor that served
//! one stream (and so allocated BTB2 pages) and was recycled through
//! `ZPredictor::reset` must serve the next stream exactly like a fresh
//! one, and a session imaged mid-stream with a partly filled BTB2 must
//! continue byte-identically after resume.

use zbp::core::{GenerationPreset, PredictorConfig};
use zbp::model::{BranchRecord, DynamicTrace};
use zbp::serve::{PoolConfig, ReplayMode, Session, SessionReport, ShardPool};
use zbp::trace::workloads;
use zbp::zarch::{InstrAddr, Mnemonic};

/// Streams stay near 20k instructions so the debug-build test runs in
/// seconds.
const INSTRS: u64 = 20_000;

/// `n` taken jumps, each in its own 64-byte line and jumping to the
/// next line: two instructions per record and `n` distinct branches.
/// Enough of them overflow every generation's BTB1 (and the BTBP
/// before z15), so victims reach the BTB2 well within 20k
/// instructions, which the generated workloads do not do on
/// zEC12–z14.
fn jump_chain(n: u64) -> Vec<BranchRecord> {
    (0..n)
        .map(|i| {
            let line = 0x10_0000 + i * 64;
            let mut r = BranchRecord::new(
                InstrAddr::new(line + 4),
                Mnemonic::J,
                true,
                InstrAddr::new(line + 64),
            );
            r.gap_instrs = 1;
            r
        })
        .collect()
}

/// Valid BTB2 entries left in the predictor after `trace` runs to
/// completion in process.
fn btb2_occupancy_after(cfg: &PredictorConfig, trace: &DynamicTrace) -> usize {
    let mut s = Session::options(cfg).open(trace.label());
    s.feed(trace.as_slice());
    let (_, pred) = s.finish_into(trace.tail_instrs());
    let pred = pred.expect("delayed-mode sessions hand their predictor back");
    pred.structures().btb2.map_or(0, |b| b.occupancy())
}

/// Serves `trace` start to finish through `pool` in 1024-record feeds.
fn serve(pool: &ShardPool, cfg: &PredictorConfig, trace: &DynamicTrace) -> SessionReport {
    let opened = pool.open(trace.label(), cfg, ReplayMode::default(), false).expect("open");
    for batch in trace.as_slice().chunks(1024) {
        pool.feed(opened.id, batch.to_vec()).expect("feed");
    }
    pool.close(opened.id, trace.tail_instrs()).expect("close")
}

#[test]
fn recycled_predictor_serves_like_a_fresh_one_for_every_preset() {
    // The warm-up stream runs the second stream's own branches, then a
    // jump chain that pushes them out of the BTB1 into the BTB2: a
    // BTB2 that survived recycling would hit on the second stream.
    let next = workloads::lspr_like(5, INSTRS / 2).dynamic_trace();
    let warm = DynamicTrace::from_records(
        "warm",
        [next.as_slice().to_vec(), jump_chain(INSTRS / 2)].concat(),
    );
    for preset in GenerationPreset::ALL {
        let cfg = preset.config();
        assert!(
            btb2_occupancy_after(&cfg, &warm) > 0,
            "{preset}: the warm-up stream must allocate BTB2 pages"
        );
        // One shard, so the second session runs on the predictor the
        // first one returned to the free list.
        let pool = ShardPool::new(PoolConfig { shards: 1, ..PoolConfig::default() });
        serve(&pool, &cfg, &warm);
        let recycled = serve(&pool, &cfg, &next);
        let fresh = Session::options(&cfg).run(&next);
        assert_eq!(recycled, fresh, "{preset}: a recycled predictor diverged from a fresh one");
        pool.shutdown();
    }
}

#[test]
fn resume_with_a_partly_filled_btb2_continues_byte_identically() {
    // A jump chain that spills into the BTB2, then a generated stream
    // running on the warm tables; the cut falls inside the latter.
    let tail = workloads::lspr_like(9, INSTRS / 2).dynamic_trace();
    let chain = jump_chain(INSTRS / 4);
    let cut = chain.len() + tail.as_slice().len() / 2 + 7;
    let mut trace =
        DynamicTrace::from_records("chain+lspr", [chain, tail.as_slice().to_vec()].concat());
    trace.push_tail_instrs(tail.tail_instrs());
    let records = trace.as_slice();
    for preset in GenerationPreset::ALL {
        let cfg = preset.config();
        let direct = Session::options(&cfg).run(&trace);

        let mut session = Session::options(&cfg).open(trace.label());
        session.feed(&records[..cut]);
        let image = session.snapshot().expect("delayed untraced sessions are migratable");
        let (_, at_cut) = Session::resume(image.clone()).finish_into(0);
        let at_cut = at_cut.expect("delayed-mode sessions hand their predictor back");
        let btb2 = at_cut.structures().btb2.expect("every preset has a BTB2");
        let capacity = cfg.btb2.as_ref().map_or(0, |b| b.capacity());
        assert!(
            (1..capacity).contains(&btb2.occupancy()),
            "{preset}: the BTB2 must be partly filled at the cut"
        );

        let mut resumed = Session::resume(image);
        resumed.feed(&records[cut..]);
        let resumed = resumed.finish(trace.tail_instrs());
        assert_eq!(resumed, direct, "{preset}: resume diverged from the straight run");
    }
}
