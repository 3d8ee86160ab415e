//! Golden statistics for the z15 predict/resolve bodies.
//!
//! The per-branch bookkeeping around the tables (GPQ entries, the
//! carried BTB1 key and CPRED slot, the CRS borrow, the perceptron
//! sums) may be restructured for speed only if every table sees the
//! same reads and writes in the same order. This test pins what that
//! order produces: the suite's six programs, executed the way perfbench's
//! `serve-stream` executes them at seed 1001 but 20k instructions long,
//! replayed on z15 through `Session`. Every statistic the run produces
//! (`MispredictStats`, flushes, `ZStats`, and the BTB2, PHT, perceptron,
//! CPRED and CRS counters) is folded into one FNV-1a digest per program.
//!
//! The digests were captured from the model before the bookkeeping was
//! restructured. A mismatch prints the full dump; compare it with the
//! same dump from the commit that last passed. Adding a field to any of
//! these statistics changes the dump, so such a change re-captures the
//! digests on its parent commit first.

use zbp::core::GenerationPreset;
use zbp::serve::Session;
use zbp::trace::workloads;

/// `(program label, mispredictions, flushes, digest of the full dump)`.
const GOLDEN: [(&str, u64, u64, u64); 6] = [
    ("lspr-like", 293, 293, 0xa8e1_eb60_604f_6ed7),
    ("lspr-like", 299, 299, 0x840b_22de_a43c_5a7e),
    ("compute-loop", 63, 63, 0x0974_aee4_ae8e_86d6),
    ("call-return", 8, 8, 0xfa20_f6ba_c928_a861),
    ("indirect-dispatch", 545, 545, 0xcf17_0ff6_cbef_81eb),
    ("microservices", 573, 573, 0x9248_dbc2_6af4_20c6),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn z15_suite_statistics_match_the_golden_digests() {
    let cfg = GenerationPreset::Z15.config();
    let programs = workloads::suite(1, 20_000);
    assert_eq!(programs.len(), GOLDEN.len());
    let mut failures = Vec::new();
    for (i, (w, golden)) in programs.into_iter().zip(GOLDEN).enumerate() {
        let mut w = w;
        w.seed = 1001u64.wrapping_mul(1_000_003).wrapping_add(i as u64);
        let trace = w.dynamic_trace();
        let mut session = Session::options(&cfg).open(trace.label());
        session.feed(trace.as_slice());
        let (report, pred) = session.finish_into(trace.tail_instrs());
        let pred = pred.expect("delayed-mode sessions hand their predictor back");
        let st = pred.structures();
        let dump = format!(
            "{:?}\nflushes {}\n{:?}\nbtb2 {:?}\npht {:?}\nperceptron {:?}\ncpred {:?}\ncrs {:?}",
            report.stats,
            report.flushes,
            pred.stats,
            st.btb2.map(|b| b.stats),
            st.pht.stats,
            st.perceptron.map(|p| p.stats),
            st.cpred.map(|c| c.stats),
            st.crs.map(|c| c.stats),
        );
        let got = (report.stats.mispredictions(), report.flushes, fnv1a(&dump));
        assert!(w.label.starts_with(golden.0), "suite order changed: {} at {i}", w.label);
        if got != (golden.1, golden.2, golden.3) {
            failures.push(format!("{}:\n{dump}", w.label));
        }
    }
    assert!(failures.is_empty(), "statistics moved:\n{}", failures.join("\n"));
}
