//! Schema and consistency of `BENCH_serve.json`, the committed
//! trajectory of the benchmark's end-to-end metrics: one row per
//! performance change, workload and seed, in history order.
//!
//! Timings are not gated (the host's speed modes would make such a
//! gate flaky). What is checked is that every row carries every
//! end-to-end metric `BENCHMARK.json` declares, that the brackets
//! enclose the median, and that `mpki`, which is deterministic per
//! seed, moves between consecutive rows of one workload and seed only
//! where the later row declares a model change.

use std::collections::BTreeMap;
use zbp_bench::json::Json;

fn load(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

fn arr(j: &Json) -> &[Json] {
    match j {
        Json::Arr(v) => v,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// A number or `null`.
fn opt_num(j: &Json, what: &str) -> Option<f64> {
    match j {
        Json::Null => None,
        Json::Num(x) if x.is_finite() => Some(*x),
        other => panic!("{what}: expected a number or null, got {other:?}"),
    }
}

fn names(bench: &Json, list: &str) -> Vec<String> {
    arr(bench.get(list).expect(list))
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("name").to_owned())
        .collect()
}

#[test]
fn trajectory_rows_are_well_formed_and_mpki_moves_only_with_the_model() {
    let bench = load("BENCHMARK.json");
    let metrics = names(&bench, "end_to_end");
    let workloads = names(&bench, "workloads");
    let doc = load("BENCH_serve.json");
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
    let rows = arr(doc.get("rows").expect("rows"));
    assert!(!rows.is_empty());

    // Last mpki seen per (workload, seed), with the row's parent.
    let mut last: BTreeMap<(String, u64), (String, f64)> = BTreeMap::new();
    let mut parents: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |k: &str| row.get(k).unwrap_or_else(|| panic!("row {i}: missing {k}"));
        let parent = field("parent").as_str().expect("parent is a string").to_owned();
        assert!(
            parent.len() >= 7 && parent.chars().all(|c| c.is_ascii_hexdigit()),
            "row {i}: parent {parent:?} is not a git rev"
        );
        // Rows run in history order: a change's rows are contiguous.
        if parents.last() != Some(&parent) {
            assert!(!parents.contains(&parent), "row {i}: {parent} appears out of order");
            parents.push(parent.clone());
        }
        assert!(field("change").as_str().is_some_and(|s| !s.is_empty()), "row {i}: change");
        let workload = field("workload").as_str().expect("workload").to_owned();
        assert!(workloads.contains(&workload), "row {i}: unknown workload {workload}");
        let seed = field("seed").as_u64().expect("seed");
        assert!(field("pairs").as_u64().is_some_and(|p| p >= 1), "row {i}: pairs");
        let model_changed = match field("model_changed") {
            Json::Bool(b) => *b,
            other => panic!("row {i}: model_changed {other:?}"),
        };
        let Json::Obj(ms) = field("metrics") else { panic!("row {i}: metrics") };
        let got: Vec<&String> = ms.keys().collect();
        let mut want: Vec<&String> = metrics.iter().collect();
        want.sort();
        assert_eq!(got, want, "row {i}: metric names differ from BENCHMARK.json");
        for (name, m) in ms {
            let what = format!("row {i} {name}");
            let med = opt_num(m.get("median").expect("median"), &what);
            let q1 = opt_num(m.get("q1").expect("q1"), &what);
            let q3 = opt_num(m.get("q3").expect("q3"), &what);
            if let (Some(lo), Some(hi)) = (q1, q3) {
                let med = med.unwrap_or_else(|| panic!("{what}: brackets without a median"));
                assert!(lo <= med && med <= hi, "{what}: {med} outside [{lo}, {hi}]");
            }
        }
        let Some(mpki) = opt_num(ms["mpki"].get("median").expect("median"), "mpki") else {
            continue;
        };
        let key = (workload, seed);
        if let Some((prev_parent, prev)) = last.get(&key) {
            assert!(
                model_changed || mpki == *prev,
                "row {i}: {key:?} mpki {mpki} differs from {prev} (after {prev_parent}) \
                 but the row says the model did not change"
            );
        }
        last.insert(key, (parent, mpki));
    }
}
