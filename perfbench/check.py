#!/usr/bin/env python3
"""Checks the benchmark's metric set and determinism.

Run from the repository root:

    python3 perfbench/check.py [--seconds S]

For every workload in BENCHMARK.json it runs the benchmark command from
BENCHMARK.json untraced and traced, twice at one seed and once at another, and checks
that

* each run exits 0 and prints exactly the metric names and units that
  BENCHMARK.json declares for its mode;
* `mpki` and every count-type per-layer metric repeat bit for bit at one
  seed, and differ at the other seed (so the seed reaches the inputs).

Exits non-zero and names the offending metric on any failure.
"""

import argparse
import json
import subprocess
import sys

# Per-layer metrics that count simulated events: deterministic per seed.
COUNT_METRICS = [
    "core.flush_per_branch",
    "core.btb1.hit_frac",
    "core.btb2.searches_per_kinstr",
    "core.btb2.hit_frac",
    "core.surprise_per_kinstr",
    "core.flushes_per_kinstr",
    "core.dir.bht_frac",
    "core.dir.tage_frac",
    "core.dir.perceptron_frac",
    "core.dir.spec_frac",
    "core.dir.static_frac",
    "core.tgt.btb_frac",
    "core.tgt.ctb_frac",
    "core.tgt.crs_frac",
    "core.mpki_step.z13_z14",
    "core.mpki_step.z14_z15",
]
SEED_A, SEED_B = 101, 202


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        sys.exit(f"FAIL {workload} trace {trace}: printed metrics {sorted(set(printed) ^ set(declared))} "
                 "differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: {result['failed']} failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, names in ((0, ["mpki"]), (1, COUNT_METRICS)):
            a1 = run(bench, w, SEED_A, args.seconds, trace)
            a2 = run(bench, w, SEED_A, args.seconds, trace)
            b = run(bench, w, SEED_B, args.seconds, trace)
            for n in names:
                if a1[n] != a2[n]:
                    sys.exit(f"FAIL {w}: {n} = {a1[n]!r} then {a2[n]!r} at seed {SEED_A}")
                if a1[n] == b[n]:
                    sys.exit(f"FAIL {w}: {n} = {a1[n]!r} at seeds {SEED_A} and {SEED_B}")
            print(f"ok {w} trace {trace}: {len(names)} metric(s) repeat at one seed and move with the seed")
    print("ok: metric names and units match BENCHMARK.json; counts are deterministic per seed")


if __name__ == "__main__":
    main()
