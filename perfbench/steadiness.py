#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the benchmark in sets. Each set makes one run per seed on every
workload, interleaved across workloads, so slow drift of the host lands
on all workloads alike. Both sets use the same seeds. For every
end-to-end metric it prints each set's median, quartiles and spread
(the distance between the quartiles as a share of the median) and how
far the second set's median moved from the first's.

Run from the repository root:

    python3 perfbench/steadiness.py --sets 2 --runs 10 --seconds 25 --out .bench_build/steadiness.jsonl
    python3 perfbench/steadiness.py --summarize .bench_build/steadiness.jsonl
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_mesh", "paper_torus", "swf_torus", "deep_queue"]
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    # "  host exponent 1.6 used, 1.73 fitted on this run's replications"
    fitted = [float(l.split(",")[1].split()[0]) for l in lines if "host exponent" in l]
    return json.loads(lines[-1]), (fitted or [None])[0]


def summarize(records):
    by = collections.defaultdict(list)
    for r in records:
        if not r["result"]["correct"]:
            print(f"INCORRECT: {r['workload']} seed {r['seed']} set {r['set']}")
        for name, m in r["result"]["metrics"].items():
            by[(r["workload"], name, r["set"])].append(m["value"])
    sets = sorted({r["set"] for r in records})
    print(f"{'workload':<11} {'metric':<13} {'set':>3} {'n':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'vs set 1':>9}")
    for w in WORKLOADS:
        names = sorted({k[1] for k in by if k[0] == w})
        for name in names:
            first = None
            for s in sets:
                v = by.get((w, name, s))
                if not v or len(v) < 2:
                    continue
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                first = med if first is None else first
                print(f"{w:<11} {name:<13} {s:>3} {len(v):>3} {med:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {(q3 - q1) / med:>7.2%} {med / first - 1:>+9.2%}")
    fits = collections.defaultdict(list)
    for r in records:
        if r.get("fitted_exponent") is not None:
            fits[r["workload"]].append(r["fitted_exponent"])
    for w in WORKLOADS:
        if fits[w]:
            print(f"{w:<11} host exponent fitted: median {statistics.median(fits[w]):.2f}, "
                  f"range {min(fits[w]):.2f} - {max(fits[w]):.2f} over {len(fits[w])} runs")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set and workload")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", help="append one JSON record per run to this file")
    ap.add_argument("--summarize", metavar="FILE", help="only summarize an earlier --out file")
    a = ap.parse_args()
    if a.summarize:
        with open(a.summarize) as f:
            summarize([json.loads(line) for line in f if line.strip()])
        return
    records = []
    for s in range(1, a.sets + 1):
        for i in range(a.runs):
            for w in WORKLOADS:
                seed = FIRST_SEED + i
                result, fitted = run_once(w, seed, a.seconds)
                rec = {"set": s, "workload": w, "seed": seed, "result": result,
                       "fitted_exponent": fitted}
                records.append(rec)
                print(f"set {s} {w} seed {seed}: {json.dumps(rec['result']['metrics'])}",
                      file=sys.stderr)
                if a.out:
                    with open(a.out, "a") as f:
                        f.write(json.dumps(rec) + "\n")
    summarize(records)


if __name__ == "__main__":
    main()
