#!/usr/bin/env python3
"""Run the benchmark over several seeds and compare sets of runs.

Run from the repository root:

  python3 perfbench/stats.py sweep --runs 10 --out a.jsonl [--workloads churn-large ...]
  python3 perfbench/stats.py spread a.jsonl
  python3 perfbench/stats.py compare a.jsonl b.jsonl
  python3 perfbench/stats.py spans .bench_build/trace-<workload>-seed<n>.jsonl

sweep runs BENCHMARK.json's command once per (workload, seed) and appends
each run's result line to --out as one JSON object per line. spread prints,
per workload and end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median next to the metric's bound. compare prints, per
workload and metric, the change of B's median against A's in the direction
that is worse, and exits 1 when any change exceeds the metric's bound.
Quartiles are statistics.quantiles(values, n=4). spans summarizes a traced
run's span file per span name: count, total and self time (a span's
duration minus the part its child spans cover), and median duration.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def sweep(args, bench):
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.stderr.write(p.stdout + p.stderr)
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}")
                res = json.loads(lines[-1])
                out.write(json.dumps({"workload": w, "seed": seed, "trace": args.trace, "result": res}) + "\n")
                out.flush()
                print(f"{w} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                      f"failed={res['failed']}", flush=True)
    spread(argparse.Namespace(file=args.out), bench)


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            for name, m in r["result"]["metrics"].items():
                runs.setdefault((r["workload"], name), []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = load_runs(args.file)
    worst = 0.0
    print(f"{'workload':14} {'metric':22} {'n':>3} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
    for (w, name), vals in sorted(runs.items()):
        q1, med, q3 = quartiles(vals)
        s = (q3 - q1) / med if med else float("inf")
        b = bounds.get(name)
        flag = ""
        if b is not None:
            worst = max(worst, s / b)
            flag = "ok" if s < b / 3 else ("WITHIN BOUND" if s <= b else "TOO WIDE")
        print(f"{w:14} {name:22} {len(vals):3d} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f} "
              f"{b if b is not None else '':>6} {flag}")
    print(f"largest spread as a share of its bound: {worst:.3f}")


def compare(args, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    a, b = load_runs(args.a), load_runs(args.b)
    failed = False
    print(f"{'workload':14} {'metric':22} {'median A':>14} {'median B':>14} {'worse by':>9} {'bound':>6}")
    for key in sorted(set(a) & set(b)):
        w, name = key
        m = metrics.get(name)
        if m is None:
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / ma if ma else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = "ok" if worse <= m["bound"] else "REGRESSION"
        failed |= verdict != "ok"
        print(f"{w:14} {name:22} {ma:14.6g} {mb:14.6g} {worse:9.4f} {m['bound']:6} {verdict}")
    sys.exit(1 if failed else 0)


def spans(args, bench):
    recs = []
    with open(args.file) as f:
        for line in f:
            recs.append(json.loads(line))
    children = {}
    for r in recs:
        if r.get("parent"):
            children.setdefault(r["parent"], []).append(r)
    by_name = {}
    for r in recs:
        d = r["end_ns"] - r["start_ns"]
        # Self time: the span minus the union of its children's intervals.
        covered, end = 0, r["start_ns"]
        for c in sorted(children.get(r["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], end), min(c["end_ns"], r["end_ns"])
            if hi > lo:
                covered += hi - lo
                end = hi
        by_name.setdefault(r["name"], []).append((d, d - covered))
    print(f"{'span':40} {'count':>8} {'total ms':>12} {'self ms':>12} {'p50 us':>10}")
    for name, ds in sorted(by_name.items(), key=lambda kv: -sum(s for _, s in kv[1])):
        total = sum(d for d, _ in ds) / 1e6
        self_ms = sum(s for _, s in ds) / 1e6
        p50 = statistics.median(d for d, _ in ds) / 1e3
        print(f"{name:40} {len(ds):8d} {total:12.3f} {self_ms:12.3f} {p50:10.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep", help="run the benchmark over several seeds")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed", type=int, default=1, help="first seed")
    s.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--workloads", nargs="*")
    s.add_argument("--out", required=True)
    p = sub.add_parser("spread", help="quartile spread of one set of runs")
    p.add_argument("file")
    c = sub.add_parser("compare", help="compare two sets of runs against the bounds")
    c.add_argument("a")
    c.add_argument("b")
    t = sub.add_parser("spans", help="per-name summary of a traced run's spans")
    t.add_argument("file")
    args = ap.parse_args()
    bench = None if args.cmd == "spans" else load_bench()
    {"sweep": sweep, "spread": spread, "compare": compare, "spans": spans}[args.cmd](args, bench)


if __name__ == "__main__":
    main()
