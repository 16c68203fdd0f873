#!/usr/bin/env python3
"""Steadiness harness for the nglts benchmark.

Runs workloads repeatedly, one seed per run, and prints for every end-to-end
metric its median, quartiles and spread (inter-quartile distance as a share
of the median) next to the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py --seeds 0-9 --save runs-a.json
    python3 perfbench/steady.py --seeds 0-9 --workloads lts_forward --save runs-b.json

and says whether two saved sets of runs agree, i.e. whether for every
(workload, metric) the second median is no worse than the first by more
than the bound:

    python3 perfbench/steady.py --compare runs-a.json runs-b.json

Quartiles are Python's statistics.quantiles(values, n=4). Run from the root
of the repository; each run is `python3 perfbench/run.py ... --trace 0`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def summarize(bench, runs):
    """Print the per-metric table; returns True when every spread other than
    setup_s's is within a third of its bound."""
    steady = True
    for workload, results in runs.items():
        ok = [r for r in results if r and r["correct"]]
        print(f"{workload}: {len(ok)} of {len(results)} runs correct")
        if len(ok) < 2:
            steady = False
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in ok]
            q1, med, q3, s = spread(values)
            if s < m["bound"] / 3:
                verdict = "ok"
            else:
                verdict = "within bound" if s <= m["bound"] else "TOO WIDE"
            if m["name"] != "setup_s" and s >= m["bound"] / 3:
                steady = False
            print(f"  {m['name']:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:6.3f}  bound {m['bound']:.2f}  {verdict}")
    return steady


def compare(bench, a, b):
    agree = True
    for workload in a:
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[workload] if r and r["correct"]]
            vb = [r["metrics"][m["name"]]["value"]
                  for r in b.get(workload, []) if r and r["correct"]]
            if not va or not vb:
                print(f"{workload} {m['name']}: missing runs")
                agree = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            agree &= ok
            print(f"{workload:<18} {m['name']:<24} first {ma:<12.6g} second {mb:<12.6g} "
                  f"worse by {worse:+.3f} (bound {m['bound']:.2f}) {'agree' if ok else 'DISAGREE'}")
    print("the two sets agree within the bounds" if agree else "the two sets DISAGREE")
    return agree


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--save", help="write the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_bench()

    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return 0 if compare(bench, json.load(fa), json.load(fb)) else 1

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in parse_seeds(args.seeds):
            r = run_once(w, seed, seconds)
            runs[w].append(r)
            shown = {k: round(v["value"], 6) for k, v in r["metrics"].items()} if r else "FAILED"
            print(f"{w} seed {seed}: {shown}", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if summarize(bench, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
