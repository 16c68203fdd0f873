#!/usr/bin/env python3
"""Run one workload of the nglts benchmark and print its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program nglts_perf (perfbench/CMakeLists.txt, which builds the core
library from this checkout) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload for about S seconds and prints a
human-readable summary followed, as the last line, by one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. Times are medians over the run's repetitions; peak_rss_mb is the
nglts_perf process's peak resident set, read from outside the process.

    python3 perfbench/run.py --write-reference --workload NAME --seed N

re-generates the committed reference traces of one (workload, seed).
"""
import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure (once) and build nglts_perf; returns its path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "nglts_perf", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "nglts_perf")


def run_benchmark(exe, args):
    """Run nglts_perf; returns (report dict, peak RSS in MB of that process)."""
    # One malloc arena and a fixed mmap threshold: otherwise glibc spreads the
    # OpenMP threads' allocations over per-thread arenas and moves its mmap
    # threshold in timing-dependent ways, and the peak RSS of identical work
    # varies by up to a quarter between runs. With both fixed it repeats to
    # about 1%.
    env = dict(os.environ, MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        # wait4 reports the rusage of this one child only — the build's
        # compilers must not count towards the workload's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"nglts_perf exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("nglts_perf printed no report")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error(f"unknown workload {args.workload}")

    exe = build()
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--reference-dir", REFERENCE_DIR, "--out-dir", build_dir()]
    if args.write_reference:
        subprocess.run([exe] + bench_args + ["--write-reference"], check=True)
        return 0

    report, rss_mb = run_benchmark(exe, bench_args)
    e2e = dict(report["end_to_end"], peak_rss_mb=rss_mb)
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and report["self_test"] and attempted > 0

    print(f"# {args.workload} seed {args.seed}: kernel {report['kernel_backend']}, "
          f"{report['precision']}, {report['ranks']} rank(s) x {report['threads']} thread(s), "
          f"W={report['fused_width']}, reference traces: "
          f"{'yes' if report['reference'] else 'none for this seed'}")
    print(f"# medians of {report['samples']} untraced repetitions "
          f"(+{report['traced_samples']} traced)")
    for m in bench["end_to_end"]:
        print(f"{m['name']} {e2e[m['name']]:.6g} {m['unit']}")
    # failed_fraction is always 0 on correct code, so it is not a compared
    # metric; it is carried by `failed` / `attempted` in the result line.
    print(f"failed_fraction {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} outputs failed verification)")
    for line in report["failures"]:
        print(f"FAILED {line}")

    if args.trace:
        missing = [m["name"] for m in bench["per_layer"] if m["name"] not in report["per_layer"]]
        if missing:
            raise RuntimeError(f"nglts_perf did not report {missing}")
        print(f"# per-layer values (traced repetitions), spans in {report['trace_file']}")
        for m in bench["per_layer"]:
            print(f"{m['name']} {report['per_layer'][m['name']]:.6g} {m['unit']}")
        metrics = {m["name"]: {"value": report["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError, KeyError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
