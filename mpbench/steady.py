#!/usr/bin/env python3
"""Runs one workload repeatedly, each time with another seed, and prints
each metric's median and quartiles across the runs.

    python3 mpbench/steady.py --workload health-http --runs 10 [--trace]

Run from the repository root. The spread column is (q3 - q1) / median,
the figure BENCHMARK.json's end-to-end bounds are set against. With
--trace it also runs the traced variant and prints the tracing
overhead: the traced run's own p50 latency and throughput against the
untraced medians.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "mpbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(results, bounds, verbose=False):
    names = sorted(results[0]["metrics"])
    print(f"{'metric':40} {'unit':>13} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:40} {unit:>13} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        if verbose:
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
    failed = [r["failed"] / r["attempted"] for r in results]
    print(f"failed share per run: {sorted(set(failed))}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    plain = [run_once(args.workload, s, seconds, False) for s in seeds]
    print(f"== {args.workload}: {args.runs} untraced runs of {seconds}s")
    summarize(plain, bounds, args.verbose)
    if args.trace:
        traced = [run_once(args.workload, s, seconds, True) for s in seeds]
        print(f"== {args.workload}: {args.runs} traced runs")
        summarize(traced, {}, args.verbose)
        p50 = statistics.median(r["metrics"]["latency_p50_ms"]["value"] for r in plain)
        tp = statistics.median(r["metrics"]["throughput_sps"]["value"] for r in plain)
        tp50 = statistics.median(r["metrics"]["loadgen.latency_p50_ms"]["value"] for r in traced)
        ttp = statistics.median(r["metrics"]["loadgen.throughput_sps"]["value"] for r in traced)
        print(f"tracing overhead: p50 {tp50 - p50:+.4f} ms ({(tp50 - p50) / p50:+.1%}), "
              f"throughput {ttp - tp:+.2f}/s ({(ttp - tp) / tp:+.1%})")


if __name__ == "__main__":
    main()
