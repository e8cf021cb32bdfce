#!/usr/bin/env python3
"""Steadiness evidence for the serving benchmark.

    python3 servebench/steadiness.py [--runs 10]

Runs every workload of BENCHMARK.json, at its run_seconds, in two
interleaved sets of at least ten runs (set A on seeds
1..N, set B on seeds 101..100+N; the order alternates A, B, A, B, ...),
each run through servebench/run.py exactly as a comparison would run it.
For every end-to-end metric it prints each set's median, quartiles and
spread (interquartile distance as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them), the shift of B's median
against A's in the metric's worse direction, and the bound it is held to
in BENCHMARK.json. Every spread and shift must be within the bound, and
the share of failed operations must match exactly between the sets. Raw
results go to .bench_build/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 10:
        parser.error("--runs must be at least 10")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                r = run_once(w, seed, seconds)
                results[w][label].append(r)
                print(f"# {w} set {label} seed {seed}: attempted={r['attempted']} "
                      f"failed={r['failed']} correct={r['correct']}", flush=True)

    out_path = os.path.join(ROOT, ".bench_build", "steadiness.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    print()
    print("| workload | metric | bound | A median | A q1..q3 | A spread | "
          "B median | B spread | B vs A (worse +) |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in metrics:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            am, aq1, aq3, asp = summary(a)
            bm, _, _, bsp = summary(b)
            worse = (bm - am) / am if m["better"] == "lower" else (am - bm) / am
            bound = m["bound"]
            spread_ok = asp <= bound and bsp <= bound
            ok = ok and spread_ok and worse <= bound
            flag = "" if spread_ok and worse <= bound else " **over**"
            print(f"| {w} | {name} | {bound:.2f} | {am:.4g} | {aq1:.4g}..{aq3:.4g} | "
                  f"{asp:.3f} | {bm:.4g} | {bsp:.3f} | {worse:+.3f}{flag} |")
        shares = {
            label: {r["failed"] / r["attempted"] for r in results[w][label]}
            for label in ("A", "B")
        }
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"| {w} | failed share differs: {shares} |")
    print()
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
