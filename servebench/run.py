#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --smoke            # every workload, reduced size

Run from the root of a source checkout. The library is built from that
checkout's sources in one fixed build type (Release) under
.bench_build/servebench, then the `servebench` binary runs one workload in its own
process. The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. The run context is printed
above it: the binary's `context:` line (compiler, build type, cores, seed,
lanes; the binary refuses to run on fewer cores than its lanes) and a
`run-context:` line (git sha, source digest). Exit status is 0 only when
every correctness check passed; `failed` also counts a serve phase that
reached its 100 s budget short of its fix floor, which leaves `correct`
true and the figures measured.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
BUILD_TYPE = "Release"

WORKLOADS = ("fleet_rssi", "office_music", "recover_esprit")

# The binary ends its serve phase 100 s into a run, short of the fix floor
# if it must (a failed operation), so a slow program still reports figures.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no library sources next to the benchmark (looked in {ROOT})")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        )
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "servebench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
            )
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        cached = [l.strip() for l in f if l.startswith("CMAKE_BUILD_TYPE:")]
    if cached != [f"CMAKE_BUILD_TYPE:STRING={BUILD_TYPE}"]:
        fail(f"build directory is configured as {cached}, expected {BUILD_TYPE}")


def source_identity():
    """The git sha when the checkout is a repository, and always a digest of
    the sources the benchmark built (library and benchmark)."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (result dict or None, exit code)."""
    work_dir = os.path.join(ROOT, ".bench_build", "runs", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ)
    # SPOTFI_THREADS overrides every pinned lane count in the library.
    env.pop("SPOTFI_THREADS", None)
    cmd = [
        BINARY, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--trace", str(trace),
        "--work-dir", work_dir,
    ]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"servebench: {workload} timed out", file=sys.stderr)
        return None, 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    for line in lines:
        print(line)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, done.returncode or 3
    return result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes, every check; without --workload runs all workloads",
    )
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or --smoke for every workload)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = [args.workload] if args.workload else WORKLOADS
    build()
    sha, digest = source_identity()

    status = 0
    for workload in workloads:
        seconds = 0.2 if args.smoke else args.seconds
        result, code = run_workload(workload, args.seed, seconds, args.trace, args.smoke)
        context = {
            "workload": workload, "seed": args.seed, "build_type": BUILD_TYPE,
            "git_sha": sha, "source_digest": digest,
        }
        print("run-context: " + json.dumps(context, sort_keys=True))
        if result is None:
            print(f"servebench: {workload} produced no result (exit {code})", file=sys.stderr)
            sys.exit(code or 3)
        if code != 0 or not result["correct"]:
            status = 1
        print(json.dumps(result))
    sys.exit(status)


if __name__ == "__main__":
    main()
