#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-pk --seed 7 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library from src/ plus
the benchmark driver) into .bench_build/; later runs only rebuild what
changed. The driver's progress goes to stderr. Standard output gets one
"stamp" line (host, compiler, build type, sources) and, as its last line,
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1. The full result, with both metric sets and
the stamps, is also written under .bench_build/results/. The exit code is 0
only when every answer was checked and right.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ibfs_perfbench")
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds the driver; serialized by a file lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "ibfs_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        files += glob.glob(os.path.join(ROOT, top, "**", "*"), recursive=True)
    for path in sorted(p for p in files if os.path.isfile(p)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def check_catalog(kind, declared, emitted):
    """The driver's metric set must match BENCHMARK.json name for name and
    unit for unit."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in emitted.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def main():
    catalog = load_catalog()
    workloads = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="short run for tests: one set-up, 0.1 s rungs")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip one expected answer; the run must fail")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    build()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, run_name + ".json")]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line, file=sys.stderr)
    if result is None:
        fail(f"driver exited {done.returncode} without a result")

    if args.trace:
        metrics = result["per_layer"]
        check_catalog("per-layer", catalog["per_layer"], metrics)
    else:
        metrics = result["end_to_end"]
        check_catalog("end-to-end", catalog["end_to_end"], metrics)
        for name, metric in metrics.items():
            if not (math.isfinite(metric["value"]) and metric["value"] > 0):
                fail(f"end-to-end metric {name} is {metric['value']}, not > 0")

    stamp = dict(result["stamp"])
    stamp.update(git_sha=git_sha(), source_digest=source_digest(),
                 python=platform.python_version())
    result["stamp"] = stamp
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, run_name + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    correct = bool(result["correct"]) and done.returncode == 0
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
