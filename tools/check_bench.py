#!/usr/bin/env python3
"""Regression gate for one committed ``ibfs.bench`` v1 artifact.

Every committed ``BENCH_*.json`` has one shape (written by
``bench/common.h``'s ``BenchArtifact``)::

    {schema: "ibfs.bench", schema_version: 1, bench,
     host: {cpus, cpu_model, compiler, build_type},
     config: {<ENV_VAR>: value}, repeats,
     metrics: [{name, unit, clock: sim|count|wall,
                better: lower|higher, value, spread}]}

The gate exports the committed ``config`` as the environment, runs the
bench binary with ``IBFS_BENCH_OUT`` pointing at a temporary file, and
fails when

* the binary exits nonzero (each bench aborts on its own invariants:
  checksum parity, zero unanswered queries, determinism, ...);
* the fresh and committed metric names differ;
* a ``sim`` or ``count`` value is not exactly the committed one (both are
  deterministic functions of ``config``);
* a ``wall`` value is worse than the committed one by more than
  ``--tolerance`` times, in its ``better`` direction (lower: fresh >
  committed * tolerance; higher: fresh < committed / tolerance).

Both host stamps are printed, so a wall delta can be read against the
hosts that produced it.

Usage:
  check_bench.py ARTIFACT BINARY [--tolerance 4.0]

Exit status 0 on pass, 1 on any violation, 2 on harness errors.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "ibfs.bench"
SCHEMA_VERSION = 1


def load_artifact(path):
    """Parses and shape-checks one artifact; raises ValueError if foreign."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA or doc.get("schema_version") != (
        SCHEMA_VERSION
    ):
        raise ValueError(f"not an {SCHEMA} v{SCHEMA_VERSION} artifact")
    return doc


def host_line(doc):
    host = doc.get("host", {})
    return (
        f"{host.get('cpus')} cpus, {host.get('cpu_model')}, "
        f"{host.get('compiler')}, {host.get('build_type')}"
    )


def compare(committed, fresh, tolerance):
    """Returns the list of violations of `fresh` against `committed`."""
    want = {m["name"]: m for m in committed["metrics"]}
    got = {m["name"]: m for m in fresh["metrics"]}
    failures = []
    for name in sorted(want.keys() - got.keys()):
        failures.append(f"{name}: missing from the fresh run")
    for name in sorted(got.keys() - want.keys()):
        failures.append(f"{name}: not in the committed artifact")
    for name in sorted(want.keys() & got.keys()):
        base, value = want[name]["value"], got[name]["value"]
        if want[name]["clock"] != "wall":
            if value != base:
                failures.append(
                    f"{name}: fresh {value!r} != committed {base!r} "
                    f"({want[name]['clock']} values are exact)"
                )
            continue
        if want[name]["better"] == "higher":
            worse = value < base / tolerance
        else:
            worse = value > base * tolerance
        ratio = value / base if base else float("inf")
        print(
            f"check_bench: {name}: {value:.6g} vs committed {base:.6g} "
            f"{want[name]['unit']} ({ratio:.2f}x, {want[name]['better']} is "
            f"better, band {tolerance:.1f}x) {'REGRESSION' if worse else 'ok'}"
        )
        if worse:
            failures.append(
                f"{name}: {ratio:.2f}x of committed, past the "
                f"{tolerance:.1f}x band"
            )
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("artifact", help="committed BENCH_*.json")
    parser.add_argument("binary", help="bench executable that writes it")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        help="allowed wall-clock factor in the worse direction (default 4)",
    )
    args = parser.parse_args()
    try:
        committed = load_artifact(args.artifact)
    except (OSError, ValueError) as e:
        print(f"check_bench: cannot use {args.artifact}: {e}")
        return 2

    env = dict(os.environ)
    env.update({k: str(v) for k, v in committed["config"].items()})
    with tempfile.TemporaryDirectory() as tmp:
        env["IBFS_BENCH_OUT"] = os.path.join(tmp, "bench.json")
        try:
            # The bench runs in the temp dir, so it leaves nothing behind.
            run = subprocess.run(
                [os.path.abspath(args.binary)], env=env, cwd=tmp, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600,
            )
        except (subprocess.SubprocessError, OSError) as e:
            print(f"check_bench: cannot run {args.binary}: {e}")
            return 2
        if run.returncode != 0:
            print(run.stdout[-4000:])
            print(f"check_bench: FAIL: {args.binary} exited "
                  f"{run.returncode}")
            return 1
        try:
            fresh = load_artifact(env["IBFS_BENCH_OUT"])
        except (OSError, ValueError) as e:
            print(f"check_bench: FAIL: no fresh artifact: {e}")
            return 1

    print(f"check_bench: {committed['bench']} committed on: "
          f"{host_line(committed)}")
    print(f"check_bench: {committed['bench']} fresh on:     "
          f"{host_line(fresh)}")
    failures = compare(committed, fresh, args.tolerance)
    for failure in failures:
        print(f"check_bench: FAIL: {failure}")
    if failures:
        return 1
    print(f"check_bench: {committed['bench']} PASS "
          f"({len(committed['metrics'])} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
