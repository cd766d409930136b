#!/usr/bin/env python3
"""Builds and runs the QBISM end-to-end benchmark.

    python3 bench_e2e/run.py --workload clinic_cold --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --selftest

Run from anywhere inside a source checkout. The benchmark is compiled
from the checkout's sources (Release) into .bench_build/bench_e2e at the
checkout root; build output goes to standard error. The benchmark's own
output follows on standard output, ending with one JSON line
{"correct", "attempted", "failed", "metrics"}. Every run also writes its
header, metrics and spans to .bench_build/results/. Exits non-zero when
the build fails, the run fails or times out, or any answer is wrong.
--selftest builds everything and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "bench_e2e")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    for target in targets:
        cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
               "--target", target]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes), so a
    run is traceable even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json expects for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    if not build(["bench_e2e"]):
        print("bench_e2e: build failed", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--results-dir", RESULTS_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stdout or b"").decode(errors="replace")
                         if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"bench_e2e: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        print(f"bench_e2e: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    want = expected_metrics(args.trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        sys.stderr.write(proc.stdout)
        print("bench_e2e: printed metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def selftest():
    if not build(["bench_e2e", "all"]):
        return 2
    return subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                           "--output-on-failure"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["clinic_cold", "clinic_hot", "ingest_mixed",
                                 "population"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
