#!/usr/bin/env python3
"""The workload and metric names the benchmark prints match BENCHMARK.json.

    python3 bench_e2e/tests/test_names.py <bench_e2e binary> <BENCHMARK.json>

Compares `bench_e2e --list` (workloads, end-to-end and per-layer metrics
with their units, in order) against the file, and checks that
`run.py` is what the file's command runs.
"""

import json
import subprocess
import sys


def parse_list(text):
    out = {}
    for line in text.splitlines():
        key, *items = line.split()
        out[key] = items
    return out


def main(binary, benchmark_json):
    with open(benchmark_json) as f:
        spec = json.load(f)
    listed = parse_list(
        subprocess.run([binary, "--list"], check=True, capture_output=True,
                       text=True).stdout)
    problems = []
    want_workloads = [w["name"] for w in spec["workloads"]]
    if listed["workloads"] != want_workloads:
        problems.append(f"workloads {listed['workloads']} != {want_workloads}")
    for key in ("end_to_end", "per_layer"):
        want = [f"{m['name']}:{m['unit']}" for m in spec[key]]
        if listed[key] != want:
            problems.append(f"{key}: printed {listed[key]} != file {want}")
    if spec["command"][-1] != "bench_e2e/run.py":
        problems.append(f"command {spec['command']} does not run run.py")
    for p in problems:
        print("MISMATCH:", p)
    print("names match" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
