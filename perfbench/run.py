#!/usr/bin/env python3
"""Builds and runs one workload of the wsf benchmark.

    python3 perfbench/run.py --workload steal-heavy --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the directory holding BENCHMARK.json,
src/ and perfbench/). The first run configures and builds wsf-perfbench and
the wsf library into .bench_build/ (Release); later runs rebuild only what
changed. wsf-perfbench writes a full report (metrics with sample counts,
configuration, machine fingerprint, checks) to .bench_build/results/, and
a traced run writes its spans to .bench_build/traces/ in Chrome trace-event
format.

Standard output: the machine fingerprint and configuration, every metric by
name with its unit, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit status is
0 only when the run completed and every correctness check passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "wsf-perfbench")
# A run must end within 180 s; leave room for handling the report.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
BUILD_JOBS = "3"


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no wsf sources under {ROOT}/src; run from a full source tree")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", BUILD_JOBS])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(3, f"build step timed out: {' '.join(cmd)}")
        if proc.returncode != 0:
            fail(3, f"build step failed: {' '.join(cmd)}")


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """The git commit when the tree is a checkout, else the source digest."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return f"src:{source_digest()}"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0 and out.stdout.strip():
            return f"git:{out.stdout.strip()} src:{source_digest()}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"src:{source_digest()}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(2, f"{spec_path} not found")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(2, f"unknown workload {args.workload!r} (one of {workloads})")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    traces_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    report_path = os.path.join(results_dir, tag + ".json")
    if os.path.exists(report_path):
        os.remove(report_path)
    with open(os.path.join(BENCH_DIR, "sweep_reference.digest")) as f:
        reference = f.read().split()[0]

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--report={report_path}", f"--reference-digest={reference}",
           f"--commit={commit_id()}"]
    if args.trace:
        cmd.append(f"--trace-out={os.path.join(traces_dir, tag + '.json')}")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - started
    if not os.path.isfile(report_path):
        fail(4, f"wsf-perfbench exited with {proc.returncode} and wrote no report")
    with open(report_path) as f:
        report = json.load(f)

    problems = list(report["checks"]["messages"])
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing from the report")
            continue
        value = got["value"]
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} is not a finite number")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        if not args.trace and value <= 0:
            problems.append(f"end-to-end metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = proc.returncode == 0 and not problems

    print(f"# wsf benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, wall {wall:.1f} s")
    for key, value in sorted(report["config"].items()):
        print(f"# {key}: {value}")
    print(f"# checks passed {report['checks']['passed']}, "
          f"failed {report['checks']['failed']}; jobs attempted "
          f"{report['attempted']}, failed {report['failed']}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    not_run = set(report["config"].get("not_exercised", "").split())
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            continue
        note = ("  (not exercised by this workload)" if m["name"] in not_run
                else f"  (n={got['samples']})")
        print(f"{m['name']} = {got['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
