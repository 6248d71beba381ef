#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the abivm libraries and the perfbench binary from source into
.bench_build/ under the checkout root, runs its self-test, then one run
of the workload. The binary's output is passed through; its last
line is checked against BENCHMARK.json, given each metric's unit, saved
with the seed under .bench_build/perfbench-out/, and printed as this
script's last line: one JSON object with the keys correct, attempted,
failed and metrics. Any failure exits non-zero without printing it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed; see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        fail("self-test failed:\n" + selftest.stdout + selftest.stderr)


def to_result(line, spec, trace):
    """Maps the binary's {name: value} metrics onto BENCHMARK.json.

    End-to-end metrics must all be reported and positive. A per-layer
    metric the workload does not report belongs to a layer it leaves
    idle and reads 0. A reported name BENCHMARK.json does not declare
    fails the run, so the two lists cannot drift apart.
    """
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON: " + line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys " + str(sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("perfbench reported an incorrect run")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    extra = sorted(set(got) - {m["name"] for m in declared})
    if extra:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in declared:
        value = got.get(m["name"], 0.0 if trace else None)
        if value is None or (not trace and not value > 0):
            fail("end-to-end metric %s missing or not positive" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % run.returncode)
    result = to_result(lines[-1], spec, args.trace == 1)
    record = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump(dict(vars(args), **result), f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
