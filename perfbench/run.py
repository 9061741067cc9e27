#!/usr/bin/env python3
"""Repository benchmark: build abftbench from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tealeaf|service|storm --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--perturb]

The benchmark program abftbench (perfbench/src, built with CMake into
$CARGO_TARGET_DIR or .bench_build) prints human-readable lines and a RESULT
line with every metric it measured. This script forwards the human-readable lines and prints, as its
last line, one JSON object with "correct", "attempted", "failed" and
"metrics": the end_to_end metrics of BENCHMARK.json for --trace 0, the
per_layer metrics for --trace 1. It exits non-zero when any answer or
exact-repeat check failed, and without a result line when the build or the
run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure and build abftbench; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", "4", "--target", "abftbench"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "abftbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one answer to show the correctness gate fires")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    service = config["service"]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", os.path.join(build_dir, "out"),
           "--rate-rps", str(service["rate_rps"]),
           "--p99-limit-ms", str(service["p99_limit_ms"]),
           "--ladder-rps", ",".join(str(r) for r in service["ladder_rps"])]
    if args.perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None or proc.returncode not in (0, 1):
        fail(f"abftbench exited with code {proc.returncode} and no result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
