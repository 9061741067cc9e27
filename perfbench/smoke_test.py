#!/usr/bin/env python3
"""Fast smoke test of the repository benchmark at tiny problem sizes.

Run from the repository root:  python3 perfbench/smoke_test.py

For every workload it checks that
  * the untraced run prints every end_to_end metric of BENCHMARK.json with
    its unit, and the traced run every per_layer metric, and both pass the
    correctness gate;
  * the traced run wrote its span dump;
  * a run with one deliberately perturbed answer (--perturb) is reported
    incorrect and exits non-zero; for tealeaf also at full size, where the
    cell-by-cell comparison against the unprotected run must catch it.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, perturb=False, size="tiny"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", size]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(w, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{w} trace={trace}: exit 0 and correct")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result keys")
            check(result["attempted"] >= 1, f"{w} trace={trace}: attempted >= 1")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      f"{w} trace={trace}: {m['name']} [{m['unit']}]")
        check(os.path.exists(os.path.join(build_dir, "out", f"trace_{w}_1.jsonl")),
              f"{w}: span dump written")
        code, result = run(w, 0, perturb=True)
        check(code != 0 and result is not None and not result["correct"] and
              result["failed"] >= 1, f"{w}: perturbed answer trips the correctness gate")

    code, result = run("tealeaf", 0, perturb=True, size="full")
    check(code != 0 and result is not None and not result["correct"] and
          result["failed"] >= 1, "tealeaf: perturbed answer trips the gate at full size")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
