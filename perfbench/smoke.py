"""Smoke test of the benchmark itself, at the tiny size (about two minutes).

    python3 perfbench/smoke.py

For every workload, at the default seed, it checks that:
- a run with --trace 0 emits every end-to-end metric of BENCHMARK.json and a
  run with --trace 1 every per-layer metric, each with its declared unit;
- both runs pass every output check (correct, failed == 0);
- every metric name matches [A-Za-z0-9_.-]+.
It also checks that flipping one byte of every report (--flip-byte) raises
error_rate above 0 through the digest check, and that run.py fails without
printing a result in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench_run(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    for kind, names in declared.items():
        problems += [f"{kind} name {n!r} is malformed" for n in names if not NAME.match(n)]
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(bench_run(ROOT, workload, trace))
            got = result["metrics"]
            if set(got) != set(declared[kind]):
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(declared[kind]))} "
                                "missing or extra")
            problems += [f"{workload}: {n} unit {m['unit']!r}" for n, m in got.items()
                         if declared[kind].get(n) != m["unit"]]
            problems += [f"{workload}: {n} is not a number" for n, m in got.items()
                         if not isinstance(m["value"], (int, float))]
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: checks failed: {result}")
            print(f"{workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed", flush=True)

    for workload in ("wide-cluster", "raw-ingest"):
        result = result_of(bench_run(ROOT, workload, 0, "--flip-byte"))
        tag = f"{workload}-seed{DEFAULT_SEED}-trace0-tiny"
        with open(os.path.join(ROOT, ".bench_out", tag + ".json"), encoding="utf-8") as fh:
            reasons = json.load(fh)["failure_reasons"]
        if not (result["failed"] > 0 and any("digests.json" in r for r in reasons)):
            problems.append(f"{workload}: a flipped report byte went unnoticed: {result}")
        print(f"{workload} with a flipped byte: {result['failed']}/{result['attempted']} failed")

    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(bare, "wide-cluster", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources run.py should fail silently, got {proc.returncode}")
    print(f"without sources: exit {proc.returncode}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
