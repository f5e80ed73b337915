"""stagelens benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a stagelens checkout; it reads the program from
./src and writes only below ./.bench_work (inputs, removed at the end) and
./.bench_out (result files). The closed loop has one client: each
operation starts when the previous one has finished, like a batch user who
waits for every report.

--trace 0 prints every end-to-end metric of BENCHMARK.json. Set-up (import
stagelens, build the input) runs SETUP_REPEATS times, each in a fresh
process, and setup_s is the median. The timed phase runs in one more fresh
process, so its ru_maxrss is the memory of the timed work alone. Times are
CPU seconds of the process that does the work, scaled to the speed at which
a fixed reference loop takes clock.REF_SECONDS (see clock.py); the children
run numpy's BLAS on one thread.

--trace 1 prints every per-layer metric of BENCHMARK.json, from a traced
set-up and from traced passes that alternate with untraced ones; the result
file also holds the spans and the layers only some workloads exercise.

Each line before the last names a metric, its value and its unit. The last
line is the JSON result: correct, attempted, failed and metrics. An
operation fails when it raises or when its output fails a check:
- the text report's sha256 must equal the one in digests.json (default seed);
- the report of the loaded trace must equal the report of the in-memory trace
  it was saved from (save/load round trip);
- desk-corpus must meet the acceptance suite's accuracy and precision floors;
- on raw-ingest, IngestReport.errors must count exactly the injected
  malformed lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from clock import scaled  # noqa: E402
from spans import STAGE_LAYERS  # noqa: E402

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, whatever its children do
STARTED = time.monotonic()
PHASES = os.path.join(HERE, "phases.py")
DIGESTS = os.path.join(HERE, "digests.json")
#: numpy's BLAS runs one thread in the children: stagelens itself is
#: single-threaded, and idle BLAS threads spinning on a shared 2-core host
#: would add CPU time that depends on the host's load.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))


class BenchError(Exception):
    pass


def run_child(args, out_path: str) -> dict:
    """Run phases.py in a fresh interpreter; it is killed at the run's deadline."""
    proc = subprocess.run(
        [sys.executable, PHASES] + args + ["--out", out_path],
        cwd=ROOT, capture_output=True, text=True, env=CHILD_ENV,
        timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - STARTED)),
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} failed (exit {proc.returncode}):\n{proc.stderr}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    """What a result depends on besides the code: compare results only when
    these agree."""
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints instead of returning a dict
        blas = {}
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    source = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "stagelens"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py") or name == "digests.json":
                with open(os.path.join(base, name), "rb") as fh:
                    source.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: CHILD_ENV.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
    }


def check_ops(ops, expected_reports, recorded, malformed):
    """Mark each op failed or not; returns the list of failure reasons."""
    reasons = []
    for op in ops:
        why = []
        if "error" in op:
            why.append(f"raised {op['error']}")
        elif op["kind"] == "ingest":
            if op["ingest_errors"] != malformed:
                why.append(f"ingest errors {op['ingest_errors']} != injected {malformed}")
        else:
            index = op["trace"]
            if expected_reports is None or op["digest"] != expected_reports[index]:
                why.append(f"trace {index}: report differs from the in-memory trace's")
            if recorded is not None and op["digest"] != recorded[index]:
                why.append(f"trace {index}: report digest differs from digests.json")
        op["failed"] = bool(why)
        reasons += why
    return reasons


def apply_checks(args, setup: dict, measured: dict):
    """Run every output check; returns (failure reasons, quality scores)."""
    ops = measured["ops"]
    if args.workload == "raw-ingest":
        expected = measured.get("memory_digests")
    else:
        expected = setup.get("memory_digests")
    recorded = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh).get(args.workload, {}).get(args.size)
        if recorded is None:
            raise BenchError(f"digests.json has no {args.workload}/{args.size} entry")
    malformed = setup.get("manifest", {}).get("malformed_lines")
    reasons = check_ops(ops, expected, recorded, malformed)
    quality = {}
    if args.workload == "desk-corpus":
        quality = {"outlier_precision.median": measured["precision"],
                   "outlier_accuracy.max_min": setup["accuracy"]}
        floors = {"outlier_accuracy.max_min": workloads.ACCURACY_FLOOR,
                  "outlier_precision.median": workloads.PRECISION_FLOOR}
        low = [f"{k} {v:.4f} < {floors[k]}" for k, v in quality.items() if v < floors[k]]
        if low:  # the corpus as a whole fails, so every report in it does
            reasons += low
            for op in ops:
                op["failed"] = True
    return reasons, quality


def timing_values(ops) -> dict:
    """End-to-end times of the untraced ops.

    A pass's time is estimated slot by slot (the ingest op, then each trace's
    report op): the sum of per-slot medians over the passes, which a burst of
    interference during one pass does not move. Times are CPU times scaled
    to the reference speed (clock.py); report_cpu_s and report_wall_s are
    report_s unscaled and on the wall clock, for comparison.
    """
    slots, raw = {}, {"cpu_s": {}, "wall_s": {}}
    for op in ops:
        if not op["traced"]:
            key = (op["kind"], op.get("trace"))
            slots.setdefault(key, []).append(scaled(op["seconds"], op["ref_s"]))
            for clock, times in raw.items():
                times.setdefault(key, []).append(op[clock])
    medians = {key: statistics.median(v) for key, v in slots.items()}
    report = [v for (kind, _), v in medians.items() if kind == "report"]
    values = {"report_s": sum(report), "pass_s": sum(medians.values())}
    for clock, times in raw.items():
        values["report_" + clock] = sum(
            statistics.median(v) for (kind, _), v in times.items() if kind == "report"
        )
    if ("ingest", None) in medians:
        values["ingest_s"] = medians[("ingest", None)]
    if len(report) > 1:  # desk-corpus: the spread over its traces
        trace_ms = sorted(1000.0 * v for v in report)
        values["scenario_report_ms.p50"] = statistics.median(trace_ms)
        # With 50 traces, ten lie above the 80th percentile.
        values["scenario_report_ms.p80"] = trace_ms[int(0.8 * len(trace_ms)) - 1]
    return values


def layer_values(setup: dict, passes, ops) -> dict:
    """Per-layer times and counts: medians over the traced passes, plus the
    traced set-up's layers."""
    traced = [p for p in passes if p["traced"]]
    layer_s = {
        name: statistics.median(p["layers"].get(name, 0.0) for p in traced)
        for name in set().union(*(p["layers"] for p in traced))
    }
    for name, seconds in setup["layers"].items():
        layer_s[name] = layer_s.get(name, 0.0) + seconds
    values = {f"{name}_s": v for name, v in layer_s.items() if name != "replay"}
    values.update({
        name: statistics.median(p["counts"].get(name, 0.0) for p in traced)
        for name in set().union(*(p["counts"] for p in traced))
    })
    values["report.unattributed_s"] = statistics.median(
        p["layers"]["report.diagnose"] - sum(p["layers"].get(n, 0.0) for n in STAGE_LAYERS)
        for p in traced
    )
    values["bench.trace_overhead_s"] = trace_overhead(ops)
    samples = values.get("traceio.samples", 0.0)
    values["correlate.window_share"] = (
        values.get("correlate.window_samples", 0.0) / samples if samples else 0.0
    )
    return values


def trace_overhead(ops) -> float:
    """What tracing adds to a pass: per slot, the median CPU time of the
    whole traced op (replay and spans included) minus that of the untraced
    op, summed over the slots."""
    times = {}
    for op in ops:
        key = (op["traced"], op["kind"], op.get("trace"))
        times.setdefault(key, []).append(op["cpu_s"])
    return sum(
        statistics.median(v) - statistics.median(times[(False,) + key[1:]])
        for key, v in times.items() if key[0]
    )


def flush_inputs(path: str) -> None:
    """fsync every input file, so that their write-back does not compete
    with the timed phase for the disk and the CPUs."""
    for folder, _, names in os.walk(path):
        for name in names:
            fd = os.open(os.path.join(folder, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_phases(args, work: str):
    """The set-up processes, then the timed process; returns (setups, measured)."""
    common = ["--workload", args.workload, "--size", args.size]
    prep = ["prepare"] + common + ["--seed", str(args.seed), "--dir", os.path.join(work, "input")]
    measure = ["measure"] + common + ["--dir", os.path.join(work, "input"),
                                      "--seconds", str(args.seconds)]
    if args.flip_byte:
        measure.append("--flip-byte")
    if args.trace:
        setups = [run_child(prep + ["--checks", "--trace"], os.path.join(work, "prepare.json"))]
        measure.append("--trace")
    else:
        setups = [
            run_child(prep + (["--checks"] if k == 0 else []),
                      os.path.join(work, f"prepare{k}.json"))
            for k in range(SETUP_REPEATS)
        ]
    flush_inputs(os.path.join(work, "input"))
    return setups, run_child(measure, os.path.join(work, "measure.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stagelens benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES,
                        help="tiny is the smoke test's size")
    parser.add_argument("--flip-byte", action="store_true",
                        help="corrupt every report before the checks (negative test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "stagelens", "__init__.py")):
        print(f"error: no stagelens sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        tag += f"-{args.size}"
    work = os.path.join(ROOT, ".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "input"))
    try:
        setups, measured = run_phases(args, work)
        reasons, quality = apply_checks(args, setups[0], measured)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = measured["ops"]
    failed = sum(1 for op in ops if op["failed"])
    values = timing_values(ops)
    values.update(quality)
    values["error_rate"] = failed / len(ops)
    values["passes"] = sum(1 for p in measured["passes"] if not p["traced"])
    if args.trace:
        values.update(layer_values(setups[0], measured["passes"], ops))
    else:
        values["setup_s"] = statistics.median(scaled(s["setup_s"], s["ref_s"]) for s in setups)
        values["setup_cpu_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = measured["peak_rss_mb"]

    kind = "per_layer" if args.trace else "end_to_end"
    # Only counts can be absent (a layer this workload never calls): they are 0.
    missing = [m["name"] for m in bench[kind] if m["name"] not in values]
    values.update(dict.fromkeys(missing, 0.0))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "failure_reasons": reasons[:50], "metrics": metrics, "all_values": values,
        "never_called": missing, "setup_runs_s": [s["setup_s"] for s in setups],
        "setup_ref_s": [s["ref_s"] for s in setups], "probes": measured["probes"],
        "passes": measured["passes"], "ops": ops,
    }
    if args.trace:
        result["spans"] = {"prepare": setups[0]["spans"], "measure": measured["spans"]}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name in sorted(values):
        print(f"{name} {values[name]:.6g} {units.get(name) or unit_of(name)}")
    for reason in reasons[:10]:
        print(f"check failed: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a printed value that BENCHMARK.json does not declare."""
    if "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "error_rate" or name.startswith("outlier_"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
