"""The benchmark's two child processes; run.py starts each in a fresh interpreter.

    phases.py prepare --workload W --seed N --size S --dir D --out F [--checks] [--trace]
    phases.py measure --workload W --size S --dir D --seconds T --out F [--trace] [--flip-byte]

`prepare` builds the workload's input in D and times that set-up: importing
stagelens, then generating and saving the simulated traces (or writing the raw
collector files). With --checks it also records what the output checks need:
the digest of each report computed from the in-memory trace, and on
desk-corpus the accuracy floor's score.

`measure` runs the timed phase. Passes over the workload's input repeat until
the next one would overrun T seconds. A report operation is
load_trace -> diagnose -> render_report on one trace directory; on raw-ingest
each pass starts with an ingest operation, ingest_raw + save_trace. With
--trace, untraced and traced passes alternate, and the traced ones record a
span around every layer call (spans.py). The process runs nothing but this
phase, so its ru_maxrss is the peak RSS of the timed work.

Both phases time with clock.CLOCK (CPU time) and run clock.reference()
around the timed work: before and after the set-up, and between operations
every PROBE_EVERY_S, so run.py can scale each time to the reference speed.

Both write one JSON document to F. Output checks are applied by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (never imports stagelens at module level)
from clock import CLOCK, SpeedTrack, reference  # noqa: E402
from spans import Spans, traced_ingest, traced_report  # noqa: E402

#: CPU seconds of timed work between two reference probes.
PROBE_EVERY_S = 0.25


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_dirs(root: str):
    return sorted(
        os.path.join(root, name) for name in os.listdir(root) if name.startswith("trace")
    )


def corpus_score(findings_per_trace, labels_per_trace):
    """Outlier-metric score over several traces, stage ids kept apart per trace."""
    from stagelens.evaluate import score
    from stagelens.model import Finding, FindingKind
    from stagelens.simulate import LabeledAnomaly

    findings, labels = [], []
    for i, (trace_findings, trace_labels) in enumerate(zip(findings_per_trace, labels_per_trace)):
        prefix = f"scenario{i:02d}/"
        findings += [
            Finding(f.kind, prefix + f.stage_id, f.subjects, f.score, f.threshold)
            for f in trace_findings
        ]
        labels += [
            LabeledAnomaly(prefix + rec.stage_id, rec.node, rec.expected_findings)
            for rec in trace_labels
        ]
    return score(findings, labels, kinds={FindingKind.OUTLIER_METRIC})


def prepare(args) -> dict:
    out: dict = {}
    ref_before = reference()
    start = CLOCK()
    import stagelens  # noqa: F401  (set-up time includes the import)

    def stop_clock():
        out["setup_s"] = CLOCK() - start
        out["ref_s"] = (ref_before + reference()) / 2

    spans = Spans()
    span = spans.span if args.trace else (lambda name: contextlib.nullcontext())
    if args.workload == "raw-ingest":
        from rawgen import write_raw_inputs

        out["manifest"] = write_raw_inputs(
            args.dir, args.seed, workloads.RAW_SIZES[args.size]
        )
        stop_clock()
        with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(out["manifest"], fh)
    else:
        from stagelens.simulate import generate_trace, save_labels
        from stagelens.traceio import save_trace

        built = []
        for i, spec in enumerate(workloads.scenario_specs(args.workload, args.seed, args.size)):
            path = os.path.join(args.dir, f"trace{i:02d}")
            with span("simulate.generate_trace"):
                trace, labels = generate_trace(spec)
            with span("traceio.save_trace"):
                save_trace(trace, path)
            save_labels(labels, os.path.join(path, "labels.jsonl"))
            built.append((trace, labels))
        stop_clock()

        if args.checks:
            from stagelens.report import diagnose, render_report

            cfg = workloads.pipeline_config(args.workload)
            out["memory_digests"] = [
                sha256(render_report(diagnose(trace, cfg))) for trace, _ in built
            ]
            if args.workload == "desk-corpus":
                acc_cfg = workloads.accuracy_config()
                out["accuracy"] = corpus_score(
                    [diagnose(trace, acc_cfg).findings() for trace, _ in built],
                    [labels for _, labels in built],
                ).accuracy
    if args.trace:
        out["layers"] = spans.totals()
        out["spans"] = spans.records
    return out


def _flip(data: bytes, flip: bool) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:] if flip and data else data


def _report_op(index: int, path: str, cfg, flip: bool, spans=None, counts=None):
    """One load -> diagnose -> render; returns the op record and the report."""
    from stagelens.report import diagnose, render_report
    from stagelens.traceio import load_trace

    op = {"kind": "report", "trace": index}
    report = None
    start, wall = CLOCK(), time.perf_counter()
    try:
        if spans is None:
            report = diagnose(load_trace(path), cfg)
            text = render_report(report)
            op["seconds"] = CLOCK() - start
        else:
            first = len(spans.records)
            text, report = traced_report(spans, counts, path, cfg)
            totals = spans.totals(first)
            op["seconds"] = sum(
                totals[name]
                for name in ("traceio.load_trace", "report.diagnose", "report.render_report")
            )
        op["digest"] = sha256(_flip(text, flip))
    except Exception as exc:  # a failed operation is counted, not fatal
        op["seconds"] = CLOCK() - start
        op["error"] = repr(exc)
    op["cpu_s"], op["wall_s"] = CLOCK() - start, time.perf_counter() - wall
    return op, report


def _ingest_op(paths: dict, out_dir: str, spans=None, counts=None):
    from stagelens.ingest import ingest_raw
    from stagelens.traceio import save_trace

    op = {"kind": "ingest"}
    trace = None
    start, wall = CLOCK(), time.perf_counter()
    try:
        if spans is None:
            trace, report = ingest_raw(paths["events"], paths["metrics_dir"])
            save_trace(trace, out_dir)
            op["seconds"] = CLOCK() - start
        else:
            first = len(spans.records)
            trace, report = traced_ingest(
                spans, counts, paths["events"], paths["metrics_dir"], out_dir
            )
            totals = spans.totals(first)
            op["seconds"] = totals["ingest.ingest_raw"] + totals["traceio.save_trace"]
        op["ingest_errors"] = len(report.errors)
    except Exception as exc:  # a failed operation is counted, not fatal
        op["seconds"] = CLOCK() - start
        op["error"] = repr(exc)
    op["cpu_s"], op["wall_s"] = CLOCK() - start, time.perf_counter() - wall
    return op, trace


def measure(args) -> dict:
    import stagelens  # noqa: F401  (imported before the clock starts)
    from stagelens.report import diagnose, render_report
    from stagelens.simulate import load_labels

    cfg = workloads.pipeline_config(args.workload)
    raw = args.workload == "raw-ingest"
    if raw:
        with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        ingested_dir = os.path.join(args.dir, "trace00")
        paths = [ingested_dir]
    else:
        paths = trace_dirs(args.dir)
        labels = [load_labels(os.path.join(p, "labels.jsonl")) for p in paths]

    spans = Spans()
    track = SpeedTrack(PROBE_EVERY_S)
    out: dict = {"ops": [], "passes": []}
    start = time.perf_counter()
    while True:
        traced = args.trace and len(out["passes"]) % 2 == 1
        pass_spans = spans if traced else None
        counts: dict = defaultdict(float)
        first_span = len(spans.records)
        pass_start = time.perf_counter()
        ops, findings = [], []
        if raw:
            track.before()
            op, trace = _ingest_op(manifest, ingested_dir, pass_spans, counts)
            track.after(op)
            ops.append(op)
            if trace is not None and "memory_digests" not in out:
                # Round-trip reference: the report of the in-memory trace.
                out["memory_digests"] = [sha256(render_report(diagnose(trace, cfg)))]
            del trace  # the report op below must not find it still alive
        for index, path in enumerate(paths):
            track.before()
            op, report = _report_op(index, path, cfg, args.flip_byte, pass_spans, counts)
            track.after(op)
            ops.append(op)
            findings.append(report.findings() if report is not None else [])
        if not raw:
            with (pass_spans.span("evaluate.score") if traced else contextlib.nullcontext()):
                quality = corpus_score(findings, labels)
            out.setdefault("precision", quality.precision)
        record = {
            "traced": traced,
            "wall_s": time.perf_counter() - pass_start,
            "seconds": sum(op["seconds"] for op in ops),
        }
        if traced:
            record["layers"] = spans.totals(first_span)
            record["counts"] = dict(counts)
        for op in ops:
            op["traced"] = traced
        out["ops"] += ops
        out["passes"].append(record)

        elapsed = time.perf_counter() - start
        need_traced = args.trace and not any(p["traced"] for p in out["passes"])
        if not need_traced and elapsed + record["wall_s"] > args.seconds:
            break
    track.close()
    out["probes"] = track.probes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        out["spans"] = spans.records
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--checks", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--flip-byte", action="store_true",
                        help="corrupt every rendered report (negative test of the checks)")
    args = parser.parse_args(argv)
    result = prepare(args) if args.phase == "prepare" else measure(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
