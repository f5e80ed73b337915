"""Command-line entry point.

Subcommands: ingest (raw files -> canonical trace), diagnose (trace ->
report), simulate (preset -> trace + labels), evaluate (report + labels ->
scores). Exit codes: 0 clean run, 1 findings present, 2 error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .evaluate import score_report
from .ingest import IngestError, ingest_raw
from .model import FindingKind
from .report import (
    CONFIG_KEYS,
    DiagnoseError,
    PipelineConfig,
    config_from_mapping,
    diagnose,
    parse_report,
    read_config_file,
    render_report,
)
from .simulate import ScenarioError, emit_scenario, load_labels, preset
from .traceio import TraceParseError, TraceValidationError, load_trace, save_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagelens",
        description="Stage-centric performance diagnosis for distributed clusters",
    )
    parser.add_argument("--version", action="version", version=f"stagelens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="convert raw logs into a canonical trace")
    p_ingest.add_argument("--events", required=True, help="Spark-style event log file")
    p_ingest.add_argument("--metrics-dir", help="directory of <node>.<system|arch>.tsv files")
    p_ingest.add_argument("--out", required=True, help="output trace directory")
    p_ingest.add_argument(
        "--keep-wrapped-counters",
        action="store_true",
        help="emit raw negative rates instead of dropping wrapped-counter intervals",
    )

    p_diag = sub.add_parser("diagnose", help="run all detectors over a trace")
    p_diag.add_argument("--trace", required=True, help="canonical trace directory")
    p_diag.add_argument("--config", help="flat key=value configuration file")
    p_diag.add_argument("--out", help="write the report here instead of stdout")
    p_diag.add_argument("--format", default="text", choices=("text", "structured"))
    for key in CONFIG_KEYS:
        p_diag.add_argument(f"--{key.replace('_', '-')}", dest=key, help="config key " + key)

    p_sim = sub.add_parser("simulate", help="emit a labeled synthetic trace")
    p_sim.add_argument(
        "--preset", required=True, choices=("case1", "case2", "case3", "eval-corpus")
    )
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("evaluate", help="score a structured report against labels")
    p_eval.add_argument("--report", required=True, help="structured report file")
    p_eval.add_argument("--labels", required=True, help="labels file from the simulator")
    p_eval.add_argument(
        "--kind",
        choices=[k.value for k in FindingKind],
        help="restrict scoring to one detector kind",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Config file keys, then the flags that were given; a flag wins."""
    path = args.config or os.environ.get("STAGELENS_CONFIG")
    values = read_config_file(path) if path else {}
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return config_from_mapping(values)


def _cmd_ingest(args: argparse.Namespace) -> int:
    trace, report = ingest_raw(
        args.events, args.metrics_dir, wrap_detection=not args.keep_wrapped_counters
    )
    save_trace(trace, args.out)
    for line_no, message in report.errors:
        print(f"warning: line {line_no}: {message}", file=sys.stderr)
    print(
        f"ingested {sum(len(s.tasks) for s in trace.stages())} tasks, "
        f"{len(trace.metrics)} metric nodes, skipped {report.skipped_events} events "
        f"-> {args.out}"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    trace = load_trace(args.trace)
    report = diagnose(trace, cfg)
    payload = render_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 1 if report.findings() else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = preset(args.preset, seed=args.seed)
    if isinstance(spec, list):
        for i, scenario in enumerate(spec):
            emit_scenario(scenario, os.path.join(args.out, f"scenario_{i:02d}"))
        print(f"wrote {len(spec)} scenarios under {args.out}")
    else:
        _, labels = emit_scenario(spec, args.out)
        print(f"wrote trace with {len(labels)} labeled anomalies -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    with open(args.report, "rb") as fh:
        report = parse_report(fh.read())
    labels = load_labels(args.labels)
    kinds = {FindingKind(args.kind)} if args.kind else None
    sys.stdout.write(score_report(report.findings(), labels, kinds))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "ingest": _cmd_ingest,
        "diagnose": _cmd_diagnose,
        "simulate": _cmd_simulate,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except (
        IngestError,
        TraceParseError,
        TraceValidationError,
        DiagnoseError,
        ScenarioError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
