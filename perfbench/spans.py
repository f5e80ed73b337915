"""Span recording for the traced run, and the traced replays of the pipeline.

A span is (name, start, end, parent). Spans are kept in memory and written
out when the run ends. Layer names are `<module>.<function>`, after the
stagelens module that owns the call; per-layer metrics add `_s` to them.

The replays call each module's public functions from here, in the order
`diagnose` and `ingest_raw` call them, so every layer gets its own span
without changing stagelens. After a replay the real `diagnose` (or
`ingest_raw`) runs once more under its own span: the part of that span the
replayed layers do not account for is reported as `report.unattributed_s`.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections import defaultdict
from typing import Dict, List, Optional

from clock import CLOCK

# Per-stage layer spans that together should account for `diagnose`.
STAGE_LAYERS = (
    "correlate.stage_window",
    "correlate.slice_metrics",
    "correlate.build_datasets",
    "appdetect.detectors",
    "nodedetect.detect_abnormal_nodes",
    "metricdetect.diagnose_outlier_metrics",
)

# The counter-file naming rule ingest_raw applies (`<node>.<system|arch>.tsv`).
_METRIC_FILE_RE = re.compile(r"^(?P<node>.+)\.(?P<schema>system|arch)\.tsv$")


class Spans:
    """In-memory span log with a parent stack; start and end read clock.CLOCK."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent: Optional[int] = self._stack[-1] if self._stack else None
        index = len(self.records)
        record = {"name": name, "start": CLOCK(), "end": None, "parent": parent}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = CLOCK()
            self._stack.pop()

    def totals(self, first: int = 0) -> Dict[str, float]:
        """Summed duration per span name, over the records from `first` on."""
        out: Dict[str, float] = defaultdict(float)
        for record in self.records[first:]:
            out[record["name"]] += record["end"] - record["start"]
        return dict(out)


def trace_bytes(path: str) -> int:
    """Size of the five entity files a trace directory holds."""
    return sum(
        os.path.getsize(os.path.join(path, f"{entity}.jsonl"))
        for entity in ("meta", "jobs", "stages", "tasks", "metrics")
    )


def traced_report(spans: Spans, counts: Dict[str, float], trace_dir: str, cfg):
    """load -> per-stage layer replay -> diagnose -> render, one span each.

    Returns the rendered text report and the DiagnosisReport.
    """
    from stagelens import appdetect, correlate, metricdetect, nodedetect
    from stagelens.report import diagnose, render_report
    from stagelens.traceio import load_trace

    import numpy as np

    with spans.span("traceio.load_trace"):
        trace = load_trace(trace_dir)
    counts["traceio.trace_bytes"] += trace_bytes(trace_dir)
    counts["traceio.samples"] += sum(len(s) for s in trace.metrics.values())
    counts["traceio.tasks"] += sum(len(stage.tasks) for stage in trace.stages())

    with spans.span("replay"):
        for job in trace.jobs:
            results = []
            for stage in job.stages:
                if not stage.tasks:
                    continue
                with spans.span("correlate.stage_window"):
                    window = correlate.stage_window(stage)
                with spans.span("correlate.slice_metrics"):
                    slices = correlate.slice_metrics(trace, window)
                with spans.span("correlate.build_datasets"):
                    datasets = correlate.build_datasets(
                        stage, slices, trace.cluster, cfg.ultrashort()
                    )
                counts["correlate.window_samples"] += sum(len(s) for s in slices.series.values())
                counts["correlate.gap_nodes"] += len(slices.gaps)
                counts["correlate.ultrashort_tasks"] += datasets.ultrashort_count

                with spans.span("appdetect.detectors"):
                    runtimes: Dict[str, List[int]] = {}
                    for task in stage.tasks:
                        if task.succeeded:
                            runtimes.setdefault(task.node, []).append(task.runtime)
                    means = {node: sum(rs) / len(rs) for node, rs in runtimes.items()}
                    appdetect.detect_stragglers(means, cfg.th_d)
                    results.append(
                        appdetect.detect_workload_imbalance(datasets.tnum, cfg.imbalance())
                    )
                    appdetect.detect_skew_data_size(
                        datasets.data_size, cfg.th_size, cfg.flag_small
                    )
                    if len(datasets.locality) >= 2:
                        appdetect.detect_uneven_placement(
                            datasets.locality, cfg.placement(), total=len(datasets.locality)
                        )

                with spans.span("nodedetect.detect_abnormal_nodes"):
                    similarity = nodedetect.detect_abnormal_nodes(
                        datasets.vectors, cfg.similarity()
                    )
                usable = sum(
                    1 for vec in datasets.vectors.values()
                    if vec and not all(v == 0 for v in vec.values())
                )
                counts["nodedetect.pairs"] += usable * (usable - 1) // 2
                counts["nodedetect.skipped_nodes"] += len(similarity.skipped)

                nodes = sorted(datasets.matrix)
                if len(nodes) >= 3 and datasets.matrix_metrics:
                    # A separate call on the matrix diagnose_outlier_metrics
                    # builds, so PCA gets its own span; its work repeats inside
                    # the next span and is left out of the unattributed sum.
                    with spans.span("metricdetect.pca_select_metrics"):
                        metricdetect.pca_select_metrics(
                            np.vstack([datasets.matrix[n] for n in nodes]),
                            datasets.matrix_metrics,
                            cfg.ccrate,
                        )
                with spans.span("metricdetect.diagnose_outlier_metrics"):
                    diagnosis = metricdetect.diagnose_outlier_metrics(datasets, cfg.outlier())
                if diagnosis.selection is not None:
                    counts["metricdetect.selected_metrics"] += len(
                        diagnosis.selection.selected_metrics
                    )
                counts["metricdetect.findings"] += len(diagnosis.findings)
            with spans.span("appdetect.detectors"):
                appdetect.judge_job_imbalance(results, cfg.imbalance())

    with spans.span("report.diagnose"):
        report = diagnose(trace, cfg)
    with spans.span("report.render_report"):
        text = render_report(report)
    counts["report.findings"] += len(report.findings())
    counts["report.warnings"] += sum(len(stage.warnings) for stage in report.stages)
    return text, report


def traced_ingest(spans: Spans, counts: Dict[str, float], events: str, metrics_dir: str,
                  out_dir: str):
    """ingest_raw's own steps, each under a span, then ingest_raw and save_trace."""
    from stagelens import ingest
    from stagelens.traceio import save_trace

    with spans.span("replay"):
        with spans.span("ingest.parse_spark_event_log"):
            with open(events, encoding="utf-8") as fh:
                ingest.parse_spark_event_log(fh)
        for name in sorted(os.listdir(metrics_dir)):
            match = _METRIC_FILE_RE.match(name)
            if not match:
                continue
            schema = "architecture" if match.group("schema") == "arch" else "system"
            with spans.span("ingest.parse_metric_file"):
                with open(os.path.join(metrics_dir, name), encoding="utf-8") as fh:
                    rows, _ = ingest.parse_metric_file(fh, schema)
            counts["ingest.rows"] += len(rows)
            with spans.span("ingest.derive_series"):
                ingest.derive_series(rows, schema, match.group("node"))

    with spans.span("ingest.ingest_raw"):
        trace, report = ingest.ingest_raw(events, metrics_dir)
    with spans.span("traceio.save_trace"):
        save_trace(trace, out_dir)
    counts["ingest.samples"] += sum(len(s) for s in trace.metrics.values())
    counts["ingest.errors"] += len(report.errors)
    counts["ingest.skipped_events"] += report.skipped_events
    return trace, report
