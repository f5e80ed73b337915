"""Adapters from raw collector files to the canonical trace.

Two input shapes are supported: Spark-style JSON event logs (one event per
line) and whitespace-delimited per-node counter dumps, from which the derived
per-second metrics are computed.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .model import (  # noqa: F401  (the derived-metric names are re-exported)
    ARCH_METRICS,
    METRIC_SCHEMA,
    SYSTEM_METRICS,
    Job,
    MetricSample,
    MetricStore,
    Stage,
    Task,
    Trace,
    parse_locality,
)

# Raw counter column orders (first column is always the sample timestamp).
SYSTEM_COLUMNS = (
    "timestamp usr nice sys idle iowait irq softirq intr ctx procs running "
    "blocked mem_total free buffers cached swap_cached active inactive "
    "swap_total swap_free pgin pgout pgfault pgmajfault active_conn "
    "passive_conn rbytes rpackets rerrs rdrop sbytes spackets serrs sdrop "
    "read read_merged read_sectors read_time write write_merged "
    "write_sectors write_time progress_io io_time io_time_weighted"
).split()

ARCH_COLUMNS = (
    "timestamp cycle ins L2_miss L2_refe L3_miss L3_refe DTLB_miss ITLB_miss "
    "L1I_miss L1I_hit MLP MUL_ins DIV_ins FP_ins LOAD_ins STORE_ins BR_ins "
    "BR_miss unc_read unc_write"
).split()

_SCHEMAS = {"system": SYSTEM_COLUMNS, "architecture": ARCH_COLUMNS, "arch": ARCH_COLUMNS}

SECTOR_BYTES = 512


class IngestError(Exception):
    pass


@dataclass(frozen=True)
class RawMetricRow:
    timestamp_ms: int
    counters: Tuple[float, ...]  # schema order, timestamp excluded


@dataclass
class IngestReport:
    """Per-line recoverable problems plus counts of what was skipped."""

    errors: List[Tuple[int, str]] = field(default_factory=list)
    skipped_events: int = 0

    def note(self, line_no: int, message: str) -> None:
        self.errors.append((line_no, message))


def _to_ms(timestamp: float) -> int:
    # Epoch seconds are ~1.5e9, epoch ms ~1.5e12; treat small values as seconds.
    ts = float(timestamp)
    if abs(ts) < 1e12:
        ts *= 1000.0
    return int(round(ts))


def parse_spark_event_log(lines: Iterable[str]) -> Tuple[Trace, IngestReport]:
    """Extract tasks (and stage/job grouping) from a Spark event log stream.

    Returns a partial trace: jobs/stages/tasks populated, metrics empty.
    Raises IngestError when no usable task-end event is found.
    """
    report = IngestReport()
    tasks: List[Task] = []
    stage_to_job: Dict[str, str] = {}

    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            report.note(line_no, f"invalid JSON: {exc.msg}")
            continue
        kind = event.get("Event")
        if kind == "SparkListenerJobStart":
            job_id = str(event.get("Job ID", "job_0"))
            for sid in event.get("Stage IDs", []):
                stage_to_job[str(sid)] = f"job_{job_id}"
            continue
        if kind != "SparkListenerTaskEnd":
            report.skipped_events += 1
            continue
        try:
            info = event["Task Info"]
            launch = int(info["Launch Time"])
            finish = int(info["Finish Time"])
            metrics = event.get("Task Metrics", {}) or {}
            data_size = int(metrics.get("Input Metrics", {}).get("Bytes Read", 0))
            reason = event.get("Task End Reason", {}).get("Reason", "Success")
            host = info.get("Host") or metrics.get("Host Name")
            if not host:
                raise KeyError("Host")
            task = Task(
                task_id=str(info["Task ID"]),
                stage_id=str(event["Stage ID"]),
                node=str(host),
                launch_time=launch,
                finish_time=finish,
                locality=parse_locality(info.get("Locality", "UNKNOWN")),
                data_size=data_size,
                succeeded=(reason == "Success") and not info.get("Failed", False),
            )
        except (KeyError, TypeError, ValueError) as exc:
            report.note(line_no, f"unusable task-end event: {exc!r}")
            continue
        if task.finish_time < task.launch_time:
            report.note(line_no, "task finishes before it launches")
            continue
        tasks.append(task)

    if not tasks:
        raise IngestError("no tasks: the event stream held no usable task-end events")

    stages: Dict[str, Stage] = {}
    for task in tasks:
        job_id = stage_to_job.get(task.stage_id, "job_0")
        stage = stages.setdefault(task.stage_id, Stage(stage_id=task.stage_id, job_id=job_id))
        stage.tasks.append(task)
    jobs: Dict[str, Job] = {}
    for stage in stages.values():
        jobs.setdefault(stage.job_id, Job(job_id=stage.job_id)).stages.append(stage)
    for job in jobs.values():
        job.stages.sort(key=lambda s: s.stage_id)

    cluster = sorted({t.node for t in tasks})
    trace = Trace(cluster=cluster, jobs=[jobs[k] for k in sorted(jobs)])
    return trace, report


def parse_metric_file(
    lines: Iterable[str], schema: str
) -> Tuple[List[RawMetricRow], IngestReport]:
    """Parse one node's raw counter dump into timestamp-ordered rows.

    Duplicate timestamps keep the last row seen. A column-count mismatch is a
    hard error; a non-numeric or non-finite cell only skips that line.
    """
    columns = _SCHEMAS.get(schema)
    if columns is None:
        raise IngestError(f"unknown metric schema {schema!r} (expected system|architecture)")
    report = IngestReport()
    by_ts: Dict[int, RawMetricRow] = {}
    for line_no, line in enumerate(lines, start=1):
        cells = line.split()
        if not cells:
            continue
        if len(cells) != len(columns):
            raise IngestError(
                f"line {line_no}: expected {len(columns)} columns for the "
                f"{schema} schema, found {len(cells)}"
            )
        try:
            numbers = [float(c) for c in cells]
        except ValueError:
            report.note(line_no, "non-numeric cell")
            continue
        if not all(map(math.isfinite, numbers)):
            # A NaN would read as a missing metric in the trace's store.
            report.note(line_no, "non-finite cell")
            continue
        row = RawMetricRow(timestamp_ms=_to_ms(numbers[0]), counters=tuple(numbers[1:]))
        by_ts[row.timestamp_ms] = row
    rows = [by_ts[ts] for ts in sorted(by_ts)]
    return rows, report


def _delta(prev: RawMetricRow, curr: RawMetricRow, idx: Dict[str, int], name: str) -> float:
    return curr.counters[idx[name]] - prev.counters[idx[name]]


def derive_metrics(
    prev: RawMetricRow,
    curr: RawMetricRow,
    schema: str,
    node: str = "",
    wrap_detection: bool = True,
) -> MetricSample:
    """Compute the derived metrics for one counter interval.

    Rates are delta/dt, ratios are delta-based fractions. A wrapped counter
    (negative delta) makes the affected metric missing unless wrap detection
    is disabled, which reproduces raw negative rates.
    """
    dt = (curr.timestamp_ms - prev.timestamp_ms) / 1000.0
    if dt <= 0:
        raise IngestError("derive_metrics requires curr.timestamp > prev.timestamp")
    columns = _SCHEMAS[schema]
    idx = {name: i - 1 for i, name in enumerate(columns) if i > 0}
    values: Dict[str, float] = {}

    def emit(name: str, value: float, deltas: Sequence[float]) -> None:
        if wrap_detection and any(d < 0 for d in deltas):
            return
        values[name] = value

    def ratio(num: float, den: float) -> Optional[float]:
        if den == 0:
            return None
        return num / den

    if schema == "system":
        busy = [_delta(prev, curr, idx, n) for n in ("usr", "nice", "sys", "irq", "softirq")]
        wait = _delta(prev, curr, idx, "iowait")
        idle = _delta(prev, curr, idx, "idle")
        total = sum(busy) + wait + idle
        # Zero total CPU delta reads as an idle interval, not missing data.
        emit("cpu_usage", (sum(busy) / total) if total else 0.0, busy + [wait, idle])
        emit("ioWaitRatio", (wait / total) if total else 0.0, busy + [wait, idle])
        mem_total = curr.counters[idx["mem_total"]]
        if mem_total > 0:
            free = sum(curr.counters[idx[n]] for n in ("free", "buffers", "cached"))
            values["mem_usage"] = 1.0 - free / mem_total
        emit(
            "diskR_band",
            _delta(prev, curr, idx, "read_sectors") * SECTOR_BYTES / dt,
            [_delta(prev, curr, idx, "read_sectors")],
        )
        emit(
            "diskW_band",
            _delta(prev, curr, idx, "write_sectors") * SECTOR_BYTES / dt,
            [_delta(prev, curr, idx, "write_sectors")],
        )
        emit("netS_band", _delta(prev, curr, idx, "sbytes") / dt, [_delta(prev, curr, idx, "sbytes")])
        emit("netR_band", _delta(prev, curr, idx, "rbytes") / dt, [_delta(prev, curr, idx, "rbytes")])
        emit(
            "weighted_io",
            _delta(prev, curr, idx, "io_time_weighted") / dt,
            [_delta(prev, curr, idx, "io_time_weighted")],
        )
    else:
        d_ins = _delta(prev, curr, idx, "ins")
        d_cycle = _delta(prev, curr, idx, "cycle")
        ipc = ratio(d_ins, d_cycle)
        if ipc is not None:
            emit("IPC", ipc, [d_ins, d_cycle])
        for metric, counter in (
            ("L2_MPKI", "L2_miss"),
            ("L3_MPKI", "L3_miss"),
            ("L1I_MPKI", "L1I_miss"),
            ("ITLB_MPKI", "ITLB_miss"),
            ("DTLB_MPKI", "DTLB_miss"),
        ):
            d = _delta(prev, curr, idx, counter)
            mpki = ratio(d * 1000.0, d_ins)
            if mpki is not None:
                emit(metric, mpki, [d, d_ins])
        for metric, counter in (
            ("MUL_Ratio", "MUL_ins"),
            ("DIV_Ratio", "DIV_ins"),
            ("FP_Ratio", "FP_ins"),
            ("LOAD_Ratio", "LOAD_ins"),
            ("STORE_Ratio", "STORE_ins"),
            ("BR_Ratio", "BR_ins"),
        ):
            d = _delta(prev, curr, idx, counter)
            r = ratio(d, d_ins)
            if r is not None:
                emit(metric, r, [d, d_ins])

    return MetricSample(node=node, timestamp=curr.timestamp_ms, values=values)


def derive_series(
    rows: Sequence[RawMetricRow], schema: str, node: str, wrap_detection: bool = True
) -> List[MetricSample]:
    """Run derive_metrics over consecutive row pairs of one node's dump."""
    samples = []
    for prev, curr in zip(rows, rows[1:]):
        samples.append(derive_metrics(prev, curr, schema, node=node, wrap_detection=wrap_detection))
    return samples


_METRIC_FILE_RE = re.compile(r"^(?P<node>.+)\.(?P<schema>system|arch)\.tsv$")


def ingest_raw(
    event_log_path: str, metrics_dir: Optional[str] = None, wrap_detection: bool = True
) -> Tuple[Trace, IngestReport]:
    """Build a full canonical trace from an event log plus a metric-file dir.

    Metric files follow the <node>.<system|arch>.tsv naming pattern; system
    and architecture samples for one node are merged by timestamp.
    """
    with open(event_log_path, encoding="utf-8") as fh:
        trace, report = parse_spark_event_log(fh)

    if metrics_dir:
        merged: Dict[str, Dict[int, Dict[str, float]]] = {}
        for name in sorted(os.listdir(metrics_dir)):
            match = _METRIC_FILE_RE.match(name)
            if not match:
                continue
            node = match.group("node")
            schema = "architecture" if match.group("schema") == "arch" else "system"
            with open(os.path.join(metrics_dir, name), encoding="utf-8") as fh:
                rows, sub_report = parse_metric_file(fh, schema)
            report.errors.extend((ln, f"{name}: {msg}") for ln, msg in sub_report.errors)
            for sample in derive_series(rows, schema, node, wrap_detection=wrap_detection):
                merged.setdefault(node, {}).setdefault(sample.timestamp, {}).update(sample.values)
        for node, by_ts in merged.items():
            trace.metrics[node] = MetricStore.from_samples(
                node, (MetricSample(node=node, timestamp=ts, values=v) for ts, v in by_ts.items())
            )
        trace.cluster = sorted(set(trace.cluster) | set(merged))
    return trace, report
