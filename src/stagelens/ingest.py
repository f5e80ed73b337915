"""Adapters from raw collector files to the canonical trace.

Two input shapes are supported: Spark-style JSON event logs (one event per
line) and whitespace-delimited per-node counter dumps, from which the derived
per-second metrics are computed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (  # noqa: F401  (the derived-metric names are re-exported)
    ARCH_METRICS,
    METRIC_SCHEMA,
    SYSTEM_METRICS,
    Job,
    MetricStore,
    Stage,
    Task,
    Trace,
    metric_columns,
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


@dataclass
class IngestReport:
    """Per-line recoverable problems plus counts of what was skipped."""

    errors: List[Tuple[int, str]] = field(default_factory=list)
    skipped_events: int = 0

    def note(self, line_no: int, message: str) -> None:
        self.errors.append((line_no, message))


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


# Each byte's class. Numpy's text reader and float() split a line made of
# plain bytes alike (at spaces and tabs) and convert each cell with the same
# CPython function, so such lines are read in one loadtxt call; a line with
# any other byte is read by float() alone.
_BLANK, _PLAIN, _OTHER = 0, 1, 2
_BYTE_CLASS = bytes(
    _BLANK if c in b" \t\n" else _PLAIN if c in b"0123456789.eE+-" else _OTHER
    for c in range(256)
)


def _line_classes(text: str) -> np.ndarray:
    """The class of each line of text.split("\n"): the largest class of its
    bytes, so a blank line is _BLANK and a row of plain cells _PLAIN."""
    data = (text + "\n").encode("utf-8", "surrogatepass")
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    # Every segment holds at least its line's "\n", so none is empty.
    starts = np.concatenate(([0], ends[:-1] + 1))
    classes = np.frombuffer(data.translate(_BYTE_CLASS), dtype=np.uint8)
    return np.maximum.reduceat(classes, starts)


def _read_lines(
    numbered: Iterable[Tuple[int, str]], columns: Sequence[str], schema: str, report: IngestReport
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows float() reads from these numbered lines, with their line
    numbers; a row with a non-numeric cell is noted and skipped."""
    rows: List[List[float]] = []
    line_nos: List[int] = []
    for line_no, line in numbered:
        cells = line.split()
        if not cells:
            continue
        if len(cells) != len(columns):
            raise IngestError(
                f"line {line_no}: expected {len(columns)} columns for the "
                f"{schema} schema, found {len(cells)}"
            )
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            report.note(line_no, "non-numeric cell")
            continue
        line_nos.append(line_no)
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
    return table, np.array(line_nos, dtype=np.int64)


def _read_text(
    text: str, columns: Sequence[str], schema: str, report: IngestReport
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row of text.split("\n") in line order, with its line number.

    Plain rows go through one loadtxt call and the other lines through
    _read_lines. When loadtxt fails (a ragged row, or a plain cell such as
    "1.2.3" that float() rejects too), every line goes through _read_lines,
    so the first wrong-width line and each note come out as they would
    line by line.
    """
    lines = text.split("\n")
    line_class = _line_classes(text)
    plain = np.flatnonzero(line_class == _PLAIN)
    other = np.flatnonzero(line_class == _OTHER).tolist()
    numbered = [(i + 1, lines[i]) for i in other]
    for i in other:
        lines[i] = ""  # loadtxt skips blank lines
    table = np.empty((0, len(columns)))
    if len(plain):  # loadtxt warns on input with no row
        try:
            table = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            table = None
    if table is None or table.shape != (len(plain), len(columns)):
        return _read_lines(enumerate(text.split("\n"), start=1), columns, schema, report)
    rows, line_nos = _read_lines(numbered, columns, schema, report)
    if not len(rows):
        return table, plain + 1
    line_nos = np.concatenate([plain + 1, line_nos])
    order = np.argsort(line_nos, kind="stable")
    return np.concatenate([table, rows])[order], line_nos[order]


def parse_metric_file(
    lines: Union[str, Iterable[str]], schema: str
) -> Tuple[MetricStore, IngestReport]:
    """Parse one node's raw counter dump into a block of timestamp-ordered rows.

    `lines` is the file's text, whose lines are its "\n"-separated pieces,
    or an iterable of its lines. The block is a MetricStore whose columns
    are the schema's counters (its node is left empty: the file name names
    it), so len(block) is the number of rows kept. Timestamps below 1e12 are
    seconds and become milliseconds, rounded half to even. Duplicate
    timestamps keep the last row read. A column-count mismatch is a hard
    error; a cell float() cannot read, a non-finite cell, or a timestamp
    outside int64 milliseconds, only skips that line.
    """
    columns = _SCHEMAS.get(schema)
    if columns is None:
        raise IngestError(f"unknown metric schema {schema!r} (expected system|architecture)")
    report = IngestReport()
    if isinstance(lines, str):
        table, line_nos = _read_text(lines, columns, schema, report)
    else:
        lines = [line[:-1] if line.endswith("\n") else line for line in lines]
        text = "\n".join(lines)
        # A line may hold a "\n" of its own, which split() reads as a space.
        if text.count("\n") + 1 == len(lines):
            table, line_nos = _read_text(text, columns, schema, report)
        else:
            table, line_nos = _read_lines(enumerate(lines, start=1), columns, schema, report)

    # A NaN would read as a missing metric in the trace's store.
    finite = np.isfinite(table).all(axis=1)
    # Epoch seconds are ~1.5e9, epoch ms ~1.5e12; treat small values as seconds.
    ms = np.rint(np.where(np.abs(table[:, 0]) < 1e12, table[:, 0] * 1000.0, table[:, 0]))
    # Checked before the cast, which would wrap silently.
    in_range = (ms >= -(2.0**63)) & (ms < 2.0**63)
    for i in np.flatnonzero(~(finite & in_range)).tolist():
        report.note(
            int(line_nos[i]), "non-finite cell" if not finite[i] else "timestamp out of range"
        )
    report.errors.sort(key=lambda error: error[0])

    kept = np.flatnonzero(finite & in_range)[::-1]
    # Read backwards, the first row of each timestamp is the last one in the file.
    timestamps, first = np.unique(ms[kept], return_index=True)
    block = MetricStore(
        node="",
        timestamps=timestamps.astype(np.int64),
        columns=tuple(columns[1:]),
        values=np.ascontiguousarray(table[kept[first], 1:].T),
    )
    return block, report


_BUSY = ("usr", "nice", "sys", "irq", "softirq")
_CPU = _BUSY + ("iowait", "idle")
_MPKI = (
    ("L2_MPKI", "L2_miss"),
    ("L3_MPKI", "L3_miss"),
    ("L1I_MPKI", "L1I_miss"),
    ("ITLB_MPKI", "ITLB_miss"),
    ("DTLB_MPKI", "DTLB_miss"),
)
_MIX = (
    ("MUL_Ratio", "MUL_ins"),
    ("DIV_Ratio", "DIV_ins"),
    ("FP_Ratio", "FP_ins"),
    ("LOAD_Ratio", "LOAD_ins"),
    ("STORE_Ratio", "STORE_ins"),
    ("BR_Ratio", "BR_ins"),
)


def derive_series(
    block: MetricStore, schema: str, node: str, wrap_detection: bool = True
) -> MetricStore:
    """The derived metrics of every interval between consecutive rows of a
    parse_metric_file block, each stamped with the interval's later row.

    Rates are delta/dt, ratios are delta-based fractions. A zero denominator
    makes a ratio missing, except that a zero CPU total reads as an idle
    interval (0.0). A wrapped counter (negative delta) makes the metrics it
    feeds missing unless wrap detection is disabled, which reproduces raw
    negative rates. A non-finite result (an overflowing delta) is missing.
    A metric missing from every interval gets no column; an interval with no
    metric keeps its row.
    """
    col = {name: i for i, name in enumerate(block.columns)}
    counters = block.values
    # Timestamps ascend and are distinct, so every true difference lies in
    # (0, 2**64): read as uint64 it is exact even where int64 would wrap.
    dt = np.diff(block.timestamps).view(np.uint64) / 1000.0
    derived: Dict[str, Tuple[np.ndarray, Sequence[str]]] = {}  # value, wrap-voiding counters
    with np.errstate(all="ignore"):
        delta = np.diff(counters, axis=1)

        def d(name: str) -> np.ndarray:
            return delta[col[name]]

        if schema == "system":
            # Added left to right from 0, usr first: the float order is pinned.
            busy = sum(d(n) for n in _BUSY)
            total = busy + d("iowait") + d("idle")
            derived["cpu_usage"] = np.where(total != 0, busy / total, 0.0), _CPU
            derived["ioWaitRatio"] = np.where(total != 0, d("iowait") / total, 0.0), _CPU
            mem_total = counters[col["mem_total"], 1:]
            free = sum(counters[col[n], 1:] for n in ("free", "buffers", "cached"))
            derived["mem_usage"] = np.where(mem_total > 0, 1.0 - free / mem_total, np.nan), ()
            for metric, counter in (("diskR_band", "read_sectors"), ("diskW_band", "write_sectors")):
                derived[metric] = d(counter) * SECTOR_BYTES / dt, (counter,)
            for metric, counter in (
                ("netS_band", "sbytes"),
                ("netR_band", "rbytes"),
                ("weighted_io", "io_time_weighted"),
            ):
                derived[metric] = d(counter) / dt, (counter,)
        else:
            d_ins, d_cycle = d("ins"), d("cycle")
            derived["IPC"] = np.where(d_cycle != 0, d_ins / d_cycle, np.nan), ("ins", "cycle")
            for metric, counter in _MPKI:
                mpki = d(counter) * 1000.0 / d_ins
                derived[metric] = np.where(d_ins != 0, mpki, np.nan), (counter, "ins")
            for metric, counter in _MIX:
                derived[metric] = np.where(d_ins != 0, d(counter) / d_ins, np.nan), (counter, "ins")

    names, rows = [], []
    for name in METRIC_SCHEMA:
        if name not in derived:
            continue
        values, wrap_counters = derived[name]
        missing = ~np.isfinite(values)
        if wrap_detection and wrap_counters:
            missing |= (delta[[col[c] for c in wrap_counters]] < 0).any(axis=0)
        if not missing.all():
            names.append(name)
            rows.append(np.where(missing, np.nan, values))
    return MetricStore(
        node=node,
        timestamps=block.timestamps[1:],
        columns=tuple(names),
        values=np.array(rows, dtype=np.float64).reshape(len(rows), len(dt)),
    )


def _join(node: str, stores: Sequence[MetricStore]) -> MetricStore:
    """One store on the union of the stores' timestamps, NaN where a store
    has no row; the stores report disjoint metrics."""
    timestamps = np.unique(np.concatenate([s.timestamps for s in stores]))
    columns = metric_columns(c for s in stores for c in s.columns)
    values = np.full((len(columns), len(timestamps)), np.nan)
    for store in stores:
        at = np.searchsorted(timestamps, store.timestamps)
        for name, row in zip(store.columns, store.values):
            values[columns.index(name), at] = row
    return MetricStore(node, timestamps, columns, values)


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
        derived: Dict[str, List[MetricStore]] = {}
        for name in sorted(os.listdir(metrics_dir)):
            match = _METRIC_FILE_RE.match(name)
            if not match:
                continue
            node = match.group("node")
            schema = "architecture" if match.group("schema") == "arch" else "system"
            with open(os.path.join(metrics_dir, name), encoding="utf-8") as fh:
                text = fh.read()
            block, sub_report = parse_metric_file(text, schema)
            report.errors.extend((ln, f"{name}: {msg}") for ln, msg in sub_report.errors)
            store = derive_series(block, schema, node, wrap_detection=wrap_detection)
            if len(store):
                derived.setdefault(node, []).append(store)
        for node, stores in derived.items():
            trace.metrics[node] = _join(node, stores)
        trace.cluster = sorted(set(trace.cluster) | set(derived))
    return trace, report
