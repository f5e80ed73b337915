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

from .model import (
    ClockGroup,
    Job,
    MetricStore,
    TASK_INT_BOUND,
    Stage,
    TaskTable,
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

# Each schema's columns, and its counters as the one tuple all its blocks share.
_SYSTEM, _ARCH = ((columns, tuple(columns[1:])) for columns in (SYSTEM_COLUMNS, ARCH_COLUMNS))
_SCHEMAS = {"system": _SYSTEM, "architecture": _ARCH}

SECTOR_BYTES = 512


class IngestError(ValueError):
    """Raw input that cannot become a trace; a ValueError, so the CLI reports
    it without importing this module."""


@dataclass
class IngestReport:
    """Per-line recoverable problems plus counts of what was skipped."""

    errors: List[Tuple[int, str]] = field(default_factory=list)
    skipped_events: int = 0

    def note(self, line_no: int, message: str) -> None:
        self.errors.append((line_no, message))


class _Unusable(Exception):
    """An event field of the wrong JSON type; the message names the rule."""


def _event_id(value, name: str) -> str:
    """An event's id as a str: a JSON integer (not a bool) or a string."""
    if type(value) is int or type(value) is str:
        return str(value)
    raise _Unusable(f"{name} must be an integer or a string")


def _event_int(value, name: str) -> int:
    """An event's number: a JSON integer (not a bool)."""
    if type(value) is int:
        return value
    raise _Unusable(f"{name} must be an integer")


def _id_order(text: str) -> Tuple[bool, int, str, str]:
    """An event id's sort key: ids of ASCII digits by value, ahead of every
    other id in text order; ties in value ("07", "7") go by text."""
    if text.isascii() and text.isdigit():
        value = text.lstrip("0")  # compared as digits: int() refuses over 4,300 of them
        return False, len(value), value, text
    return True, 0, "", text


# The code points a byte that is not UTF-8 decodes to under "surrogateescape".
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def parse_spark_event_log(lines: Iterable[str]) -> Tuple[Trace, IngestReport]:
    """Extract tasks (and stage/job grouping) from a Spark event log stream.

    Returns a partial trace: jobs/stages/tasks populated, metrics empty.
    Raises IngestError when no usable task-end event is found. A line
    holding a byte that is not UTF-8 (decoded with "surrogateescape"), an
    integer of more digits than the interpreter converts, or arrays and
    objects nested deeper than the decoder recurses, is noted and skipped,
    as a line of invalid JSON is.
    """
    report = IngestReport()
    # Stage id -> its tasks as plain tuples in Task's field order, in event
    # order; from_rows turns each stage's tuples into its table's columns.
    rows: Dict[str, List[tuple]] = {}
    stage_to_job: Dict[str, str] = {}

    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if not line.isascii() and _NOT_UTF8.search(line):
            report.note(line_no, "invalid JSON: not UTF-8")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            report.note(line_no, f"invalid JSON: {exc.msg}")
            continue
        except ValueError as exc:  # an integer past the interpreter's digit limit
            report.note(line_no, f"invalid JSON: {exc}")
            continue
        except RecursionError:
            report.note(line_no, "invalid JSON: nesting too deep")
            continue
        if not isinstance(event, dict):
            report.note(line_no, "event is not a JSON object")
            continue
        kind = event.get("Event")
        if kind == "SparkListenerJobStart":
            stage_ids = event.get("Stage IDs", [])
            try:
                if not isinstance(stage_ids, list):
                    raise _Unusable("Stage IDs must be a list")
                job = f"job_{_event_id(event.get('Job ID'), 'Job ID')}"
                stage_ids = [_event_id(sid, "each of Stage IDs") for sid in stage_ids]
            except _Unusable as exc:
                report.note(line_no, f"unusable job-start event: {exc}")
                continue
            stage_to_job.update(dict.fromkeys(stage_ids, job))
            continue
        if kind != "SparkListenerTaskEnd":
            report.skipped_events += 1
            continue
        try:
            info = event["Task Info"]
            launch = _event_int(info["Launch Time"], "Launch Time")
            finish = _event_int(info["Finish Time"], "Finish Time")
            metrics = event.get("Task Metrics", {}) or {}
            data_size = _event_int(metrics.get("Input Metrics", {}).get("Bytes Read", 0),
                                   "Bytes Read")
            reason = event.get("Task End Reason", {}).get("Reason", "Success")
            host = info.get("Host") or metrics.get("Host Name")
            if type(host) is not str or not host:
                raise _Unusable("Host must be a non-empty string")
            stage_id = _event_id(event["Stage ID"], "Stage ID")
            task_id = _event_id(info["Task ID"], "Task ID")
            locality, failed = info.get("Locality", "UNKNOWN"), info.get("Failed", False)
            if type(locality) is not str:
                raise _Unusable("Locality must be a string")
            if type(failed) is not bool:
                raise _Unusable("Failed must be true or false")
            row = (task_id, host, launch, finish, parse_locality(locality), data_size,
                   reason == "Success" and not failed)
        except _Unusable as exc:
            report.note(line_no, f"unusable task-end event: {exc}")
            continue
        except (AttributeError, KeyError, TypeError) as exc:
            report.note(line_no, f"unusable task-end event: {exc!r}")
            continue
        bounded = (launch, finish, data_size)
        if min(bounded) < 0 or max(bounded) >= TASK_INT_BOUND:
            name = next(n for n, v in zip(("launch_time", "finish_time", "data_size"), bounded)
                        if not 0 <= v < TASK_INT_BOUND)
            report.note(line_no, f"unusable task-end event: {name} outside [0, 2**53)")
        elif finish < launch:
            report.note(line_no, "task finishes before it launches")
        else:
            rows.setdefault(stage_id, []).append(row)

    if not rows:
        raise IngestError("no tasks: the event stream held no usable task-end events")

    jobs: Dict[str, Job] = {}
    cluster = set()
    for stage_id in sorted(rows, key=_id_order):
        job_id = stage_to_job.get(stage_id, "job_0")
        stage = Stage(stage_id=stage_id, tasks=TaskTable.from_rows(rows[stage_id]))
        jobs.setdefault(job_id, Job(job_id=job_id)).stages.append(stage)
        cluster.update(stage.tasks.nodes)

    order = sorted(jobs, key=lambda job_id: _id_order(job_id.removeprefix("job_")))
    trace = Trace(cluster=sorted(cluster), jobs=[jobs[k] for k in order])
    return trace, report


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


def _read_digits(
    data: bytes, row_cells: np.ndarray, bounds: np.ndarray, other: np.ndarray, width: int
) -> Optional[np.ndarray]:
    """The int64 rows of the digit lines, `row_cells` cells each, read by
    one np.fromstring call with the other lines `other` cut out (line i is
    data[bounds[i]:bounds[i + 1]]); or None where the scan, which raises on
    none of them, would not read float()'s rows: cell counts that differ
    between rows, not rows x `width` cells, or a value of 2**63 - 1,
    strtoll's for a cell above int64."""
    if len(other):
        cuts = [0, *np.column_stack((bounds[other], bounds[other + 1])).ravel().tolist(), len(data)]
        data = b"".join(data[a:b] for a, b in zip(cuts[::2], cuts[1::2]))
    cells = np.fromstring(data, dtype=np.int64, sep=" ")
    saturated = (cells == 2**63 - 1).any()
    if saturated or (row_cells != row_cells[0]).any() or cells.size != len(row_cells) * width:
        return None
    return cells.reshape(len(row_cells), width)


def _read_text(
    text: str, columns: Sequence[str], schema: str, report: IngestReport
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row of text.split("\n") in line order, with its line number.

    Digit rows are read by _read_digits (an int64 table), every other line by
    _read_lines. Where _read_digits refuses the file, every line is read by
    _read_lines, so the first wrong-width line and each note come out as they
    would line by line.
    """
    data = (text + "\n").encode("utf-8", "surrogatepass")
    raw = np.frombuffer(data, dtype=np.uint8)
    newline = raw == ord("\n")
    # Every line holds at least its "\n", so none is empty.
    bounds = np.concatenate(([0], np.flatnonzero(newline) + 1))
    # A line of digits and blanks ("\n", space, tab) alone is a digit row,
    # read as int64: float() of a digit string and the int64 -> float64 cast
    # both round to nearest, ties to even, and with no sign no cell is -0. A
    # line with any other byte is read by float() alone.
    digit_byte = raw - np.uint8(ord("0")) < 10  # bytes below "0" wrap above 9
    plain = digit_byte | newline
    plain |= raw == ord(" ")
    plain |= raw == ord("\t")
    other = np.empty(0, dtype=np.intp)
    if not plain.all():
        other = np.unique(bounds.searchsorted(np.flatnonzero(~plain), "right") - 1)
    del plain, newline
    # A cell ends at a digit that a non-digit follows. The mask spans every
    # byte, so a last line of "\n" alone starts inside it; that "\n" ends no
    # cell.
    cell_end = np.zeros(len(raw), dtype=bool)
    np.greater(digit_byte[:-1], digit_byte[1:], out=cell_end[:-1])
    del digit_byte
    # uint32 counts take half the time of int64 and wrap at 2**32 cells in a
    # line. reduceat casts the whole mask to them, 4 bytes a byte, so that
    # copy is a parse's peak: the other masks are freed before it.
    row_cells = np.add.reduceat(cell_end, bounds[:-1], dtype=np.uint32)
    row_cells[other] = 0
    digit = np.flatnonzero(row_cells)
    table = np.empty((0, len(columns)))
    if len(digit):  # the guards compare each digit row with the first
        table = _read_digits(data, row_cells[digit], bounds, other, len(columns))
    if table is None:
        return _read_lines(enumerate(text.split("\n"), start=1), columns, schema, report)
    numbered = [(i + 1, data[bounds[i] : bounds[i + 1] - 1].decode("utf-8", "surrogatepass"))
                for i in other.tolist()]
    rows, line_nos = _read_lines(numbered, columns, schema, report)
    if not len(rows):
        return table, digit + 1
    line_nos = np.concatenate([digit + 1, line_nos])
    order = np.argsort(line_nos, kind="stable")
    return np.concatenate([table, rows])[order], line_nos[order]


def parse_metric_file(
    lines: Union[str, Iterable[str]], schema: str
) -> Tuple[MetricStore, IngestReport]:
    """Parse one node's raw counter dump into a block of timestamp-ordered rows.

    `lines` is the file's text, whose lines are its "\n"-separated pieces,
    or an iterable of its lines, each read as one line: an inner "\n"
    separates cells as a space does. `ingest_raw` passes text; the iterable
    form is kept only for perfbench/spans.py:185, which passes an open file.

    The block is a MetricStore whose columns are the schema's counters (its
    node is left empty: the file name names it), so len(block) is the number
    of rows kept. Timestamps below 1e12 are seconds and become milliseconds,
    rounded half to even. Duplicate timestamps keep the last row read. A
    column-count mismatch is a hard error; a cell float() cannot read, a
    non-finite cell, or a timestamp outside int64 milliseconds, only skips
    that line.
    """
    if schema not in _SCHEMAS:
        raise IngestError(f"unknown metric schema {schema!r} (expected system|architecture)")
    columns, counters = _SCHEMAS[schema]
    report = IngestReport()
    if not isinstance(lines, str):
        lines = "\n".join(
            (line[:-1] if line.endswith("\n") else line).replace("\n", " ") for line in lines
        )
    table, line_nos = _read_text(lines, columns, schema, report)

    # A NaN would read as a missing metric in the trace's store.
    finite = np.ones(len(table), dtype=bool)
    if table.dtype != np.int64:  # an int64 table holds no NaN
        finite = np.isfinite(table).all(axis=1)
    # Epoch seconds are ~1.5e9, epoch ms ~1.5e12; treat small values as seconds.
    ms = np.rint(np.where(np.abs(table[:, 0]) < 1e12, table[:, 0] * 1000.0, table[:, 0]))
    # Checked before the cast, which would wrap silently.
    in_range = (ms >= -(2.0**63)) & (ms < 2.0**63)
    for i in np.flatnonzero(~(finite & in_range)).tolist():
        report.note(int(line_nos[i]), "timestamp out of range" if finite[i] else "non-finite cell")
    report.errors.sort(key=lambda error: error[0])

    kept = np.flatnonzero(finite & in_range)
    if len(kept) < len(table) or not (ms[1:] > ms[:-1]).all():
        # Read backwards, the first row of each timestamp is the last one in the file.
        ms, first = np.unique(ms[kept[::-1]], return_index=True)
        table = table[kept[::-1][first]]
    values = table[:, 1:].T.astype(np.float64, order="C")
    return MetricStore("", ms.astype(np.int64), counters, values), report


_BUSY = ("usr", "nice", "sys", "irq", "softirq")
_CPU = _BUSY + ("iowait", "idle")
# The families, each (metric, counter[, scale]) in METRIC_SCHEMA order.
_BANDS = (
    ("weighted_io", "io_time_weighted", 1.0),
    ("diskR_band", "read_sectors", float(SECTOR_BYTES)),
    ("diskW_band", "write_sectors", float(SECTOR_BYTES)),
    ("netS_band", "sbytes", 1.0),
    ("netR_band", "rbytes", 1.0),
)
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
    with np.errstate(all="ignore"):
        delta = np.diff(counters, axis=1)
        wrapped = delta < 0
        # Each metric's values and the wrapped counters that void them, one
        # family of metrics to an array operation.
        if schema == "system":
            # Added left to right from 0, usr first: the float order is pinned.
            busy = sum(delta[col[n]] for n in _BUSY)
            total = busy + delta[col["iowait"]] + delta[col["idle"]]
            cpu_wrapped = wrapped[[col[n] for n in _CPU]].any(axis=0)
            mem_total = counters[col["mem_total"], 1:]
            free = sum(counters[col[n], 1:] for n in ("free", "buffers", "cached"))
            bands, band_counters, scale = zip(*_BANDS)
            at = [col[c] for c in band_counters]
            names = ("cpu_usage", "mem_usage", "ioWaitRatio") + bands
            values = [
                np.where(total != 0, busy / total, 0.0),
                np.where(mem_total > 0, 1.0 - free / mem_total, np.nan),
                np.where(total != 0, delta[col["iowait"]] / total, 0.0),
                delta[at] * np.array(scale)[:, None] / dt,
            ]
            voided = [cpu_wrapped, np.zeros_like(cpu_wrapped), cpu_wrapped, wrapped[at]]
        else:
            d_ins, d_cycle = delta[col["ins"]], delta[col["cycle"]]
            mpki, mpki_counters = zip(*_MPKI)
            mix, mix_counters = zip(*_MIX)
            mpki_at = [col[c] for c in mpki_counters]
            mix_at = [col[c] for c in mix_counters]
            names = ("IPC",) + mpki + mix
            values = [
                np.where(d_cycle != 0, d_ins / d_cycle, np.nan),
                np.where(d_ins != 0, delta[mpki_at] * 1000.0 / d_ins, np.nan),
                np.where(d_ins != 0, delta[mix_at] / d_ins, np.nan),
            ]
            ins_wrapped = wrapped[col["ins"]]
            voided = [ins_wrapped | wrapped[col["cycle"]], wrapped[mpki_at] | ins_wrapped,
                      wrapped[mix_at] | ins_wrapped]
        values = np.vstack(values)
    missing = ~np.isfinite(values)
    if wrap_detection:
        missing |= np.vstack(voided)
    keep = ~missing.all(axis=1)
    values[missing] = np.nan
    return MetricStore(
        node=node,
        timestamps=block.timestamps[1:],
        # From a list: tuple() of a generator resizes its tuple, so CPython's
        # free list of the final size would grow on every call.
        columns=tuple([name for name, kept in zip(names, keep.tolist()) if kept]),
        values=values if keep.all() else values[keep],
    )


def _join(derived: Dict[str, List[MetricStore]]) -> List[ClockGroup]:
    """Each node's stores as one series on the union of their timestamps,
    NaN where a store has no row; a node's stores report disjoint metrics.
    Nodes that end with one column layout and one timestamp vector are the
    rows of one clock group, built on the nodes x metrics x samples block
    they are written into."""
    shapes = {}
    for node, stores in derived.items():
        clock = stores[0].timestamps
        if not all(np.array_equal(s.timestamps, clock) for s in stores[1:]):
            clock = np.unique(np.concatenate([s.timestamps for s in stores]))
        shapes[node] = (metric_columns(c for s in stores for c in s.columns), clock)
    shared: Dict[tuple, List[str]] = {}
    for node, (columns, timestamps) in shapes.items():
        shared.setdefault((columns, timestamps.tobytes()), []).append(node)
    groups = []
    for (columns, _), nodes in shared.items():
        timestamps = shapes[nodes[0]][1]
        block = np.full((len(nodes), len(columns), len(timestamps)), np.nan)
        for node, values in zip(nodes, block):
            for store in derived[node]:
                rows = [columns.index(name) for name in store.columns]
                # Distinct timestamps within the union: as many means the same.
                if len(store) == len(timestamps):
                    values[rows] = store.values
                else:
                    values[np.ix_(rows, timestamps.searchsorted(store.timestamps))] = store.values
        groups.append(ClockGroup(nodes, columns, timestamps, block))
    return groups


_METRIC_FILE_RE = re.compile(r"^(?P<node>.+)\.(?P<schema>system|arch)\.tsv$")


def ingest_raw(
    event_log_path: str, metrics_dir: Optional[str] = None, wrap_detection: bool = True
) -> Tuple[Trace, IngestReport]:
    """Build a full canonical trace from an event log plus a metric-file dir.

    Metric files follow the <node>.<system|arch>.tsv naming pattern; system
    and architecture samples for one node are merged by timestamp. Every
    file is read as UTF-8: a byte that is not UTF-8 makes its counter row a
    row with a non-numeric cell and its event line a note.
    """
    with open(event_log_path, encoding="utf-8", errors="surrogateescape") as fh:
        trace, report = parse_spark_event_log(fh)

    if metrics_dir:
        derived: Dict[str, List[MetricStore]] = {}
        for name in sorted(os.listdir(metrics_dir)):
            match = _METRIC_FILE_RE.match(name)
            if not match:
                continue
            node = match.group("node")
            schema = "architecture" if match.group("schema") == "arch" else "system"
            with open(os.path.join(metrics_dir, name), encoding="utf-8",
                      errors="surrogateescape") as fh:
                block, sub_report = parse_metric_file(fh.read(), schema)
            report.errors.extend((ln, f"{name}: {msg}") for ln, msg in sub_report.errors)
            store = derive_series(block, schema, node, wrap_detection=wrap_detection)
            if len(store):
                derived.setdefault(node, []).append(store)
        trace.metrics = _join(derived)
        trace.cluster = sorted(set(trace.cluster) | set(derived))
    return trace, report
