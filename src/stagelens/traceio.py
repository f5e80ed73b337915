"""On-disk trace format: a directory of line-delimited JSON files plus two
.npy columns for the metric series.

One JSON file per entity kind (meta, jobs, stages, tasks, metrics), each
starting with a schema-version header line; `metrics.jsonl` is the index of
the series, whose timestamps and values sit back to back in
`metrics.timestamps.npy` and `metrics.values.npy`. Output is deterministic:
entities are sorted, keys are sorted, and every missing value is the one
canonical NaN.
"""

from __future__ import annotations

import io
import json
import os
from typing import Collection, Dict, Hashable, Iterable, Iterator, List, Tuple

import numpy as np

from .model import (
    Job,
    Locality,
    MetricStore,
    Stage,
    Task,
    Trace,
    checked_once,
    metric_columns,
)

SCHEMA_VERSION = "stagelens-trace/2"

# The metric columns: file name and little-endian dtype of each.
_TIMESTAMPS = ("metrics.timestamps.npy", "<i8")
_VALUES = ("metrics.values.npy", "<f8")
_INT64 = np.iinfo(np.int64)


class TraceParseError(Exception):
    """Malformed trace file; message names file, line and violated rule."""

    def __init__(self, path: str, line_no: int, rule: str):
        super().__init__(f"{path}:{line_no}: {rule}")
        self.path = path
        self.line_no = line_no
        self.rule = rule


class TraceValidationError(Exception):
    """A structurally readable trace that violates model invariants."""

    def __init__(self, problems: List[str]):
        super().__init__("trace validation failed:\n  " + "\n  ".join(problems))
        self.problems = problems


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _write_entity_file(path: str, entity: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"schema": SCHEMA_VERSION, "entity": entity}) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _npy_header(dtype: str, length: int) -> bytes:
    """The header np.save writes for a 1-D array of `length` values."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": dtype, "fortran_order": False, "shape": (length,)}
    )
    return buf.getvalue()


def _write_npy(
    path: str, column: Tuple[str, str], length: int, blocks: Iterable[np.ndarray]
) -> None:
    """The blocks, `length` values in all, back to back as one 1-D .npy
    array, made and written one at a time."""
    dtype = column[1]
    with open(os.path.join(path, column[0]), "wb") as fh:
        fh.write(_npy_header(dtype, length))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype=dtype).data)


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace directory; two saves of the same trace are byte-identical.

    Clock offsets are recorded as already applied, so a reload never
    re-adjusts timestamps.
    """
    problems = trace.validate()
    if problems:
        raise TraceValidationError(problems)
    job_of = {stage.stage_id: job.job_id for job in trace.jobs for stage in job.stages}
    task_rows = [
        # Keys in _TASK_FIELDS order, for the type test below.
        {
            "stage_id": task.stage_id,
            "node": task.node,
            "launch_time": task.launch_time,
            "finish_time": task.finish_time,
            "task_id": task.task_id,
            "locality": task.locality.value,
            "data_size": task.data_size,
            "succeeded": task.succeeded,
        }
        for stage in trace.stages()
        for task in stage.tasks
        if isinstance(task.locality, Locality)
    ]
    # A field type the loader rejects would write a trace it cannot load.
    problems = [
        f"job {job.job_id}: bad job record: job_id must be a string"
        for job in trace.jobs
        if type(job.job_id) is not str
    ]
    problems += [
        f"stage {stage_id}: bad stage record: stage_id must be a string"
        for stage_id in job_of
        if type(stage_id) is not str
    ]
    # A row holds a locality's JSON value, which a str would pass for; a task
    # without a Locality has no row.
    problems += [
        f"task {task.task_id}: bad task record: locality must be a Locality"
        for stage in trace.stages()
        for task in stage.tasks
        if not isinstance(task.locality, Locality)
    ]
    problems += [
        f"task {row['task_id']}: {_task_rule(row, job_of)}"
        for row in task_rows
        if tuple(map(type, row.values())) != _TASK_TYPES
    ]
    if problems:
        raise TraceValidationError(problems)
    task_rows.sort(key=lambda row: (job_of[row["stage_id"]], row["stage_id"], row["task_id"]))
    jobs = sorted(trace.jobs, key=lambda j: j.job_id)
    stage_rows = [
        {"stage_id": stage.stage_id, "job_id": job.job_id}
        for job in jobs
        for stage in sorted(job.stages, key=lambda s: s.stage_id)
    ]
    os.makedirs(path, exist_ok=True)

    meta = [
        {
            "cluster": sorted(trace.cluster),
            "clock_offsets": {k: trace.clock_offsets[k] for k in sorted(trace.clock_offsets)},
            "offsets_applied": True,
        }
    ]
    _write_entity_file(os.path.join(path, "meta.jsonl"), "meta", map(_dumps, meta))
    _write_entity_file(
        os.path.join(path, "jobs.jsonl"), "jobs", (_dumps({"job_id": j.job_id}) for j in jobs)
    )
    _write_entity_file(os.path.join(path, "stages.jsonl"), "stages", map(_dumps, stage_rows))
    _write_entity_file(os.path.join(path, "tasks.jsonl"), "tasks", map(_dumps, task_rows))
    stores = [trace.metrics[node] for node in sorted(trace.metrics) if len(trace.metrics[node])]
    _write_entity_file(
        os.path.join(path, "metrics.jsonl"),
        "metrics",
        (
            _dumps({"columns": list(s.columns), "node": s.node, "samples": len(s)})
            for s in stores
        ),
    )
    _write_npy(path, _TIMESTAMPS, sum(len(s) for s in stores), (s.timestamps for s in stores))
    # One NaN bit pattern for every missing value, so payloads never reach
    # the bytes.
    _write_npy(
        path,
        _VALUES,
        sum(s.values.size for s in stores),
        (np.where(np.isnan(s.values), np.nan, s.values) for s in stores),
    )


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed")


# JSON admits NaN and +-Infinity tokens; no trace field takes them.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read_entity_file(path: str, entity: str) -> Iterator[Tuple[int, dict]]:
    """The records after the header, each with its line number in the file,
    decoded one line at a time."""
    if not os.path.exists(path):
        raise TraceParseError(path, 0, "file missing from trace directory")
    decode = _DECODER.raw_decode
    with open(path, "rb") as fh:
        line_no = 0
        for line_no, line in enumerate(fh, start=1):
            # bytes.strip removes every JSON whitespace character, so the
            # text starts with a value and must end with it.
            line = line.strip()
            if not line and line_no > 1:
                continue
            try:
                text = line.decode("utf-8")
                record, end = decode(text)
            except json.JSONDecodeError as exc:
                raise TraceParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            except ValueError as exc:
                raise TraceParseError(path, line_no, str(exc)) from exc
            if end != len(text):
                raise TraceParseError(path, line_no, "invalid JSON: Extra data")
            if not isinstance(record, dict):
                raise TraceParseError(path, line_no, "record must be a JSON object")
            if line_no == 1:
                if record.get("schema") != SCHEMA_VERSION:
                    raise TraceParseError(
                        path, 1, f"schema header must declare {SCHEMA_VERSION!r}"
                    )
                if record.get("entity") != entity:
                    raise TraceParseError(
                        path, 1, f"entity header must be {entity!r}, got {record.get('entity')!r}"
                    )
                continue
            yield line_no, record
    if line_no == 0:
        raise TraceParseError(path, 1, f"schema header must declare {SCHEMA_VERSION!r}")


def _require(record: dict, key: str, path: str, line_no: int):
    if key not in record:
        raise TraceParseError(path, line_no, f"missing required field {key!r}")
    return record[key]


def _columns_rule(columns) -> str:
    """The rule a metrics.jsonl `columns` value breaks, or "" for none."""
    if not (isinstance(columns, tuple) and all(isinstance(c, str) for c in columns)):
        return "columns must be a list of metric names"
    if columns != metric_columns(columns):
        return "columns must be distinct and in store order"
    return ""


def _index_entry(
    record: dict, path: str, line_no: int, layouts: Dict[Hashable, str]
) -> Tuple[str, Tuple[str, ...], int]:
    """One metrics.jsonl line: node, its columns in store order, its sample
    count. `layouts` holds the rule each columns value already got, so a
    layout shared by many nodes is checked once."""
    node = _require(record, "node", path, line_no)
    columns = _require(record, "columns", path, line_no)
    samples = _require(record, "samples", path, line_no)
    if not isinstance(node, str):
        raise TraceParseError(path, line_no, "node must be a string")
    columns = tuple(columns) if isinstance(columns, list) else None
    rule = checked_once(layouts, columns, _columns_rule)
    if rule:
        raise TraceParseError(path, line_no, rule)
    if type(samples) is not int or samples < 0:
        raise TraceParseError(path, line_no, "samples must be a non-negative integer")
    return node, columns, samples


# A task row's fields in the order the first missing or mistyped one is
# named, each with the JSON type it must have.
_TASK_FIELDS = (
    ("stage_id", str),
    ("node", str),
    ("launch_time", int),
    ("finish_time", int),
    ("task_id", str),
    ("locality", str),
    ("data_size", int),
    ("succeeded", bool),
)
# The fields a row may leave out; Task's defaults stand in for them.
_OPTIONAL_TASK_FIELDS = frozenset(("locality", "data_size", "succeeded"))
_TASK_TYPES = tuple(kind for _, kind in _TASK_FIELDS)
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false"}
_LOCALITIES = {locality.value: locality for locality in Locality}


def _task_rule(row: dict, stages: Collection[str]) -> str:
    """The first rule a tasks.jsonl record breaks, fields taken in
    `_TASK_FIELDS` order: a missing or mistyped field, an unknown stage
    right after `stage_id`, an unknown locality right after `locality`."""
    for key, kind in _TASK_FIELDS:
        if key not in row:
            if key in _OPTIONAL_TASK_FIELDS:
                continue
            return f"missing required field {key!r}"
        value = row[key]
        if type(value) is not kind:
            return f"bad task record: {key} must be {_TYPE_NAMES[kind]}"
        if key == "stage_id" and value not in stages:
            return f"task references unknown stage {value!r}"
        if key == "locality" and value not in _LOCALITIES:
            try:
                Locality(value)
            except ValueError as exc:
                return f"bad task record: {exc}"
    raise AssertionError(f"task record breaks no rule: {row!r}")


def _read_npy(trace_dir: str, column: Tuple[str, str], length: int) -> np.ndarray:
    """The 1-D array of `length` values that save_trace wrote to a column file.

    The header is checked against the one np.save writes for that array (any
    padding) and the file size against the header, before anything is
    allocated: a corrupt header cannot make the loader unpickle or allocate.
    """
    name, dtype = column
    path = os.path.join(trace_dir, name)
    if not os.path.exists(path):
        raise TraceParseError(path, 0, "file missing from trace directory")
    want = _npy_header(dtype, length)
    with open(path, "rb") as fh:
        head = fh.read(10)  # magic string, version, header length
        header = fh.read(int.from_bytes(head[8:], "little")) if len(head) == 10 else b""
        if head[:8] != want[:8] or header.rstrip() != want[10:].rstrip():
            raise TraceParseError(
                path, 0, f"not a 1-D {np.dtype(dtype).name} .npy array of the "
                f"{length} values metrics.jsonl lists"
            )
        data = os.fstat(fh.fileno()).st_size - fh.tell()
        if data != length * np.dtype(dtype).itemsize:
            raise TraceParseError(
                path, 0, f"holds {data} data bytes, its header gives {length} values"
            )
        return np.fromfile(fh, dtype=dtype, count=length)


def load_trace(path: str) -> Trace:
    """Read a trace directory, applying any not-yet-applied clock offsets."""
    if not os.path.isdir(path):
        raise TraceParseError(path, 0, "trace path is not a directory")

    meta_path = os.path.join(path, "meta.jsonl")
    meta_rows = list(_read_entity_file(meta_path, "meta"))
    if len(meta_rows) != 1:
        raise TraceParseError(meta_path, 0, "meta file must hold exactly one record")
    meta_line, meta = meta_rows[0]
    cluster = _require(meta, "cluster", meta_path, meta_line)
    offsets = meta.get("clock_offsets", {})
    if not (isinstance(cluster, list) and all(isinstance(n, str) for n in cluster)):
        raise TraceParseError(meta_path, meta_line, "cluster must be a list of node names")
    if not (
        isinstance(offsets, dict)
        and all(type(v) is int and _INT64.min <= v <= _INT64.max for v in offsets.values())
    ):
        raise TraceParseError(
            meta_path, meta_line, "clock_offsets must map node names to integer milliseconds"
        )
    applied = meta.get("offsets_applied", False)
    if type(applied) is not bool:
        raise TraceParseError(meta_path, meta_line, "offsets_applied must be true or false")

    jobs_path = os.path.join(path, "jobs.jsonl")
    jobs: Dict[str, Job] = {}
    for line_no, row in _read_entity_file(jobs_path, "jobs"):
        job_id = _require(row, "job_id", jobs_path, line_no)
        if type(job_id) is not str:
            raise TraceParseError(jobs_path, line_no, "bad job record: job_id must be a string")
        if job_id in jobs:
            raise TraceParseError(jobs_path, line_no, f"duplicate job_id {job_id!r}")
        jobs[job_id] = Job(job_id=job_id)

    stages_path = os.path.join(path, "stages.jsonl")
    stages: Dict[str, Stage] = {}
    for line_no, row in _read_entity_file(stages_path, "stages"):
        stage_id = _require(row, "stage_id", stages_path, line_no)
        job_id = _require(row, "job_id", stages_path, line_no)
        for key, value in (("stage_id", stage_id), ("job_id", job_id)):
            if type(value) is not str:
                raise TraceParseError(
                    stages_path, line_no, f"bad stage record: {key} must be a string"
                )
        if job_id not in jobs:
            raise TraceParseError(stages_path, line_no, f"stage references unknown job {job_id!r}")
        if stage_id in stages:
            raise TraceParseError(stages_path, line_no, f"duplicate stage_id {stage_id!r}")
        stage = Stage(stage_id=stage_id, job_id=job_id)
        stages[stage_id] = stage
        jobs[job_id].stages.append(stage)

    tasks_path = os.path.join(path, "tasks.jsonl")
    for line_no, row in _read_entity_file(tasks_path, "tasks"):
        # One test of every field; _task_rule names what failed.
        stage_id = row.get("stage_id")
        node = row.get("node")
        launch = row.get("launch_time")
        finish = row.get("finish_time")
        task_id = row.get("task_id")
        locality = row.get("locality", "UNKNOWN")
        data_size = row.get("data_size", 0)
        succeeded = row.get("succeeded", True)
        if not (
            type(stage_id) is str and type(node) is str and type(task_id) is str
            and type(launch) is int and type(finish) is int and type(data_size) is int
            and type(locality) is str and type(succeeded) is bool
            and stage_id in stages and locality in _LOCALITIES
        ):
            raise TraceParseError(tasks_path, line_no, _task_rule(row, stages))
        if not applied:
            shift = offsets.get(node, 0)
            launch += shift
            finish += shift
        stages[stage_id].tasks.append(
            Task(task_id, stage_id, node, launch, finish, _LOCALITIES[locality], data_size, succeeded)
        )

    metrics_path = os.path.join(path, "metrics.jsonl")
    index: Dict[str, Tuple[int, Tuple[str, ...], int]] = {}
    layouts: Dict[Hashable, str] = {}
    for line_no, row in _read_entity_file(metrics_path, "metrics"):
        node, columns, samples = _index_entry(row, metrics_path, line_no, layouts)
        if node in index:
            raise TraceParseError(metrics_path, line_no, f"duplicate node {node!r}")
        index[node] = (line_no, columns, samples)
    timestamps = _read_npy(path, _TIMESTAMPS, sum(n for _, _, n in index.values()))
    cells = [len(c) * n for _, c, n in index.values()]
    values = _read_npy(path, _VALUES, sum(cells))
    # NaN marks a missing value, so a reported one must be finite. Blocks
    # sit in index order, so the first infinite cell is in the first node
    # that holds one.
    first_infinite = -1
    if np.isinf(values).any():
        first_cell = int(np.isinf(values).argmax())
        first_infinite = int(np.searchsorted(np.cumsum(cells), first_cell, side="right"))
    metrics: Dict[str, MetricStore] = {}
    at = cell = 0
    for i, (node, (line_no, columns, samples)) in enumerate(index.items()):
        if i == first_infinite:
            raise TraceParseError(metrics_path, line_no, "metric values must be finite numbers")
        ts = timestamps[at : at + samples]
        block = values[cell : cell + len(columns) * samples].reshape(len(columns), samples)
        at += samples
        cell += block.size
        offset = 0 if applied else offsets.get(node, 0)
        if offset and samples:
            if not (_INT64.min <= int(ts.min()) + offset and int(ts.max()) + offset <= _INT64.max):
                raise TraceParseError(
                    metrics_path, line_no, f"clock offset {offset} moves timestamps out of range"
                )
            ts = ts + offset
        metrics[node] = MetricStore(node, ts, columns, block)

    trace = Trace(
        cluster=sorted(cluster),
        jobs=[jobs[k] for k in sorted(jobs)],
        metrics=metrics,
        clock_offsets=offsets,
    )
    problems = trace.validate()
    if problems:
        raise TraceValidationError(problems)
    return trace
