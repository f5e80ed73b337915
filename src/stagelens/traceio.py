"""On-disk trace format: a directory of line-delimited JSON files plus
three .npy columns, one for the task numbers and two for the metric series.

This module owns how stagelens reads and writes its JSON lines: the trace
files and the simulator's labels file share the header, line and token
rules of `_read_entity_file` and `_write_entity_file`, each with its own
schema, and every JSON document is encoded by `_dumps`.

One JSON file per entity kind (meta, jobs, stages, tasks, metrics), each
starting with a schema-version header line. `tasks.jsonl` is the index of
each stage's tasks, whose numbers sit in `tasks.values.npy`. `metrics.jsonl`
is the index of the series: one line per clock group, its column layout,
its nodes and its sample count. `metrics.timestamps.npy` holds each line's
clock once, in line order, and `metrics.values.npy` each node's block, node
by node in index order. Output is deterministic: entities are sorted, keys
are sorted, a trace's groups are merged by layout and clock, and every
missing value is the one canonical NaN.

`meta.jsonl` may declare per-node clock offsets. The loader adds each
node's offset to its task and metric times, once, so a loaded trace is on
one clock and holds no offsets; a save writes none. A loaded trace's series
are clock groups (see `model`) whose blocks are views of the two column
files, one per index line; a line splits only by the values of its nodes'
offsets. Each group checks its series; the loader fails at the
`metrics.jsonl` line of the first node in index order that a group refuses
or whose offset would move its timestamps out of int64. `Trace.validate`
then checks the rest: the hierarchy, and that each indexed node is in the
cluster. A save makes no check of its own: it refuses a trace whose
`validate()` lists a problem."""

from __future__ import annotations

import json
import os
from contextlib import suppress
from typing import BinaryIO, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from .model import (
    TASK_INT_BOUND,
    ClockGroup,
    ClockGroups,
    Job,
    MetricSeriesError,
    Stage,
    TaskTable,
    TaskTableError,
    Trace,
    canonical_nan,
    metric_columns,
)

SCHEMA_VERSION = "stagelens-trace/6"

# The column files: file name and little-endian dtype of each.
_TASK_VALUES = ("tasks.values.npy", "<i8")
# The rows of one stage's block in tasks.values.npy, `count` values each.
_TASK_ROWS = ("launch_time", "finish_time", "data_size", "node", "locality", "succeeded")
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


def _write_entity_file(path: str, schema: str, entity: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"schema": schema, "entity": entity}) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _npy_header(dtype: str, length: int) -> bytes:
    """The header np.save writes for a 1-D array of `length` values: the
    magic string, format version 1.0 and the 2-byte little-endian length of
    the header dict, whose text is padded with spaces to end in a newline
    at a multiple of 64 bytes. (numpy leaves room for a 21-digit length,
    which pads every int64 length to the same 128 bytes as this does.)"""
    text = f"{{'descr': '{dtype}', 'fortran_order': False, 'shape': ({length},), }}"
    header = text + " " * (-(10 + len(text) + 1) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header.encode()


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
    A trace's times are on one clock, so a save writes no clock offsets."""
    problems = trace.validate()
    if problems:
        raise TraceValidationError(problems)
    jobs = sorted(trace.jobs, key=lambda j: j.job_id)
    stage_rows = [
        {"stage_id": stage.stage_id, "job_id": job.job_id}
        for job in jobs
        for stage in sorted(job.stages, key=lambda s: s.stage_id)
    ]
    os.makedirs(path, exist_ok=True)

    def write(entity: str, lines: Iterable[str]) -> None:
        _write_entity_file(os.path.join(path, f"{entity}.jsonl"), SCHEMA_VERSION, entity, lines)

    write("meta", [_dumps({"cluster": sorted(trace.cluster)})])
    write("jobs", (_dumps({"job_id": j.job_id}) for j in jobs))
    write("stages", map(_dumps, stage_rows))
    tables = [
        (stage.stage_id, stage.tasks.sorted_by_id())
        for job in jobs
        for stage in sorted(job.stages, key=lambda s: s.stage_id)
        if len(stage.tasks)
    ]
    write(
        "tasks",
        (
            _dumps({"count": len(t), "nodes": list(t.nodes), "stage_id": stage_id,
                    "task_ids": list(t.task_id)})
            for stage_id, t in tables
        ),
    )
    _write_npy(
        path,
        _TASK_VALUES,
        len(_TASK_ROWS) * sum(len(t) for _, t in tables),
        (np.concatenate([getattr(t, row) for row in _TASK_ROWS], dtype=np.int64)
         for _, t in tables),
    )
    # One index line per clock group: the groups' rows merged by column
    # layout and timestamps, each line's nodes sorted, lines in order of
    # their first node.
    merged: Dict[Tuple[Tuple[str, ...], bytes], Tuple[ClockGroup, list]] = {}
    for group in trace.metrics.groups:
        if len(group.timestamps):
            key = (group.columns, group.timestamps.tobytes())
            merged.setdefault(key, (group, []))[1].extend(zip(group.nodes, group.values))
    index = sorted(
        ((group, sorted(rows, key=lambda row: row[0])) for group, rows in merged.values()),
        key=lambda line: line[1][0][0],
    )
    write(
        "metrics",
        (
            _dumps({"columns": list(group.columns), "nodes": [node for node, _ in rows],
                    "samples": len(group.timestamps)})
            for group, rows in index
        ),
    )
    _write_npy(path, _TIMESTAMPS, sum(len(group.timestamps) for group, _ in index),
               (group.timestamps for group, _ in index))
    # One NaN bit pattern for every missing value, so payloads never reach
    # the bytes.
    blocks = [block for _, rows in index for _, block in rows]
    _write_npy(path, _VALUES, sum(block.size for block in blocks), map(canonical_nan, blocks))


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed")


# JSON admits NaN and +-Infinity tokens; no trace field takes them.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _open(path: str) -> BinaryIO:
    """A trace file, opened for reading; opening is the only check that it
    is there and is a file."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise TraceParseError(path, 0, "file missing from trace directory") from None
    except IsADirectoryError:
        raise TraceParseError(path, 0, "a directory stands in place of the file") from None


def _read_entity_file(path: str, schema: str, entity: str) -> Iterator[Tuple[int, dict]]:
    """The records after the `schema` and `entity` header, each with its
    line number in the file, decoded one line at a time."""
    decode = _DECODER.raw_decode
    with _open(path) as fh:
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
            except RecursionError:
                raise TraceParseError(path, line_no, "invalid JSON: nesting too deep") from None
            except ValueError as exc:
                raise TraceParseError(path, line_no, str(exc)) from exc
            if end != len(text):
                raise TraceParseError(path, line_no, "invalid JSON: Extra data")
            if not isinstance(record, dict):
                raise TraceParseError(path, line_no, "record must be a JSON object")
            if line_no == 1:
                if record.get("schema") != schema:
                    raise TraceParseError(path, 1, f"schema header must declare {schema!r}")
                if record.get("entity") != entity:
                    raise TraceParseError(
                        path, 1, f"entity header must be {entity!r}, got {record.get('entity')!r}"
                    )
                continue
            yield line_no, record
    if line_no == 0:
        raise TraceParseError(path, 1, f"schema header must declare {schema!r}")


def _require(record: dict, key: str, path: str, line_no: int):
    if key not in record:
        raise TraceParseError(path, line_no, f"missing required field {key!r}")
    return record[key]


def _index_line(record: dict, path: str, line_no: int) -> Tuple[Tuple[str, ...], list, int]:
    """One metrics.jsonl line: a clock group's column layout in store order,
    its nodes and its sample count."""
    columns = _require(record, "columns", path, line_no)
    nodes = _require(record, "nodes", path, line_no)
    samples = _require(record, "samples", path, line_no)
    if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
        raise TraceParseError(path, line_no, "columns must be a list of metric names")
    if tuple(columns) != metric_columns(columns):
        raise TraceParseError(path, line_no, "columns must be distinct and in store order")
    if not isinstance(nodes, list):
        raise TraceParseError(path, line_no, "nodes must be a list of node names")
    if not nodes:
        raise TraceParseError(path, line_no, "nodes must list at least one node")
    if type(samples) is not int or samples < 0:
        raise TraceParseError(path, line_no, "samples must be a non-negative integer")
    if not set(map(type, nodes)) <= {str}:
        node = next(n for n in nodes if type(n) is not str)
        raise TraceParseError(path, line_no, f"node {node!r}: node must be a string")
    return metric_columns(columns), nodes, samples


def _read_npy(trace_dir: str, column: Tuple[str, str], length: int) -> np.ndarray:
    """The 1-D array of `length` values that save_trace wrote to a column file.

    The header is checked against the one np.save writes for that array (any
    padding) and the file size against the header, before anything is
    allocated: a corrupt header cannot make the loader unpickle or allocate.
    """
    name, dtype = column
    path = os.path.join(trace_dir, name)
    want = _npy_header(dtype, length)
    with _open(path) as fh:
        head = fh.read(10)  # magic string, version, header length
        header = fh.read(int.from_bytes(head[8:], "little")) if len(head) == 10 else b""
        if head[:8] != want[:8] or header.rstrip() != want[10:].rstrip():
            raise TraceParseError(
                path, 0, f"not a 1-D {np.dtype(dtype).name} .npy array of the "
                f"{length} values its index lists"
            )
        data = os.fstat(fh.fileno()).st_size - fh.tell()
        if data != length * np.dtype(dtype).itemsize:
            raise TraceParseError(
                path, 0, f"holds {data} data bytes, its header gives {length} values"
            )
        return np.fromfile(fh, dtype=dtype, count=length)


def _task_entry(
    record: dict, path: str, line_no: int, stages: Dict[str, Stage]
) -> Tuple[str, list, list]:
    """One tasks.jsonl line: stage id, task ids and node names. TaskTable
    checks the ids and names when the stage's numbers are read."""
    stage_id = _require(record, "stage_id", path, line_no)
    if type(stage_id) is not str:
        raise TraceParseError(path, line_no, "stage_id must be a string")
    if stage_id not in stages:
        raise TraceParseError(path, line_no, f"tasks reference unknown stage {stage_id!r}")
    count = _require(record, "count", path, line_no)
    if type(count) is not int or count < 0:
        raise TraceParseError(path, line_no, "count must be a non-negative integer")
    ids = _require(record, "task_ids", path, line_no)
    if not (isinstance(ids, list) and len(ids) == count):
        raise TraceParseError(path, line_no, f"task_ids must be a list of {count} task ids")
    nodes = _require(record, "nodes", path, line_no)
    if not isinstance(nodes, list):
        raise TraceParseError(path, line_no, "nodes must be a list of node names")
    return stage_id, ids, nodes


def _task_table(
    block: np.ndarray, ids: list, nodes: list, offsets: Dict[str, int], path: str, line_no: int,
) -> TaskTable:
    """One stage's tasks from its tasks.values.npy rows (_TASK_ROWS), with
    its nodes' clock offsets added."""
    launch, finish, size, node, locality, succeeded = block
    try:
        flags = (succeeded != 0) & (succeeded != 1)
        if flags.any():
            i = int(np.flatnonzero(flags)[0])
            raise TaskTableError(f"task {ids[i]}: succeeded {succeeded[i]} is not 0 or 1")
        tasks = TaskTable(ids, node, launch, finish, locality, size, succeeded == 1, nodes=nodes)
    except TaskTableError as exc:
        raise TraceParseError(path, line_no, str(exc)) from exc
    shift = [offsets.get(n, 0) for n in tasks.nodes] if offsets else ()
    if not any(shift):
        return tasks
    # Offsets lie in int64 and times in [0, 2**53), so a clipped offset moves
    # a time out of range exactly when the offset does, and never wraps.
    shift = np.clip(np.array(shift, np.int64), -TASK_INT_BOUND, TASK_INT_BOUND)[tasks.node]
    launch, finish = tasks.launch_time + shift, tasks.finish_time + shift
    flags = (np.minimum(launch, finish) < 0) | (np.maximum(launch, finish) >= TASK_INT_BOUND)
    if flags.any():
        i = int(np.flatnonzero(flags)[0])
        offset = offsets[tasks.nodes[tasks.node[i]]]
        raise TraceParseError(
            path, line_no, f"clock offset {offset} moves task {ids[i]} out of [0, 2**53)"
        )
    return TaskTable(ids, tasks.node, launch, finish, tasks.locality, tasks.data_size,
                     tasks.succeeded, nodes=tasks.nodes)


def _clock_groups(
    nodes: list, columns: Tuple[str, ...], clock: np.ndarray, block: np.ndarray,
    offsets: Dict[str, int], path: str, line_no: int,
) -> List[ClockGroup]:
    """One metrics.jsonl line's clock group, on views of the column files, its
    clock moved by each node's offset: the nodes share the stored clock, so
    equal offsets share the moved one, and the line splits only by offset.
    Fails at the line naming its first node that breaks a rule, for the
    first it breaks: an infinite value, a timestamp that does not rise, then
    the offset. A shift moves no value and keeps the clock's order, so the
    whole line on its stored clock names that node and rule."""
    shifts = [offsets.get(node, 0) for node in nodes] if offsets else ()
    members: Dict[int, Sequence[int]] = {0: range(len(nodes))}  # shift -> rows
    outside = len(nodes)  # the first node whose offset is refused
    if any(shifts):
        low, high = (int(clock.min()), int(clock.max())) if len(clock) else (0, 0)
        members = {}
        for i, shift in enumerate(shifts):
            if not _INT64.min <= low + shift <= high + shift <= _INT64.max:
                outside = min(outside, i)
            members.setdefault(shift, []).append(i)
    if outside == len(nodes):
        with suppress(MetricSeriesError):
            groups = []
            for shift, rows in members.items():
                whole = len(rows) == len(nodes)
                groups.append(ClockGroup(nodes if whole else [nodes[i] for i in rows], columns,
                                         clock + shift if shift else clock,
                                         block if whole else block[rows]))
            return groups
    try:
        ClockGroup(nodes, columns, clock, block)
    except MetricSeriesError as exc:
        if nodes.index(exc.node) <= outside:
            rule = ("metric values must be finite numbers" if exc.rule == "infinite value"
                    else exc.rule)
            raise TraceParseError(path, line_no, f"node {exc.node!r}: {rule}") from exc
    raise TraceParseError(
        path, line_no,
        f"node {nodes[outside]!r}: clock offset {shifts[outside]} moves timestamps out of range",
    )


def load_trace(path: str) -> Trace:
    """Read a trace directory, adding each node's declared clock offset to
    its task and metric times."""
    if not os.path.isdir(path):
        raise TraceParseError(path, 0, "trace path is not a directory")

    meta_path = os.path.join(path, "meta.jsonl")
    meta_rows = list(_read_entity_file(meta_path, SCHEMA_VERSION, "meta"))
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
    known = set(cluster)
    for node in offsets:
        if node not in known:
            raise TraceParseError(meta_path, meta_line,
                                  f"clock_offsets names node {node!r}, which is not in cluster")

    jobs_path = os.path.join(path, "jobs.jsonl")
    jobs: Dict[str, Job] = {}
    for line_no, row in _read_entity_file(jobs_path, SCHEMA_VERSION, "jobs"):
        job_id = _require(row, "job_id", jobs_path, line_no)
        if type(job_id) is not str:
            raise TraceParseError(jobs_path, line_no, "bad job record: job_id must be a string")
        if job_id in jobs:
            raise TraceParseError(jobs_path, line_no, f"duplicate job_id {job_id!r}")
        jobs[job_id] = Job(job_id=job_id)

    stages_path = os.path.join(path, "stages.jsonl")
    stages: Dict[str, Stage] = {}
    for line_no, row in _read_entity_file(stages_path, SCHEMA_VERSION, "stages"):
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
        stage = Stage(stage_id=stage_id)
        stages[stage_id] = stage
        jobs[job_id].stages.append(stage)

    metrics_path = os.path.join(path, "metrics.jsonl")
    lines: List[Tuple[int, Tuple[str, ...], list, int]] = []  # line, columns, nodes, samples
    indexed: Set[str] = set()
    for line_no, row in _read_entity_file(metrics_path, SCHEMA_VERSION, "metrics"):
        columns, nodes, samples = _index_line(row, metrics_path, line_no)
        for node in nodes:
            if node in indexed:
                raise TraceParseError(metrics_path, line_no, f"duplicate node {node!r}")
            indexed.add(node)
        lines.append((line_no, columns, nodes, samples))
    timestamps = _read_npy(path, _TIMESTAMPS, sum(samples for *_, samples in lines))
    values = _read_npy(
        path, _VALUES, sum(len(columns) * len(nodes) * n for _, columns, nodes, n in lines)
    )
    groups: List[ClockGroup] = []
    t = c = 0
    for line_no, columns, nodes, samples in lines:
        size = len(nodes) * len(columns) * samples
        block = values[c : c + size].reshape(len(nodes), len(columns), samples)
        groups += _clock_groups(nodes, columns, timestamps[t : t + samples], block, offsets,
                                metrics_path, line_no)
        t, c = t + samples, c + size
    metrics = ClockGroups(groups)

    tasks_path = os.path.join(path, "tasks.jsonl")
    task_index: Dict[str, Tuple[int, list, list]] = {}
    for line_no, row in _read_entity_file(tasks_path, SCHEMA_VERSION, "tasks"):
        stage_id, ids, nodes = _task_entry(row, tasks_path, line_no, stages)
        if stage_id in task_index:
            raise TraceParseError(tasks_path, line_no, f"duplicate stage_id {stage_id!r}")
        task_index[stage_id] = (line_no, ids, nodes)
    width = len(_TASK_ROWS)
    task_values = _read_npy(
        path, _TASK_VALUES, width * sum(len(ids) for _, ids, _ in task_index.values())
    )
    at = 0
    for stage_id, (line_no, ids, nodes) in task_index.items():
        block = task_values[at : at + width * len(ids)].reshape(width, len(ids))
        at += block.size
        stages[stage_id].tasks = _task_table(block, ids, nodes, offsets, tasks_path, line_no)

    trace = Trace(cluster=sorted(cluster), jobs=[jobs[k] for k in sorted(jobs)], metrics=metrics)
    problems = trace.validate()
    if problems:
        raise TraceValidationError(problems)
    return trace
