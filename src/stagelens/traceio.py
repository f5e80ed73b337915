"""On-disk trace format: a directory of line-delimited JSON files.

One file per entity kind (meta, jobs, stages, tasks, metrics), each starting
with a schema-version header line. Output is deterministic: entities are
sorted, keys are sorted, floats use repr round-tripping.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .model import Job, Locality, MetricStore, Stage, Task, Trace, metric_columns

SCHEMA_VERSION = "stagelens-trace/1"

_FILES = ("meta", "jobs", "stages", "tasks", "metrics")


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


def _metric_lines(node: str, store: MetricStore) -> Iterator[str]:
    """The store's rows as `_dumps` would write {node, timestamp, values},
    leaving out missing (NaN) cells, formatted without building dicts."""
    order = sorted(range(len(store.columns)), key=store.columns.__getitem__)
    keys = [json.dumps(store.columns[i]) for i in order]
    head = '{"node":' + json.dumps(node) + ',"timestamp":'
    for ts, row in zip(store.timestamps.tolist(), store.values[order].T.tolist()):
        cells = ",".join(f"{k}:{v!r}" for k, v in zip(keys, row) if v == v)
        yield f"{head}{ts},\"values\":{{{cells}}}}}"


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace directory; two saves of the same trace are byte-identical.

    Clock offsets are recorded as already applied, so a reload never
    re-adjusts timestamps.
    """
    problems = trace.validate()
    if problems:
        raise TraceValidationError(problems)
    os.makedirs(path, exist_ok=True)

    meta = [
        {
            "cluster": sorted(trace.cluster),
            "clock_offsets": {k: trace.clock_offsets[k] for k in sorted(trace.clock_offsets)},
            "offsets_applied": True,
        }
    ]
    _write_entity_file(os.path.join(path, "meta.jsonl"), "meta", map(_dumps, meta))

    jobs = sorted(trace.jobs, key=lambda j: j.job_id)
    _write_entity_file(
        os.path.join(path, "jobs.jsonl"), "jobs", (_dumps({"job_id": j.job_id}) for j in jobs)
    )
    stage_rows = []
    task_rows = []
    for job in jobs:
        for stage in sorted(job.stages, key=lambda s: s.stage_id):
            stage_rows.append({"stage_id": stage.stage_id, "job_id": job.job_id})
            for task in sorted(stage.tasks, key=lambda t: (t.task_id,)):
                task_rows.append(
                    {
                        "task_id": task.task_id,
                        "stage_id": task.stage_id,
                        "node": task.node,
                        "launch_time": task.launch_time,
                        "finish_time": task.finish_time,
                        "locality": task.locality.value,
                        "data_size": task.data_size,
                        "succeeded": task.succeeded,
                    }
                )
    _write_entity_file(os.path.join(path, "stages.jsonl"), "stages", map(_dumps, stage_rows))
    _write_entity_file(os.path.join(path, "tasks.jsonl"), "tasks", map(_dumps, task_rows))
    _write_entity_file(
        os.path.join(path, "metrics.jsonl"),
        "metrics",
        (line for node in sorted(trace.metrics) for line in _metric_lines(node, trace.metrics[node])),
    )


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed")


# JSON admits NaN and +-Infinity tokens; a metric value must be finite.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read_entity_file(path: str, entity: str) -> Iterator[Tuple[int, dict]]:
    """The records after the header, each with its line number in the file,
    decoded one line at a time."""
    if not os.path.exists(path):
        raise TraceParseError(path, 0, "file missing from trace directory")
    with open(path, encoding="utf-8") as fh:
        line_no = 0
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line and line_no > 1:
                continue
            try:
                record = _DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            except ValueError as exc:
                raise TraceParseError(path, line_no, str(exc)) from exc
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


def _check_finite(buffers, path: str) -> None:
    """Reject the first line (in file order) that holds a non-finite value,
    such as an overflowing 1e999: NaN in a store means missing."""
    bad_lines = []
    for layouts in buffers.values():
        for keys, (_, vals, lines) in layouts.items():
            bad = np.flatnonzero(~np.isfinite(np.frombuffer(vals)))
            if bad.size:
                bad_lines.append(lines[int(bad[0]) // len(keys)])
    if bad_lines:
        raise TraceParseError(path, min(bad_lines), "metric values must be finite numbers")


def _node_store(node: str, layouts) -> MetricStore:
    """One node's store from its per-layout buffers, rows in timestamp order
    (file order among equal timestamps, which validate then reports)."""
    columns = metric_columns(k for keys in layouts for k in keys)
    index = {c: i for i, c in enumerate(columns)}
    n = sum(len(ts) for ts, _, _ in layouts.values())
    timestamps = np.empty(n, dtype=np.int64)
    line_nos = np.empty(n, dtype=np.int64)
    block = np.full((len(columns), n), np.nan)
    at = 0
    for keys, (ts, vals, lines) in layouts.items():
        end = at + len(ts)
        timestamps[at:end] = np.frombuffer(ts, dtype=np.int64)
        line_nos[at:end] = np.frombuffer(lines, dtype=np.int64)
        if keys:
            block[[index[k] for k in keys], at:end] = np.frombuffer(vals).reshape(-1, len(keys)).T
        at = end
    order = np.lexsort((line_nos, timestamps))
    return MetricStore(node, timestamps[order], columns, block[:, order])


def load_trace(path: str) -> Trace:
    """Read a trace directory, applying any not-yet-applied clock offsets."""
    if not os.path.isdir(path):
        raise TraceParseError(path, 0, "trace path is not a directory")

    meta_path = os.path.join(path, "meta.jsonl")
    meta_rows = list(_read_entity_file(meta_path, "meta"))
    if len(meta_rows) != 1:
        raise TraceParseError(meta_path, 0, "meta file must hold exactly one record")
    meta_line, meta = meta_rows[0]
    cluster = list(_require(meta, "cluster", meta_path, meta_line))
    offsets = {str(k): int(v) for k, v in meta.get("clock_offsets", {}).items()}
    applied = bool(meta.get("offsets_applied", False))

    def shift_task(node: str, ts: int) -> int:
        return ts if applied else ts + offsets.get(node, 0)

    jobs_path = os.path.join(path, "jobs.jsonl")
    job_rows = _read_entity_file(jobs_path, "jobs")
    jobs: Dict[str, Job] = {}
    for line_no, row in job_rows:
        job_id = str(_require(row, "job_id", jobs_path, line_no))
        jobs[job_id] = Job(job_id=job_id)

    stages_path = os.path.join(path, "stages.jsonl")
    stage_rows = _read_entity_file(stages_path, "stages")
    stages: Dict[str, Stage] = {}
    for line_no, row in stage_rows:
        stage_id = str(_require(row, "stage_id", stages_path, line_no))
        job_id = str(_require(row, "job_id", stages_path, line_no))
        if job_id not in jobs:
            raise TraceParseError(stages_path, line_no, f"stage references unknown job {job_id!r}")
        if stage_id in stages:
            raise TraceParseError(stages_path, line_no, f"duplicate stage_id {stage_id!r}")
        stage = Stage(stage_id=stage_id, job_id=job_id)
        stages[stage_id] = stage
        jobs[job_id].stages.append(stage)

    tasks_path = os.path.join(path, "tasks.jsonl")
    for line_no, row in _read_entity_file(tasks_path, "tasks"):
        stage_id = str(_require(row, "stage_id", tasks_path, line_no))
        if stage_id not in stages:
            raise TraceParseError(
                tasks_path, line_no, f"task references unknown stage {stage_id!r}"
            )
        node = str(_require(row, "node", tasks_path, line_no))
        try:
            launch = int(_require(row, "launch_time", tasks_path, line_no))
            finish = int(_require(row, "finish_time", tasks_path, line_no))
            task = Task(
                task_id=str(_require(row, "task_id", tasks_path, line_no)),
                stage_id=stage_id,
                node=node,
                launch_time=shift_task(node, launch),
                finish_time=shift_task(node, finish),
                locality=Locality(row.get("locality", "UNKNOWN")),
                data_size=int(row.get("data_size", 0)),
                succeeded=bool(row.get("succeeded", True)),
            )
        except (TypeError, ValueError) as exc:
            raise TraceParseError(tasks_path, line_no, f"bad task record: {exc}") from exc
        stages[stage_id].tasks.append(task)

    metrics_path = os.path.join(path, "metrics.jsonl")
    # node -> the tuple of value keys a row carries -> flat buffers of its
    # rows' timestamps, values (row after row) and line numbers.
    buffers: Dict[str, Dict[Tuple[str, ...], Tuple[array, array, array]]] = {}
    for line_no, row in _read_entity_file(metrics_path, "metrics"):
        node = str(_require(row, "node", metrics_path, line_no))
        values = _require(row, "values", metrics_path, line_no)
        if not isinstance(values, dict):
            raise TraceParseError(metrics_path, line_no, "values must be a metric->number map")
        layouts = buffers.setdefault(node, {})
        keys = tuple(values)
        rows = layouts.get(keys)
        if rows is None:
            rows = layouts[keys] = (array("q"), array("d"), array("q"))
        try:
            rows[0].append(shift_task(node, int(_require(row, "timestamp", metrics_path, line_no))))
            rows[1].fromlist(list(values.values()))
        except (TypeError, ValueError, OverflowError) as exc:
            raise TraceParseError(metrics_path, line_no, f"bad metric record: {exc}") from exc
        rows[2].append(line_no)
    _check_finite(buffers, metrics_path)
    metrics = {node: _node_store(node, layouts) for node, layouts in buffers.items()}

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
