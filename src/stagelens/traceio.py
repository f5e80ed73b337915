"""On-disk trace format: a directory of line-delimited JSON files.

One file per entity kind (meta, jobs, stages, tasks, metrics), each starting
with a schema-version header line. Output is deterministic: entities are
sorted, keys are sorted, floats use repr round-tripping.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from .model import Job, Locality, MetricSample, Stage, Task, Trace

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


def _write_entity_file(path: str, entity: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"schema": SCHEMA_VERSION, "entity": entity}) + "\n")
        for record in records:
            fh.write(_dumps(record) + "\n")


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
    _write_entity_file(os.path.join(path, "meta.jsonl"), "meta", meta)

    jobs = sorted(trace.jobs, key=lambda j: j.job_id)
    _write_entity_file(
        os.path.join(path, "jobs.jsonl"), "jobs", ({"job_id": j.job_id} for j in jobs)
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
    _write_entity_file(os.path.join(path, "stages.jsonl"), "stages", stage_rows)
    _write_entity_file(os.path.join(path, "tasks.jsonl"), "tasks", task_rows)

    metric_rows = []
    for node in sorted(trace.metrics):
        for sample in trace.metrics[node]:
            metric_rows.append(
                {
                    "node": node,
                    "timestamp": sample.timestamp,
                    "values": {k: sample.values[k] for k in sorted(sample.values)},
                }
            )
    _write_entity_file(os.path.join(path, "metrics.jsonl"), "metrics", metric_rows)


def _read_entity_file(path: str, entity: str) -> List[dict]:
    if not os.path.exists(path):
        raise TraceParseError(path, 0, "file missing from trace directory")
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
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
            records.append(record)
    return records


def _require(record: dict, key: str, path: str, idx: int):
    if key not in record:
        raise TraceParseError(path, idx + 2, f"missing required field {key!r}")
    return record[key]


def load_trace(path: str) -> Trace:
    """Read a trace directory, applying any not-yet-applied clock offsets."""
    if not os.path.isdir(path):
        raise TraceParseError(path, 0, "trace path is not a directory")

    meta_path = os.path.join(path, "meta.jsonl")
    meta_rows = _read_entity_file(meta_path, "meta")
    if len(meta_rows) != 1:
        raise TraceParseError(meta_path, 0, "meta file must hold exactly one record")
    meta = meta_rows[0]
    cluster = list(_require(meta, "cluster", meta_path, 0))
    offsets = {str(k): int(v) for k, v in meta.get("clock_offsets", {}).items()}
    applied = bool(meta.get("offsets_applied", False))

    def shift_task(node: str, ts: int) -> int:
        return ts if applied else ts + offsets.get(node, 0)

    jobs_path = os.path.join(path, "jobs.jsonl")
    job_rows = _read_entity_file(jobs_path, "jobs")
    jobs: Dict[str, Job] = {}
    for i, row in enumerate(job_rows):
        job_id = str(_require(row, "job_id", jobs_path, i))
        jobs[job_id] = Job(job_id=job_id)

    stages_path = os.path.join(path, "stages.jsonl")
    stage_rows = _read_entity_file(stages_path, "stages")
    stages: Dict[str, Stage] = {}
    for i, row in enumerate(stage_rows):
        stage_id = str(_require(row, "stage_id", stages_path, i))
        job_id = str(_require(row, "job_id", stages_path, i))
        if job_id not in jobs:
            raise TraceParseError(stages_path, i + 2, f"stage references unknown job {job_id!r}")
        if stage_id in stages:
            raise TraceParseError(stages_path, i + 2, f"duplicate stage_id {stage_id!r}")
        stage = Stage(stage_id=stage_id, job_id=job_id)
        stages[stage_id] = stage
        jobs[job_id].stages.append(stage)

    tasks_path = os.path.join(path, "tasks.jsonl")
    for i, row in enumerate(_read_entity_file(tasks_path, "tasks")):
        stage_id = str(_require(row, "stage_id", tasks_path, i))
        if stage_id not in stages:
            raise TraceParseError(tasks_path, i + 2, f"task references unknown stage {stage_id!r}")
        node = str(_require(row, "node", tasks_path, i))
        try:
            task = Task(
                task_id=str(_require(row, "task_id", tasks_path, i)),
                stage_id=stage_id,
                node=node,
                launch_time=shift_task(node, int(_require(row, "launch_time", tasks_path, i))),
                finish_time=shift_task(node, int(_require(row, "finish_time", tasks_path, i))),
                locality=Locality(row.get("locality", "UNKNOWN")),
                data_size=int(row.get("data_size", 0)),
                succeeded=bool(row.get("succeeded", True)),
            )
        except ValueError as exc:
            raise TraceParseError(tasks_path, i + 2, f"bad task record: {exc}") from exc
        stages[stage_id].tasks.append(task)

    metrics_path = os.path.join(path, "metrics.jsonl")
    metrics: Dict[str, List[MetricSample]] = {}
    for i, row in enumerate(_read_entity_file(metrics_path, "metrics")):
        node = str(_require(row, "node", metrics_path, i))
        values = _require(row, "values", metrics_path, i)
        if not isinstance(values, dict):
            raise TraceParseError(metrics_path, i + 2, "values must be a metric->number map")
        try:
            sample = MetricSample(
                node=node,
                timestamp=shift_task(node, int(_require(row, "timestamp", metrics_path, i))),
                values={str(k): float(v) for k, v in values.items()},
            )
        except (TypeError, ValueError) as exc:
            raise TraceParseError(metrics_path, i + 2, f"bad metric record: {exc}") from exc
        metrics.setdefault(node, []).append(sample)
    for node in metrics:
        metrics[node].sort(key=lambda s: s.timestamp)

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
