"""Canonical data model shared by every stage of the diagnosis pipeline.

A Trace bundles one complete observation of a cluster run: the job/stage/task
hierarchy recovered from application logs plus per-node metric time series,
all on a single cluster clock (integer milliseconds UTC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

SYSTEM_METRICS = (
    "cpu_usage",
    "mem_usage",
    "ioWaitRatio",
    "weighted_io",
    "diskR_band",
    "diskW_band",
    "netS_band",
    "netR_band",
)

ARCH_METRICS = (
    "IPC",
    "L2_MPKI",
    "L3_MPKI",
    "L1I_MPKI",
    "ITLB_MPKI",
    "DTLB_MPKI",
    "MUL_Ratio",
    "DIV_Ratio",
    "FP_Ratio",
    "LOAD_Ratio",
    "STORE_Ratio",
    "BR_Ratio",
)

#: Full derived-metric schema, system level first, fixed ordering.
METRIC_SCHEMA = SYSTEM_METRICS + ARCH_METRICS


class Locality(Enum):
    """Task data locality, merging the Spark and Hadoop vocabularies."""

    PROCESS_LOCAL = "PROCESS_LOCAL"
    NODE_LOCAL = "NODE_LOCAL"
    RACK_LOCAL = "RACK_LOCAL"
    ANY = "ANY"
    OFF_SWITCH = "OFF_SWITCH"
    UNKNOWN = "UNKNOWN"


_LOCALITY_ALIASES = {
    "PROCESS_LOCAL": Locality.PROCESS_LOCAL,
    "NODE_LOCAL": Locality.NODE_LOCAL,
    "NODE_LOCALITY": Locality.NODE_LOCAL,
    "DATA_LOCAL": Locality.NODE_LOCAL,
    "RACK_LOCAL": Locality.RACK_LOCAL,
    "RACK_LOCALITY": Locality.RACK_LOCAL,
    "ANY": Locality.ANY,
    "OFF_SWITCH": Locality.OFF_SWITCH,
}


def parse_locality(text: str) -> Locality:
    """Map a raw locality string to the enum; unknown strings become UNKNOWN."""
    return _LOCALITY_ALIASES.get(str(text).strip().upper(), Locality.UNKNOWN)


#: launch_time, finish_time and data_size are integers in [0, TASK_INT_BOUND).
#: Below 2**53 an int64 converts to float64 exactly, so the screens' float
#: arithmetic on these columns gives the bits it would give on Python ints.
TASK_INT_BOUND = 2**53

#: TaskTable.locality holds each task's position in this tuple.
LOCALITY_CODES: Tuple[Locality, ...] = tuple(Locality)
_LOCALITY_CODE = {loc: code for code, loc in enumerate(LOCALITY_CODES)}


def median(values: np.ndarray):
    """statistics.median of a non-empty 1-D int64 or float64 array, as a
    Python number: the middle value, or the mean of the two middle values.
    For int64 values below 2**53 in magnitude this is statistics.median's
    result on the same values as Python ints."""
    mid = len(values) // 2
    if len(values) % 2:
        return np.partition(values, mid)[mid].item()
    part = np.partition(values, (mid - 1, mid))
    return (part[mid - 1].item() + part[mid].item()) / 2


class Task(NamedTuple):
    """One task as a row: what producers build and what a TaskTable yields."""

    task_id: str
    node: str
    launch_time: int  # ms since epoch
    finish_time: int  # ms since epoch
    locality: Locality = Locality.UNKNOWN
    data_size: int = 0  # input bytes
    succeeded: bool = True

    @property
    def runtime(self) -> int:
        return self.finish_time - self.launch_time


class TaskTableError(ValueError):
    """A value a TaskTable refuses; the message names the task and field."""


def _first(flags: Sequence[bool]) -> int:
    return next(i for i, flag in enumerate(flags) if flag)


def _typed(name: str, values, kind: type, what: str, task_id: Sequence) -> list:
    """`values` as a list, each value of exactly `kind` (a bool is no int)."""
    values = list(values)
    if not set(map(type, values)) <= {kind}:
        i = _first([type(v) is not kind for v in values])
        raise TaskTableError(f"task {task_id[i]}: {name} must be {what}")
    return values


def _int_column(name: str, values, task_id: Sequence, high: int) -> np.ndarray:
    """A read-only int64 column of integers in [0, high): an integer array,
    or a sequence of ints."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu" or values.ndim != 1:
            raise TaskTableError(f"{name} must be a 1-D integer array")
        bounds = (values.min(), values.max()) if len(values) else (0, -1)
    else:
        values = _typed(name, values, int, "an integer", task_id)
        bounds = (min(values), max(values)) if values else (0, -1)
    if len(values) != len(task_id):
        raise TaskTableError(f"{name} holds {len(values)} values for {len(task_id)} tasks")
    if bounds[0] < 0 or bounds[1] >= high:
        i = _first([not 0 <= v < high for v in values])
        limit = "2**53" if high == TASK_INT_BOUND else high
        raise TaskTableError(f"task {task_id[i]}: {name} {values[i]} is outside [0, {limit})")
    column = np.array(values, dtype=np.int64)
    column.flags.writeable = False
    return column


class TaskTable:
    """One stage's tasks, held column by column; row i is task i.

    - `task_id`: tuple of str.
    - `node`: int32 codes into `nodes`, the sorted names of the nodes that
      ran a task (each name is used).
    - `launch_time`, `finish_time`, `data_size`: int64 in [0, TASK_INT_BOUND).
    - `locality`: int8 codes into LOCALITY_CODES.
    - `succeeded`: bool.

    Columns are read-only. Build a table from per-task values: `node` as
    names, `locality` as Locality members, `succeeded` as bools (None takes
    Task's default for every task). With `nodes` given, `node` holds codes
    into it and `locality` may hold codes. Iterating yields Task rows.
    """

    __slots__ = (
        "task_id", "nodes", "node", "launch_time", "finish_time", "locality", "data_size",
        "succeeded",
    )

    def __init__(
        self,
        task_id: Sequence[str],
        node: Sequence,
        launch_time: Sequence[int],
        finish_time: Sequence[int],
        locality: Optional[Sequence] = None,
        data_size: Optional[Sequence[int]] = None,
        succeeded: Optional[Sequence[bool]] = None,
        nodes: Optional[Sequence[str]] = None,
    ):
        task_id = tuple(task_id)
        n = len(task_id)
        _typed("task_id", task_id, str, "a string", task_id)
        if nodes is None:
            node = _typed("node", node, str, "a string", task_id)
            nodes = sorted(set(node))
            code = {name: i for i, name in enumerate(nodes)}
            node = np.fromiter(map(code.__getitem__, node), np.int64, len(node))
        else:
            nodes = list(nodes)
            if not set(map(type, nodes)) <= {str} or len(set(nodes)) != len(nodes):
                raise TaskTableError("nodes must be distinct strings")
            node = _int_column("node", node, task_id, len(nodes))
        if len(node) != n:
            raise TaskTableError(f"node holds {len(node)} values for {n} tasks")
        # Keep the names of the nodes the codes use, sorted.
        used = np.bincount(node, minlength=len(nodes)) > 0
        if not used.all() or nodes != sorted(nodes):
            keep = sorted(np.flatnonzero(used).tolist(), key=nodes.__getitem__)
            recode = np.zeros(len(nodes), dtype=np.int64)
            recode[keep] = np.arange(len(keep))
            nodes, node = [nodes[i] for i in keep], recode[node]
        self.task_id = task_id
        self.nodes = tuple(nodes)
        self.node = node.astype(np.int32)
        self.launch_time = _int_column("launch_time", launch_time, task_id, TASK_INT_BOUND)
        self.finish_time = _int_column("finish_time", finish_time, task_id, TASK_INT_BOUND)
        self.data_size = _int_column(
            "data_size", np.zeros(n, np.int64) if data_size is None else data_size, task_id,
            TASK_INT_BOUND,
        )
        if locality is None:
            locality = np.full(n, _LOCALITY_CODE[Locality.UNKNOWN])
        elif not isinstance(locality, np.ndarray):
            locality = _typed("locality", locality, Locality, "a Locality", task_id)
            locality = np.fromiter(map(_LOCALITY_CODE.__getitem__, locality), np.int64, n)
        self.locality = _int_column("locality", locality, task_id, len(LOCALITY_CODES)).astype(
            np.int8
        )
        if succeeded is None:
            succeeded = np.ones(n, dtype=bool)
        elif not isinstance(succeeded, np.ndarray):
            succeeded = np.array(_typed("succeeded", succeeded, bool, "true or false", task_id),
                                 dtype=bool)
        if succeeded.dtype != bool or succeeded.shape != (n,):
            raise TaskTableError(f"succeeded must be {n} bools")
        self.succeeded = succeeded.copy()
        for column in (self.node, self.locality, self.succeeded):
            column.flags.writeable = False

    @classmethod
    def from_rows(cls, rows: Iterable[Task]) -> "TaskTable":
        """The table of Task rows (or tuples in Task's field order)."""
        columns = list(zip(*rows))
        if not columns:
            return cls((), (), (), ())
        return cls(*columns)

    def take(self, index) -> "TaskTable":
        """The rows that a bool mask or an integer index array selects."""
        rows = np.arange(len(self))[index].tolist()
        return TaskTable(
            list(map(self.task_id.__getitem__, rows)),
            self.node[index],
            self.launch_time[index],
            self.finish_time[index],
            self.locality[index],
            self.data_size[index],
            self.succeeded[index],
            nodes=self.nodes,
        )

    def sorted_by_id(self) -> "TaskTable":
        order = sorted(range(len(self)), key=self.task_id.__getitem__)
        return self if order == list(range(len(self))) else self.take(np.array(order, np.int64))

    @property
    def runtime(self) -> np.ndarray:
        return self.finish_time - self.launch_time

    def __len__(self) -> int:
        return len(self.task_id)

    def __iter__(self) -> Iterator[Task]:
        return map(
            Task._make,
            zip(
                self.task_id,
                map(self.nodes.__getitem__, self.node.tolist()),
                self.launch_time.tolist(),
                self.finish_time.tolist(),
                map(LOCALITY_CODES.__getitem__, self.locality.tolist()),
                self.data_size.tolist(),
                self.succeeded.tolist(),
            ),
        )

    def __getitem__(self, i: int) -> Task:
        return Task(
            self.task_id[i],
            self.nodes[self.node[i]],
            int(self.launch_time[i]),
            int(self.finish_time[i]),
            LOCALITY_CODES[self.locality[i]],
            int(self.data_size[i]),
            bool(self.succeeded[i]),
        )

    def __eq__(self, other: object) -> bool:
        """Equal tables hold the same rows in the same order."""
        if not isinstance(other, TaskTable):
            return NotImplemented
        return (
            self.task_id == other.task_id
            and self.nodes == other.nodes
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("node", "launch_time", "finish_time", "locality", "data_size",
                             "succeeded")
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TaskTable({len(self)} tasks on {len(self.nodes)} nodes)"


#: The tasks of a stage built without any. Table columns are read-only, so
#: every such stage shares this one table.
_NO_TASKS = TaskTable((), (), (), ())


@dataclass
class Stage:
    stage_id: str
    job_id: str
    tasks: TaskTable = field(default_factory=lambda: _NO_TASKS)

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, TaskTable):
            raise TypeError("Stage.tasks must be a TaskTable (see TaskTable.from_rows)")

    @property
    def start_time(self) -> Optional[int]:
        return int(self.tasks.launch_time.min()) if len(self.tasks) else None

    @property
    def finish_time(self) -> Optional[int]:
        return int(self.tasks.finish_time.max()) if len(self.tasks) else None


@dataclass
class Job:
    job_id: str
    stages: List[Stage] = field(default_factory=list)


def metric_columns(names: Iterable[str]) -> Tuple[str, ...]:
    """Store column order: METRIC_SCHEMA order first, then other names sorted."""
    names = set(names)
    return tuple(m for m in METRIC_SCHEMA if m in names) + tuple(
        sorted(names.difference(METRIC_SCHEMA))
    )


def checked_once(checked: dict, key: Hashable, check: Callable[[Hashable], object]):
    """check(key), remembered in `checked`: a caller that checks many equal
    keys (one column layout shared by every node) runs `check` once per
    distinct key. An unhashable key is checked every time."""
    try:
        return checked[key]
    except KeyError:
        result = checked[key] = check(key)
        return result
    except TypeError:
        return check(key)


def _in_store_order(columns: Tuple) -> bool:
    return all(isinstance(c, str) for c in columns) and columns == metric_columns(columns)


_INT64_MAX = 2**63 - 1


@dataclass(eq=False)
class MetricStore:
    """One node's metric series, held column by column.

    `timestamps` is int64[n], ascending. `values` is float64[len(columns), n]:
    row i is metric `columns[i]` over time, so one metric's series is a
    contiguous row. NaN marks a metric a sample does not report, so every
    reported value must be finite. Two stores are equal when their node,
    timestamps and values are, an absent column counting as an all-NaN one.
    """

    node: str
    timestamps: np.ndarray
    columns: Tuple[str, ...]
    values: np.ndarray

    def window(self, start: int, finish: int) -> "MetricStore":
        """The rows with start <= timestamp <= finish (int64 bounds), as views
        of this store."""
        # Timestamps are integers, so ts <= finish exactly when ts < finish + 1:
        # one search finds both ends. No timestamp passes the int64 maximum.
        if finish < _INT64_MAX:
            lo, hi = self.timestamps.searchsorted((start, finish + 1)).tolist()
        else:
            lo, hi = int(self.timestamps.searchsorted(start)), len(self.timestamps)
        return MetricStore(
            self.node, self.timestamps[lo:hi], self.columns, self.values[:, lo:hi]
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricStore):
            return NotImplemented
        if self.node != other.node or not np.array_equal(self.timestamps, other.timestamps):
            return False
        mine, theirs = dict(zip(self.columns, self.values)), dict(zip(other.columns, other.values))
        absent = np.full(len(self), np.nan)
        return all(
            np.array_equal(mine.get(c, absent), theirs.get(c, absent), equal_nan=True)
            for c in mine.keys() | theirs.keys()
        )


@dataclass(eq=False)
class Trace:
    """Two traces are equal when they save to the same files: the order of
    nodes, jobs, stages and tasks does not count (a save sorts them by id),
    and a node whose series has no rows equals a node with no series (both
    write no metrics line and slice to a gap)."""

    cluster: List[str] = field(default_factory=list)
    jobs: List[Job] = field(default_factory=list)
    metrics: Dict[str, MetricStore] = field(default_factory=dict)
    clock_offsets: Dict[str, int] = field(default_factory=dict)

    def stages(self) -> Iterator[Stage]:
        for job in self.jobs:
            yield from job.stages

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented

        def content(trace: Trace) -> tuple:
            jobs = {
                job.job_id: {
                    (stage.stage_id, stage.job_id): stage.tasks.sorted_by_id()
                    for stage in job.stages
                }
                for job in trace.jobs
            }
            series = {node: store for node, store in trace.metrics.items() if len(store)}
            return sorted(trace.cluster), jobs, trace.clock_offsets, series

        return content(self) == content(other)

    def validate(self) -> List[str]:
        """Collect every invariant violation instead of stopping at the first."""
        problems: List[str] = []
        if not self.cluster:
            problems.append("cluster must list at least one node")
        known = set(self.cluster)
        job_ids = set()
        for job in self.jobs:
            if job.job_id in job_ids:
                problems.append(f"job {job.job_id}: duplicate job_id")
            job_ids.add(job.job_id)
        stage_ids = set()
        task_ids = set()
        for stage in self.stages():
            if stage.stage_id in stage_ids:
                problems.append(f"stage {stage.stage_id}: duplicate stage_id")
            stage_ids.add(stage.stage_id)
            # A stage that passes every check at once adds no problem; one
            # that fails any is walked task by task to name each violation.
            tasks = stage.tasks
            ids = set(tasks.task_id)
            if (
                len(ids) == len(tasks)
                and task_ids.isdisjoint(ids)
                and known.issuperset(tasks.nodes)
                and bool((tasks.launch_time <= tasks.finish_time).all())
            ):
                task_ids |= ids
                continue
            for task in tasks:
                if task.task_id in task_ids:
                    problems.append(f"task {task.task_id}: duplicate task_id")
                task_ids.add(task.task_id)
                if task.finish_time < task.launch_time:
                    problems.append(
                        f"task {task.task_id}: finish_time {task.finish_time} "
                        f"< launch_time {task.launch_time}"
                    )
                if task.node not in known:
                    problems.append(
                        f"task {task.task_id}: node {task.node!r} not in cluster"
                    )
        layouts: Dict[Hashable, bool] = {}
        for node, store in self.metrics.items():
            if node not in known:
                problems.append(f"metric series for {node}: node not in cluster")
            if store.node != node:
                problems.append(f"metric series under {node!r} carries node {store.node!r}")
            columns = tuple(store.columns)
            if not checked_once(layouts, columns, _in_store_order):
                problems.append(
                    f"metric series for {node}: columns must be distinct names in store order"
                )
            ts, values = store.timestamps, store.values
            if not (
                isinstance(ts, np.ndarray) and ts.ndim == 1 and ts.dtype == np.int64
                and isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.shape == (len(columns), len(ts))
            ):
                problems.append(
                    f"metric series for {node}: needs int64[n] timestamps and "
                    f"float64[{len(columns)}, n] values"
                )
                continue
            for bad in ts[1:][ts[1:] <= ts[:-1]].tolist():
                problems.append(
                    f"metric series for {node}: timestamps not strictly "
                    f"increasing at {bad}"
                )
            if np.isinf(values).any():
                problems.append(f"metric series for {node}: infinite value")
        return problems


class FindingKind(Enum):
    WORKLOAD_IMBALANCE = "WorkloadImbalance"
    SKEW_DATA_SIZE = "SkewDataSize"
    UNEVEN_PLACEMENT = "UnevenPlacement"
    STRAGGLER = "Straggler"
    ABNORMAL_NODE = "AbnormalNode"
    OUTLIER_METRIC = "OutlierMetric"


@dataclass(frozen=True)
class Finding:
    """One detector verdict.

    Subject convention: subjects[0] is the node; OutlierMetric findings carry
    the metric name in subjects[1]; UnevenPlacement carries the locality tag
    in subjects[1]; task-level skew findings append task ids after the node.
    """

    kind: FindingKind
    stage_id: str
    subjects: Tuple[str, ...]
    score: float
    threshold: float
    detail: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and math.isfinite(self.threshold)):
            raise ValueError("finding score and threshold must be finite")

    @property
    def node(self) -> str:
        return self.subjects[0]

    @property
    def metric(self) -> Optional[str]:
        if self.kind is FindingKind.OUTLIER_METRIC and len(self.subjects) > 1:
            return self.subjects[1]
        return None
