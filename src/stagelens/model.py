"""Canonical data model shared by every stage of the diagnosis pipeline.

A Trace bundles one complete observation of a cluster run: the job/stage/task
hierarchy recovered from application logs plus per-node metric time series,
all on a single cluster clock (integer milliseconds UTC).

A trace holds its metric series as clock groups: the nodes whose series
share one column layout and one timestamp vector sit in one read-only
float64[nodes, columns, samples] block (ClockGroup), so windowing and
averaging run once per group. Producers (the simulator, ingest, the
loader) hand a Trace the groups they build, and each group checks its own
arrays, refusing a malformed series with a MetricSeriesError, so a trace
holds only well-formed ones. `Trace.metrics` is the read-only mapping
node -> MetricStore over the groups (ClockGroups); each store it returns
is a view of its group's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
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
    """A stage and its tasks; its job is the Job that holds it."""

    stage_id: str
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
    """Store column order: METRIC_SCHEMA order first, then other names sorted.
    The tuple of each set of names is kept (a bounded few), so the stores
    and groups of one layout share one tuple."""
    return _store_order(frozenset(names))


@lru_cache(maxsize=64)
def _store_order(names: FrozenSet[str]) -> Tuple[str, ...]:
    return tuple([m for m in METRIC_SCHEMA if m in names]) + tuple(
        sorted(names.difference(METRIC_SCHEMA))
    )


_INT64_MAX = 2**63 - 1


def window_bounds(timestamps: np.ndarray, start: int, finish: int) -> Tuple[int, int]:
    """lo, hi such that timestamps[lo:hi] are those with start <= t <= finish
    (int64 bounds), for ascending int64 timestamps."""
    # Timestamps are integers, so ts <= finish exactly when ts < finish + 1:
    # one search finds both ends. No timestamp passes the int64 maximum.
    if finish < _INT64_MAX:
        lo, hi = timestamps.searchsorted((start, finish + 1)).tolist()
        return lo, hi
    return int(timestamps.searchsorted(start)), len(timestamps)


@dataclass(eq=False)
class MetricStore:
    """One node's metric series, held column by column.

    `timestamps` is int64[n], strictly increasing. `values` is
    float64[len(columns), n]: row i is metric `columns[i]` over time, so one
    metric's series is a contiguous row; `columns` are distinct names in
    metric_columns order. NaN marks a metric a sample does not report, so
    every reported value must be finite. A ClockGroup checks these rules for
    its rows. Two stores are equal when their node, columns and timestamps
    are, and their values are bit for bit, every NaN counting as the one a
    save writes: 0.0 and -0.0 differ, NaN payloads do not.
    """

    node: str
    timestamps: np.ndarray
    columns: Tuple[str, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricStore):
            return NotImplemented
        return (
            self.node == other.node
            and self.columns == other.columns
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(canonical_nan(self.values).view(np.int64),
                               canonical_nan(other.values).view(np.int64))
        )


def canonical_nan(values: np.ndarray) -> np.ndarray:
    """A copy of float64 `values` with every NaN the one NaN bit pattern a
    save writes."""
    return np.where(np.isnan(values), np.nan, values)


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array if it is read-only, else a read-only view of it (the array
    itself keeps its flags)."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.flags.writeable = False
    return view


class MetricSeriesError(ValueError):
    """A metric series a Trace refuses: `node` breaks `rule`."""

    def __init__(self, node: str, rule: str):
        super().__init__(f"metric series for {node}: {rule}")
        self.node = node
        self.rule = rule


class ClockGroup:
    """Nodes whose series share one column layout and one timestamp vector.

    `values` is float64[len(nodes), len(columns), len(timestamps)]: node
    `nodes[i]`'s series is `values[i]`. Both arrays are held without a copy,
    read-only. A group checks its arrays when it is built: `columns` are
    distinct names in metric_columns order, `timestamps` are int64[n] and
    strictly increasing, and `values` have that shape and no infinite
    value. The first node that breaks a rule raises MetricSeriesError
    naming it and the rule. The layout, the shape and the timestamps are
    every node's, so their rules name the first node; an infinite value
    names the node whose row holds it, and comes before the timestamps'
    rule.
    """

    __slots__ = ("nodes", "columns", "timestamps", "values")

    def __init__(
        self, nodes: Sequence[str], columns: Sequence[str], timestamps: np.ndarray,
        values: np.ndarray,
    ):
        self.nodes = tuple(nodes)
        self.columns = columns = tuple(columns)
        if not self.nodes:
            raise ValueError("a clock group holds at least one node")
        first = self.nodes[0]
        if not (all(isinstance(c, str) for c in columns) and columns == metric_columns(columns)):
            raise MetricSeriesError(first, "columns must be distinct names in store order")
        ts = timestamps
        if not (
            isinstance(ts, np.ndarray) and ts.ndim == 1 and ts.dtype == np.int64
            and isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.shape == (len(self.nodes), len(columns), len(ts))
        ):
            raise MetricSeriesError(
                first, f"needs int64[n] timestamps and float64[{len(columns)}, n] values"
            )
        cells = np.isinf(values)
        infinite = int(cells.any(axis=(1, 2)).argmax()) if cells.any() else len(self.nodes)
        rising = bool((ts[1:] > ts[:-1]).all())
        if infinite == 0 or (rising and infinite < len(self.nodes)):
            raise MetricSeriesError(self.nodes[infinite], "infinite value")
        if not rising:
            bad = ts[1:][ts[1:] <= ts[:-1]][0].item()
            raise MetricSeriesError(first, f"timestamps not strictly increasing at {bad}")
        self.timestamps = _read_only(ts)
        self.values = _read_only(values)

    def __repr__(self) -> str:
        return (f"ClockGroup({len(self.nodes)} nodes, {len(self.columns)} columns, "
                f"{len(self.timestamps)} samples)")


class ClockGroups(Mapping):
    """A trace's metric series: a read-only mapping node -> MetricStore over
    a sequence of clock groups, nodes in group order.

    Each store it returns is a view of its group's row. A node held by two
    rows raises MetricSeriesError; an item that is not a ClockGroup (a
    mapping of stores, say) raises TypeError.
    """

    __slots__ = ("groups", "_at")

    def __init__(self, groups: Iterable[ClockGroup] = ()):
        self.groups = tuple(groups)
        if isinstance(groups, Mapping) or not all(isinstance(g, ClockGroup) for g in self.groups):
            raise TypeError("metrics are a sequence of ClockGroup, not a mapping of stores")
        self._at: Dict[str, Tuple[ClockGroup, int]] = {}
        for group in self.groups:
            rows = dict(zip(group.nodes, zip(repeat(group), range(len(group.nodes)))))
            if len(rows) < len(group.nodes) or not self._at.keys().isdisjoint(rows):
                seen = set(self._at)
                for node in group.nodes:
                    if node in seen:
                        raise MetricSeriesError(node, "node held twice")
                    seen.add(node)
            self._at.update(rows)

    def __getitem__(self, node: str) -> MetricStore:
        group, row = self._at[node]
        return MetricStore(node, group.timestamps, group.columns, group.values[row])

    def __iter__(self) -> Iterator[str]:
        return iter(self._at)

    def __len__(self) -> int:
        return len(self._at)

    def __contains__(self, node: object) -> bool:
        return node in self._at

    def __repr__(self) -> str:
        return f"ClockGroups({len(self)} nodes in {len(self.groups)} groups)"


@dataclass(eq=False)
class Trace:
    """Two traces are equal when they save to the same files.

    `metrics` takes ClockGroups, or a sequence of ClockGroup that it makes
    into one; the groups have checked their series. A mapping of stores
    raises TypeError. `trace.metrics[node]` is a MetricStore view of the
    node's row.
    """

    cluster: List[str] = field(default_factory=list)
    jobs: List[Job] = field(default_factory=list)
    metrics: ClockGroups = field(default_factory=ClockGroups)

    def __setattr__(self, name: str, value) -> None:
        if name == "metrics" and not isinstance(value, ClockGroups):
            value = ClockGroups(value)
        super().__setattr__(name, value)

    def stages(self) -> Iterator[Stage]:
        for job in self.jobs:
            yield from job.stages

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented

        # Names compare by repr: one that validate() refuses may neither
        # hash, nor order against a str, nor give a bool from ==.
        def by_name(pairs) -> list:
            return sorted(((repr(name), value) for name, value in pairs), key=lambda p: p[0])

        def content(trace: Trace) -> tuple:
            jobs = by_name(
                (job.job_id, by_name((s.stage_id, s.tasks.sorted_by_id()) for s in job.stages))
                for job in trace.jobs
            )
            series = {node: store for node, store in trace.metrics.items() if len(store)}
            return sorted(map(repr, trace.cluster)), jobs, series

        return content(self) == content(other)

    def validate(self) -> List[str]:
        """Every rule a trace must keep to be saved, each violation listed
        instead of stopping at the first. A series can break only one: its
        node outside the cluster (building the trace checks the rest)."""
        problems: List[str] = []
        if not self.cluster:
            problems.append("cluster must list at least one node")
        # An id or name type the loader rejects would save a trace it cannot
        # load. A node name that is not a str would also not sort beside the
        # others.
        problems += [
            f"node {node!r}: bad cluster entry: node name must be a string"
            for node in self.cluster
            if type(node) is not str
        ]
        # Only strings go in a set: a bad id or name may be a list.
        known = {node for node in self.cluster if type(node) is str}
        job_ids = set()
        for job in self.jobs:
            if type(job.job_id) is not str:
                problems.append(f"job {job.job_id}: bad job record: job_id must be a string")
            elif job.job_id in job_ids:
                problems.append(f"job {job.job_id}: duplicate job_id")
            else:
                job_ids.add(job.job_id)
        stage_ids = set()
        task_ids = set()
        for stage in self.stages():
            if type(stage.stage_id) is not str:
                problems.append(
                    f"stage {stage.stage_id}: bad stage record: stage_id must be a string"
                )
            elif stage.stage_id in stage_ids:
                problems.append(f"stage {stage.stage_id}: duplicate stage_id")
            else:
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
        problems += [
            f"metric series for {node}: node not in cluster"
            for node in self.metrics
            # A name of another type may match a cluster entry listed as bad.
            if node not in known and node not in self.cluster
        ]
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
