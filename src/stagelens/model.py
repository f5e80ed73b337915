"""Canonical data model shared by every stage of the diagnosis pipeline.

A Trace bundles one complete observation of a cluster run: the job/stage/task
hierarchy recovered from application logs plus per-node metric time series,
all on a single cluster clock (integer milliseconds UTC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

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


@dataclass(frozen=True)
class Task:
    task_id: str
    stage_id: str
    node: str
    launch_time: int  # ms since epoch
    finish_time: int  # ms since epoch
    locality: Locality = Locality.UNKNOWN
    data_size: int = 0  # input bytes
    succeeded: bool = True

    @property
    def runtime(self) -> int:
        return self.finish_time - self.launch_time


@dataclass
class Stage:
    stage_id: str
    job_id: str
    tasks: List[Task] = field(default_factory=list)

    @property
    def start_time(self) -> Optional[int]:
        if not self.tasks:
            return None
        return min(t.launch_time for t in self.tasks)

    @property
    def finish_time(self) -> Optional[int]:
        if not self.tasks:
            return None
        return max(t.finish_time for t in self.tasks)


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
        """The rows with start <= timestamp <= finish, as views of this store."""
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, finish, side="right"))
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
                    (stage.stage_id, stage.job_id): sorted(stage.tasks, key=lambda t: t.task_id)
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
        stage_ids = set()
        task_ids = set()
        for stage in self.stages():
            if stage.stage_id in stage_ids:
                problems.append(f"stage {stage.stage_id}: duplicate stage_id")
            stage_ids.add(stage.stage_id)
            # A stage that passes every check at once adds no problem; one
            # that fails any is walked task by task to name each violation.
            ids = {task.task_id for task in stage.tasks}
            if (
                len(ids) == len(stage.tasks)
                and task_ids.isdisjoint(ids)
                and known.issuperset([task.node for task in stage.tasks])
                and all(
                    task.launch_time <= task.finish_time
                    and task.data_size >= 0
                    and task.stage_id == stage.stage_id
                    for task in stage.tasks
                )
            ):
                task_ids |= ids
                continue
            for task in stage.tasks:
                if task.task_id in task_ids:
                    problems.append(f"task {task.task_id}: duplicate task_id")
                task_ids.add(task.task_id)
                if task.finish_time < task.launch_time:
                    problems.append(
                        f"task {task.task_id}: finish_time {task.finish_time} "
                        f"< launch_time {task.launch_time}"
                    )
                if task.data_size < 0:
                    problems.append(f"task {task.task_id}: negative data_size")
                if task.stage_id != stage.stage_id:
                    problems.append(
                        f"task {task.task_id}: stage_id {task.stage_id!r} does not "
                        f"match containing stage {stage.stage_id!r}"
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
