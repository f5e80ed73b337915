"""Stage-resource correlation: slice node metrics by stage windows and build
the per-stage feature datasets consumed by the detectors."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .model import METRIC_SCHEMA, Locality, MetricStore, Stage, Trace


class CorrelateError(Exception):
    pass


@dataclass(frozen=True)
class StageWindow:
    stage_id: str
    start: int
    finish: int
    nodes: frozenset


def stage_window(stage: Stage) -> StageWindow:
    """The stage's task-time envelope and the set of hosts that ran its tasks."""
    if not stage.tasks:
        raise CorrelateError(f"stage {stage.stage_id}: cannot window an empty stage")
    return StageWindow(
        stage_id=stage.stage_id,
        start=min(t.launch_time for t in stage.tasks),
        finish=max(t.finish_time for t in stage.tasks),
        nodes=frozenset(t.node for t in stage.tasks),
    )


@dataclass
class MetricSlices:
    """In-window metric subseries per node; nodes with no samples are gaps."""

    window: StageWindow
    series: Dict[str, MetricStore]
    gaps: List[str]


def slice_metrics(trace: Trace, window: StageWindow) -> MetricSlices:
    """Inclusive-bounds slice of each window node's metric series (views)."""
    series: Dict[str, MetricStore] = {}
    gaps: List[str] = []
    for node in sorted(window.nodes):
        store = trace.metrics.get(node)
        if store is None:
            store = MetricStore(node, np.empty(0, np.int64), (), np.empty((0, 0)))
        series[node] = store.window(window.start, window.finish)
        if not len(series[node]):
            gaps.append(node)
    return MetricSlices(window=window, series=series, gaps=gaps)


@dataclass(frozen=True)
class UltrashortPolicy:
    """A task is ultrashort below max(absolute floor, fraction of the stage
    median runtime); such tasks distort task-count comparisons."""

    absolute_ms: int = 1000
    median_fraction: float = 0.05

    def threshold(self, runtimes: Sequence[int]) -> float:
        if not runtimes:
            return float(self.absolute_ms)
        return max(float(self.absolute_ms), self.median_fraction * statistics.median(runtimes))


@dataclass
class FeatureDatasets:
    stage_id: str
    tnum: Dict[str, int]
    data_size: List[Tuple[str, str, int]]  # (node, task_id, bytes)
    locality: List[Tuple[str, Locality, int]]  # (node, locality, runtime ms)
    vectors: Dict[str, Dict[str, float]]  # node -> metric -> window mean
    matrix: Dict[str, np.ndarray]  # node -> samples x metrics, time-ordered
    matrix_metrics: List[str]  # column order shared by all matrices
    ultrashort_count: int = 0
    failed_count: int = 0
    missing_metric_nodes: List[str] = field(default_factory=list)


def build_datasets(
    stage: Stage,
    slices: MetricSlices,
    cluster: Sequence[str],
    policy: UltrashortPolicy = UltrashortPolicy(),
) -> FeatureDatasets:
    """Vectorize one stage: task counts, data sizes, localities and per-node
    metric means/matrices over the stage window.

    Every cluster node appears in tnum (zero-task nodes count as 0). Failed
    tasks never enter tnum or data_size; ultrashort tasks are dropped from
    tnum only.
    """
    ok_tasks = [t for t in stage.tasks if t.succeeded]
    failed = len(stage.tasks) - len(ok_tasks)
    cutoff = policy.threshold([t.runtime for t in ok_tasks])

    tnum = {node: 0 for node in cluster}
    ultrashort = 0
    for task in ok_tasks:
        if task.runtime < cutoff:
            ultrashort += 1
            continue
        tnum[task.node] = tnum.get(task.node, 0) + 1

    data_size = [(t.node, t.task_id, t.data_size) for t in ok_tasks]
    locality = [(t.node, t.locality, t.runtime) for t in ok_tasks]

    vectors: Dict[str, Dict[str, float]] = {}
    matrix: Dict[str, np.ndarray] = {}
    missing: List[str] = []
    shared: Optional[Set[str]] = None
    present: Dict[str, np.ndarray] = {}  # node -> per column: no sample misses it
    for node, store in slices.series.items():
        if not len(store):
            missing.append(node)
            continue
        present[node] = ~np.isnan(store.values).any(axis=1)
        node_shared = {c for c, p in zip(store.columns, present[node].tolist()) if p}
        shared = node_shared if shared is None else shared & node_shared
    # Matrices share one column set: metrics present in every in-window sample.
    columns = [m for m in METRIC_SCHEMA if m in (shared or set())]

    for node, store in slices.series.items():
        if not len(store):
            continue
        index = {c: i for i, c in enumerate(store.columns)}
        vec: Dict[str, float] = {}
        for metric in METRIC_SCHEMA:
            i = index.get(metric)
            if i is None:
                continue
            row = store.values[i]
            if not present[node][i]:
                row = row[~np.isnan(row)]
            if row.size:
                vec[metric] = float(np.mean(row))
        vectors[node] = vec
        if columns:
            block = store.values[[index[m] for m in columns]]
            matrix[node] = np.ascontiguousarray(block.T)

    return FeatureDatasets(
        stage_id=stage.stage_id,
        tnum=tnum,
        data_size=data_size,
        locality=locality,
        vectors=vectors,
        matrix=matrix,
        matrix_metrics=columns,
        ultrashort_count=ultrashort,
        failed_count=failed,
        missing_metric_nodes=sorted(set(missing)),
    )
