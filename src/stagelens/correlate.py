"""Stage-resource correlation: slice node metrics by stage windows and build
the per-stage feature datasets consumed by the detectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .model import METRIC_SCHEMA, MetricStore, Stage, TaskTable, Trace, median


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
        start=stage.start_time,
        finish=stage.finish_time,
        nodes=frozenset(stage.tasks.nodes),
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
        cut = series[node] = store.window(window.start, window.finish)
        if not len(cut.timestamps):
            gaps.append(node)
    return MetricSlices(window=window, series=series, gaps=gaps)


@dataclass(frozen=True)
class UltrashortPolicy:
    """A task is ultrashort below max(absolute floor, fraction of the stage
    median runtime); such tasks distort task-count comparisons."""

    absolute_ms: int = 1000
    median_fraction: float = 0.05

    def threshold(self, runtimes: Sequence[int]) -> float:
        if not len(runtimes):
            return float(self.absolute_ms)
        return max(float(self.absolute_ms), self.median_fraction * median(np.asarray(runtimes)))


@dataclass(eq=False)
class FeatureDatasets:
    """One stage's features. The metric features are arrays over `nodes`,
    the sorted nodes with in-window samples:

    - `means[i, j]` is node i's window mean of METRIC_SCHEMA[j] over the
      samples that report it, and `present[i, j]` says whether any does
      (`means` holds NaN where none does). A mean of finite values can
      itself overflow to inf or NaN, so only `present` tells presence.
    - `stacked` is samples x `matrix_metrics`, C-contiguous and read-only:
      every node's samples in time order, node after node. Node i's rows are
      `stacked[offsets[i]:offsets[i + 1]]`.

    The detectors read the arrays. `vectors` and `matrix` are read-only
    views of them for perfbench/spans.py's traced replay of the pipeline.

    `data_size` and `locality` both hold the table of the stage's successful
    tasks, under the names the skew and placement screens take it by.
    """

    stage_id: str
    tnum: Dict[str, int]
    data_size: TaskTable  # the successful tasks
    locality: TaskTable  # the same table
    nodes: List[str]
    means: np.ndarray  # float64[len(nodes), len(METRIC_SCHEMA)]
    present: np.ndarray  # bool, the shape of means
    stacked: np.ndarray  # float64[offsets[-1], len(matrix_metrics)]
    offsets: np.ndarray  # int64[len(nodes) + 1]
    matrix_metrics: List[str]  # metrics every in-window sample reports
    ultrashort_count: int = 0
    failed_count: int = 0
    missing_metric_nodes: List[str] = field(default_factory=list)

    @cached_property
    def vectors(self) -> Mapping[str, Mapping[str, float]]:
        """node -> metric -> window mean of its present metrics, read-only."""
        return MappingProxyType({
            node: MappingProxyType({m: v for m, v, p in zip(METRIC_SCHEMA, row, mask) if p})
            for node, row, mask in zip(self.nodes, self.means.tolist(), self.present.tolist())
        })

    @cached_property
    def matrix(self) -> Mapping[str, np.ndarray]:
        """node -> its rows of `stacked`; empty without matrix metrics."""
        bounds = self.offsets.tolist() if self.matrix_metrics else [0]
        return MappingProxyType({
            node: self.stacked[lo:hi] for node, lo, hi in zip(self.nodes, bounds, bounds[1:])
        })


_SCHEMA_POSITION = {m: j for j, m in enumerate(METRIC_SCHEMA)}


def build_datasets(
    stage: Stage,
    slices: MetricSlices,
    cluster: Sequence[str],
    policy: UltrashortPolicy = UltrashortPolicy(),
) -> FeatureDatasets:
    """Vectorize one stage: task counts, data sizes, localities and per-node
    metric means and samples over the stage window.

    Every cluster node appears in tnum (zero-task nodes count as 0). Failed
    tasks never enter tnum or data_size; ultrashort tasks are dropped from
    tnum only.
    """
    tasks = stage.tasks
    ok = tasks if tasks.succeeded.all() else tasks.take(tasks.succeeded)
    runtime = ok.runtime
    counted = ok.node[~(runtime < policy.threshold(runtime))]
    tally = np.bincount(counted, minlength=len(ok.nodes)).tolist()
    # Cluster nodes first; a node outside the cluster follows at its first
    # counted task.
    tnum = dict.fromkeys(cluster, 0)
    first = np.unique(counted, return_index=True)[1]
    for code in counted[np.sort(first)].tolist():
        tnum[ok.nodes[code]] = tally[code]

    nodes = sorted(node for node, store in slices.series.items() if len(store))
    missing = sorted(node for node, store in slices.series.items() if not len(store))
    stores = [slices.series[node] for node in nodes]
    offsets = np.cumsum([0] + [len(store) for store in stores])
    shape = (len(nodes), len(METRIC_SCHEMA))
    means = np.full(shape, np.nan)
    present = np.zeros(shape, dtype=bool)
    complete = np.zeros(shape, dtype=bool)  # every in-window sample reports it
    layouts: Dict[Tuple[str, ...], List[int]] = {}  # store columns -> node rows
    for i, store in enumerate(stores):
        layouts.setdefault(store.columns, []).append(i)
    with np.errstate(over="ignore", invalid="ignore"):
        for layout, members in layouts.items():
            rows = [r for r, c in enumerate(layout) if c in _SCHEMA_POSITION]
            cells = np.ix_(members, [_SCHEMA_POSITION[layout[r]] for r in rows])
            # np.mean's arithmetic: a pairwise sum of each row, then a division.
            sums = [np.add.reduce(stores[i].values, axis=1) for i in members]
            table = np.array(sums).reshape(len(members), len(layout))[:, rows]
            table /= np.diff(offsets)[members, None]
            reported = np.ones(table.shape, dtype=bool)
            full = np.ones(table.shape, dtype=bool)
            # A NaN mean is a missing value or an overflow; only the former
            # takes the mean of the row's reported values.
            for a, b in zip(*(ix.tolist() for ix in np.nonzero(np.isnan(table)))):
                row = stores[members[a]].values[rows[b]]
                kept = row[~np.isnan(row)]
                if kept.size < row.size:
                    full[a, b] = False
                    reported[a, b] = kept.size > 0
                    if kept.size:
                        table[a, b] = np.mean(kept)
            means[cells], present[cells], complete[cells] = table, reported, full
    # The stacked block's columns: metrics every in-window sample reports.
    shared = complete.all(axis=0).tolist() if nodes else [False] * len(METRIC_SCHEMA)
    columns = [m for m, keep in zip(METRIC_SCHEMA, shared) if keep]

    stacked = np.empty((int(offsets[-1]), len(columns)))
    if columns:
        bounds = offsets.tolist()
        for layout, members in layouts.items():
            index = [layout.index(m) for m in columns]
            if index == list(range(index[0], index[-1] + 1)):
                index = slice(index[0], index[-1] + 1)  # a view, not a copy
            for i in members:
                stacked[bounds[i]:bounds[i + 1]] = stores[i].values[index].T
    stacked.flags.writeable = False

    return FeatureDatasets(
        stage_id=stage.stage_id,
        tnum=tnum,
        data_size=ok,
        locality=ok,
        nodes=nodes,
        means=means,
        present=present,
        stacked=stacked,
        offsets=offsets,
        matrix_metrics=columns,
        ultrashort_count=len(ok) - len(counted),
        failed_count=len(tasks) - len(ok),
        missing_metric_nodes=missing,
    )
