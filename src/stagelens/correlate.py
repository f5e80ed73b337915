"""Stage-resource correlation: slice node metrics by stage windows and build
the per-stage feature datasets consumed by the detectors.

Both work on the trace's clock groups (see `model`): a window is found
with one search per group, and means and sample rows are taken once per
batch of groups that share a column layout and a window length, not once
per node."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (
    METRIC_SCHEMA,
    ClockGroup,
    ClockGroups,
    MetricStore,
    Stage,
    TaskTable,
    Trace,
    median,
    window_bounds,
)


class CorrelateError(Exception):
    pass


@dataclass(frozen=True)
class StageWindow:
    start: int
    finish: int
    nodes: frozenset


def stage_window(stage: Stage) -> StageWindow:
    """The stage's task-time envelope and the set of hosts that ran its tasks."""
    if not stage.tasks:
        raise CorrelateError(f"stage {stage.stage_id}: cannot window an empty stage")
    return StageWindow(
        start=stage.start_time,
        finish=stage.finish_time,
        nodes=frozenset(stage.tasks.nodes),
    )


class GroupCut(NamedTuple):
    """The window's part of one clock group: sample columns lo:hi of the
    group rows `rows` (None: every row)."""

    group: ClockGroup
    rows: Optional[List[int]]
    lo: int
    hi: int

    @property
    def nodes(self) -> Tuple[str, ...]:
        nodes = self.group.nodes
        return nodes if self.rows is None else tuple(map(nodes.__getitem__, self.rows))

    @property
    def values(self) -> np.ndarray:
        """float64[len(nodes), columns, hi - lo]: a view when `rows` is None,
        else a copy of the picked rows' window only."""
        block = self.group.values[:, :, self.lo : self.hi]
        return block if self.rows is None else block[self.rows]


_NO_SERIES = MetricStore("", np.empty(0, np.int64), (), np.empty((0, 0)))
_NO_SERIES.timestamps.flags.writeable = _NO_SERIES.values.flags.writeable = False


@dataclass(eq=False)
class MetricSlices:
    """A stage window's metric samples: `cuts` holds, per clock group, the
    in-window samples of the group's window nodes (only cuts that hold
    samples), and `gaps` the sorted window nodes without any.

    `series` is node -> in-window MetricStore (views; an empty store for a
    gap node), for every window node in sorted order, built when first read.
    The pipeline reads only `cuts` and `gaps`; `series` is kept only for
    perfbench/spans.py:105, whose replay counts its samples.
    """

    cuts: List[GroupCut]
    gaps: List[str]

    @cached_property
    def series(self) -> Dict[str, MetricStore]:
        series = {
            node: MetricStore(node, _NO_SERIES.timestamps, (), _NO_SERIES.values)
            for node in self.gaps
        }
        for cut in self.cuts:
            group, lo, hi = cut.group, cut.lo, cut.hi
            rows = range(len(group.nodes)) if cut.rows is None else cut.rows
            for row, node in zip(rows, cut.nodes):
                series[node] = MetricStore(
                    node, group.timestamps[lo:hi], group.columns, group.values[row, :, lo:hi]
                )
        return dict(sorted(series.items()))


def slice_metrics(trace: Trace, window: StageWindow) -> MetricSlices:
    """Inclusive-bounds slice of the window nodes' metric series: one search
    per clock group."""
    metrics: ClockGroups = trace.metrics  # type: ignore[assignment]
    cuts: List[GroupCut] = []
    gaps: List[str] = []
    inside = window.nodes
    for group in metrics.groups:
        rows: Optional[List[int]] = None
        if not inside.issuperset(group.nodes):
            rows = [i for i, node in enumerate(group.nodes) if node in inside]
            if not rows:
                continue
        lo, hi = window_bounds(group.timestamps, window.start, window.finish)
        cut = GroupCut(group, rows, lo, hi)
        if hi > lo:
            cuts.append(cut)
        else:
            gaps += cut.nodes
    gaps += inside.difference(metrics)  # window nodes without a series
    return MetricSlices(cuts=cuts, gaps=sorted(gaps))


@dataclass(frozen=True)
class UltrashortPolicy:
    """A task is ultrashort below max(absolute floor, fraction of the stage
    median runtime); such tasks distort task-count comparisons."""

    absolute_ms: int = 1000
    median_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not self.absolute_ms >= 0:
            raise ValueError("ultrashort_absolute_ms must be nonnegative")
        if not 0 <= self.median_fraction <= 1:
            raise ValueError("ultrashort_median_fraction must be in [0,1]")

    def threshold(self, runtimes: Sequence[int]) -> float:
        if not len(runtimes):
            return float(self.absolute_ms)
        return max(float(self.absolute_ms), self.median_fraction * median(np.asarray(runtimes)))


#: The byte budget of each temporary array of the detectors' chunked loops:
#: the node screen's rows of the p x p pair tables and the products behind
#: them, PCA's centered chunks and the FFT screen's series. nodedetect and
#: metricdetect read it here when they run.
_BLOCK_BYTES = 256 * 1024


@dataclass(eq=False)
class FeatureDatasets:
    """One stage's features. The metric features are arrays over `nodes`,
    the sorted nodes with in-window samples:

    - `means[i, j]` is node i's window mean of METRIC_SCHEMA[j] over the
      samples that report it, and `present[i, j]` says whether any does
      (`means` holds NaN where none does). A mean of finite values can
      itself overflow to inf or NaN, so only `present` tells presence.
    - `blocks` holds the samples of `matrix_metrics`, one read-only block
      per batch of window cuts (the cuts with one column layout and window
      length): `blocks[b][r, j, t]` is sample t of `matrix_metrics[j]` on
      node `nodes[positions[b][r]]`. A block is a view of its clock group's
      values when the batch is one cut of whole group rows and the matrix
      columns are consecutive in its layout; else a copy.
    - `counts[i]` is node i's number of in-window samples.

    Each batch gives its means with one `np.add.reduce` (the pairwise sums
    np.mean takes, node by node). The detectors read the arrays; PCA and the
    FFT screen read the blocks a chunk of nodes at a time.

    `data_size` is the table of the stage's successful tasks, which the
    straggler, skew and placement screens read.

    Second forms kept only for perfbench/spans.py's traced replay of the
    pipeline, which no `diagnose` path reads:

    - `locality`, the same table as `data_size` (spans.py:122-124);
    - `vectors`, a read-only view of the means (spans.py:129-133), and
      `matrix`, built from the blocks when first read (spans.py:138-146).
    """

    stage_id: str
    tnum: Dict[str, int]
    data_size: TaskTable  # the successful tasks
    locality: TaskTable  # the same table, for perfbench/spans.py
    nodes: List[str]
    means: np.ndarray  # float64[len(nodes), len(METRIC_SCHEMA)]
    present: np.ndarray  # bool, the shape of means
    blocks: List[np.ndarray]  # float64[batch nodes, len(matrix_metrics), window length]
    positions: List[np.ndarray]  # int64[batch nodes]: each block row's index in nodes
    counts: np.ndarray  # int64[len(nodes)]
    matrix_metrics: List[str]  # metrics every in-window sample reports
    ultrashort_count: int = 0
    failed_count: int = 0

    @cached_property
    def vectors(self) -> Mapping[str, Mapping[str, float]]:
        """node -> metric -> window mean of its present metrics, read-only."""
        return MappingProxyType({
            node: MappingProxyType({m: v for m, v, p in zip(METRIC_SCHEMA, row, mask) if p})
            for node, row, mask in zip(self.nodes, self.means.tolist(), self.present.tolist())
        })

    @cached_property
    def matrix(self) -> Mapping[str, np.ndarray]:
        """node -> its samples x `matrix_metrics`, C-contiguous and read-only;
        empty without matrix metrics."""
        if not self.matrix_metrics:
            return MappingProxyType({})
        stacked = stack_samples(self.blocks, self.positions, self.counts)
        stacked.flags.writeable = False
        ends = np.cumsum(self.counts).tolist()
        return MappingProxyType({
            node: stacked[end - n : end]
            for node, n, end in zip(self.nodes, self.counts.tolist(), ends)
        })


def stack_samples(
    blocks: Sequence[np.ndarray], positions: Sequence[np.ndarray], counts: np.ndarray
) -> np.ndarray:
    """The blocks' samples as one C-contiguous samples x metrics array: node
    after node in position order, each node's samples in time order. One
    transposing copy per run of a block's rows whose positions follow each
    other."""
    starts = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=starts[1:])
    stacked = np.empty((int(starts[-1]), blocks[0].shape[1] if blocks else 0))
    for block, at in zip(blocks, positions):
        rows, columns, n = block.shape
        source = block.transpose(0, 2, 1)
        breaks = (np.flatnonzero(np.diff(at) != 1) + 1).tolist()
        for i, j in zip([0] + breaks, breaks + [rows]):
            top = int(starts[at[i]])
            stacked[top : top + (j - i) * n].reshape(j - i, n, columns)[...] = source[i:j]
    return stacked


_SCHEMA_POSITION = {m: j for j, m in enumerate(METRIC_SCHEMA)}


@lru_cache(maxsize=64)
def _schema_rows(layout: Tuple[str, ...]) -> Tuple[slice, Tuple[int, ...]]:
    """The rows of a layout that hold schema metrics, which lead a group's
    columns (store order), and those metrics' positions in METRIC_SCHEMA.
    Kept per layout, as model.metric_columns keeps the layouts."""
    cells = tuple([_SCHEMA_POSITION[c] for c in layout if c in _SCHEMA_POSITION])
    return slice(0, len(cells)), cells


@lru_cache(maxsize=64)
def _matrix_index(
    layout: Tuple[str, ...], columns: Tuple[str, ...]
) -> Union[slice, Tuple[int, ...]]:
    """The rows of a layout that hold `columns`, in their order: a slice
    when they are consecutive, so that taking them is a view, not a copy."""
    index = tuple([layout.index(m) for m in columns])
    first = index[0] if index else 0
    if index == tuple(range(first, first + len(index))):
        return slice(first, first + len(index))
    return index


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
    for code in dict.fromkeys(counted.tolist()):
        tnum[ok.nodes[code]] = tally[code]

    # Cuts with one column layout and window length form one batch, whose
    # block holds their nodes' windows (a copy only for several cuts). The
    # batches' nodes, concatenated, land at `position` of the sorted nodes.
    batches: Dict[Tuple[Tuple[str, ...], int], List[GroupCut]] = {}
    for cut in slices.cuts:
        batches.setdefault((cut.group.columns, cut.hi - cut.lo), []).append(cut)
    blocks = [
        cuts[0].values if len(cuts) == 1 else np.concatenate([cut.values for cut in cuts])
        for cuts in batches.values()
    ]
    names = [node for cuts in batches.values() for cut in cuts for node in cut.nodes]
    order = sorted(range(len(names)), key=names.__getitem__)
    nodes = [names[j] for j in order]
    position = np.empty(len(names), np.int64)
    position[order] = np.arange(len(names))
    at = list(accumulate(map(len, blocks), initial=0))  # each batch's first node
    counts = np.repeat(np.array([n for _, n in batches], np.int64), list(map(len, blocks)))[order]
    shape = (len(nodes), len(METRIC_SCHEMA))
    means = np.full(shape, np.nan)
    present = np.zeros(shape, dtype=bool)
    complete = np.zeros(shape, dtype=bool)  # every in-window sample reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for (layout, n), block, a, b in zip(batches, blocks, at, at[1:]):
            rows, cells = _schema_rows(layout)
            # np.mean's arithmetic: a pairwise sum of each row, then a division.
            table = np.add.reduce(block[:, rows], axis=2)
            table /= n
            reported = np.ones(table.shape, dtype=bool)
            full = np.ones(table.shape, dtype=bool)
            # A NaN mean is a missing value or an overflow; only the former
            # takes the mean of the row's reported values.
            for i, j in zip(*(ix.tolist() for ix in np.nonzero(np.isnan(table)))):
                row = block[i, rows][j]
                kept = row[~np.isnan(row)]
                if kept.size < row.size:
                    full[i, j] = False
                    reported[i, j] = kept.size > 0
                    if kept.size:
                        table[i, j] = np.mean(kept)
            index = np.ix_(position[a:b], cells)
            means[index], present[index], complete[index] = table, reported, full
    # The matrix metrics: those every in-window sample reports.
    shared = complete.all(axis=0).tolist() if nodes else [False] * len(METRIC_SCHEMA)
    columns = [m for m, keep in zip(METRIC_SCHEMA, shared) if keep]
    matrix_blocks = []
    wanted = tuple(columns)
    for (layout, _), block in zip(batches, blocks):
        matrix_block = block[:, _matrix_index(layout, wanted)]
        matrix_block.flags.writeable = False
        matrix_blocks.append(matrix_block)

    return FeatureDatasets(
        stage_id=stage.stage_id,
        tnum=tnum,
        data_size=ok,
        locality=ok,
        nodes=nodes,
        means=means,
        present=present,
        blocks=matrix_blocks,
        positions=[position[a:b] for a, b in zip(at, at[1:])],
        counts=counts,
        matrix_metrics=columns,
        ultrashort_count=len(ok) - len(counted),
        failed_count=len(tasks) - len(ok),
    )
