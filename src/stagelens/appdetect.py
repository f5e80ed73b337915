"""Application-level detectors: workload imbalance, skew data size, uneven
data placement and the straggler-node screen."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import model
from .model import LOCALITY_CODES, Locality, TaskTable

DEFAULT_PRIORITIES: Dict[Locality, float] = {
    Locality.PROCESS_LOCAL: 0.0,
    Locality.NODE_LOCAL: 1.0,
    Locality.RACK_LOCAL: 1.0,
    Locality.ANY: 2.0,
    Locality.OFF_SWITCH: 2.0,
    Locality.UNKNOWN: 1.0,
}
DEFAULT_TH_SIZE = 1.5  # skew: multiple of the median data size
DEFAULT_TH_D = 1.5  # straggler: multiple of the median mean runtime
DEFAULT_FLAG_SMALL = False  # skew: also flag sizes th_size below the median


@dataclass(frozen=True)
class ImbalanceConfig:
    bc: float = 0.1  # tolerated imbalance as a fraction of the stage mean
    th_ub: float = 0.6  # unbalanced-stage ratio above which a job is unbalanced

    def __post_init__(self) -> None:
        if not 0 < self.bc < 1:
            raise ValueError("balance coefficient must be in (0,1)")
        if not 0 < self.th_ub <= 1:
            raise ValueError("job imbalance threshold must be in (0,1]")


@dataclass(frozen=True)
class PlacementConfig:
    priorities: Mapping[Locality, float] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITIES)
    )

    def __post_init__(self) -> None:
        for loc, weight in self.priorities.items():
            if not 0 <= weight < math.inf:
                raise ValueError(f"priority for {loc.value} must be finite and nonnegative")


@dataclass
class ImbalanceResult:
    evaluable: bool
    unbalanced: bool = False
    mean: float = 0.0
    tilt: List[Tuple[float, str]] = field(default_factory=list)  # descending
    flagged: List[str] = field(default_factory=list)  # tilt-rank order


def detect_workload_imbalance(
    tnum: Mapping[str, int], cfg: ImbalanceConfig = ImbalanceConfig()
) -> ImbalanceResult:
    """Per-stage task-count imbalance.

    A node is flagged when its count deviates from the mean by more than
    bc*mean; the stage is unbalanced when the summed absolute deviations
    exceed bc*mean*p. Tilt ranks how far past the tolerance each node sits.
    """
    p = len(tnum)
    if p < 1:
        return ImbalanceResult(evaluable=False)
    mean = sum(tnum.values()) / p
    if mean == 0:
        return ImbalanceResult(evaluable=False)

    tolerance = cfg.bc * mean
    diff = {node: count - mean for node, count in tnum.items()}
    total_diff = sum(abs(d) for d in diff.values())
    tilt = sorted(
        ((abs(abs(d) - tolerance), node) for node, d in diff.items()),
        key=lambda item: (-item[0], item[1]),
    )
    flagged_set = {node for node, d in diff.items() if abs(d) > tolerance}
    flagged = [node for _, node in tilt if node in flagged_set]
    return ImbalanceResult(
        evaluable=True,
        unbalanced=total_diff > tolerance * p,
        mean=mean,
        tilt=tilt,
        flagged=flagged,
    )


@dataclass
class JobImbalance:
    evaluable: bool
    unbalanced: bool = False
    ratio_ub: float = 0.0


def judge_job_imbalance(
    stage_results: Sequence[ImbalanceResult], cfg: ImbalanceConfig = ImbalanceConfig()
) -> JobImbalance:
    """Job verdict: fraction of unbalanced stages among evaluable ones."""
    evaluable = [r for r in stage_results if r.evaluable]
    if not evaluable:
        return JobImbalance(evaluable=False)
    ratio = sum(1 for r in evaluable if r.unbalanced) / len(evaluable)
    return JobImbalance(evaluable=True, unbalanced=ratio > cfg.th_ub, ratio_ub=ratio)


@dataclass
class SkewResult:
    evaluable: bool
    median: float = 0.0
    flagged_tasks: List[Tuple[str, str, float]] = field(default_factory=list)  # (node, task, ratio)
    flagged_nodes: List[Tuple[str, float]] = field(default_factory=list)  # (node, ratio)


def _node_totals(
    tasks: TaskTable, values: np.ndarray
) -> Tuple[Sequence[str], List[int], List[int]]:
    """The table's nodes in name order, with each one's task count and the
    exact integer sum of its tasks' values."""
    if not len(tasks):
        return (), [], []
    counts = np.bincount(tasks.node)
    if len(values) * int(np.abs(values).max()) >= 2**63:
        values = values.astype(object)  # Python ints: an int64 sum could wrap
    by_node = values[np.argsort(tasks.node, kind="stable")]
    sums = np.add.reduceat(by_node, np.cumsum(counts) - counts)
    return tasks.nodes, counts.tolist(), sums.tolist()


def mean_runtimes(tasks: TaskTable) -> Dict[str, float]:
    """Each node's mean task runtime, the straggler screen's input."""
    nodes, counts, totals = _node_totals(tasks, tasks.runtime)
    return {node: total / count for node, count, total in zip(nodes, counts, totals)}


def check_multiple(name: str, value: float) -> None:
    """The rule for a multiple of a median (th_size, th_d): it exceeds 1."""
    if not value > 1:
        raise ValueError(f"{name} must exceed 1")


def detect_skew_data_size(
    data_size: TaskTable, th_size: float = DEFAULT_TH_SIZE,
    flag_small: bool = DEFAULT_FLAG_SMALL,
) -> SkewResult:
    """Flag tasks/nodes whose data size outruns the stage median by th_size.

    `data_size` is a table of tasks, as in `FeatureDatasets`. Flagged tasks
    are listed by task id. flag_small additionally tests the reciprocal
    ratio, catching much-smaller sizes; it defaults off.
    """
    check_multiple("th_size", th_size)
    tasks = data_size
    if not len(tasks):
        return SkewResult(evaluable=False)
    sizes = tasks.data_size
    median = model.median(sizes)
    if median == 0:
        return SkewResult(evaluable=False)

    def skewed(values: np.ndarray) -> np.ndarray:
        """Each value's ratio to the median (or, with flag_small, the
        median's to it) where that passes th_size, else 0. Values and
        median are exact as floats, so each ratio is the one Python's
        division of the numbers gives."""
        ratio = values / median
        small = np.zeros(len(values))
        if flag_small:
            np.divide(median, values, out=small, where=values > 0)
        ratio = np.where(ratio > th_size, ratio, small)
        return np.where(ratio > th_size, ratio, 0.0)

    ratio = skewed(sizes)
    hit = np.flatnonzero(ratio).tolist()
    flagged_tasks = sorted(
        zip(
            map(tasks.nodes.__getitem__, tasks.node[hit].tolist()),
            map(tasks.task_id.__getitem__, hit),
            ratio[hit].tolist(),
        ),
        key=lambda row: row[1],
    )
    # statistics.fmean of a node's sizes: their exact sum, rounded once.
    nodes, counts, totals = _node_totals(tasks, sizes)
    means = np.array([float(total) / count for count, total in zip(counts, totals)])
    flagged_nodes = [(node, r) for node, r in zip(nodes, skewed(means).tolist()) if r]
    return SkewResult(
        evaluable=True,
        median=median,
        flagged_tasks=flagged_tasks,
        flagged_nodes=flagged_nodes,
    )


@dataclass(frozen=True)
class PlacementEntry:
    locality: Locality
    node: str
    ratio: float
    outlier_count: int


def detect_uneven_placement(
    locality: TaskTable, cfg: PlacementConfig = PlacementConfig(), total: Optional[int] = None
) -> List[PlacementEntry]:
    """Locality-weighted share of long-runtime outlier tasks per node.

    `locality` is a table of tasks, as in `FeatureDatasets`. Distances are
    runtimes minus the stage median; the suspicion group holds tasks beyond
    the mean absolute deviation, and an outlier must additionally clear 1.96
    standard deviations on the long-runtime side.
    """
    tasks = locality
    if len(tasks) < 2:
        raise ValueError("uneven placement needs at least two tasks")
    runtimes = tasks.runtime.astype(np.float64)
    n = len(runtimes)
    num = total if total is not None else n
    # Sums run left to right, as Python's sum() of floats does.
    med = model.median(runtimes)
    mean_rt = np.cumsum(runtimes)[-1].item() / n
    deviation = runtimes - mean_rt
    std = (np.cumsum(deviation * deviation)[-1].item() / n) ** 0.5
    if std == 0:
        return []
    dis = runtimes - med
    mad = np.cumsum(np.abs(dis))[-1].item() / n

    outlier = (np.abs(dis) > mad) & (np.abs(np.abs(dis) - mad) > 1.96 * std) & (dis > 0)
    # One count per (node, locality) pair of outliers.
    width = len(LOCALITY_CODES)
    counts = np.bincount(tasks.node[outlier].astype(np.int64) * width + tasks.locality[outlier])
    entries = []
    for pair in np.flatnonzero(counts).tolist():
        code, loc = divmod(pair, width)
        loc, count = LOCALITY_CODES[loc], int(counts[pair])
        ratio = count / num * cfg.priorities.get(loc, DEFAULT_PRIORITIES[Locality.UNKNOWN])
        if ratio > 0:
            entries.append(
                PlacementEntry(locality=loc, node=tasks.nodes[code], ratio=ratio, outlier_count=count)
            )
    entries.sort(key=lambda e: (-e.ratio, e.node, e.locality.value))
    return entries


@dataclass
class StragglerResult:
    evaluable: bool
    median: float = 0.0
    stragglers: List[Tuple[str, float]] = field(default_factory=list)  # (node, scale)


def detect_stragglers(
    mean_runtime: Mapping[str, float], th_d: float = DEFAULT_TH_D
) -> StragglerResult:
    """Nodes whose mean task runtime exceeds th_d times the cluster median."""
    check_multiple("th_d", th_d)
    if len(mean_runtime) < 2:
        return StragglerResult(evaluable=False)
    med = model.median(np.fromiter(mean_runtime.values(), np.float64, len(mean_runtime)))
    if med == 0:
        return StragglerResult(evaluable=False)
    stragglers = [
        (node, rt / med)
        for node, rt in sorted(mean_runtime.items())
        if rt / med > th_d
    ]
    stragglers.sort(key=lambda item: (-item[1], item[0]))
    return StragglerResult(evaluable=True, median=med, stragglers=stragglers)
