"""Outlier-metric pipeline: PCA metric selection, time-series reduction,
min-max normalization and the combined distance/magnitude outlier detector,
plus a brute-force distance-based reference oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .correlate import FeatureDatasets
from .model import METRIC_SCHEMA


@dataclass(frozen=True)
class OutlierConfig:
    transform: str = "mean"  # mean | fft
    representative: str = "max_min"  # median | max_min
    dmin: float = 0.6
    pct: float = 1.0
    ccrate: float = 0.95
    magnitude_gap: int = 2  # decades of spread that trigger the log branch

    def __post_init__(self) -> None:
        if self.transform not in ("mean", "fft"):
            raise ValueError("transform must be 'mean' or 'fft'")
        if self.representative not in ("median", "max_min"):
            raise ValueError("representative must be 'median' or 'max_min'")
        if not 0 < self.dmin < 1:
            raise ValueError("dmin must be in (0,1)")
        if not 0 < self.pct <= 1:
            raise ValueError("pct must be in (0,1]")
        if not 0 < self.ccrate <= 1:
            raise ValueError("ccrate must be in (0,1]")
        if self.magnitude_gap <= 0:
            raise ValueError("magnitude_gap must be positive")


@dataclass
class PcaSelection:
    components: np.ndarray  # column w holds the w-th eigenvector
    eigenvalues: np.ndarray  # descending
    d: int
    selected_metrics: List[str]
    ccrate: List[float]  # cumulative contribution per dimension count
    degenerate: str = ""  # why the selection fell back to all metrics, if it did


def pca_select_metrics(
    matrix: np.ndarray, metric_names: Sequence[str], ccrate: float = 0.95
) -> PcaSelection:
    """Pick the metrics that own the top principal components.

    Columns are mean-centered, the covariance spectrum is taken, d is the
    smallest dimension whose cumulative contribution reaches the target, and
    each retained component is attributed to the metric with the largest
    absolute loading.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("PCA needs a 2-D matrix with at least two rows")
    if x.shape[1] != len(metric_names):
        raise ValueError("metric_names must match the matrix column count")
    m, k = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / m
    if np.isfinite(cov).all():
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]
        total = float(eigenvalues.sum())
        fallback = "zero-variance stage matrix" if total <= 0 else ""
    else:
        # Values near the float range overflow the covariance: no spectrum.
        eigenvalues, eigenvectors = np.full(k, np.nan), np.full((k, k), np.nan)
        fallback = "non-finite stage covariance"
    if fallback:
        return PcaSelection(
            components=eigenvectors,
            eigenvalues=eigenvalues,
            d=k,
            selected_metrics=list(metric_names),
            ccrate=[1.0] * k,
            degenerate=fallback,
        )
    cumulative = list(np.cumsum(eigenvalues) / total)
    # Rounding can leave the last cumulative value just below a target of 1.0.
    d = next((i + 1 for i, c in enumerate(cumulative) if c >= ccrate), len(cumulative))
    attributed: Set[str] = set()
    for w in range(d):
        attributed.add(metric_names[int(np.argmax(np.abs(eigenvectors[:, w])))])
    selected = [name for name in metric_names if name in attributed]
    return PcaSelection(
        components=eigenvectors,
        eigenvalues=eigenvalues,
        d=d,
        selected_metrics=selected,
        ccrate=cumulative,
    )


def reduce_mean(series: Sequence[float]) -> Optional[float]:
    """Arithmetic mean; empty series reduce to missing. A sum that overflows
    gives inf (or NaN, from opposite infinities), as in build_datasets' mean
    table, and no numpy warning."""
    if len(series) == 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(series))


def reduce_fft(series: Sequence[float]) -> Optional[float]:
    """Spectral magnitude of a series: the L2 norm of all non-DC DFT bins.

    Excluding the DC term keeps the statistic orthogonal to the mean-value
    reduction; by Parseval it equals sqrt(N * sum((x - mean)^2)).
    """
    n = len(series)
    if n < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        magnitudes = np.abs(np.fft.fft(np.asarray(series, dtype=float))[1:])
        norm = np.sqrt(np.sum(magnitudes**2))
        if not np.isfinite(norm):
            # Squares overflow past about 1e154: scale by the largest first.
            peak = magnitudes.max()
            norm = peak * np.sqrt(np.sum((magnitudes / peak) ** 2))
    return float(norm)


def minmax_normalize(values: Sequence[float]) -> Tuple[List[float], bool]:
    """Scale values onto [0,1]; a constant input degenerates to all 0.5."""
    if len(values) < 2:
        raise ValueError("min-max normalization needs at least two values")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0.5] * len(values), True
    span = hi - lo
    return [(v - lo) / span for v in values], False


def _order_of_magnitude(value: float) -> int:
    # Truncated toward zero: 0.006838 -> -2, 0.156 -> 0, 500 -> 2.
    return int(math.log10(value))


@dataclass
class OutlierResult:
    evaluable: bool
    branch: str = ""  # distance | magnitude
    outliers: List[str] = field(default_factory=list)
    distances: Dict[str, float] = field(default_factory=dict)  # outlier -> score
    warnings: List[str] = field(default_factory=list)


def detect_metric_outliers(
    values: Mapping[str, float], cfg: OutlierConfig = OutlierConfig()
) -> OutlierResult:
    """Alg-style combined detector over one metric's per-node reductions.

    The branch test runs on the raw reductions: positive values spanning at
    least magnitude_gap decades (truncated orders of magnitude) go to the
    log-scale branch, everything else to the class-split distance branch on
    min-max-normalized values.
    """
    clean = {k: float(v) for k, v in values.items() if v is not None and math.isfinite(v)}
    warnings: List[str] = []
    dropped = sorted(k for k, v in values.items() if v is not None and k not in clean)
    if dropped:
        warnings.append("non-finite reduction dropped for: " + ", ".join(dropped))
    if len(clean) < 3:
        return OutlierResult(evaluable=False, warnings=warnings + ["fewer than 3 usable values"])
    names = sorted(clean)
    raw = [clean[n] for n in names]

    if all(v > 0 for v in raw):
        orders = [_order_of_magnitude(v) for v in raw]
        if min(orders) - max(orders) <= -cfg.magnitude_gap:
            return _magnitude_branch(names, raw, warnings)
    elif any(v <= 0 for v in raw):
        warnings.append("nonpositive values: magnitude branch not applicable")

    return _distance_branch(names, raw, cfg, warnings)


def _magnitude_branch(names: List[str], raw: List[float], warnings: List[str]) -> OutlierResult:
    logs = [math.log10(v) for v in raw]
    center = float(np.median(logs))
    dist = [abs(v - center) for v in logs]
    mean_dist = sum(dist) / len(dist)
    variance = float(np.var(dist))
    outliers = []
    distances = {}
    for name, d in zip(names, dist):
        if d > mean_dist and (d - mean_dist) > variance:
            outliers.append(name)
            distances[name] = d
    return OutlierResult(
        evaluable=True,
        branch="magnitude",
        outliers=outliers,
        distances=distances,
        warnings=warnings,
    )


def _distance_branch(
    names: List[str], raw: List[float], cfg: OutlierConfig, warnings: List[str]
) -> OutlierResult:
    normalized, degenerate = minmax_normalize(raw)
    if degenerate:
        warnings.append("degenerate normalization: all values equal")
    hi = max(normalized)
    lo = min(normalized)
    class_a = []  # seeded at the maximum
    class_b = []  # seeded at the minimum
    for name, v in zip(names, normalized):
        if abs(v - hi) <= abs(v - lo):
            class_a.append((name, v))
        else:
            class_b.append((name, v))

    if len(class_a) <= len(class_b):  # ties keep the max-seeded class as candidates
        candidates, larger, extremum = class_a, class_b, lo
    else:
        candidates, larger, extremum = class_b, class_a, hi
    if not candidates or not larger:
        return OutlierResult(evaluable=True, branch="distance", warnings=warnings)

    if cfg.representative == "median":
        representative = float(np.median([v for _, v in larger]))
    else:
        representative = extremum
    outliers = []
    distances = {}
    for name, v in candidates:
        d = abs(v - representative)
        if d >= cfg.dmin:
            outliers.append(name)
            distances[name] = d
    return OutlierResult(
        evaluable=True,
        branch="distance",
        outliers=outliers,
        distances=distances,
        warnings=warnings,
    )


def db_outlier_oracle(
    values: Mapping[str, float], pct: float = 1.0, dmin: float = 0.5
) -> Set[str]:
    """Literal DB(pct,dmin) definition, brute force: a point is an outlier
    when at least a pct fraction of the other points lie farther than dmin."""
    items = list(values.items())
    if len(items) < 2:
        raise ValueError("the DB oracle needs at least two values")
    outliers: Set[str] = set()
    for name, v in items:
        far = sum(1 for other, w in items if other != name and abs(w - v) > dmin)
        if far >= pct * (len(items) - 1):
            outliers.add(name)
    return outliers


@dataclass
class MetricDiagnosis:
    evaluable: bool
    selection: Optional[PcaSelection] = None
    findings: List[Tuple[str, str, str, float]] = field(
        default_factory=list
    )  # (metric, node, branch, distance)
    warnings: List[str] = field(default_factory=list)


def diagnose_outlier_metrics(
    datasets: FeatureDatasets, cfg: OutlierConfig = OutlierConfig()
) -> MetricDiagnosis:
    """Full per-stage pipeline: PCA once over the stacked samples of every
    node, then reduce / branch-test / normalize / detect per selected
    metric. The mean transform reads its reductions from the mean table.

    One metric's failure never aborts the stage; it surfaces as a warning.
    """
    nodes = datasets.nodes
    if len(nodes) < 3 or not datasets.matrix_metrics:
        return MetricDiagnosis(
            evaluable=False, warnings=["matrix dataset available for fewer than 3 nodes"]
        )
    selection = pca_select_metrics(datasets.stacked, datasets.matrix_metrics, cfg.ccrate)
    warnings: List[str] = []
    if selection.degenerate:
        warnings.append(f"{selection.degenerate}: PCA fell back to all metrics")

    bounds = list(zip(datasets.offsets.tolist(), datasets.offsets[1:].tolist()))
    # FFT compares spectra, so series are truncated to the common length.
    common = min(hi - lo for lo, hi in bounds)
    findings: List[Tuple[str, str, str, float]] = []
    for metric in selection.selected_metrics:
        if cfg.transform == "fft":
            column = datasets.stacked[:, datasets.matrix_metrics.index(metric)]
            values = [reduce_fft(column[lo:lo + common]) for lo, _ in bounds]
        else:
            values = datasets.means[:, METRIC_SCHEMA.index(metric)].tolist()
        reductions = {node: v for node, v in zip(nodes, values) if v is not None}
        result = detect_metric_outliers(reductions, cfg)
        warnings.extend(f"{metric}: {w}" for w in result.warnings)
        if not result.evaluable:
            continue
        for node in result.outliers:
            findings.append((metric, node, result.branch, result.distances[node]))
    findings.sort(key=lambda f: (f[0], f[1]))
    return MetricDiagnosis(
        evaluable=True, selection=selection, findings=findings, warnings=warnings
    )
