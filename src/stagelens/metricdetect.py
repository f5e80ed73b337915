"""Outlier-metric pipeline: PCA metric selection, time-series reduction,
min-max normalization and the combined distance/magnitude outlier detector,
plus a brute-force distance-based reference oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from . import correlate
from .correlate import _SCHEMA_POSITION, FeatureDatasets, stack_samples

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass(frozen=True)
class OutlierConfig:
    """The outlier-metric detector's settings. The detector implements
    DB(1, dmin) only: a node's normalized value of a metric is an outlier
    when every other node's lies farther than dmin from it. So `pct` must
    be 1.0; any other value raises ValueError naming it."""

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
        if self.pct != 1.0:
            raise ValueError(
                f"pct must be 1.0 (the detector implements DB(1, dmin)), got {self.pct!r}"
            )
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
    """Pick the metrics that own the top principal components of a samples x
    metrics matrix.

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
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _centered_gram([x.T[None]], x.mean(axis=0)) / len(x)
    return _spectrum_selection(cov, metric_names, ccrate)


def _stage_selection(datasets: FeatureDatasets, ccrate: float) -> PcaSelection:
    """pca_select_metrics over the stage's samples of its matrix metrics,
    read from the blocks, with the column means of the mean table weighted
    by sample counts.

    A stage falls back to all metrics when its covariance has no variance,
    and that can turn on the rounding of the mean: a constant column has
    variance only where its mean is not exactly its value. Any mean of m
    samples of a constant column is within (m + 8) eps of its value. So
    when no column's variance clears twice the square of twice that bound,
    the mean is taken again as pca_select_metrics takes it, a row-by-row sum
    of the samples. (A mean that overflows here and not row by row needs
    values near the float range of both signs, and their squares overflow
    the covariance about any mean.)
    """
    counts = datasets.counts
    columns = [_SCHEMA_POSITION[m] for m in datasets.matrix_metrics]
    m = int(counts.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(datasets.means[:, columns] * counts[:, None], axis=0) / m
        cov = _centered_gram(datasets.blocks, mean) / m
        slack = 2 * (m + 8) * _EPS * np.abs(mean)
        if not (np.diagonal(cov) > 2 * slack * slack + _TINY).any():
            mean = stack_samples(datasets.blocks, datasets.positions, counts).mean(axis=0)
            cov = _centered_gram(datasets.blocks, mean) / m
    return _spectrum_selection(cov, datasets.matrix_metrics, ccrate)


def _centered_gram(blocks: Sequence[np.ndarray], mean: np.ndarray) -> np.ndarray:
    """The sum over all samples of the blocks (nodes x metrics x samples
    each) of (x - mean)(x - mean)^T. Each chunk of a block's nodes, or of
    one node's samples when a node exceeds the budget, is centered into one
    metrics x samples copy within _BLOCK_BYTES and multiplied by its
    transpose."""
    k = len(mean)
    gram = np.zeros((k, k))
    budget = max(1, correlate._BLOCK_BYTES // (8 * max(k, 1)))  # samples per chunk
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            nodes, _, n = block.shape
            width = min(n, budget)
            rows = max(1, budget // width)
            for a in range(0, nodes, rows):
                for t in range(0, n, width):
                    piece = block[a : a + rows, :, t : t + width]
                    centered = np.empty((k, len(piece), piece.shape[2]))
                    np.subtract(piece.transpose(1, 0, 2), mean[:, None, None], out=centered)
                    centered = centered.reshape(k, -1)
                    gram += centered @ centered.T
    return gram


def _spectrum_selection(
    cov: np.ndarray, metric_names: Sequence[str], ccrate: float
) -> PcaSelection:
    """The selection from a covariance matrix (see pca_select_metrics)."""
    k = len(metric_names)
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
    cumulative = (np.cumsum(eigenvalues) / total).tolist()
    # Rounding can leave the last cumulative value just below a target of 1.0.
    d = next((i + 1 for i, c in enumerate(cumulative) if c >= ccrate), len(cumulative))
    owners = set(np.argmax(np.abs(eigenvectors[:, :d]), axis=0).tolist())
    selected = [name for i, name in enumerate(metric_names) if i in owners]
    return PcaSelection(
        components=eigenvectors,
        eigenvalues=eigenvalues,
        d=d,
        selected_metrics=selected,
        ccrate=cumulative,
    )


def _fft_norms(rows: np.ndarray) -> np.ndarray:
    """reduce_fft of each row of a 2-D float array with at least two columns."""
    with np.errstate(over="ignore", invalid="ignore"):
        magnitudes = np.abs(np.fft.fft(rows, axis=1)[:, 1:])
        norms = np.sqrt(np.sum(magnitudes**2, axis=1))
        wide = ~np.isfinite(norms)
        if wide.any():
            # Squares overflow past about 1e154: scale by the largest first.
            peak = magnitudes[wide].max(axis=1, keepdims=True)
            norms[wide] = peak[:, 0] * np.sqrt(np.sum((magnitudes[wide] / peak) ** 2, axis=1))
    return norms


def reduce_fft(series: Sequence[float]) -> Optional[float]:
    """Spectral magnitude of a series: the L2 norm of all non-DC DFT bins.

    Excluding the DC term keeps the statistic orthogonal to the mean-value
    reduction; by Parseval it equals sqrt(N * sum((x - mean)^2)).
    """
    if len(series) < 2:
        return None
    return float(_fft_norms(np.asarray(series, dtype=float)[None, :])[0])


def _minmax_rows(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row of a 2-D array of finite values scaled onto [0,1], and which
    rows are constant: those are all 0.5. A row that is not constant scales
    its minimum to exactly 0 and its maximum to exactly 1."""
    lo = np.minimum.reduce(x, axis=1, keepdims=True)
    hi = np.maximum.reduce(x, axis=1, keepdims=True)
    degenerate = (hi == lo)[:, 0]
    # A span past the float range is inf: a value whose distance from the
    # minimum overflows too normalizes to NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        normalized = np.divide(
            x - lo, hi - lo, out=np.full(x.shape, 0.5), where=~degenerate[:, None]
        )
    return normalized, degenerate


def minmax_normalize(values: Sequence[float]) -> Tuple[List[float], bool]:
    """Scale finite values onto [0,1]; a constant input degenerates to all 0.5."""
    if len(values) < 2:
        raise ValueError("min-max normalization needs at least two values")
    normalized, degenerate = _minmax_rows(np.array([values], dtype=float))
    return normalized[0].tolist(), bool(degenerate[0])


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
    """Alg-style combined detector over one metric's per-node reductions
    (None marks a node without one).

    The branch test runs on the raw reductions: positive values spanning at
    least magnitude_gap decades (truncated orders of magnitude) go to the
    log-scale branch, everything else to the class-split distance branch on
    min-max-normalized values. Non-finite reductions are dropped.
    """
    names = sorted(k for k, v in values.items() if v is not None)
    return _detect_rows(names, np.array([[float(values[k]) for k in names]]), cfg)[0]


def _detect_rows(
    names: Sequence[str], table: np.ndarray, cfg: OutlierConfig
) -> List[OutlierResult]:
    """detect_metric_outliers on each row of `table`, a metrics x nodes array
    of the reductions of the nodes `names` (sorted)."""
    finite = np.isfinite(table)
    warnings: List[List[str]] = [[] for _ in range(len(table))]
    for r in (~np.logical_and.reduce(finite, axis=1)).nonzero()[0].tolist():
        dropped = ", ".join(names[i] for i in (~finite[r]).nonzero()[0].tolist())
        warnings[r].append("non-finite reduction dropped for: " + dropped)
    # Rows whose finite values sit on the same nodes are detected together.
    groups: Dict[bytes, List[int]] = {}
    for r, row in enumerate(finite):
        groups.setdefault(row.tobytes(), []).append(r)
    results: Dict[int, OutlierResult] = {}
    for rows in groups.values():
        columns = finite[rows[0]].nonzero()[0].tolist()
        if len(columns) < 3:
            for r in rows:
                warnings[r].append("fewer than 3 usable values")
                results[r] = OutlierResult(evaluable=False, warnings=warnings[r])
            continue
        whole = len(rows) == len(table) and len(columns) == len(names)
        x = table if whole else table[np.ix_(rows, columns)]
        magnitude, flagged, distances = _detect_group(x, cfg, [warnings[r] for r in rows])
        found: List[Dict[str, float]] = [{} for _ in rows]
        at_row, at_column = flagged.nonzero()
        for i, j, d in zip(at_row.tolist(), at_column.tolist(), distances[flagged].tolist()):
            found[i][names[columns[j]]] = d
        for r, log_branch, outliers in zip(rows, magnitude.tolist(), found):
            results[r] = OutlierResult(
                evaluable=True,
                branch="magnitude" if log_branch else "distance",
                outliers=list(outliers),
                distances=outliers,
                warnings=warnings[r],
            )
    return [results[r] for r in range(len(table))]


def _detect_group(
    x: np.ndarray, cfg: OutlierConfig, warnings: List[List[str]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branch test and both branches on rows of at least three finite
    reductions each: which rows took the magnitude branch, which values are
    outliers and every value's distance. Each row's warnings are appended to
    its list."""
    n = x.shape[1]
    positive = np.logical_and.reduce(x > 0, axis=1)
    for r in (~positive).nonzero()[0].tolist():
        warnings[r].append("nonpositive values: magnitude branch not applicable")
    # Every row gets the distance branch; the magnitude branch's rows, never
    # constant ones, then take its results instead.
    flagged, distances = _distance_branch(x, cfg, warnings)
    magnitude = np.zeros(len(x), dtype=bool)
    rows = positive.nonzero()[0]
    if len(rows):
        # math.log10, not np.log10: the two differ in the last bit for some
        # values, which moves a distance and can move a truncated order.
        logs = np.array(list(map(math.log10, x[rows].ravel().tolist()))).reshape(len(rows), n)
        orders = np.trunc(logs)  # toward zero: 0.006838 -> -2, 0.156 -> 0, 500 -> 2
        spread = np.minimum.reduce(orders, axis=1) - np.maximum.reduce(orders, axis=1)
        wide = spread <= -cfg.magnitude_gap
        rows, logs = rows[wide], logs[wide]
        if len(rows):
            magnitude[rows] = True
            dist = np.abs(logs - _medians(logs, np.full(len(rows), n))[:, None])
            # The mean adds the distances left to right, as cumsum does; the
            # variance takes np.var's steps.
            mean = np.cumsum(dist, axis=1)[:, -1:] / n
            deviation = dist - np.add.reduce(dist, axis=1, keepdims=True) / n
            variance = np.add.reduce(deviation * deviation, axis=1, keepdims=True) / n
            flagged[rows] = (dist > mean) & (dist - mean > variance)
            distances[rows] = dist
    return magnitude, flagged, distances


def _distance_branch(
    x: np.ndarray, cfg: OutlierConfig, warnings: List[List[str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Class split on min-max-normalized rows: which values are outliers and
    every value's distance from its row's representative."""
    normalized, degenerate = _minmax_rows(x)
    for r in degenerate.nonzero()[0].tolist():
        warnings[r].append("degenerate normalization: all values equal")
    # A row's extremes are 1 and 0 (a constant row's 0.5s all join the
    # max-seeded class). A row's NaNs come from a span past the float range,
    # where every other value is 0: no value joins the max-seeded class, so
    # none is a candidate.
    upper = np.abs(normalized - 1.0) <= np.abs(normalized)  # seeded at the maximum
    n_upper = np.add.reduce(upper, axis=1)
    upper_candidates = n_upper <= x.shape[1] - n_upper  # ties keep the max-seeded class
    candidates = upper == upper_candidates[:, None]
    if cfg.representative == "median":
        larger = ~candidates
        representative = _medians(
            np.where(larger, normalized, np.inf), np.add.reduce(larger, axis=1)
        )
    else:
        representative = np.where(upper_candidates, 0.0, 1.0)  # the other extreme
    dist = np.abs(normalized - representative[:, None])
    split = (n_upper > 0) & (n_upper < x.shape[1])
    return candidates & (dist >= cfg.dmin) & split[:, None], dist


def _medians(x: np.ndarray, count: np.ndarray) -> np.ndarray:
    """np.median of the count[r] least values of each row r, for values
    below 1e308 in magnitude. A row with count 0 or with a NaN gets an
    arbitrary number."""
    ordered = np.sort(x, axis=1).ravel()
    starts = np.arange(0, ordered.size, x.shape[1])
    # The mean of the two middle values, or of the middle one with itself.
    return (ordered.take(starts + np.maximum(count - 1, 0) // 2)
            + ordered.take(starts + count // 2)) / 2


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


def _fft_table(datasets: FeatureDatasets, columns: Sequence[int], common: int) -> np.ndarray:
    """reduce_fft of the first `common` samples of each node and each matrix
    column in `columns`: a columns x nodes table. The series of as many
    columns as fit in _BLOCK_BYTES go to one _fft_norms call."""
    nodes = len(datasets.nodes)
    table = np.empty((len(columns), nodes))
    step = max(1, correlate._BLOCK_BYTES // (8 * nodes * common))
    for a in range(0, len(columns), step):
        picked = list(columns[a : a + step])
        series = np.empty((len(picked), nodes, common))
        for block, at in zip(datasets.blocks, datasets.positions):
            series[:, at] = block[:, picked, :common].transpose(1, 0, 2)
        table[a : a + step] = _fft_norms(series.reshape(-1, common)).reshape(len(picked), nodes)
    return table


def diagnose_outlier_metrics(
    datasets: FeatureDatasets, cfg: OutlierConfig = OutlierConfig()
) -> MetricDiagnosis:
    """Full per-stage pipeline: PCA once over every node's samples, read
    from the blocks, then reduce / branch-test / normalize / detect on one
    selected metrics x nodes table. The mean transform reads its reductions
    from the mean table; the FFT transform takes them from the blocks, as
    many selected metrics per call as fit in _BLOCK_BYTES.

    One metric's failure never aborts the stage; it surfaces as a warning.
    """
    nodes = datasets.nodes
    if len(nodes) < 3 or not datasets.matrix_metrics:
        return MetricDiagnosis(
            evaluable=False, warnings=["matrix dataset available for fewer than 3 nodes"]
        )
    selection = _stage_selection(datasets, cfg.ccrate)
    warnings: List[str] = []
    if selection.degenerate:
        warnings.append(f"{selection.degenerate}: PCA fell back to all metrics")

    selected = selection.selected_metrics
    if cfg.transform == "fft":
        # FFT compares spectra, so series are truncated to the common length.
        common = int(datasets.counts.min())
        if common < 2:
            nodes, table = [], np.empty((len(selected), 0))
        else:
            columns = [datasets.matrix_metrics.index(m) for m in selected]
            table = _fft_table(datasets, columns, common)
    else:
        table = datasets.means[:, [_SCHEMA_POSITION[m] for m in selected]].T
    findings: List[Tuple[str, str, str, float]] = []
    for metric, result in zip(selected, _detect_rows(nodes, table, cfg)):
        warnings.extend(f"{metric}: {w}" for w in result.warnings)
        for node in result.outliers:
            findings.append((metric, node, result.branch, result.distances[node]))
    findings.sort(key=lambda f: (f[0], f[1]))
    return MetricDiagnosis(
        evaluable=True, selection=selection, findings=findings, warnings=warnings
    )
