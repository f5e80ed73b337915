import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import clock_groups, make_stage, make_trace, metric_series, stacked_samples
from stagelens.correlate import build_datasets, slice_metrics, stage_window
from stagelens import nodedetect
from stagelens.model import METRIC_SCHEMA, MetricStore, metric_columns
from stagelens.report import PipelineConfig, diagnose, render_report
from stagelens.metricdetect import (
    OutlierConfig,
    OutlierResult,
    PcaSelection,
    _detect_rows,
    _fft_norms,
    _fft_table,
    _stage_selection,
    db_outlier_oracle,
    detect_metric_outliers,
    diagnose_outlier_metrics,
    minmax_normalize,
    pca_select_metrics,
    reduce_fft,
    reduce_mean,
)

T0 = 1_460_000_000_000


# --- PCA -------------------------------------------------------------------

def oracle_pca(matrix, metric_names, ccrate=0.95):
    """pca_select_metrics as written over one samples x metrics array: the
    reference for the selection over a stage's blocks."""
    x = np.asarray(matrix, dtype=float)
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
        eigenvalues, eigenvectors = np.full(k, np.nan), np.full((k, k), np.nan)
        fallback = "non-finite stage covariance"
    if fallback:
        return PcaSelection(
            components=eigenvectors, eigenvalues=eigenvalues, d=k,
            selected_metrics=list(metric_names), ccrate=[1.0] * k, degenerate=fallback,
        )
    cumulative = list(np.cumsum(eigenvalues) / total)
    d = next((i + 1 for i, c in enumerate(cumulative) if c >= ccrate), len(cumulative))
    attributed = set()
    for w in range(d):
        attributed.add(metric_names[int(np.argmax(np.abs(eigenvectors[:, w])))])
    selected = [name for name in metric_names if name in attributed]
    return PcaSelection(
        components=eigenvectors, eigenvalues=eigenvalues, d=d,
        selected_metrics=selected, ccrate=cumulative,
    )


def test_single_varying_column_selected():
    rng = np.random.default_rng(0)
    x = np.ones((40, 4))
    x[:, 2] = rng.normal(0, 1, size=40)
    sel = pca_select_metrics(x, ["a", "b", "c", "d"], ccrate=0.95)
    assert sel.d == 1
    assert sel.selected_metrics == ["c"]


def test_collinear_columns_collapse_to_one_component():
    rng = np.random.default_rng(1)
    col = rng.normal(0, 1, size=60)
    x = np.column_stack([col, 3.0 * col + rng.normal(0, 1e-3, size=60)])
    sel = pca_select_metrics(x, ["m1", "m2"], ccrate=0.95)
    assert sel.d == 1
    assert sel.selected_metrics == ["m2"]  # the tripled column carries the loading


def test_zero_variance_falls_back_to_all_metrics():
    x = np.full((10, 3), 2.5)
    sel = pca_select_metrics(x, ["a", "b", "c"], ccrate=0.95)
    assert sel.degenerate
    assert sel.selected_metrics == ["a", "b", "c"]


def test_non_finite_covariance_falls_back_to_all_metrics():
    x = np.array([[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]])
    sel = pca_select_metrics(x, ["a", "b"], ccrate=0.95)
    assert sel.degenerate == "non-finite stage covariance"
    assert sel.selected_metrics == ["a", "b"] and sel.d == 2


@pytest.mark.parametrize("transform", ["mean", "fft"])
def test_huge_valued_stage_diagnoses_with_a_warning(transform):
    """Finite values near the float range overflow the stage covariance."""
    rng = np.random.default_rng(3)
    nodes = [f"hw{i:02d}" for i in range(1, 6)]
    stage = make_stage({n: 1 for n in nodes}, runtime=9_000)
    metrics = {
        node: metric_series(node, T0, 10, lambda i: {
            "cpu_usage": float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(200, 308)),
            "IPC": float(rng.uniform(0.5, 2.0)),
        })
        for node in nodes
    }
    trace = make_trace(stage, stores=metrics)
    assert not trace.validate()
    report = diagnose(trace, PipelineConfig(transform=transform))
    (stage_report,) = report.stages
    assert "non-finite stage covariance: PCA fell back to all metrics" in stage_report.warnings
    render_report(report)
    render_report(report, "structured")


def test_overflowing_window_mean_is_named_in_a_stage_warning():
    nodes = [f"hw{i:02d}" for i in range(1, 6)]
    stage = make_stage({n: 1 for n in nodes}, runtime=9_000)
    metrics = {
        node: metric_series(node, T0, 10, lambda i, node=node: {
            "cpu_usage": 1e308 if node == "hw02" else 0.5 + i / 10,
            "IPC": 1.0 + i / 10,
        })
        for node in nodes
    }
    trace = make_trace(stage, stores=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert math.isinf(ds.means[1, METRIC_SCHEMA.index("cpu_usage")])
    result = diagnose_outlier_metrics(ds, OutlierConfig())
    assert "cpu_usage: non-finite reduction dropped for: hw02" in result.warnings


def test_eigen_reconstruction_and_ccrate_monotone(rng):
    for _ in range(20):
        x = rng.normal(0, 1, size=(10, 8))
        sel = pca_select_metrics(x, [f"m{i}" for i in range(8)], ccrate=0.95)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / x.shape[0]
        rebuilt = sel.components @ np.diag(sel.eigenvalues) @ sel.components.T
        assert np.linalg.norm(rebuilt - cov) < 1e-9
        assert all(b >= a - 1e-12 for a, b in zip(sel.ccrate, sel.ccrate[1:]))
        assert sel.ccrate[-1] == pytest.approx(1.0)
        assert all(v >= -1e-9 for v in sel.eigenvalues)


# --- reductions ------------------------------------------------------------

def test_reduce_mean_examples(rng):
    assert reduce_mean([3.3] * 7) == pytest.approx(3.3)
    assert reduce_mean([0.0, 1.0]) == pytest.approx(0.5)
    assert reduce_mean([]) is None
    series = rng.uniform(-5, 5, size=60)
    assert reduce_mean(series) == pytest.approx(sum(series) / 60, abs=1e-12)
    # An overflowing sum is inf, without a numpy warning (tier-1 makes one an error).
    assert reduce_mean([1e308, 1e308]) == math.inf


def test_fft_of_constant_is_zero():
    assert reduce_fft([4.2] * 32) == pytest.approx(0.0, abs=1e-9)


def test_fft_of_sinusoid_matches_closed_form():
    n, k, a = 64, 5, 2.0
    t = np.arange(n)
    series = a * np.sin(2 * np.pi * k * t / n)
    # two conjugate bins at +-k, each of magnitude a*n/2
    expected = math.sqrt(2 * (a * n / 2) ** 2)
    assert reduce_fft(series) == pytest.approx(expected, rel=1e-9)


def test_fft_parseval_identity(rng):
    for _ in range(25):
        n = int(rng.integers(2, 200))
        series = rng.normal(0, 3, size=n)
        stat = reduce_fft(series)
        energy = np.sum((series - series.mean()) ** 2)
        assert stat**2 / n == pytest.approx(energy, abs=1e-9, rel=1e-9)


def test_fft_positive_homogeneity(rng):
    series = rng.normal(0, 1, size=50)
    assert reduce_fft(3.5 * series) == pytest.approx(3.5 * reduce_fft(series), rel=1e-12)


def test_fft_needs_two_samples():
    assert reduce_fft([1.0]) is None


def test_fft_of_a_spread_past_1e154_stays_finite(rng):
    # Squaring a DFT magnitude above about 1e154 overflows.
    assert reduce_fft([1e160, -1e160]) == 2e160
    series = rng.normal(0, 1, size=50)
    assert reduce_fft(1e200 * series) == pytest.approx(1e200 * reduce_fft(series), rel=1e-12)
    # A huge reduction used to become inf and drop out, so that b was flagged.
    values = {"a": reduce_fft([1e160, -1e160]), "b": 1.0, "c": 2.0, "d": 1.5}
    result = detect_metric_outliers(values)
    assert result.evaluable and "b" not in result.outliers
    assert not any("dropped" in w for w in result.warnings)


# --- normalization ---------------------------------------------------------

def test_minmax_simple():
    values, degenerate = minmax_normalize([2.0, 4.0, 6.0])
    assert values == pytest.approx([0.0, 0.5, 1.0])
    assert not degenerate


def test_minmax_degenerate_convention():
    values, degenerate = minmax_normalize([7.0, 7.0, 7.0])
    assert values == [0.5, 0.5, 0.5]
    assert degenerate


def test_minmax_bounds_and_order(rng):
    for _ in range(100):
        raw = rng.uniform(-100, 100, size=int(rng.integers(2, 12)))
        raw[0] -= 1e-6  # ensure a strict spread
        values, degenerate = minmax_normalize(list(raw))
        if degenerate:
            continue
        assert min(values) == pytest.approx(0.0)
        assert max(values) == pytest.approx(1.0)
        assert all(0.0 <= v <= 1.0 for v in values)
        order = np.argsort(raw)
        assert all(
            values[order[i]] <= values[order[i + 1]] + 1e-15 for i in range(len(raw) - 1)
        )


# --- outlier detection -----------------------------------------------------

WORKED_EXAMPLE = {"hw073": 0.006838, "hw106": 0.15604399, "hw114": 0.17810599}


def test_magnitude_branch_on_worked_example():
    cfg = OutlierConfig(representative="median", dmin=0.5)
    # the plain distance definition sees no outlier on these values
    assert db_outlier_oracle(WORKED_EXAMPLE, pct=1, dmin=0.5) == set()
    # the order-of-magnitude test (orders -2, 0, 0) catches the low node
    result = detect_metric_outliers(WORKED_EXAMPLE, cfg)
    assert result.branch == "magnitude"
    assert result.outliers == ["hw073"]


def test_equal_values_have_no_outliers():
    for cfg in (OutlierConfig(), OutlierConfig(representative="median", dmin=0.5)):
        result = detect_metric_outliers({"a": 3.0, "b": 3.0, "c": 3.0}, cfg)
        assert result.outliers == []


def test_requires_three_values():
    assert not detect_metric_outliers({"a": 1.0, "b": 2.0}).evaluable


def test_non_finite_reductions_are_named_in_one_warning():
    values = {"hw03": math.nan, "hw01": math.inf, "hw02": 1.0, "hw04": 2.0, "hw05": 1.5}
    result = detect_metric_outliers(values)
    assert result.evaluable
    assert result.warnings[0] == "non-finite reduction dropped for: hw01, hw03"
    short = detect_metric_outliers({"a": -math.inf, "b": 1.0, "c": 2.0})
    assert short.warnings == ["non-finite reduction dropped for: a", "fewer than 3 usable values"]


def test_nonpositive_values_skip_magnitude_branch():
    values = {"a": -1.0, "b": 0.5, "c": 1000.0}
    result = detect_metric_outliers(values, OutlierConfig(dmin=0.6))
    assert result.branch == "distance"
    assert any("magnitude" in w for w in result.warnings)


def test_singleton_separation_matches_oracle():
    values = {"a": 0.0, "b": 0.02, "c": 0.05, "d": 0.95}
    cfg = OutlierConfig(representative="median", dmin=0.5)
    result = detect_metric_outliers(values, cfg)
    assert set(result.outliers) == db_outlier_oracle(values, pct=1, dmin=0.5) == {"d"}


def test_tie_keeps_max_seeded_class_as_candidates():
    # symmetric two-vs-two split: the class detector flags the upper pair,
    # while the literal DB definition sees no point with all others far away
    values = {"a": 0.0, "b": 0.05, "c": 0.95, "d": 1.0}
    cfg = OutlierConfig(representative="median", dmin=0.5)
    result = detect_metric_outliers(values, cfg)
    assert set(result.outliers) == {"c", "d"}
    assert db_outlier_oracle(values, pct=1, dmin=0.5) == set()


def test_representative_modes_differ():
    values = {"a": 1.0, "b": 1.5, "c": 1.55, "d": 1.6, "e": 2.0}
    # normalized: a=0 vs upper class {0.5, 0.55, 0.6, 1.0}; the candidate sits
    # 0.575 from the class median but a full 1.0 from the extremum seed
    med = detect_metric_outliers(values, OutlierConfig(representative="median", dmin=0.8))
    ext = detect_metric_outliers(values, OutlierConfig(representative="max_min", dmin=0.8))
    assert med.branch == ext.branch == "distance"
    assert med.outliers == []
    assert ext.outliers == ["a"]


def test_db_oracle_trivial_cases():
    assert db_outlier_oracle({"x": 0.0, "y": 1.0}, pct=1, dmin=0.5) == {"x", "y"}
    assert db_outlier_oracle({"x": 0.0, "y": 0.1, "z": 0.2}, pct=1, dmin=0.5) == set()


def test_db_oracle_against_independent_reimplementation(rng):
    for _ in range(100):
        points = {f"p{i}": float(v) for i, v in enumerate(rng.uniform(0, 1, size=10))}
        pct = float(rng.choice([0.5, 0.8, 1.0]))
        dmin = float(rng.uniform(0.05, 0.9))
        # sentence-level restatement: count how many of the others sit farther
        # than dmin; an outlier needs at least pct of them
        expected = set()
        for name, v in points.items():
            others = [w for other, w in points.items() if other != name]
            far = [w for w in others if abs(w - v) > dmin]
            if len(far) >= pct * len(others):
                expected.add(name)
        assert db_outlier_oracle(points, pct=pct, dmin=dmin) == expected


def test_distance_branch_shift_invariance(rng):
    for _ in range(50):
        base = {f"n{i}": float(v) for i, v in enumerate(rng.uniform(10, 20, size=6))}
        cfg = OutlierConfig(dmin=0.6)
        r1 = detect_metric_outliers(base, cfg)
        shifted = {k: v + 100.0 for k, v in base.items()}
        r2 = detect_metric_outliers(shifted, cfg)
        if r1.branch == "distance" and r2.branch == "distance":
            assert set(r1.outliers) == set(r2.outliers)


# --- full per-stage pipeline ------------------------------------------------

def two_metric_stage(deviations_by_node, n_samples=24):
    """Stage fixture: two metrics at shared baselines plus per-node deviations.

    Deviations ride disjoint halves of the window so the two metric columns
    stay decorrelated (a joint step would merge into one component).
    """
    nodes = sorted(deviations_by_node)
    stage = make_stage({n: 1 for n in nodes}, runtime=(n_samples - 1) * 1000)
    rng = np.random.default_rng(5)
    noise = rng.uniform(0.2, 0.4, size=n_samples)
    half = n_samples // 2

    metrics = {}
    for node in nodes:
        d_cpu, d_wio = deviations_by_node[node]

        def values(i, d_cpu=d_cpu, d_wio=d_wio):
            return {
                "cpu_usage": 0.15 + (d_cpu if i < half else 0.0),
                "weighted_io": 0.05 + (d_wio if i >= half else 0.0),
                "L2_MPKI": float(noise[i]),
            }

        metrics[node] = metric_series(node, T0, n_samples, values)
    trace = make_trace(stage, stores=metrics)
    return build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)


@given(
    lengths=st.lists(st.integers(1, 3000), min_size=1, max_size=4),
    exponent=st.integers(-300, 307),
    seed=st.integers(0, 2**32 - 1),
    start=st.integers(0, 1500),
    span=st.integers(0, 3000),
)
def test_mean_table_equals_reduce_mean_of_each_column(lengths, exponent, seed, start, span):
    """The mean transform's reductions, read from the mean table, equal
    reduce_mean over each node's matrix column, bit for bit."""
    rng = np.random.default_rng(seed)
    columns = METRIC_SCHEMA[::3]
    nodes = [f"hw{i:02d}" for i in range(len(lengths))]
    stage = make_stage({n: 1 for n in nodes}, launch=T0 + 1000 * start, runtime=1000 * span)
    metrics = {
        node: MetricStore(
            node=node,
            timestamps=T0 + 1000 * np.arange(n, dtype=np.int64),
            columns=columns,
            values=rng.standard_normal((len(columns), n)) * 10.0**exponent,
        )
        for node, n in zip(nodes, lengths)
    }
    trace = make_trace(stage, stores=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert ds.matrix_metrics == list(columns) or not ds.nodes
    for i, node in enumerate(ds.nodes):
        for c, metric in enumerate(ds.matrix_metrics):
            expected = reduce_mean(ds.matrix[node][:, c])
            got = ds.means[i, METRIC_SCHEMA.index(metric)]
            assert ds.present[i, METRIC_SCHEMA.index(metric)]
            assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_diagnose_flags_disk_fault_shape():
    ds = two_metric_stage(
        {f"hw{i:02d}": (0.0, 0.0) for i in range(1, 6)} | {"hw89": (0.6, 1.0)}
    )
    result = diagnose_outlier_metrics(ds, OutlierConfig(representative="median", dmin=0.5))
    assert result.evaluable
    flagged = {}
    for metric, node, _, _ in result.findings:
        flagged.setdefault(node, []).append(metric)
    assert set(flagged) == {"hw89"}
    assert set(flagged["hw89"]) == {"cpu_usage", "weighted_io"}


def test_diagnose_healthy_stage_is_silent():
    ds = two_metric_stage({f"hw{i}": (0.0, 0.0) for i in range(1, 7)})
    result = diagnose_outlier_metrics(ds, OutlierConfig())
    assert result.evaluable
    assert result.findings == []


def test_diagnose_needs_three_nodes():
    ds = two_metric_stage({"hw01": (0.0, 0.0), "hw02": (0.0, 0.0)})
    assert not diagnose_outlier_metrics(ds, OutlierConfig()).evaluable


def test_one_bad_metric_does_not_abort_stage():
    # zero spread on one metric degenerates quietly; the other still flags
    ds = two_metric_stage(
        {"hw01": (0.0, 0.0), "hw02": (0.0, 0.0), "hw03": (0.0, 0.0), "hw04": (0.0, 4.0)}
    )
    result = diagnose_outlier_metrics(ds, OutlierConfig(representative="median", dmin=0.5))
    assert result.evaluable
    assert ("weighted_io", "hw04") in {(m, n) for m, n, _, _ in result.findings}


def test_config_validation():
    with pytest.raises(ValueError):
        OutlierConfig(transform="wavelet")
    with pytest.raises(ValueError):
        OutlierConfig(dmin=1.5)
    with pytest.raises(ValueError):
        OutlierConfig(pct=0.0)


def test_pct_other_than_one_is_refused():
    """The detector implements DB(1, dmin) only, so a pct it would not
    read is refused, named."""
    with pytest.raises(ValueError, match=r"pct must be 1\.0 .*got 0\.5"):
        OutlierConfig(pct=0.5)
    assert OutlierConfig(pct=1.0) == OutlierConfig() and OutlierConfig(pct=1).pct == 1


def test_corpus_selection_mixes_metric_levels():
    # across the evaluation corpus, the 0.95 cut keeps both system-level and
    # architecture-level metrics in play
    from stagelens.ingest import ARCH_METRICS, SYSTEM_METRICS
    from stagelens.simulate import generate_trace, preset

    selected = set()
    for spec in preset("eval-corpus")[:14]:  # two full fault-kind cycles
        trace, _ = generate_trace(spec)
        for stage in trace.stages():
            ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
            stacked = stacked_samples(ds)
            selected |= set(pca_select_metrics(stacked, ds.matrix_metrics, 0.95).selected_metrics)
    assert selected & set(SYSTEM_METRICS)
    assert selected & set(ARCH_METRICS)


# --- the table detector against the scalar oracle ---------------------------

def oracle_minmax(values):
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0.5] * len(values), True
    span = hi - lo
    return [(v - lo) / span for v in values], False


def oracle_detect(values, cfg=OutlierConfig()):
    """detect_metric_outliers as one Python walk over one metric's
    reductions: the reference for the table detector. Sums add left to
    right."""
    clean = {k: float(v) for k, v in values.items() if v is not None and math.isfinite(v)}
    warnings = []
    dropped = sorted(k for k, v in values.items() if v is not None and k not in clean)
    if dropped:
        warnings.append("non-finite reduction dropped for: " + ", ".join(dropped))
    if len(clean) < 3:
        return OutlierResult(evaluable=False, warnings=warnings + ["fewer than 3 usable values"])
    names = sorted(clean)
    raw = [clean[n] for n in names]

    if all(v > 0 for v in raw):
        orders = [int(math.log10(v)) for v in raw]  # truncated toward zero
        if min(orders) - max(orders) <= -cfg.magnitude_gap:
            logs = [math.log10(v) for v in raw]
            center = float(np.median(logs))
            dist = [abs(v - center) for v in logs]
            total = 0.0
            for d in dist:
                total += d
            mean_dist = total / len(dist)
            variance = float(np.var(dist))
            outliers, distances = [], {}
            for name, d in zip(names, dist):
                if d > mean_dist and d - mean_dist > variance:
                    outliers.append(name)
                    distances[name] = d
            return OutlierResult(True, "magnitude", outliers, distances, warnings)
    elif any(v <= 0 for v in raw):
        warnings.append("nonpositive values: magnitude branch not applicable")

    normalized, degenerate = oracle_minmax(raw)
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
        return OutlierResult(True, "distance", warnings=warnings)
    if cfg.representative == "median":
        representative = float(np.median([v for _, v in larger]))
    else:
        representative = extremum
    outliers, distances = [], {}
    for name, v in candidates:
        d = abs(v - representative)
        if d >= cfg.dmin:
            outliers.append(name)
            distances[name] = d
    return OutlierResult(True, "distance", outliers, distances, warnings)


def outcome(result):
    """Everything a result says, distances as float.hex."""
    return (result.evaluable, result.branch, result.outliers,
            {k: float.hex(v) for k, v in result.distances.items()}, result.warnings)


_POWERS = st.integers(-12, 12).map(lambda k: 10.0**k)
# Positive values over many decades, so spreads pass magnitude_gap; powers
# of ten and their neighbours sit where a truncated order changes.
_POSITIVE = st.one_of(
    _POWERS,
    _POWERS.map(lambda v: math.nextafter(v, 0.0)),
    st.tuples(st.floats(1.0, 10.0, exclude_max=True), st.integers(-8, 8)).map(
        lambda t: t[0] * 10.0 ** t[1]
    ),
)
_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308, 5e-324]),
    _POSITIVE,
)
# A spread past the float range: values far from the minimum normalize to NaN.
_EXTREME = st.sampled_from([1.7e308, 1e308, -1e308, -1.7e308, 0.0, 1.0])
# Few distinct values: ties, even class splits and outliers are common.
_CLOSE = st.integers(-3, 3).map(float) | st.floats(0.0, 1.0)
_CONFIGS = st.builds(
    OutlierConfig,
    representative=st.sampled_from(["median", "max_min"]),
    dmin=st.sampled_from([0.5, 0.6]) | st.floats(0.01, 0.99),
    magnitude_gap=st.integers(1, 3),
)


def _rows(width):
    """A row of reductions: any values, positive ones, ones spread past the
    float range, close ones, or one value repeated."""
    return st.one_of(
        [st.lists(values, min_size=width, max_size=width)
         for values in (_VALUES, _POSITIVE, _EXTREME, _CLOSE)]
        + [_VALUES.map(lambda v: [v] * width)]
    )


@st.composite
def _tables(draw):
    """Rows of reductions of the same nodes."""
    width = draw(st.integers(0, 12))
    return [draw(_rows(width)) for _ in range(draw(st.integers(1, 4)))]


@given(rows=_tables(), cfg=_CONFIGS)
# np.log10 differs from math.log10 in the last bit on the first value, and
# the median log is 0, so the distance is that log.
@example(rows=[[496.45406687382786, 1.0, 1.0, 1.0]], cfg=OutlierConfig())
# An even split, and a median of an even class.
@example(rows=[[0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.1, 0.2, 0.3, 1.0]],
         cfg=OutlierConfig(representative="median", dmin=0.5))
def test_table_detector_equals_scalar_oracle(rows, cfg):
    """Each row of a metrics x nodes table gets the oracle's outliers,
    branch, warnings and distances, bit for bit."""
    names = [f"hw{i:02d}" for i in range(len(rows[0]))]
    table = np.array(rows, dtype=float).reshape(len(rows), len(names))
    for row, result in zip(rows, _detect_rows(names, table, cfg)):
        assert outcome(result) == outcome(oracle_detect(dict(zip(names, row)), cfg))


@given(
    values=st.dictionaries(
        st.text(max_size=3), st.none() | _VALUES | _POSITIVE | _CLOSE, max_size=12
    ),
    cfg=_CONFIGS,
)
def test_detect_metric_outliers_equals_scalar_oracle(values, cfg):
    """The mapping adapter, missing (None) reductions included."""
    assert outcome(detect_metric_outliers(values, cfg)) == outcome(oracle_detect(values, cfg))


def oracle_reduce_fft(series):
    n = len(series)
    if n < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        magnitudes = np.abs(np.fft.fft(np.asarray(series, dtype=float))[1:])
        norm = np.sqrt(np.sum(magnitudes**2))
        if not np.isfinite(norm):
            peak = magnitudes.max()
            norm = peak * np.sqrt(np.sum((magnitudes / peak) ** 2))
    return float(norm)


@given(
    width=st.integers(2, 40),
    count=st.integers(1, 5),
    exponent=st.integers(-300, 307),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_table_equals_one_series_at_a_time(width, count, exponent, seed):
    """The FFT reductions of many series in one call equal the one-series
    computation, bit for bit, also where the squares overflow."""
    rows = np.random.default_rng(seed).standard_normal((count, width)) * 10.0**exponent
    got = _fft_norms(rows)
    for row, norm in zip(rows, got.tolist()):
        expected = oracle_reduce_fft(row)
        assert float.hex(norm) == float.hex(expected)
        assert float.hex(reduce_fft(row)) == float.hex(expected)


# --- PCA and the FFT table over a stage's blocks ----------------------------

_CORE = ("cpu_usage", "IPC")  # in every layout
_OPTIONAL = ("mem_usage", "diskW_band", "L2_MPKI", "zz_extra")
_BIG = np.finfo(float).max
# Constants whose row-by-row mean is or is not exact, values near the float
# range (half the largest float sums to it without overflow) and subnormals.
_EDGE_VALUES = (0.0, 0.1, 1.0, 2.5, 1e-300, 5e-324, 6e307, _BIG / 2, 1e308, -1e308, _BIG, -_BIG)


def block_stage(series, start, span):
    """A stage with one task per node over [start, start + span] and a trace
    whose series are `series`: node -> (sample step in ms, columns, values
    as columns x samples). Nodes with equal steps, sample counts and
    columns form one clock group."""
    stage = make_stage({node: 1 for node in series}, launch=T0 + start, runtime=span)
    metrics = {
        node: MetricStore(node, T0 + step * np.arange(values.shape[1], dtype=np.int64),
                          columns, np.asarray(values, dtype=float))
        for node, (step, columns, values) in series.items()
    }
    trace = make_trace(stage, stores=metrics)
    return build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)


@st.composite
def _block_stages(draw):
    """Series for block_stage: 2-7 nodes, each on one of up to three clocks
    (steps and lengths differ, so window lengths do) with one of a few
    layouts, so that a stage has several batches whose nodes interleave in
    sorted order. An optional metric with a hole is no matrix metric, so
    the matrix columns of a layout that holds it are not consecutive.
    Values come from a spectrum (columns of distinct scales around drawn
    offsets, node shifts, one column mixed into another) or from a pool of
    edge values, per cell or one constant per metric."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clocks = draw(st.lists(st.tuples(st.sampled_from([250, 400, 1000]), st.integers(1, 60)),
                           min_size=1, max_size=3))
    layouts = draw(st.lists(st.sets(st.sampled_from(_OPTIONAL)), min_size=1, max_size=3))
    holed = draw(st.sets(st.sampled_from(_OPTIONAL), max_size=1))
    pool = draw(st.none() | st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(-10, 10),
                                     min_size=1, max_size=3))
    constant = draw(st.booleans())
    names = _CORE + _OPTIONAL
    scale = dict(zip(names, 10.0 ** rng.uniform(-3, 3, len(names))))
    offset = dict(zip(names, rng.uniform(-1e3, 1e3, len(names)) * draw(st.sampled_from([0, 1]))))
    fixed = dict(zip(names, rng.integers(0, len(pool or [0]), len(names)).tolist()))
    series = {}
    for i in range(draw(st.integers(2, 7))):
        step, count = draw(st.sampled_from(clocks))
        columns = metric_columns(set(_CORE) | draw(st.sampled_from(layouts)))
        if pool is None:
            values = rng.standard_normal((len(columns), count)) + rng.uniform(-2, 2)
            values[columns.index("IPC")] += 0.5 * values[columns.index("cpu_usage")]
            values *= np.array([scale[c] for c in columns])[:, None]
            values += np.array([offset[c] for c in columns])[:, None]
        elif constant:
            values = np.array([[pool[fixed[c]]] * count for c in columns])
        else:
            values = np.array(pool)[rng.integers(0, len(pool), (len(columns), count))]
        for metric in holed & set(columns):
            values[columns.index(metric), rng.integers(0, count)] = np.nan
        series[f"hw{i:02d}"] = (step, columns, values)
    return series, draw(st.integers(0, 10_000)), draw(st.integers(0, 40_000))


def _decided(sel, ccrate, gap=1e-6):
    """Whether rounding far below `gap` leaves the selection as it is: no
    cumulative contribution lies within gap of the target, each kept
    eigenvalue is gap (relative to the largest) from its neighbours, and
    each kept component's largest absolute loading leads the next by gap."""
    values = sel.eigenvalues
    if any(abs(c - ccrate) <= gap for c in sel.ccrate):
        return False
    for w in range(sel.d):
        neighbours = [values[v] for v in (w - 1, w + 1) if 0 <= v < len(values)]
        if any(abs(values[w] - v) <= gap * values[0] for v in neighbours):
            return False
        top = np.sort(np.abs(sel.components[:, w]))[::-1]
        if len(top) > 1 and top[0] - top[1] <= gap:
            return False
    return True


def _ones(count, value):
    return np.full((2, count), value)


_WITH_MEM = metric_columns(_CORE + ("mem_usage",))


@given(case=_block_stages(), ccrate=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
       budget=st.sampled_from([8, 2560, nodedetect._BLOCK_BYTES]))
# 0.1 everywhere on three clocks, 4 + 2 + 1 samples: the node means
# weighted by counts give 0.1 exactly, the row-by-row mean does not, so
# the oracle's covariance is not zero.
@example(case=({"hw00": (250, _CORE, _ones(4, 0.1)), "hw01": (400, _CORE, _ones(2, 0.1)),
                "hw02": (1000, _CORE, _ones(1, 0.1))}, 0, 750), ccrate=0.95, budget=8)
# The same at 4 + 5 + 5 samples, where the row-by-row mean is exact and
# the weighted node means are not: the oracle's covariance is zero.
@example(case=({"hw00": (250, _CORE, _ones(4, 0.1)), "hw01": (400, _CORE, _ones(5, 0.1)),
                "hw02": (1000, _CORE, _ones(5, 0.1))}, 0, 4000), ccrate=0.95, budget=2560)
# Half the largest float on two nodes: the column sums to the largest
# float, so the covariance is finite and zero.
@example(case=({"hw00": (250, _CORE, _ones(1, _BIG / 2)),
                "hw01": (400, _CORE, _ones(1, _BIG / 2))}, 0, 0),
         ccrate=0.95, budget=nodedetect._BLOCK_BYTES)
# +-1e308 alternating on one node of nine samples: its pairwise sum
# overflows, a row-by-row sum does not; the other nodes stay small.
@example(case=({"hw00": (250, _CORE, np.array([[1e308, -1e308] * 4 + [1e308], [1.0] * 9])),
                "hw01": (250, _CORE, np.array([[2.0] * 9, [3.0] * 9]))}, 0, 2000),
         ccrate=0.95, budget=nodedetect._BLOCK_BYTES)
# Three batches whose nodes interleave; hw00 and hw02 are two clocks cut
# to one window length, so their batch is a copy, and mem_usage (a hole on
# hw02) sits between its matrix columns.
@example(case=({"hw00": (250, _WITH_MEM, np.arange(30.0).reshape(3, 10) ** 1.5),
                "hw01": (400, _CORE, np.sin(np.arange(16.0)).reshape(2, 8)),
                "hw02": (250, _WITH_MEM, np.array([np.cos(np.arange(12.0)), [np.nan] + [1.0] * 11,
                                                   np.arange(12.0) % 3])),
                "hw03": (1000, _CORE, np.array([[5.0, 1.0, 4.0], [2.0, 7.0, 1.0]]))}, 0, 2250),
         ccrate=0.8, budget=2560)
def test_stage_selection_equals_oracle_pca(case, ccrate, budget):
    """PCA over the blocks (and pca_select_metrics, the one-block case)
    against the oracle over the stacked samples: the same degenerate reason
    always, the covariance rebuilt from the spectrum within
    64 (m + k) eps sum_j max|x_j|^2 of the oracle's in every entry, and the
    same d and metrics where rounding cannot move them."""
    ds = block_stage(*case)
    if not ds.matrix_metrics or ds.counts.sum() < 2:
        return
    stacked = stacked_samples(ds)
    expected = oracle_pca(stacked, ds.matrix_metrics, ccrate)
    with mock.patch.object(nodedetect, "_BLOCK_BYTES", budget):
        selections = [_stage_selection(ds, ccrate),
                      pca_select_metrics(stacked, ds.matrix_metrics, ccrate)]
    m, k = stacked.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centered = stacked - stacked.mean(axis=0)
        cov = centered.T @ centered / m
        bound = 64 * (m + k) * np.finfo(float).eps * (np.abs(stacked).max(axis=0) ** 2).sum()
    for got in selections:
        assert got.degenerate == expected.degenerate
        if got.degenerate:
            assert got.d == k and got.selected_metrics == ds.matrix_metrics
            continue
        rebuilt = got.components @ np.diag(got.eigenvalues) @ got.components.T
        assert (np.abs(rebuilt - cov) <= bound).all()
        if _decided(expected, ccrate):
            assert got.d == expected.d
            assert got.selected_metrics == expected.selected_metrics


@given(case=_block_stages(), budget=st.sampled_from([8, 2560, nodedetect._BLOCK_BYTES]),
       data=st.data())
# Interleaved groups of unequal window lengths, truncated to the shortest.
@example(case=({"hw00": (250, _CORE, np.arange(20.0).reshape(2, 10) ** 2),
                "hw01": (400, _CORE, np.sin(np.arange(16.0)).reshape(2, 8)),
                "hw02": (250, _CORE, np.cos(np.arange(20.0)).reshape(2, 10))}, 0, 2250),
         budget=8, data=None)
def test_fft_table_from_blocks_equals_stacked_gather(case, budget, data):
    """The FFT table read from the blocks equals _fft_norms of each matrix
    column's rows gathered from the stacked samples, one column at a time,
    bit for bit."""
    ds = block_stage(*case)
    if len(ds.nodes) < 1 or not ds.matrix_metrics:
        return
    common = int(ds.counts.min())
    if common < 2:
        return
    k = len(ds.matrix_metrics)
    columns = data.draw(st.permutations(range(k))) if data is not None else list(range(k))
    stacked = stacked_samples(ds)
    offsets = np.concatenate([[0], np.cumsum(ds.counts)])
    at = offsets[:-1, None] + np.arange(common)
    expected = np.array([_fft_norms(stacked[at, j]) for j in columns])
    with mock.patch.object(nodedetect, "_BLOCK_BYTES", budget):
        got = _fft_table(ds, columns, common)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("transform", ["mean", "fft"])
def test_outlier_screen_holds_no_samples_by_metrics_array(transform):
    # 8 nodes x 4,000 samples x 20 metrics: one samples x metrics float64
    # array is 5.12 MB; the blocks are views of the group's values.
    rng = np.random.default_rng(8)
    nodes = [f"hw{i:02d}" for i in range(8)]
    stage = make_stage({n: 1 for n in nodes}, runtime=3_999_000)
    metrics = {
        node: MetricStore(node, T0 + 1000 * np.arange(4000, dtype=np.int64), METRIC_SCHEMA,
                          rng.lognormal(0.0, 1.0, (len(METRIC_SCHEMA), 4000)))
        for node in nodes
    }
    trace = make_trace(stage, stores=metrics, group=clock_groups)
    slices = slice_metrics(trace, stage_window(stage))
    tracemalloc.start()
    try:
        ds = build_datasets(stage, slices, trace.cluster)
        result = diagnose_outlier_metrics(ds, OutlierConfig(transform=transform))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluable and ds.counts.tolist() == [4000] * 8
    assert peak < 4000 * 8 * len(METRIC_SCHEMA) * 8
