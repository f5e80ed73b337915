import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_stage, make_trace, metric_series
from stagelens.correlate import build_datasets, slice_metrics, stage_window
from stagelens.model import METRIC_SCHEMA, MetricStore
from stagelens.report import PipelineConfig, diagnose, render_report
from stagelens.metricdetect import (
    OutlierConfig,
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
    trace = make_trace(stage, metrics=metrics)
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
    trace = make_trace(stage, metrics=metrics)
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
    trace = make_trace(stage, metrics=metrics)
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
    trace = make_trace(stage, metrics=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert ds.matrix_metrics == list(columns) or not ds.nodes
    for i, node in enumerate(ds.nodes):
        for c, metric in enumerate(ds.matrix_metrics):
            with np.errstate(over="ignore", invalid="ignore"):
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
            selected |= set(pca_select_metrics(ds.stacked, ds.matrix_metrics, 0.95).selected_metrics)
    assert selected & set(SYSTEM_METRICS)
    assert selected & set(ARCH_METRICS)
