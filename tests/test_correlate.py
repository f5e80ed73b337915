import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    MetricSample,
    make_stage,
    make_task,
    make_trace,
    metric_series,
    stage_of,
    store_from_samples,
)
from stagelens.correlate import (
    CorrelateError,
    UltrashortPolicy,
    build_datasets,
    slice_metrics,
    stage_window,
)
from stagelens.model import METRIC_SCHEMA, MetricStore, Stage, Trace

T0 = 1_460_000_000_000


def per_sample_oracle(series, start, finish):
    """The metric half of slice_metrics + build_datasets as they were written
    over one MetricSample per sample: an inclusive filter, then set
    intersections and Python-list means. `series` maps each window node to
    its rows in timestamp order (absent: no series).

    Returns (vectors, matrix, matrix_metrics, missing_metric_nodes).
    """
    sliced = {
        node: [s for s in series.get(node, []) if start <= s.timestamp <= finish]
        for node in sorted(series)
    }
    vectors, matrix, missing, shared = {}, {}, [], None
    for node, samples in sliced.items():
        if not samples:
            missing.append(node)
            continue
        node_shared = set(samples[0].values)
        for sample in samples[1:]:
            node_shared &= set(sample.values)
        shared = node_shared if shared is None else shared & node_shared
    columns = [m for m in METRIC_SCHEMA if m in (shared or set())]
    for node, samples in sliced.items():
        if not samples:
            continue
        vec = {}
        for metric in METRIC_SCHEMA:
            vals = [s.values[metric] for s in samples if metric in s.values]
            if vals:
                vec[metric] = float(np.mean(vals))
        vectors[node] = vec
        if columns:
            matrix[node] = np.array(
                [[s.values[m] for m in columns] for s in samples], dtype=float
            )
    return vectors, matrix, columns, sorted(set(missing))


# A few schema metrics plus names outside the schema, which the store keeps
# as sorted trailing columns and the datasets ignore.
_NAMES = METRIC_SCHEMA[:3] + ("L3_MPKI", "aa_extra", "zz_extra")
_VALUES = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


@st.composite
def _node_rows(draw, node):
    """Rows with unique timestamps, in random order; `always` metrics are in
    every row, the others come and go."""
    steps = draw(st.lists(st.integers(0, 40), unique=True, max_size=20))
    always = draw(st.sets(st.sampled_from(_NAMES)))
    rows = []
    for step in steps:
        names = always | draw(st.sets(st.sampled_from(_NAMES), max_size=3))
        values = {m: draw(_VALUES) for m in sorted(names)}
        rows.append(MetricSample(node=node, timestamp=T0 + step * 250, values=values))
    return rows


def assert_datasets_equal_oracle(rows, with_series, start, finish):
    """build_datasets over stores made from `rows` (node -> rows in any
    order) equals the per-sample oracle exactly, bit for bit."""
    nodes = sorted(rows)
    stage = stage_of(
        [make_task(task_id=node, node=node, launch=start, runtime=finish - start)
         for node in nodes]
    )
    trace = Trace(
        cluster=nodes,
        metrics={n: store_from_samples(n, rows[n]) for n in with_series},
    )
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), nodes)

    ordered = {n: sorted(rows[n], key=lambda s: s.timestamp) for n in with_series}
    ordered.update({n: [] for n in nodes if n not in with_series})
    vectors, matrix, columns, missing = per_sample_oracle(ordered, start, finish)
    assert ds.matrix_metrics == columns
    assert ds.missing_metric_nodes == missing

    # The arrays.
    assert ds.nodes == sorted(vectors)
    assert ds.means.shape == ds.present.shape == (len(ds.nodes), len(METRIC_SCHEMA))
    for i, node in enumerate(ds.nodes):
        for j, metric in enumerate(METRIC_SCHEMA):
            assert ds.present[i, j] == (metric in vectors[node])
            if ds.present[i, j]:
                assert ds.means[i, j] == vectors[node][metric]
            else:
                assert np.isnan(ds.means[i, j])
    assert ds.stacked.dtype == np.float64 and ds.stacked.flags.c_contiguous
    assert not ds.stacked.flags.writeable
    assert ds.stacked.shape == (ds.offsets[-1], len(columns))
    assert ds.offsets[0] == 0 and (np.diff(ds.offsets) > 0).all()
    if matrix:
        assert np.diff(ds.offsets).tolist() == [len(matrix[n]) for n in ds.nodes]
        assert (ds.stacked == np.vstack([matrix[n] for n in ds.nodes])).all()

    # The dict views.
    assert ds.vectors == vectors
    assert sorted(ds.matrix) == sorted(matrix)
    for node, expected in matrix.items():
        got = ds.matrix[node]
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert (got == expected).all()


@given(data=st.data())
def test_store_datasets_equal_per_sample_oracle(data):
    nodes = [f"hw{i:02d}" for i in range(data.draw(st.integers(1, 4)))]
    rows = {node: data.draw(_node_rows(node)) for node in nodes}
    with_series = data.draw(st.sets(st.sampled_from(nodes)))
    start = T0 + data.draw(st.integers(-8, 40)) * 250
    finish = start + data.draw(st.integers(0, 48)) * 250
    assert_datasets_equal_oracle(rows, with_series, start, finish)


def test_long_gappy_series_equal_per_sample_oracle():
    # Long enough for numpy's pairwise sums to differ from a row-by-row sum
    # of a samples x metrics block; about 3 % of cells missing.
    rng = np.random.default_rng(11)
    names = METRIC_SCHEMA + ("aa_extra", "zz_extra")
    rows = {}
    for i in range(6):
        node = f"hw{i:02d}"
        values = rng.lognormal(0.0, 2.0, size=(400, len(names)))
        gone = rng.random(values.shape) < 0.03
        gone[:, :4] = False  # a few metrics stay shared by every sample
        rows[node] = [
            MetricSample(node=node, timestamp=T0 + int(j) * 250, values={
                m: float(values[j, k]) for k, m in enumerate(names) if not gone[j, k]
            })
            for j in rng.permutation(400)
        ]
    nodes = sorted(rows)
    assert_datasets_equal_oracle(rows, set(nodes[1:]), T0 + 37 * 250, T0 + 351 * 250)


def test_slices_are_views_of_the_store():
    stage = make_stage({"hw01": 1}, runtime=2_000)
    metrics = {"hw01": metric_series("hw01", T0, 5, lambda i: {"m": float(i)})}
    trace = make_trace(stage, metrics=metrics)
    cut = slice_metrics(trace, stage_window(stage)).series["hw01"]
    assert np.shares_memory(cut.values, metrics["hw01"].values)
    assert np.shares_memory(cut.timestamps, metrics["hw01"].timestamps)


def test_singleton_window():
    stage = stage_of([make_task(node="hw073", launch=T0, runtime=5_000)])
    window = stage_window(stage)
    assert (window.start, window.finish) == (T0, T0 + 5_000)
    assert window.nodes == {"hw073"}


def test_union_envelope_over_six_nodes():
    stage = stage_of(
        [make_task(task_id=f"t{i}", node=f"hw{i:02d}", launch=T0 + i * 1000, runtime=5_000)
         for i in range(6)]
    )
    window = stage_window(stage)
    assert window.start == T0
    assert window.finish == T0 + 5 * 1000 + 5_000
    assert len(window.nodes) == 6


def test_disjoint_tasks_share_one_window():
    stage = stage_of([make_task(task_id="a", launch=T0, runtime=1_000),
                      make_task(task_id="b", launch=T0 + 10_000, runtime=1_000)])
    window = stage_window(stage)
    assert (window.start, window.finish) == (T0, T0 + 11_000)


def test_empty_stage_errors():
    with pytest.raises(CorrelateError):
        stage_window(Stage(stage_id="s0", job_id="j0"))


def test_slice_bounds_inclusive():
    stage = make_stage({"hw01": 1}, runtime=2_000)
    metrics = {"hw01": metric_series("hw01", T0, 5, lambda i: {"m": float(i)})}
    trace = make_trace(stage, metrics=metrics)
    sliced = slice_metrics(trace, stage_window(stage))
    # window [T0, T0+2000] covers samples at T0, T0+1000, T0+2000
    assert sliced.series["hw01"].timestamps.tolist() == [T0, T0 + 1000, T0 + 2000]
    assert not sliced.gaps


def test_window_before_samples_reports_gap():
    stage = make_stage({"hw01": 1})
    metrics = {"hw01": metric_series("hw01", T0 + 60_000, 5, lambda i: {"m": 1.0})}
    trace = make_trace(stage, metrics=metrics)
    sliced = slice_metrics(trace, stage_window(stage))
    assert len(sliced.series["hw01"]) == 0
    assert sliced.gaps == ["hw01"]


def test_thirty_second_window_has_31_samples():
    stage = make_stage({"hw01": 1}, runtime=30_000)
    metrics = {"hw01": metric_series("hw01", T0 - 10_000, 120, lambda i: {"m": 1.0})}
    trace = make_trace(stage, metrics=metrics)
    sliced = slice_metrics(trace, stage_window(stage))
    assert len(sliced.series["hw01"]) == 31


def test_slicing_is_idempotent():
    stage = make_stage({"hw01": 2}, runtime=10_000)
    metrics = {"hw01": metric_series("hw01", T0 - 5_000, 40, lambda i: {"m": float(i)})}
    trace = make_trace(stage, metrics=metrics)
    window = stage_window(stage)
    once = slice_metrics(trace, window)
    again = slice_metrics(make_trace(stage, metrics=dict(once.series)), window)
    assert again.series == once.series


_INT64 = (-(2**63), 2**63 - 1)
_INT64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**53, 2**63 - 2, 2**63 - 1)
_STAMP = st.one_of(st.integers(*_INT64), st.sampled_from(_INT64_EDGES))


def assert_window_equals_filter(timestamps, start, finish):
    store = MetricStore(
        "hw01", np.array(timestamps, dtype=np.int64), ("m",),
        np.arange(len(timestamps), dtype=float)[None, :],
    )
    cut = store.window(start, finish)
    kept = [i for i, t in enumerate(timestamps) if start <= t <= finish]
    assert cut.timestamps.tolist() == [timestamps[i] for i in kept]
    assert cut.values[0].tolist() == [float(i) for i in kept]


@pytest.mark.parametrize("start, finish", [
    (-(2**63), 2**63 - 1),
    (2**63 - 1, 2**63 - 1),
    (2**63 - 2, 2**63 - 2),
    (-(2**63), -(2**63)),
    (-(2**63) + 1, 2**63 - 2),
    (0, -1),
    (2**63 - 1, -(2**63)),
])
def test_window_at_int64_extremes(start, finish):
    assert_window_equals_filter(sorted(_INT64_EDGES), start, finish)


@given(
    timestamps=st.lists(_STAMP, max_size=12, unique=True).map(sorted),
    start=_STAMP,
    finish=_STAMP,
)
def test_window_equals_inclusive_filter(timestamps, start, finish):
    assert_window_equals_filter(timestamps, start, finish)


def hadoop_case_counts():
    return {"hw106": 228, "hw114": 159, "hw062": 44, "hw073": 23}


def test_tnum_matches_case_counts():
    stage = make_stage(hadoop_case_counts())
    trace = make_trace(stage)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert ds.tnum == hadoop_case_counts()
    assert sum(ds.tnum.values()) / len(ds.tnum) == pytest.approx(113.5)


def test_conservation_with_ultrashort_and_failed():
    stage = stage_of(
        list(make_stage({"hw01": 5, "hw02": 5}, runtime=20_000).tasks)
        + [make_task(task_id="u1", node="hw01", runtime=300),  # ultrashort
           make_task(task_id="f1", node="hw02", succeeded=False)]
    )
    trace = make_trace(stage)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert sum(ds.tnum.values()) == 10
    assert ds.ultrashort_count == 1
    assert ds.failed_count == 1
    assert sum(ds.tnum.values()) + ds.ultrashort_count + ds.failed_count == len(stage.tasks)
    # failed tasks never reach the data-size dataset
    assert all(task_id != "f1" for task_id in ds.data_size.task_id)
    # ultrashort tasks stay in data_size (only tnum filters them)
    assert any(task_id == "u1" for task_id in ds.data_size.task_id)


def test_all_ultrashort_yields_empty_tnum():
    from stagelens.appdetect import detect_workload_imbalance

    stage = make_stage({"hw01": 3, "hw02": 3}, runtime=400)  # below the 1s floor
    trace = make_trace(stage)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert sum(ds.tnum.values()) == 0
    assert ds.ultrashort_count == 6
    assert not detect_workload_imbalance(ds.tnum).evaluable


def test_zero_task_cluster_nodes_count_as_zero():
    stage = make_stage({"hw01": 4})
    trace = make_trace(stage, extra_nodes=["hw09"])
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert ds.tnum["hw09"] == 0


def test_ultrashort_policy_scales_with_median():
    policy = UltrashortPolicy()
    assert policy.threshold([10_000, 10_000, 10_000]) == 1000.0
    assert policy.threshold([100_000, 100_000, 100_000]) == 5000.0


def test_constant_metric_vector_mean():
    stage = make_stage({"hw01": 1, "hw02": 1}, runtime=10_000)
    metrics = {
        node: metric_series(node, T0, 11, lambda i: {"cpu_usage": 0.25, "IPC": 1.5})
        for node in ("hw01", "hw02")
    }
    trace = make_trace(stage, metrics=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert ds.vectors["hw01"]["cpu_usage"] == pytest.approx(0.25)
    assert ds.vectors["hw01"]["IPC"] == pytest.approx(1.5)
    assert ds.matrix_metrics == ["cpu_usage", "IPC"]
    assert ds.matrix["hw01"].shape == (11, 2)


def test_vector_mean_within_sample_bounds(rng):
    stage = make_stage({"hw01": 1}, runtime=20_000)
    values = rng.uniform(0.0, 2.0, size=21)
    metrics = {
        "hw01": metric_series("hw01", T0, 21, lambda i: {"cpu_usage": float(values[i])})
    }
    trace = make_trace(stage, metrics=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    mean = ds.vectors["hw01"]["cpu_usage"]
    assert values.min() <= mean <= values.max()


def test_node_without_samples_is_marked_missing():
    stage = make_stage({"hw01": 1, "hw02": 1}, runtime=10_000)
    metrics = {"hw01": metric_series("hw01", T0, 11, lambda i: {"cpu_usage": 0.2})}
    trace = make_trace(stage, metrics=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    assert "hw02" in ds.missing_metric_nodes
    assert "hw02" not in ds.vectors
