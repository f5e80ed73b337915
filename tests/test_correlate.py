import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    MetricSample,
    clock_groups,
    make_stage,
    make_task,
    make_trace,
    metric_series,
    row_groups,
    stacked_samples,
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
from stagelens.model import METRIC_SCHEMA, MetricStore, Stage, Trace, window_bounds
from stagelens.traceio import load_trace, save_trace

T0 = 1_460_000_000_000


def per_sample_oracle(series, start, finish):
    """The metric half of slice_metrics + build_datasets as they were written
    over one MetricSample per sample: an inclusive filter, then set
    intersections and Python-list means. `series` maps each window node to
    its rows in timestamp order (absent: no series).

    Returns (vectors, matrix, matrix_metrics, nodes without samples).
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
# Column layouts a node draws from: few, so that nodes on one clock often
# share one, and the empty layout.
_LAYOUTS = (_NAMES[:3],) * 4 + (_NAMES, ("cpu_usage", "zz_extra"), ())


@st.composite
def _node_rows(draw, node, clock, layout):
    """Rows at the clock's steps (unique, in random order). The first row
    reports every metric of the layout, so the layout is the store's
    columns; the others leave metrics out often, and some metrics always,
    so that window cells are partly or wholly missing."""
    sparse = draw(st.sets(st.sampled_from(layout))) if layout else set()
    rows = []
    for i, step in enumerate(clock):
        names = set(layout) if i == 0 else {
            m for m in layout if m not in sparse and draw(st.sampled_from([True, True, False]))
        }
        values = {m: draw(_VALUES) for m in sorted(names)}
        rows.append(MetricSample(node=node, timestamp=T0 + step * 250, values=values))
    return draw(st.permutations(rows))


@st.composite
def _grouped_cases(draw):
    """Window nodes (one task each) and outside nodes (series, no task) on
    two or three clocks (a moved clock may equal the base) with a few
    layouts, so that clock groups of several nodes, lone nodes, nodes on one
    clock with different layouts and window nodes without series all occur
    often."""
    nodes = [f"hw{i:02d}" for i in range(draw(st.integers(1, 7)))]
    outside = set(draw(st.sets(st.sampled_from(nodes), max_size=2)))
    if outside == set(nodes):
        outside.discard(nodes[0])
    # A base clock, and one or two more: each the base moved by a few steps
    # (the same sample count, as for per-node clock offsets) or its own.
    steps = st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=20).map(sorted)
    base = draw(steps)
    moved = st.integers(-3, 3).map(lambda d: [step + d for step in base])
    clocks = [base] + draw(st.lists(st.one_of(moved, moved, steps), min_size=1, max_size=2))
    rows = {
        node: draw(_node_rows(node, draw(st.sampled_from(clocks)),
                              draw(st.sampled_from(_LAYOUTS))))
        for node in nodes
    }
    with_series = set(nodes) - draw(st.sets(st.sampled_from(nodes), max_size=2)) | outside
    start = T0 + draw(st.integers(-8, 40)) * 250
    finish = start + draw(st.integers(0, 48)) * 250
    return rows, with_series, start, finish, outside, draw(st.booleans())


def assert_grouped(trace):
    """trace.metrics holds one read-only clock group per distinct column
    layout and timestamp vector of its series, and each series is its
    group's row."""
    metrics = trace.metrics
    keys = {(store.columns, store.timestamps.tobytes()) for store in metrics.values()}
    assert len(metrics.groups) == len(keys)
    assert sorted(n for g in metrics.groups for n in g.nodes) == sorted(metrics)
    for group in metrics.groups:
        assert not group.values.flags.writeable and not group.timestamps.flags.writeable
        assert group.values.shape == (len(group.nodes), len(group.columns), len(group.timestamps))
        for row, node in enumerate(group.nodes):
            store = metrics[node]
            assert store.columns == group.columns
            assert store.timestamps is group.timestamps
            assert not group.values.size or np.shares_memory(store.values, group.values)
            assert np.array_equal(store.values, group.values[row], equal_nan=True)


def assert_datasets_equal_oracle(rows, with_series, start, finish, outside=(), shared=False):
    """build_datasets over stores made from `rows` (node -> rows in any
    order) equals the per-sample oracle exactly, bit for bit, on the trace
    and on the trace saved and loaded. Nodes in `outside` run no task, so
    their series lie outside the window. The trace holds each store as a
    one-row group; with `shared`, the stores with equal layouts and
    timestamps are the rows of one group, as in the loaded trace."""
    nodes = sorted(n for n in rows if n not in outside)
    stage = stage_of(
        [make_task(task_id=node, node=node, launch=start, runtime=finish - start)
         for node in nodes]
    )
    window = stage_window(stage)
    stores = {n: store_from_samples(n, rows[n]) for n in sorted(with_series)}
    trace = Trace(cluster=sorted(rows), metrics=(clock_groups if shared else row_groups)(stores))
    with tempfile.TemporaryDirectory() as out:
        save_trace(trace, out)
        loaded = load_trace(out)
    assert loaded == trace
    assert_grouped(loaded)
    if shared:
        assert_grouped(trace)

    ordered = {n: sorted(rows[n], key=lambda s: s.timestamp) for n in with_series if n in nodes}
    ordered.update({n: [] for n in nodes if n not in with_series})
    vectors, matrix, columns, missing = per_sample_oracle(ordered, start, finish)
    for t in (trace, loaded):
        slices = slice_metrics(t, window)
        assert slices.gaps == missing
        assert list(slices.series) == nodes
        for node, cut in slices.series.items():
            store = t.metrics.get(node, store_from_samples(node, []))
            lo, hi = window_bounds(store.timestamps, start, finish)
            if node in slices.gaps:  # an empty placeholder
                assert len(cut) == hi - lo == 0
            else:
                assert cut == MetricStore(node, store.timestamps[lo:hi], store.columns,
                                          store.values[:, lo:hi])
        ds = build_datasets(stage, slices, t.cluster)
        assert_datasets_equal(ds, vectors, matrix, columns)


def assert_datasets_equal(ds, vectors, matrix, columns):
    """The datasets equal the oracle's vectors, matrix and matrix columns."""
    assert ds.matrix_metrics == columns

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
    for block, at in zip(ds.blocks, ds.positions):
        assert block.dtype == np.float64 and not block.flags.writeable
        assert block.shape[:2] == (len(at), len(columns))
        assert ds.counts[at].tolist() == [block.shape[2]] * len(at)
    assert sorted(i for at in ds.positions for i in at.tolist()) == list(range(len(ds.nodes)))
    assert ds.counts.dtype == np.int64 and (ds.counts > 0).all()
    stacked = stacked_samples(ds)
    assert stacked.shape == (ds.counts.sum(), len(columns))
    if matrix:
        assert ds.counts.tolist() == [len(matrix[n]) for n in ds.nodes]
        assert (stacked == np.vstack([matrix[n] for n in ds.nodes])).all()

    # The dict views.
    assert ds.vectors == vectors
    assert sorted(ds.matrix) == sorted(matrix)
    for node, expected in matrix.items():
        got = ds.matrix[node]
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert (got == expected).all()


def _rows_on(node, steps, layout, gaps=()):
    """Rows at `steps`, distinct values for each node, sample and metric;
    `gaps` are (step, metric) cells the node does not report."""
    return [
        MetricSample(node, T0 + step * 250, {
            m: 100 * int(node[2:]) + i + 0.01 * k for k, m in enumerate(layout)
            if (step, m) not in gaps
        })
        for i, step in enumerate(steps)
    ]


_SCHEMA3 = METRIC_SCHEMA[:3]


@given(case=_grouped_cases())
# One clock array shared by three window nodes.
@example(case=({n: _rows_on(n, range(10), _SCHEMA3) for n in ("hw00", "hw01", "hw02")},
               {"hw00", "hw01", "hw02"}, T0 + 500, T0 + 1500, set(), True))
# Equal clocks in distinct arrays, and a node on that clock with another layout.
@example(case=({"hw00": _rows_on("hw00", range(10), _SCHEMA3),
                "hw01": _rows_on("hw01", range(10), _SCHEMA3),
                "hw02": _rows_on("hw02", range(10), _NAMES)},
               {"hw00", "hw01", "hw02"}, T0, T0 + 1000, set(), False))
# Distinct clocks, a window node without series and a series node outside
# the window between two window nodes of one group.
@example(case=({"hw00": _rows_on("hw00", range(0, 20, 2), _SCHEMA3),
                "hw01": _rows_on("hw01", range(1, 20, 2), _SCHEMA3),
                "hw02": _rows_on("hw02", range(0, 20, 2), _SCHEMA3),
                "hw03": _rows_on("hw03", range(0, 20, 2), _SCHEMA3),
                "hw04": _rows_on("hw04", range(5), _SCHEMA3)},
               {"hw00", "hw01", "hw02", "hw03"}, T0 + 750, T0 + 3000, {"hw02"}, True))
# A wholly missing window cell and a partly missing one in one group.
@example(case=({n: _rows_on(n, range(6), _SCHEMA3, gaps={(s, "cpu_usage") for s in range(1, 6)}
                            | {(3, "mem_usage")})
                for n in ("hw00", "hw01")},
               {"hw00", "hw01"}, T0 + 250, T0 + 1250, set(), True))
def test_store_datasets_equal_per_sample_oracle(case):
    assert_datasets_equal_oracle(*case)


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
    for shared in (False, True):
        assert_datasets_equal_oracle(
            rows, set(nodes[1:]), T0 + 37 * 250, T0 + 351 * 250, shared=shared
        )


def test_slices_are_views_of_the_store():
    stage = make_stage({"hw01": 1}, runtime=2_000)
    metrics = {"hw01": metric_series("hw01", T0, 5, lambda i: {"m": float(i)})}
    trace = make_trace(stage, stores=metrics)
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
        stage_window(Stage(stage_id="s0"))


def test_slice_bounds_inclusive():
    stage = make_stage({"hw01": 1}, runtime=2_000)
    metrics = {"hw01": metric_series("hw01", T0, 5, lambda i: {"m": float(i)})}
    trace = make_trace(stage, stores=metrics)
    sliced = slice_metrics(trace, stage_window(stage))
    # window [T0, T0+2000] covers samples at T0, T0+1000, T0+2000
    assert sliced.series["hw01"].timestamps.tolist() == [T0, T0 + 1000, T0 + 2000]
    assert not sliced.gaps


def test_window_before_samples_reports_gap():
    stage = make_stage({"hw01": 1})
    metrics = {"hw01": metric_series("hw01", T0 + 60_000, 5, lambda i: {"m": 1.0})}
    trace = make_trace(stage, stores=metrics)
    sliced = slice_metrics(trace, stage_window(stage))
    assert len(sliced.series["hw01"]) == 0
    assert sliced.gaps == ["hw01"]


def test_thirty_second_window_has_31_samples():
    stage = make_stage({"hw01": 1}, runtime=30_000)
    metrics = {"hw01": metric_series("hw01", T0 - 10_000, 120, lambda i: {"m": 1.0})}
    trace = make_trace(stage, stores=metrics)
    sliced = slice_metrics(trace, stage_window(stage))
    assert len(sliced.series["hw01"]) == 31


def test_slicing_is_idempotent():
    stage = make_stage({"hw01": 2}, runtime=10_000)
    metrics = {"hw01": metric_series("hw01", T0 - 5_000, 40, lambda i: {"m": float(i)})}
    trace = make_trace(stage, stores=metrics)
    window = stage_window(stage)
    once = slice_metrics(trace, window)
    again = slice_metrics(make_trace(stage, stores=dict(once.series)), window)
    assert again.series == once.series


_INT64 = (-(2**63), 2**63 - 1)
_INT64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**53, 2**63 - 2, 2**63 - 1)
_STAMP = st.one_of(st.integers(*_INT64), st.sampled_from(_INT64_EDGES))


def assert_window_equals_filter(timestamps, start, finish):
    store = MetricStore(
        "hw01", np.array(timestamps, dtype=np.int64), ("m",),
        np.arange(len(timestamps), dtype=float)[None, :],
    )
    lo, hi = window_bounds(store.timestamps, start, finish)
    kept = [i for i, t in enumerate(timestamps) if start <= t <= finish]
    assert store.timestamps[lo:hi].tolist() == [timestamps[i] for i in kept]
    assert store.values[0, lo:hi].tolist() == [float(i) for i in kept]


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
    trace = make_trace(stage, stores=metrics)
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
    trace = make_trace(stage, stores=metrics)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
    mean = ds.vectors["hw01"]["cpu_usage"]
    assert values.min() <= mean <= values.max()


def test_node_without_samples_is_marked_missing():
    stage = make_stage({"hw01": 1, "hw02": 1}, runtime=10_000)
    metrics = {"hw01": metric_series("hw01", T0, 11, lambda i: {"cpu_usage": 0.2})}
    trace = make_trace(stage, stores=metrics)
    slices = slice_metrics(trace, stage_window(stage))
    ds = build_datasets(stage, slices, trace.cluster)
    assert "hw02" in slices.gaps
    assert "hw02" not in ds.vectors


def test_matrix_block_is_a_view_when_its_columns_are_consecutive():
    stage = make_stage({"hw01": 1, "hw02": 1}, runtime=10_000)
    for hole, shared in ((False, True), (True, False)):
        # With a hole, mem_usage is no matrix metric, and it sits between
        # the two that are.
        metrics = {
            node: metric_series(node, T0, 11, lambda i: {
                "cpu_usage": float(i), "IPC": 2.0 * i,
                **({"mem_usage": 1.0} if not (hole and i == 3) else {}),
            })
            for node in ("hw01", "hw02")
        }
        trace = make_trace(stage, stores=metrics, group=clock_groups)
        ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
        (block,) = ds.blocks
        (group,) = trace.metrics.groups
        expected = ["cpu_usage", "IPC"] if hole else ["cpu_usage", "mem_usage", "IPC"]
        assert ds.matrix_metrics == expected
        assert np.shares_memory(block, group.values) == shared
        assert (stacked_samples(ds) == np.vstack([ds.matrix[n] for n in ds.nodes])).all()
