import os
import statistics
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_task, placed_tasks, sized_tasks
from stagelens.appdetect import (
    ImbalanceConfig,
    PlacementConfig,
    PlacementEntry,
    SkewResult,
    detect_skew_data_size,
    detect_stragglers,
    detect_uneven_placement,
    detect_workload_imbalance,
    judge_job_imbalance,
    mean_runtimes,
)
from stagelens.correlate import UltrashortPolicy, build_datasets, slice_metrics, stage_window
from stagelens.model import Locality, Stage, Task, TaskTable, Trace

HADOOP_COUNTS = {"hw106": 228, "hw114": 159, "hw062": 44, "hw073": 23}


def imbalance_oracle(counts, bc):
    """Literal re-evaluation of the mean/deviation/tilt definitions."""
    p = len(counts)
    mean = sum(counts.values()) / p
    if mean == 0:
        return None
    flags = set()
    total = 0.0
    tilts = []
    for node, c in counts.items():
        diff = c - mean
        total += abs(diff)
        if abs(diff) > bc * mean:
            flags.add(node)
        tilts.append((abs(abs(diff) - bc * mean), node))
    tilts.sort(key=lambda item: (-item[0], item[1]))
    return total > bc * mean * p, flags, tilts


def test_hadoop_case_unbalanced_all_flagged():
    result = detect_workload_imbalance(HADOOP_COUNTS, ImbalanceConfig(bc=0.1))
    assert result.evaluable and result.unbalanced
    assert result.mean == pytest.approx(113.5)
    assert set(result.flagged) == set(HADOOP_COUNTS)
    # tilt-rank order is deterministic and matches the deviation arithmetic
    assert result.flagged == ["hw106", "hw073", "hw062", "hw114"]
    assert result.tilt[0] == (pytest.approx(103.15), "hw106")


def test_symmetric_counts_are_balanced():
    result = detect_workload_imbalance({f"n{i}": 10 for i in range(4)}, ImbalanceConfig(bc=0.1))
    assert result.evaluable and not result.unbalanced
    assert result.flagged == []


def test_zero_tasks_not_evaluable():
    assert not detect_workload_imbalance({"a": 0, "b": 0}).evaluable


def test_matches_oracle_on_random_instances(rng):
    for _ in range(300):
        p = int(rng.integers(1, 7))
        counts = {f"n{i}": int(rng.integers(0, 21)) for i in range(p)}
        bc = float(rng.uniform(0.01, 0.99))
        expected = imbalance_oracle(counts, bc)
        result = detect_workload_imbalance(counts, ImbalanceConfig(bc=bc))
        if expected is None:
            assert not result.evaluable
            continue
        unbalanced, flags, tilts = expected
        assert result.unbalanced == unbalanced
        assert set(result.flagged) == flags
        assert [(pytest.approx(t), n) for t, n in tilts] == result.tilt


def test_scale_invariance_of_verdict(rng):
    for _ in range(50):
        counts = {f"n{i}": int(rng.integers(1, 20)) for i in range(5)}
        bc = float(rng.uniform(0.05, 0.9))
        base = detect_workload_imbalance(counts, ImbalanceConfig(bc=bc))
        scaled = detect_workload_imbalance(
            {n: c * 7 for n, c in counts.items()}, ImbalanceConfig(bc=bc)
        )
        assert base.unbalanced == scaled.unbalanced
        assert base.flagged == scaled.flagged


def test_permutation_invariance():
    counts = {"a": 3, "b": 9, "c": 1}
    renamed = {"x": 3, "y": 9, "z": 1}
    r1 = detect_workload_imbalance(counts)
    r2 = detect_workload_imbalance(renamed)
    mapping = {"a": "x", "b": "y", "c": "z"}
    assert [mapping[n] for n in r1.flagged] == r2.flagged


def stage_result(unbalanced, evaluable=True):
    from stagelens.appdetect import ImbalanceResult

    return ImbalanceResult(evaluable=evaluable, unbalanced=unbalanced)


def test_job_ratio_three_of_four():
    verdict = judge_job_imbalance(
        [stage_result(True), stage_result(True), stage_result(True), stage_result(False)],
        ImbalanceConfig(th_ub=0.6),
    )
    assert verdict.ratio_ub == pytest.approx(0.75)
    assert verdict.unbalanced


def test_job_zero_unbalanced_stages():
    verdict = judge_job_imbalance([stage_result(False)] * 3)
    assert verdict.ratio_ub == 0.0
    assert not verdict.unbalanced


def test_job_needs_an_evaluable_stage():
    assert not judge_job_imbalance([stage_result(False, evaluable=False)]).evaluable


def test_default_thresholds_match_published_values():
    cfg = ImbalanceConfig()
    assert (cfg.bc, cfg.th_ub) == (0.1, 0.6)


MB = 1024 * 1024


def test_skew_flags_the_big_task():
    data = [("n1", "t1", 100 * MB), ("n2", "t2", 100 * MB), ("n3", "t3", 100 * MB),
            ("n4", "t4", 400 * MB)]
    result = detect_skew_data_size(sized_tasks(data), th_size=1.5)
    assert [(n, t) for n, t, _ in result.flagged_tasks] == [("n4", "t4")]
    assert result.flagged_tasks[0][2] == pytest.approx(4.0)
    assert [n for n, _ in result.flagged_nodes] == ["n4"]


def test_equal_sizes_have_no_skew():
    data = [(f"n{i}", f"t{i}", 128 * MB) for i in range(6)]
    result = detect_skew_data_size(sized_tasks(data))
    assert not result.flagged_tasks and not result.flagged_nodes


def test_zero_median_not_evaluable():
    assert not detect_skew_data_size(sized_tasks([("n1", "t1", 0), ("n2", "t2", 0)])).evaluable


def test_flag_small_catches_the_reciprocal_side():
    data = [("n1", "t1", 100), ("n2", "t2", 100), ("n3", "t3", 100), ("n4", "t4", 10)]
    off = detect_skew_data_size(sized_tasks(data), th_size=1.5)
    assert not off.flagged_tasks
    on = detect_skew_data_size(sized_tasks(data), th_size=1.5, flag_small=True)
    assert [(n, t) for n, t, _ in on.flagged_tasks] == [("n4", "t4")]


def test_skew_monotonicity(rng):
    for _ in range(50):
        sizes = [int(s) for s in rng.integers(50, 150, size=8)]
        data = [(f"n{i}", f"t{i}", s) for i, s in enumerate(sizes)]
        base = detect_skew_data_size(sized_tasks(data), th_size=1.5)
        flagged = {t for _, t, _ in base.flagged_tasks}
        bumped = list(data)
        bumped[3] = ("n3", "t3", sizes[3] * 3)
        again = detect_skew_data_size(sized_tasks(bumped), th_size=1.5)
        if "t3" in flagged:
            assert "t3" in {t for _, t, _ in again.flagged_tasks}


def uneven_case_data():
    """320 tasks; 11 long-runtime ANY tasks on hw114."""
    data = []
    for i in range(309):
        data.append((f"hw{i % 5:02d}", Locality.NODE_LOCAL, 10_000))
    for i in range(11):
        data.append(("hw114", Locality.ANY, 30_000))
    return data


def test_published_ratio_value():
    entries = detect_uneven_placement(placed_tasks(uneven_case_data()))
    assert len(entries) == 1
    entry = entries[0]
    assert entry.node == "hw114"
    assert entry.locality is Locality.ANY
    assert entry.outlier_count == 11
    assert entry.ratio == pytest.approx(0.06875, abs=1e-12)


def test_constant_runtimes_have_no_outliers():
    data = [(f"n{i}", Locality.ANY, 5_000) for i in range(10)]
    assert detect_uneven_placement(placed_tasks(data)) == []


def test_zero_priority_suppresses():
    data = []
    for i in range(20):
        data.append(("n1", Locality.PROCESS_LOCAL, 10_000))
    data += [("n2", Locality.PROCESS_LOCAL, 100_000)] * 3
    cfg = PlacementConfig(priorities={loc: 0.0 for loc in Locality})
    assert detect_uneven_placement(placed_tasks(data), cfg) == []
    # with the default priorities PROCESS_LOCAL is already weight 0
    assert detect_uneven_placement(placed_tasks(data)) == []


def test_short_side_never_counts():
    data = [("n1", Locality.ANY, 10_000)] * 20 + [("n2", Locality.ANY, 100)] * 2
    entries = detect_uneven_placement(placed_tasks(data))
    assert all(e.node != "n2" for e in entries)


def test_straggler_flags_slow_node():
    result = detect_stragglers({"n1": 10.0, "n2": 10.0, "n3": 10.0, "n4": 30.0}, th_d=1.5)
    assert result.evaluable
    assert result.stragglers == [("n4", pytest.approx(3.0))]


def test_equal_means_no_stragglers():
    result = detect_stragglers({"n1": 5.0, "n2": 5.0, "n3": 5.0})
    assert result.evaluable and result.stragglers == []


_RUNTIME = st.floats(allow_nan=False, allow_infinity=False)


@given(st.dictionaries(st.text(max_size=2), _RUNTIME, min_size=2, max_size=9))
@example({"a": 1.0, "b": 4.0, "c": 2.0})
@example({"a": 1.0, "b": 4.0, "c": 2.0, "d": 8.5})
def test_straggler_median_is_statistics_median(mean_runtime):
    median = statistics.median(mean_runtime.values())
    result = detect_stragglers(mean_runtime)
    assert result.evaluable == (median != 0)
    if result.evaluable:
        assert result.median == median


def test_import_leaves_statistics_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, stagelens; print('statistics' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_straggler_needs_two_nodes_and_nonzero_median():
    assert not detect_stragglers({"n1": 10.0}).evaluable
    assert not detect_stragglers({"n1": 0.0, "n2": 0.0}).evaluable


# --- the task screens against their per-task reference -----------------------


def left_to_right(values):
    """sum() of floats as CPython before 3.12 runs it: one addition per value."""
    total = 0
    for value in values:
        total += value
    return total


def per_task_oracle(tasks, cluster, policy, th_size, flag_small, cfg):
    """The task half of build_datasets and the straggler, skew and placement
    screens as they were written over one Task per task. Skewed tasks are
    listed by task id.

    Returns (tnum, ultrashort, failed, data_size, mean runtimes, skew, placement).
    """
    ok_tasks = [t for t in tasks if t.succeeded]
    failed = len(tasks) - len(ok_tasks)
    runtimes = [t.runtime for t in ok_tasks]
    cutoff = float(policy.absolute_ms)
    if runtimes:
        cutoff = max(cutoff, policy.median_fraction * statistics.median(runtimes))
    tnum = {node: 0 for node in cluster}
    ultrashort = 0
    for task in ok_tasks:
        if task.runtime < cutoff:
            ultrashort += 1
            continue
        tnum[task.node] = tnum.get(task.node, 0) + 1
    data_size = [(t.node, t.task_id, t.data_size) for t in ok_tasks]
    locality = [(t.node, t.locality, t.runtime) for t in ok_tasks]

    by_node = {}
    for node, _, runtime in locality:
        by_node.setdefault(node, []).append(runtime)
    means = {node: sum(rs) / len(rs) for node, rs in by_node.items()}

    skew = SkewResult(evaluable=False)
    median = statistics.median([s for _, _, s in data_size]) if data_size else 0
    if median != 0:

        def skewed(value):
            ratio = value / median
            if ratio > th_size:
                return ratio
            if flag_small and value > 0 and median / value > th_size:
                return median / value
            return None

        flagged_tasks = []
        for node, task_id, size in data_size:
            ratio = skewed(size)
            if ratio is not None:
                flagged_tasks.append((node, task_id, ratio))
        per_node = {}
        for node, _, size in data_size:
            per_node.setdefault(node, []).append(size)
        flagged_nodes = []
        for node in sorted(per_node):
            ratio = skewed(statistics.fmean(per_node[node]))
            if ratio is not None:
                flagged_nodes.append((node, ratio))
        skew = SkewResult(True, median, sorted(flagged_tasks, key=lambda t: t[1]), flagged_nodes)

    placement = None
    if len(locality) >= 2:
        rts = [float(r) for _, _, r in locality]
        med = statistics.median(rts)
        mean_rt = left_to_right(rts) / len(rts)
        std = (left_to_right((r - mean_rt) ** 2 for r in rts) / len(rts)) ** 0.5
        placement = []
        if std != 0:
            dis = [r - med for r in rts]
            mad = left_to_right(abs(d) for d in dis) / len(dis)
            counts = {}
            for (node, loc, _), d in zip(locality, dis):
                if abs(d) <= mad:
                    continue
                if abs(abs(d) - mad) > 1.96 * std and d > 0:
                    counts[(node, loc)] = counts.get((node, loc), 0) + 1
            for (node, loc), count in counts.items():
                ratio = count / len(locality) * cfg.priorities.get(loc, 1.0)
                if ratio > 0:
                    placement.append(PlacementEntry(loc, node, ratio, count))
            placement.sort(key=lambda e: (-e.ratio, e.node, e.locality.value))
    return tnum, ultrashort, failed, data_size, means, skew, placement


_BIG = 2**53 - 1
_TIME = st.one_of(st.integers(0, 40_000), st.integers(_BIG - 10**6, _BIG))
_SIZE = st.one_of(st.integers(0, 300), st.integers(_BIG - 300, _BIG), st.just(0))


@st.composite
def task_rows(draw):
    """Tasks on four nodes, times and sizes up to the 2**53 bound, some with
    finish before launch (which validate would reject), ids out of order."""
    rows = []
    for i in draw(st.permutations(range(draw(st.integers(1, 30))))):
        launch = draw(_TIME)
        step = draw(st.one_of(st.integers(0, 3_000), st.integers(-500, 0), st.integers(0, _BIG)))
        rows.append(Task(
            task_id=f"t{i}",
            node=draw(st.sampled_from(["n0", "n1", "n2", "n3"])),
            launch_time=launch,
            finish_time=min(_BIG, max(0, launch + step)),
            locality=draw(st.sampled_from(list(Locality))),
            data_size=draw(_SIZE),
            succeeded=draw(st.booleans()) or draw(st.booleans()),
        ))
    return rows


@given(
    rows=task_rows(),
    cluster=st.lists(st.sampled_from(["n0", "n1", "n2", "n4"]), unique=True),
    policy=st.builds(UltrashortPolicy, st.integers(0, 5_000), st.floats(0.0, 1.0)),
    th_size=st.floats(1.01, 4.0),
    flag_small=st.booleans(),
)
def test_task_columns_equal_per_task_oracle(rows, cluster, policy, th_size, flag_small):
    """build_datasets' task counts and the straggler, skew and placement
    screens on the task table equal the per-task reference bit for bit."""
    stage = Stage("s0", TaskTable.from_rows(rows))
    trace = Trace(cluster=cluster)
    ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), cluster, policy)
    cfg = PlacementConfig()
    tnum, ultrashort, failed, data_size, means, skew, placement = per_task_oracle(
        rows, cluster, policy, th_size, flag_small, cfg
    )
    assert list(ds.tnum.items()) == list(tnum.items())
    assert (ds.ultrashort_count, ds.failed_count) == (ultrashort, failed)
    assert [(t.node, t.task_id, t.data_size) for t in ds.data_size] == data_size
    assert mean_runtimes(ds.data_size) == means
    assert detect_stragglers(mean_runtimes(ds.data_size)) == detect_stragglers(means)
    assert detect_skew_data_size(ds.data_size, th_size, flag_small) == skew
    assert detect_skew_data_size(sized_tasks(data_size), th_size, flag_small) == skew
    if placement is not None:
        assert detect_uneven_placement(ds.data_size, cfg) == placement


def test_node_sums_past_int64_stay_exact():
    """2,048 sizes just under 2**53 on one node sum past 2**63; the node's
    mean size is still the exact one."""
    rows = [make_task(task_id=f"t{i:04d}", data_size=_BIG - i % 2) for i in range(2048)]
    rows.append(make_task(task_id="u", node="hw02", data_size=1))
    tasks = TaskTable.from_rows(rows)
    result = detect_skew_data_size(tasks, th_size=1.5, flag_small=True)
    assert result == per_task_oracle(rows, [], UltrashortPolicy(), 1.5, True, PlacementConfig())[5]
    assert mean_runtimes(TaskTable.from_rows(r._replace(launch_time=0, finish_time=_BIG - i % 2)
                                             for i, r in enumerate(rows[:2048]))) == {
        "hw01": (1024 * _BIG + 1024 * (_BIG - 1)) / 2048
    }
