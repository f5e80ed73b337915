"""Pipeline-wide properties of `diagnose` + `render_report` on any trace
that passes `Trace.validate`.

A trace with no stage at all is rejected with DiagnoseError by design
(test_pipeline_cli.py::test_diagnose_rejects_empty_trace), so every drawn
trace holds at least one stage; stages may hold no task.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from stagelens.model import (
    METRIC_SCHEMA,
    Job,
    Locality,
    MetricStore,
    Stage,
    Task,
    TaskTable,
    Trace,
    metric_columns,
)
from stagelens.report import PipelineConfig, diagnose, render_report

T0 = 1_460_000_000_000

# The whole finite float range, with its edges drawn often. NaN (a metric
# a sample does not report) is drawn as holes in a store.
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e154, -1e154, 1e308, -1e308,
          np.finfo(float).max, -np.finfo(float).max)
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.sampled_from(_EDGES),
)
_METRICS = METRIC_SCHEMA[:4] + METRIC_SCHEMA[-2:]


@st.composite
def _store(draw, node, shared):
    start = draw(st.integers(0, 12))
    steps = draw(st.one_of(
        st.integers(start, 50).map(lambda stop: list(range(start, stop))),
        st.sets(st.integers(0, 40), max_size=6).map(sorted),
    ))
    columns = metric_columns(shared | draw(st.sets(st.sampled_from(_METRICS), max_size=2)))
    # Each cell picks from a few drawn values, so extremes meet in one series;
    # a pool of one value makes the series constant.
    pool = draw(st.lists(_VALUE, min_size=1, max_size=4))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(pool)[pick.integers(0, len(pool), size=(len(columns), len(steps)))]
    if values.size and draw(st.integers(0, 2)) == 0:
        for r, c in draw(st.sets(st.tuples(st.integers(0, len(columns) - 1),
                                           st.integers(0, len(steps) - 1)), max_size=3)):
            values[r, c] = np.nan
    return MetricStore(
        node=node,
        timestamps=np.array([T0 + s * 500 for s in steps], dtype=np.int64),
        columns=columns,
        values=values,
    )


@st.composite
def _trace(draw):
    nodes = [f"hw{i:02d}" for i in range(draw(st.integers(1, 7)))]
    stages = []
    for s in range(draw(st.integers(1, 3))):
        rows = []
        for t in range(draw(st.integers(0, 14))):
            launch = T0 + draw(st.integers(0, 30)) * 500
            rows.append(Task(
                task_id=f"s{s}t{t}",
                node=draw(st.sampled_from(nodes)),
                launch_time=launch,
                # Often on the 500 ms sample grid, so that window edges meet samples.
                finish_time=launch + draw(st.one_of(
                    st.integers(0, 20_000), st.integers(0, 40).map(lambda k: 500 * k)
                )),
                locality=draw(st.sampled_from(list(Locality))),
                data_size=draw(st.integers(0, 10**12)),
                succeeded=draw(st.booleans()),
            ))
        stages.append(Stage(stage_id=f"s{s}", job_id="j0", tasks=TaskTable.from_rows(rows)))
    without_series = draw(st.sets(st.sampled_from(nodes), max_size=1))
    shared = draw(st.sets(st.sampled_from(_METRICS), min_size=1, max_size=4))
    metrics = {
        node: draw(_store(node, shared)) for node in nodes if node not in without_series
    }
    return Trace(cluster=nodes, jobs=[Job(job_id="j0", stages=stages)], metrics=metrics)


_CONFIG = st.builds(
    PipelineConfig,
    transform=st.sampled_from(["mean", "fft"]),
    representative=st.sampled_from(["median", "max_min"]),
    ccrate=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
)


def _rendered(trace, cfg):
    report = diagnose(trace, cfg)
    return render_report(report), render_report(report, "structured")


@given(trace=_trace(), cfg=_CONFIG)
def test_diagnose_and_render_never_raise(trace, cfg):
    assert trace.validate() == []
    text, structured = _rendered(trace, cfg)

    # Reports do not depend on the order of `cluster` or of `metrics`.
    reordered = Trace(
        cluster=trace.cluster[::-1],
        jobs=trace.jobs,
        metrics=dict(reversed(list(trace.metrics.items()))),
    )
    assert _rendered(reordered, cfg) == (text, structured)


@given(trace=_trace(), cfg=_CONFIG, data=st.data())
def test_reports_ignore_task_order(trace, cfg, data):
    """Shuffling the tasks within each stage changes no report: skewed tasks
    are listed by task id, not in task file order."""
    shuffled = Trace(
        cluster=trace.cluster,
        jobs=[
            Job(job.job_id, [
                Stage(stage.stage_id, stage.job_id, stage.tasks.take(
                    np.array(data.draw(st.permutations(range(len(stage.tasks)))), dtype=np.int64)
                ))
                for stage in job.stages
            ])
            for job in trace.jobs
        ],
        metrics=trace.metrics,
    )
    assert _rendered(shuffled, cfg) == _rendered(trace, cfg)


# Task times lie in [0, 2**53): a shift moves the earliest possible launch to
# 0 at one end, and the latest possible finish to 2**53 - 1 at the other.
_LATEST = T0 + 30 * 500 + 20_000
_SHIFT = st.one_of(
    st.sampled_from([-T0, 2**53 - 1 - _LATEST]),
    st.integers(-T0, 2**53 - 1 - _LATEST),
)


def _shifted(trace, shift):
    """The trace with `shift` ms added to every task time and sample time."""
    def tasks(table):
        return TaskTable(
            table.task_id, table.node, table.launch_time + shift, table.finish_time + shift,
            table.locality, table.data_size, table.succeeded, nodes=table.nodes,
        )

    return Trace(
        cluster=trace.cluster,
        jobs=[
            Job(job.job_id, [Stage(s.stage_id, s.job_id, tasks(s.tasks)) for s in job.stages])
            for job in trace.jobs
        ],
        metrics={
            node: MetricStore(store.node, store.timestamps + shift, store.columns, store.values)
            for node, store in trace.metrics.items()
        },
    )


@given(trace=_trace(), cfg=_CONFIG, shift=_SHIFT)
def test_reports_ignore_a_shift_of_every_timestamp(trace, cfg, shift):
    """Adding one constant to every task and metric timestamp changes no
    report: each window keeps the samples it had, edges included."""
    assert _rendered(_shifted(trace, shift), cfg) == _rendered(trace, cfg)
