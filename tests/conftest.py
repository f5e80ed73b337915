import numpy as np
import pytest
from hypothesis import settings

from stagelens.ingest import ARCH_COLUMNS, SYSTEM_COLUMNS, RawMetricRow
from stagelens.model import Job, Locality, MetricSample, MetricStore, Stage, Task, Trace


# Property tests draw the same examples on every run, and a slow shared host
# does not fail them on time.
settings.register_profile("stagelens", derandomize=True, deadline=None)
settings.load_profile("stagelens")


def make_task(
    task_id="t0",
    stage_id="s0",
    node="hw01",
    launch=1_460_000_000_000,
    runtime=10_000,
    locality=Locality.PROCESS_LOCAL,
    data_size=1000,
    succeeded=True,
):
    return Task(
        task_id=task_id,
        stage_id=stage_id,
        node=node,
        launch_time=launch,
        finish_time=launch + runtime,
        locality=locality,
        data_size=data_size,
        succeeded=succeeded,
    )


def make_stage(counts, stage_id="s0", job_id="j0", runtime=10_000, launch=1_460_000_000_000):
    """counts: mapping node -> task count."""
    stage = Stage(stage_id=stage_id, job_id=job_id)
    i = 0
    for node in sorted(counts):
        for _ in range(counts[node]):
            stage.tasks.append(
                make_task(task_id=f"t{i}", stage_id=stage_id, node=node,
                          launch=launch, runtime=runtime)
            )
            i += 1
    return stage


def make_trace(stage, metrics=None, extra_nodes=()):
    nodes = sorted({t.node for t in stage.tasks} | set(extra_nodes))
    return Trace(
        cluster=nodes,
        jobs=[Job(job_id=stage.job_id, stages=[stage])],
        metrics=metrics or {},
    )


def metric_series(node, start, count, values_fn, step=1000):
    """values_fn(i) -> dict of metric values for sample i."""
    return MetricStore.from_samples(
        node,
        [MetricSample(node=node, timestamp=start + i * step, values=values_fn(i))
         for i in range(count)],
    )


def system_row(ts_ms, **overrides):
    """A system-schema RawMetricRow with named counter overrides."""
    counters = {name: 0.0 for name in SYSTEM_COLUMNS[1:]}
    counters["mem_total"] = 32_000_000.0
    counters["free"] = 16_000_000.0
    counters["buffers"] = 2_000_000.0
    counters["cached"] = 6_000_000.0
    counters.update(overrides)
    return RawMetricRow(
        timestamp_ms=ts_ms, counters=tuple(counters[n] for n in SYSTEM_COLUMNS[1:])
    )


def arch_row(ts_ms, **overrides):
    counters = {name: 0.0 for name in ARCH_COLUMNS[1:]}
    counters.update(overrides)
    return RawMetricRow(
        timestamp_ms=ts_ms, counters=tuple(counters[n] for n in ARCH_COLUMNS[1:])
    )


@pytest.fixture
def rng():
    return np.random.default_rng(7)
