from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

import numpy as np
import pytest
from hypothesis import settings

from stagelens.model import (
    ClockGroup,
    Job,
    Locality,
    MetricStore,
    Stage,
    Task,
    TaskTable,
    Trace,
    metric_columns,
)


# Property tests draw the same examples on every run, and a slow shared host
# does not fail them on time.
settings.register_profile("stagelens", derandomize=True, deadline=None)
# The same properties on fresh random examples, three times as many: run
# with `--hypothesis-profile=stagelens-random` to meet the rare cases a
# fixed draw never reaches.
settings.register_profile("stagelens-random", derandomize=False, deadline=None, max_examples=300)
settings.load_profile("stagelens")


def make_task(
    task_id="t0",
    node="hw01",
    launch=1_460_000_000_000,
    runtime=10_000,
    locality=Locality.PROCESS_LOCAL,
    data_size=1000,
    succeeded=True,
):
    return Task(
        task_id=task_id,
        node=node,
        launch_time=launch,
        finish_time=launch + runtime,
        locality=locality,
        data_size=data_size,
        succeeded=succeeded,
    )


def stage_of(rows, stage_id="s0"):
    """A stage holding these Task rows."""
    return Stage(stage_id=stage_id, tasks=TaskTable.from_rows(rows))


def make_stage(counts, stage_id="s0", runtime=10_000, launch=1_460_000_000_000):
    """counts: mapping node -> task count."""
    nodes = [node for node in sorted(counts) for _ in range(counts[node])]
    return stage_of(
        [make_task(task_id=f"t{i}", node=node, launch=launch, runtime=runtime)
         for i, node in enumerate(nodes)],
        stage_id,
    )


def row_groups(stores):
    """One clock group of one row per store (a mapping's values, or an
    iterable of stores), in order: each group's block is a view of its
    store's values."""
    if isinstance(stores, Mapping):
        stores = stores.values()
    return [ClockGroup([s.node], s.columns, s.timestamps, s.values[None]) for s in stores]


def clock_groups(stores: Mapping[str, MetricStore]):
    """The stores grouped as a save merges them: one clock group per column
    layout and timestamp vector, nodes in the mapping's order, their values
    stacked into one block."""
    members: Dict[tuple, list] = {}
    for s in stores.values():
        members.setdefault((s.columns, s.timestamps.tobytes()), []).append(s)
    return [
        ClockGroup([s.node for s in group], group[0].columns, group[0].timestamps,
                   np.stack([s.values for s in group]))
        for group in members.values()
    ]


def make_trace(stage, stores=None, extra_nodes=(), group=row_groups, job_id="j0"):
    """A trace of one stage in job `job_id`, its cluster the stage's nodes
    and `extra_nodes`, and the stores (node -> MetricStore) made into clock
    groups by `group`."""
    nodes = sorted(set(stage.tasks.nodes) | set(extra_nodes))
    return Trace(
        cluster=nodes,
        jobs=[Job(job_id=job_id, stages=[stage])],
        metrics=group(stores or {}),
    )


def sized_tasks(rows):
    """The TaskTable of (node, task_id, bytes) rows: a skew screen input."""
    nodes, ids, sizes = zip(*rows) if rows else ((), (), ())
    return TaskTable(ids, nodes, [0] * len(ids), [0] * len(ids), data_size=sizes)


def placed_tasks(rows):
    """The TaskTable of (node, locality, runtime ms) rows: a placement
    screen input."""
    nodes, localities, runtimes = zip(*rows) if rows else ((), (), ())
    return TaskTable([""] * len(nodes), nodes, [0] * len(nodes), runtimes, localities)


@dataclass(frozen=True)
class MetricSample:
    """One row of a metric series: the metrics one node reported at one time.
    The library holds series only as columns; tests write rows."""

    node: str
    timestamp: int  # ms since epoch
    values: Dict[str, float] = field(default_factory=dict)


def store_from_samples(node: str, samples: Iterable[MetricSample]) -> MetricStore:
    """A store from rows in any order; equal timestamps keep theirs, and a
    metric no row reports gets no column."""
    rows = sorted(samples, key=lambda s: s.timestamp)
    columns = metric_columns(k for s in rows for k in s.values)
    nan = float("nan")
    block = np.array(
        [[s.values.get(c, nan) for c in columns] for s in rows], dtype=np.float64
    ).reshape(len(rows), len(columns))
    return MetricStore(
        node=node,
        timestamps=np.array([s.timestamp for s in rows], dtype=np.int64),
        columns=columns,
        values=np.ascontiguousarray(block.T),
    )


def metric_series(node, start, count, values_fn, step=1000):
    """values_fn(i) -> dict of metric values for sample i."""
    return store_from_samples(
        node,
        [MetricSample(node=node, timestamp=start + i * step, values=values_fn(i))
         for i in range(count)],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def stacked_samples(datasets):
    """The stage's samples x matrix metrics array, C-contiguous, built from
    the blocks one node at a time: node after node in `datasets.nodes`
    order, each node's samples in time order."""
    rows = [None] * len(datasets.nodes)
    for block, at in zip(datasets.blocks, datasets.positions):
        for r, i in enumerate(at.tolist()):
            rows[i] = block[r].T
    stacked = np.empty((int(datasets.counts.sum()), len(datasets.matrix_metrics)))
    top = 0
    for node_rows in rows:
        stacked[top : top + len(node_rows)] = node_rows
        top += len(node_rows)
    return stacked
