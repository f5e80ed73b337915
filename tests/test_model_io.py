import copy
import io
import json
import os
import random
import re
from types import SimpleNamespace
from unittest import mock

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
    stage_of,
    store_from_samples,
)
from stagelens import traceio
from stagelens.model import (
    ClockGroup,
    Job,
    Locality,
    MetricSeriesError,
    MetricStore,
    Stage,
    Task,
    TaskTable,
    TaskTableError,
    Trace,
    metric_columns,
    parse_locality,
)
from stagelens.report import PipelineConfig, diagnose, render_report
from stagelens.simulate import ScenarioSpec, generate_trace, preset
from stagelens.traceio import (
    _DECODER,
    _TASK_ROWS,
    SCHEMA_VERSION,
    TraceParseError,
    TraceValidationError,
    _read_entity_file,
    load_trace,
    save_trace,
)

TRACE_FILES = (
    "meta.jsonl",
    "jobs.jsonl",
    "stages.jsonl",
    "tasks.jsonl",
    "tasks.values.npy",
    "metrics.jsonl",
    "metrics.timestamps.npy",
    "metrics.values.npy",
)


def test_task_runtime_derived():
    task = make_task(launch=100, runtime=1874)
    assert task.runtime == 1874
    assert task.finish_time - task.launch_time == task.runtime


def test_stage_envelope_covers_all_tasks():
    stage = stage_of([make_task(task_id="a", launch=1000, runtime=500),
                      make_task(task_id="b", launch=3000, runtime=500)])
    # disjoint in time, same node: one envelope spanning both
    assert stage.start_time == 1000
    assert stage.finish_time == 3500
    for t in stage.tasks:
        assert stage.start_time <= t.launch_time
        assert stage.finish_time >= t.finish_time


def test_locality_parsing_merges_vocabularies():
    assert parse_locality("NODE_LOCALITY") is Locality.NODE_LOCAL
    assert parse_locality("DATA_LOCAL") is Locality.NODE_LOCAL
    assert parse_locality("OFF_SWITCH") is Locality.OFF_SWITCH
    assert parse_locality("definitely-new") is Locality.UNKNOWN


def test_validate_collects_all_violations():
    stage = stage_of([Task(task_id="bad", node="ghost", launch_time=10, finish_time=5)])
    trace = Trace(cluster=["hw01"], jobs=[Job(job_id="j0", stages=[stage])])
    problems = trace.validate()
    assert len(problems) == 2  # finish<launch and unknown node, reported together
    assert any("finish_time" in p for p in problems)
    assert any("not in cluster" in p for p in problems)


def test_metric_timestamps_must_increase():
    samples = [
        MetricSample(node="hw01", timestamp=5, values={"x": 1.0}),
        MetricSample(node="hw01", timestamp=5, values={"x": 2.0}),
    ]
    with pytest.raises(MetricSeriesError) as err:
        Trace(cluster=["hw01"], metrics=row_groups([store_from_samples("hw01", samples)]))
    assert str(err.value) == "metric series for hw01: timestamps not strictly increasing at 5"


def test_int64_edge_timestamps_are_increasing(tmp_path):
    """The step from the least to the greatest int64 overflows a difference;
    the order check compares instead."""
    edges = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    store = MetricStore("hw01", edges, ("cpu_usage",), np.zeros((1, 2)))
    trace = Trace(cluster=["hw01"], metrics=row_groups([store]))
    assert trace.validate() == []
    save_trace(trace, str(tmp_path / "trace"))
    assert load_trace(str(tmp_path / "trace")) == trace


def test_empty_trace_round_trip(tmp_path):
    trace = Trace(cluster=["hw01", "hw02"])
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    loaded = load_trace(str(out))
    assert loaded.cluster == ["hw01", "hw02"]
    assert loaded.jobs == []
    assert loaded.metrics == {}


def test_round_trip_identity_and_determinism(tmp_path):
    rows = list(make_stage({"hw01": 2, "hw02": 1}).tasks)
    stage = stage_of([make_task(task_id="t0", locality=Locality.UNKNOWN)] + rows[1:])
    metrics = {
        "hw01": metric_series("hw01", 1_460_000_000_000, 5, lambda i: {"cpu_usage": 0.1 * i}),
        "hw02": metric_series("hw02", 1_460_000_000_000, 5, lambda i: {"cpu_usage": 0.2}),
    }
    trace = make_trace(stage, stores=metrics)

    a = tmp_path / "a"
    b = tmp_path / "b"
    save_trace(trace, str(a))
    loaded = load_trace(str(a))
    assert loaded == trace
    # UNKNOWN locality survives the trip
    assert any(t.locality is Locality.UNKNOWN for t in loaded.jobs[0].stages[0].tasks)

    save_trace(loaded, str(b))
    for name in TRACE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulator_trace_round_trips_field_by_field(tmp_path):
    from stagelens.correlate import stage_window

    spec = ScenarioSpec(seed=11, nodes=4, stages=2, tasks_per_stage=16)
    trace, _ = generate_trace(spec)
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    loaded = load_trace(str(out))
    assert loaded.cluster == trace.cluster
    assert loaded.jobs == trace.jobs
    assert loaded.metrics == trace.metrics
    assert loaded == trace
    windows = [stage_window(s) for s in loaded.stages()]
    assert len(windows) == 2
    assert all(w.nodes for w in windows)


def test_parse_error_names_file_line_and_rule(tmp_path):
    trace = Trace(cluster=["hw01"])
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    tasks_file = out / "tasks.jsonl"
    tasks_file.write_text(tasks_file.read_text() + "{not json\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert "tasks.jsonl" in str(err.value)
    assert ":2:" in str(err.value)


def test_reused_stage_id_rejected(tmp_path):
    first = make_stage({"hw01": 1}, stage_id="s0")
    second = stage_of([make_task(task_id="t1")], "s1")  # task ids are trace-wide
    trace = Trace(
        cluster=["hw01"],
        jobs=[Job(job_id="j0", stages=[first]), Job(job_id="j1", stages=[second])],
    )
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    stages_file = out / "stages.jsonl"
    stages_file.write_text(stages_file.read_text().replace('"s1"', '"s0"'))
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert "stages.jsonl:3:" in str(err.value)
    assert "duplicate stage_id 's0'" in str(err.value)


def test_reused_job_id_rejected(tmp_path):
    out = tmp_path / "trace"
    save_trace(make_trace(make_stage({"hw01": 1})), str(out))
    jobs_file = out / "jobs.jsonl"
    header, line = jobs_file.read_text().splitlines()
    jobs_file.write_text("\n".join([header, line, line]) + "\n")
    assert "jobs.jsonl:3: duplicate job_id 'j0'" in str(load_error(out))


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("succeeded", 1, "succeeded must be true or false"),
        ("launch_time", 1_460_000_000_000.0, "launch_time must be an integer"),
        ("data_size", True, "data_size must be an integer"),
        ("task_id", 7, "task_id must be a string"),  # beside string ids: not sortable
        ("locality", "NODE_LOCAL", "locality must be a Locality"),  # passes the JSON rule
    ],
)
def test_save_refuses_task_field_types_the_loader_rejects(field, value, rule):
    """No task table holds a field type the loader would reject, so no save
    writes one: the table refuses it, naming the task and the field."""
    rows = list(make_stage({"hw01": 2}).tasks)
    rows[0] = rows[0]._replace(**{field: value})
    with pytest.raises(TaskTableError) as err:
        TaskTable.from_rows(rows)
    assert str(err.value) == f"task {rows[0].task_id}: {rule}"


@pytest.mark.parametrize(
    "job_id, stage_id, problem",
    [
        (5, "s0", "job 5: bad job record: job_id must be a string"),
        ("j0", 3, "stage 3: bad stage record: stage_id must be a string"),
    ],
)
def test_save_refuses_job_or_stage_id_types_the_loader_rejects(
    tmp_path, job_id, stage_id, problem
):
    stage = make_stage({"hw01": 1}, stage_id=stage_id)
    out = tmp_path / "trace"
    with pytest.raises(TraceValidationError) as err:
        save_trace(make_trace(stage, job_id=job_id), str(out))
    assert err.value.problems[0] == problem
    assert not out.exists()


def test_validate_lists_what_a_save_refuses():
    """validate() is the one list of what a savable trace must satisfy: it
    names a non-string job id, as the save that refuses the trace does."""
    trace = make_trace(make_stage({"hw01": 1}), job_id=5)
    assert trace.validate() == ["job 5: bad job record: job_id must be a string"]


@pytest.mark.parametrize(
    "cluster, problem",
    [
        # The load would fail at meta.jsonl:2.
        ([7], "node 7: bad cluster entry: node name must be a string"),
        # The names would not sort.
        (["hw01", 7], "node 7: bad cluster entry: node name must be a string"),
    ],
    ids=["int-cluster", "mixed-cluster"],
)
def test_save_refuses_node_names_that_are_not_strings(tmp_path, cluster, problem):
    metrics = [MetricStore(7, np.array([1, 2]), ("cpu_usage",), np.zeros((1, 2)))]
    trace = Trace(cluster=cluster, metrics=row_groups(metrics))
    out = tmp_path / "trace"
    with pytest.raises(TraceValidationError) as err:
        save_trace(trace, str(out))
    assert err.value.problems == [problem]
    assert not out.exists()


def test_error_line_counts_blank_lines(tmp_path):
    trace = make_trace(make_stage({"hw01": 1}))
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    stages_file = out / "stages.jsonl"
    header = stages_file.read_text().splitlines()[0]
    stages_file.write_text(header + "\n\n" + json.dumps({"job_id": "j0"}) + "\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert "stages.jsonl:3:" in str(err.value)
    assert err.value.line_no == 3
    assert "missing required field 'stage_id'" in str(err.value)


@pytest.mark.parametrize("line", ["5", "[]", '"j0"', "null"])
def test_non_object_record_rejected(tmp_path, line):
    out = tmp_path / "trace"
    save_trace(Trace(cluster=["hw01"]), str(out))
    jobs_file = out / "jobs.jsonl"
    jobs_file.write_text(jobs_file.read_text() + line + "\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert "jobs.jsonl:2: record must be a JSON object" in str(err.value)


def save_two_nodes(out):
    """A trace whose metrics.jsonl indexes hw01 and hw02, one column layout
    and three samples each, on line 2."""
    stage = make_stage({"hw01": 1, "hw02": 1})
    metrics = {
        node: metric_series(node, 1_460_000_000_000, 3, lambda i: {"cpu_usage": 0.5, "x": 1.0})
        for node in ("hw01", "hw02")
    }
    save_trace(make_trace(stage, stores=metrics), str(out))
    return out


def load_error(out) -> TraceParseError:
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    return err.value


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_metric_value_rejected_at_load(tmp_path, token):
    """The JSON tokens are rejected in the metrics index too, at their line."""
    out = save_two_nodes(tmp_path / "trace")
    metrics_file = out / "metrics.jsonl"
    lines = metrics_file.read_text().splitlines()
    lines[1] = lines[1].replace('"samples":3', f'"samples":{token}')
    assert token in lines[1]
    metrics_file.write_text("\n".join(lines) + "\n")
    error = load_error(out)
    assert "metrics.jsonl:2:" in str(error)
    assert token in str(error)


@pytest.mark.parametrize(
    "value, rule",
    [
        ("1e999", "metric values must be finite numbers"),  # overflows to inf
        ("-1e999", "metric values must be finite numbers"),
    ],
)
def test_non_number_metric_value_rejected_at_load(tmp_path, value, rule):
    """An infinity in metrics.values.npy fails at the index line of its node,
    which it names."""
    out = save_two_nodes(tmp_path / "trace")
    values = np.load(out / "metrics.values.npy")
    values[7] = float(value)  # hw02's block starts at 2 columns x 3 samples
    np.save(out / "metrics.values.npy", values)
    assert f"metrics.jsonl:2: node 'hw02': {rule}" in str(load_error(out))


def save_three_nodes(out):
    """A trace whose metrics.jsonl indexes hw01 and hw03 (columns cpu_usage
    and x) on line 2 and hw02 (cpu_usage and y) on line 3, three samples
    each: the blocks are hw01's, hw03's, then hw02's."""
    stage = make_stage({"hw01": 1, "hw02": 1, "hw03": 1})
    metrics = {
        node: metric_series(node, 1_460_000_000_000, 3, lambda i: {"cpu_usage": 0.5, x: 1.0})
        for node, x in (("hw01", "x"), ("hw02", "y"), ("hw03", "x"))
    }
    save_trace(make_trace(stage, stores=metrics), str(out))
    return out


def test_index_holds_one_line_per_layout_in_first_node_order(tmp_path):
    """Here each layout's nodes share one clock, so a line per clock group
    is a line per layout; the timestamps file holds each line's clock once."""
    out = save_three_nodes(tmp_path / "trace")
    assert (out / "metrics.jsonl").read_text().splitlines()[1:] == [
        '{"columns":["cpu_usage","x"],"nodes":["hw01","hw03"],"samples":3}',
        '{"columns":["cpu_usage","y"],"nodes":["hw02"],"samples":3}',
    ]
    timestamps = np.load(out / "metrics.timestamps.npy")
    assert len(timestamps) == 6
    assert np.array_equal(timestamps[:3], timestamps[3:6])


def test_first_infinite_node_in_index_order_is_named(tmp_path):
    """hw03's block comes before hw02's, so hw03 is named."""
    out = save_three_nodes(tmp_path / "trace")
    values = np.load(out / "metrics.values.npy")
    values[[8, 13]] = np.inf  # in hw03's block (cells 6-11) and hw02's (12-17)
    np.save(out / "metrics.values.npy", values)
    assert "metrics.jsonl:2: node 'hw03': metric values must be finite numbers" in str(
        load_error(out)
    )


@pytest.mark.parametrize(
    "name, content",
    [
        # A JSON string, null or list value has no float64 cell; in /2 its
        # counterparts are column files of another dtype or shape.
        pytest.param("metrics.values.npy", np.array(["nan"] * 12), id="str-nan"),
        pytest.param("metrics.values.npy", np.array(["0.5"] * 12), id="str-0.5"),
        pytest.param("metrics.values.npy", np.array([None] * 12, dtype=object), id="pickled"),
        pytest.param("metrics.values.npy", np.full((12, 1), 0.5), id="2-d"),
        pytest.param("metrics.values.npy", np.full(12, 0.5, dtype=np.float32), id="float32"),
        pytest.param("metrics.values.npy", np.full(12, 0.5, dtype=">f8"), id="big-endian"),
        pytest.param("metrics.values.npy", np.asfortranarray(np.full((2, 6), 0.5)), id="fortran"),
        pytest.param("metrics.values.npy", np.full(13, 0.5), id="index-length"),
        pytest.param("metrics.timestamps.npy", np.arange(6, dtype=np.int32), id="int32-timestamps"),
        pytest.param("metrics.timestamps.npy", np.arange(6.0), id="float-timestamps"),
        pytest.param("metrics.timestamps.npy", np.arange(7), id="timestamps-index-length"),
    ],
)
def test_bad_column_file_rejected(tmp_path, name, content):
    out = save_two_nodes(tmp_path / "trace")
    np.save(out / name, content, allow_pickle=True)
    error = load_error(out)
    assert error.path.endswith(name)
    assert error.line_no == 0


@pytest.mark.parametrize("name", ["metrics.values.npy", "metrics.timestamps.npy"])
@pytest.mark.parametrize("cut", [0, 5, 64, -1])
def test_truncated_or_padded_column_file_rejected(tmp_path, name, cut):
    out = save_two_nodes(tmp_path / "trace")
    column = out / name
    data = column.read_bytes()
    column.write_bytes(data[:cut] if cut >= 0 else data + b"\0")
    error = load_error(out)
    assert str(error).startswith(f"{column}:0: ")


@pytest.mark.parametrize(
    "name", ["metrics.values.npy", "metrics.timestamps.npy", "metrics.jsonl"]
)
def test_missing_column_file_rejected(tmp_path, name):
    """A missing file, or a directory in its place, fails at line 0."""
    out = save_two_nodes(tmp_path / "trace")
    (out / name).unlink()
    assert str(load_error(out)) == f"{out / name}:0: file missing from trace directory"
    (out / name).mkdir()
    assert str(load_error(out)) == f"{out / name}:0: a directory stands in place of the file"


def test_column_file_written_by_another_numpy_padding_loads(tmp_path):
    """Any padding of the .npy header is accepted: only the dict is compared."""
    out = save_two_nodes(tmp_path / "trace")
    column = out / "metrics.values.npy"
    data = column.read_bytes()
    header_len = int.from_bytes(data[8:10], "little")
    header = data[10 : 10 + header_len].rstrip() + b"    \n"
    column.write_bytes(data[:8] + len(header).to_bytes(2, "little") + header + data[10 + header_len :])
    assert load_trace(str(out)) == load_trace(str(save_two_nodes(tmp_path / "again")))


@pytest.mark.parametrize(
    "edit, rule",
    [
        (lambda row: row.pop("samples"), "missing required field 'samples'"),
        (lambda row: row.pop("columns"), "missing required field 'columns'"),
        (lambda row: row.pop("nodes"), "missing required field 'nodes'"),
        (lambda row: row.update(nodes="hw01"), "nodes must be a list of node names"),
        (lambda row: row.update(nodes=["hw01", 2]), "node must be a string"),
        (lambda row: row.update(columns="cpu_usage"), "columns must be a list of metric names"),
        (lambda row: row.update(columns=["cpu_usage", 1]), "columns must be a list of metric names"),
        (lambda row: row.update(columns=["cpu_usage", {}]), "columns must be a list of metric names"),
        (lambda row: row.update(columns=["x", "cpu_usage"]), "columns must be distinct and in store order"),
        (lambda row: row.update(columns=["cpu_usage", "cpu_usage"]), "columns must be distinct and in store order"),
        (lambda row: row.update(nodes=[]), "nodes must list at least one node"),
        (lambda row: row.update(samples=-1), "samples must be a non-negative integer"),
        (lambda row: row.update(samples=3.0), "samples must be a non-negative integer"),
        (lambda row: row.update(samples="3"), "samples must be a non-negative integer"),
        (lambda row: row.update(samples=True), "samples must be a non-negative integer"),
        # One count per line: a list of counts, one per node, fails at its line.
        (lambda row: row.update(samples=[3, 3]), "samples must be a non-negative integer"),
        (lambda row: row.update(samples=[3]), "samples must be a non-negative integer"),
        (lambda row: row.update(nodes=["hw01", "hw01"]), "duplicate node 'hw01'"),
    ],
)
def test_bad_index_line_rejected(tmp_path, edit, rule):
    """Each rule fails at the line (both nodes sit on line 2); a node that
    is not a string is named, as the next test shows."""
    out = save_two_nodes(tmp_path / "trace")
    metrics_file = out / "metrics.jsonl"
    lines = metrics_file.read_text().splitlines()
    row = json.loads(lines[1])
    edit(row)
    lines[1] = json.dumps(row)
    metrics_file.write_text("\n".join(lines) + "\n")
    error = str(load_error(out))
    assert error.startswith(f"{metrics_file}:2: ") and error.endswith(rule)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row.update(nodes=["hw01", 2]), "node 2: node must be a string"),
    ],
)
def test_bad_index_entry_names_its_node(tmp_path, edit, message):
    out = save_two_nodes(tmp_path / "trace")
    metrics_file = out / "metrics.jsonl"
    lines = metrics_file.read_text().splitlines()
    row = json.loads(lines[1])
    edit(row)
    metrics_file.write_text(lines[0] + "\n" + json.dumps(row) + "\n")
    assert str(load_error(out)) == f"{metrics_file}:2: {message}"


def test_node_indexed_on_two_lines_rejected(tmp_path):
    out = save_two_nodes(tmp_path / "trace")
    metrics_file = out / "metrics.jsonl"
    with open(metrics_file, "a") as fh:
        fh.write('{"columns":["cpu_usage"],"nodes":["hw03","hw02"],"samples":0}\n')
    assert str(load_error(out)) == f"{metrics_file}:3: duplicate node 'hw02'"


@pytest.mark.parametrize("name", ["meta", "jobs", "stages", "tasks", "metrics"])
def test_version_1_trace_rejected(tmp_path, name):
    out = save_two_nodes(tmp_path / "trace")
    path = out / f"{name}.jsonl"
    path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/1", 1))
    assert str(load_error(out)) == (
        f"{path}:1: schema header must declare {SCHEMA_VERSION!r}"
    )


def test_version_2_trace_rejected(tmp_path):
    """A stagelens-trace/2 directory fails at its first header: there is no
    reader of the per-task records it holds."""
    out = save_two_nodes(tmp_path / "trace")
    for name in ("meta", "jobs", "stages", "tasks", "metrics"):
        path = out / f"{name}.jsonl"
        path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/2", 1))
    assert str(load_error(out)) == (
        f"{out / 'meta.jsonl'}:1: schema header must declare {SCHEMA_VERSION!r}"
    )


def test_version_3_trace_rejected(tmp_path):
    """A stagelens-trace/3 directory (one metrics.jsonl line per node) fails
    at its first header: there is no reader for it."""
    out = save_two_nodes(tmp_path / "trace")
    for name in ("meta", "jobs", "stages", "tasks", "metrics"):
        path = out / f"{name}.jsonl"
        path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/3", 1))
    (out / "metrics.jsonl").write_text(
        '{"entity":"metrics","schema":"stagelens-trace/3"}\n'
        '{"columns":["cpu_usage","x"],"node":"hw01","samples":3}\n'
        '{"columns":["cpu_usage","x"],"node":"hw02","samples":3}\n'
    )
    assert str(load_error(out)) == (
        f"{out / 'meta.jsonl'}:1: schema header must declare {SCHEMA_VERSION!r}"
    )


def test_version_4_trace_rejected(tmp_path):
    """A stagelens-trace/4 directory (one metrics.jsonl line per column
    layout, a sample count and a timestamp block per node) fails at line 1
    of its first file: there is no reader for it."""
    out = save_two_nodes(tmp_path / "trace")
    for name in ("meta", "jobs", "stages", "tasks", "metrics"):
        path = out / f"{name}.jsonl"
        path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/4", 1))
    (out / "metrics.jsonl").write_text(
        '{"entity":"metrics","schema":"stagelens-trace/4"}\n'
        '{"columns":["cpu_usage","x"],"nodes":["hw01","hw02"],"samples":[3,3]}\n'
    )
    ts = np.load(out / "metrics.timestamps.npy")
    np.save(out / "metrics.timestamps.npy", np.concatenate([ts, ts]))
    assert str(load_error(out)) == (
        f"{out / 'meta.jsonl'}:1: schema header must declare {SCHEMA_VERSION!r}"
    )
    metrics = str(out / "metrics.jsonl")
    assert read_outcome(_read_entity_file, metrics, "metrics") == (
        metrics, 1, f"schema header must declare {SCHEMA_VERSION!r}"
    )


def test_version_5_trace_rejected(tmp_path):
    """A stagelens-trace/5 directory (its meta.jsonl flags whether its clock
    offsets are applied) fails at line 1 of its first file: there is no
    reader for it, so no offset it declares is added twice."""
    out = save_two_nodes(tmp_path / "trace")
    for name in ("meta", "jobs", "stages", "tasks", "metrics"):
        path = out / f"{name}.jsonl"
        path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/5", 1))
    (out / "meta.jsonl").write_text(
        '{"entity":"meta","schema":"stagelens-trace/5"}\n'
        '{"clock_offsets":{"hw01":500},"cluster":["hw01","hw02"],"offsets_applied":true}\n'
    )
    assert str(load_error(out)) == (
        f"{out / 'meta.jsonl'}:1: schema header must declare {SCHEMA_VERSION!r}"
    )


def test_nan_payload_does_not_reach_the_bytes(tmp_path):
    def trace_with(missing: float) -> Trace:
        store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": 0.5, "x": 1.0})
        store.values[1, 1] = missing
        return Trace(cluster=["hw01"], metrics=row_groups([store]))

    payload = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(np.float64)[0]
    assert np.isnan(payload) and payload.tobytes() != np.float64(np.nan).tobytes()
    save_trace(trace_with(np.nan), str(tmp_path / "a"))
    save_trace(trace_with(payload), str(tmp_path / "b"))
    save_trace(trace_with(-np.nan), str(tmp_path / "c"))
    for name in ("metrics.jsonl", "metrics.timestamps.npy", "metrics.values.npy"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def save_two_tasks(out):
    """A trace whose tasks.jsonl indexes one stage, tasks t0 and t1 on hw01,
    on line 2."""
    save_trace(make_trace(make_stage({"hw01": 2})), str(out))
    return out


def set_task_value(out, field, task, value):
    """Write `value` into tasks.values.npy as task `task`'s `field` (of two tasks)."""
    values = np.load(out / "tasks.values.npy")
    values[2 * _TASK_ROWS.index(field) + task] = value
    np.save(out / "tasks.values.npy", values)


@pytest.mark.parametrize(
    "field, value",
    # The types are strict: nothing is coerced, a bool is not an integer.
    [
        pytest.param(field, value, id=f"{name}-{field}")
        for field in ("launch_time", "finish_time", "data_size")
        for name, value in (
            ("None", None),
            ("value1", [1]),
            ("float", 1_460_000_010_000.9),
            ("true", True),
            ("str", "12"),
        )
    ]
    + [
        pytest.param("succeeded", "false", id="str-succeeded"),
        pytest.param("succeeded", 2, id="int-succeeded"),
        pytest.param("task_id", 7, id="int-task_id"),
        pytest.param("stage_id", None, id="None-stage_id"),
        pytest.param("node", ["hw01"], id="list-node"),
        pytest.param("locality", 9, id="int-locality"),
    ],
)
def test_non_number_task_field_rejected_at_load(tmp_path, field, value):
    """The strings of a stage's tasks sit in its tasks.jsonl line, which a
    mistyped one fails. The numbers sit in tasks.values.npy: a value no
    int64 cell holds makes a column file of another dtype, which fails at
    line 0, and an integer outside its field's codes fails at the line of
    its stage."""
    out = save_two_tasks(tmp_path / "trace")
    if field in ("stage_id", "task_id", "node"):
        tasks_file = out / "tasks.jsonl"
        header, line = tasks_file.read_text().splitlines()
        row = json.loads(line)
        if field == "stage_id":
            row[field] = value
        else:
            row[f"{field}s"][-1] = value
        tasks_file.write_text(header + "\n" + json.dumps(row) + "\n")
        error = load_error(out)
        assert (error.path, error.line_no) == (str(tasks_file), 2)
        assert f"{field}" in error.rule and "must be" in error.rule
    elif type(value) is int:
        set_task_value(out, field, 1, value)
        assert f"tasks.jsonl:2: task t1: {field} {value} is" in str(load_error(out))
    else:
        np.save(out / "tasks.values.npy", np.array([value] * 12), allow_pickle=True)
        error = load_error(out)
        assert error.path.endswith("tasks.values.npy") and error.line_no == 0


@pytest.mark.parametrize(
    "name, field, value",
    [("jobs", "job_id", 0), ("stages", "stage_id", 1.5), ("stages", "job_id", ["j0"])],
)
def test_non_string_job_or_stage_id_rejected_at_load(tmp_path, name, field, value):
    out = tmp_path / "trace"
    save_trace(make_trace(make_stage({"hw01": 1})), str(out))
    path = out / f"{name}.jsonl"
    header, body = path.read_text().splitlines()
    path.write_text(header + "\n" + json.dumps({**json.loads(body), field: value}) + "\n")
    entity = name[:-1]
    assert f"{name}.jsonl:2: bad {entity} record: {field} must be a string" in str(
        load_error(out)
    )


@pytest.mark.parametrize(
    "edit, rule",
    [
        # Fields are checked in this order: stage_id, count, task_ids, nodes.
        (lambda row: row.clear(), "missing required field 'stage_id'"),
        (lambda row: row.update(stage_id="s9", count=-1), "unknown stage 's9'"),
        (lambda row: row.update(count=True), "count must be a non-negative integer"),
        (lambda row: row.update(count=-1, task_ids=None), "count must be a non-negative integer"),
        (lambda row: row.pop("task_ids"), "missing required field 'task_ids'"),
        (lambda row: row.update(task_ids=["t0"], nodes=None), "task_ids must be a list of 2"),
        (lambda row: row.update(nodes="hw01"), "nodes must be a list of node names"),
        (lambda row: row.update(nodes=["hw01", "hw01"]), "nodes must be distinct strings"),
        (lambda row: row.update(nodes=[]), "task t0: node 0 is outside [0, 0)"),
        (lambda row: row.update(task_ids=["t0", None]), "task None: task_id must be a string"),
    ],
)
def test_first_bad_task_field_is_named(tmp_path, edit, rule):
    out = save_two_tasks(tmp_path / "trace")
    tasks_file = out / "tasks.jsonl"
    header, line = tasks_file.read_text().splitlines()
    row = json.loads(line)
    edit(row)
    tasks_file.write_text(header + "\n" + json.dumps(row) + "\n")
    error = load_error(out)
    assert error.line_no == 2
    assert rule in error.rule


def test_stage_indexed_twice_rejected(tmp_path):
    out = save_two_tasks(tmp_path / "trace")
    tasks_file = out / "tasks.jsonl"
    header, line = tasks_file.read_text().splitlines()
    tasks_file.write_text("\n".join([header, line, line]) + "\n")
    assert "tasks.jsonl:3: duplicate stage_id 's0'" in str(load_error(out))


@pytest.mark.parametrize("field", ["launch_time", "finish_time", "data_size"])
def test_overflowing_task_field_rejected_at_load(tmp_path, field):
    """A task number at or past 2**53 fails at the line of its stage."""
    out = save_two_tasks(tmp_path / "trace")
    set_task_value(out, field, 1, 2**53)
    assert f"tasks.jsonl:2: task t1: {field} {2**53} is outside [0, 2**53)" in str(
        load_error(out)
    )


@pytest.mark.parametrize("field", ["launch_time", "finish_time", "data_size"])
def test_negative_task_field_rejected_at_load(tmp_path, field):
    out = save_two_tasks(tmp_path / "trace")
    set_task_value(out, field, 0, -1)
    assert f"tasks.jsonl:2: task t0: {field} -1 is outside [0, 2**53)" in str(load_error(out))


def test_task_table_refuses_values_outside_the_bound():
    """From rows or from arrays, task numbers lie in [0, 2**53)."""
    zero = {"launch_time": np.zeros(1, np.int64), "finish_time": np.zeros(1, np.int64)}
    for field in ("launch_time", "finish_time", "data_size"):
        for value in (-1, 2**53, 2**64):
            row = make_task(launch=0, runtime=0)._replace(**{field: value})
            with pytest.raises(TaskTableError, match=rf"^task t0: {field} {value} is outside"):
                TaskTable.from_rows([row])
        for array in (np.array([-1]), np.array([2**53]), np.array([2**64 - 1], np.uint64)):
            with pytest.raises(TaskTableError, match=rf"^task t0: {field} {array[0]} is outside"):
                TaskTable(["t0"], ["hw01"], **{**zero, field: array})
    edge = make_task(launch=2**53 - 1, runtime=0, data_size=2**53 - 1)
    assert list(TaskTable.from_rows([edge])) == [edge]


def test_stages_without_tasks_share_one_read_only_empty_table():
    first, second = Stage("s0"), Stage("s1")
    assert first.tasks is second.tasks
    assert first.tasks == TaskTable.from_rows([])
    assert (len(first.tasks), first.tasks.task_id, first.tasks.nodes) == (0, (), ())
    for name in ("node", "launch_time", "finish_time", "locality", "data_size", "succeeded"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(first.tasks, name)[...] = 0


def test_bad_succeeded_cell_rejected_at_load(tmp_path):
    out = save_two_tasks(tmp_path / "trace")
    set_task_value(out, "succeeded", 0, -1)
    assert "tasks.jsonl:2: task t0: succeeded -1 is not 0 or 1" in str(load_error(out))


@pytest.mark.parametrize(
    "change, rule",
    [
        ({"cluster": "hw01"}, "cluster must be a list of node names"),
        ({"cluster": ["hw01", 2]}, "cluster must be a list of node names"),
        ({"clock_offsets": []}, "clock_offsets must map node names to integer milliseconds"),
        ({"clock_offsets": {"hw01": 1.5}}, "clock_offsets must map node names to integer"),
        ({"clock_offsets": {"hw01": "5"}}, "clock_offsets must map node names to integer"),
        ({"clock_offsets": {"hw01": True}}, "clock_offsets must map node names to integer"),
        ({"clock_offsets": {"hw01": 2**63}}, "clock_offsets must map node names to integer"),
    ],
)
def test_bad_meta_record_rejected(tmp_path, change, rule):
    out = save_two_nodes(tmp_path / "trace")
    meta = out / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    meta.write_text(header + "\n" + json.dumps({**json.loads(body), **change}) + "\n")
    assert f"meta.jsonl:2: {rule}" in str(load_error(out))


def test_clock_offset_past_int64_rejected(tmp_path):
    out = save_two_nodes(tmp_path / "trace")
    meta = out / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    change = {"clock_offsets": {"hw02": 2**63 - 1}}
    meta.write_text(header + "\n" + json.dumps({**json.loads(body), **change}) + "\n")
    assert (
        f"metrics.jsonl:2: node 'hw02': clock offset {2**63 - 1} moves timestamps out of range"
        in str(load_error(out))
    )


def test_clock_offset_moving_a_task_out_of_range_rejected(tmp_path):
    out = save_two_tasks(tmp_path / "trace")
    meta = out / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    change = {"clock_offsets": {"hw01": -(2**62)}}
    meta.write_text(header + "\n" + json.dumps({**json.loads(body), **change}) + "\n")
    assert f"tasks.jsonl:2: clock offset {-(2**62)} moves task t0 out of [0, 2**53)" in str(
        load_error(out)
    )


@pytest.mark.parametrize("name", ["meta", "jobs", "stages", "tasks", "metrics"])
def test_empty_entity_file_rejected(tmp_path, name):
    out = tmp_path / "trace"
    save_trace(make_trace(make_stage({"hw01": 1})), str(out))
    (out / f"{name}.jsonl").write_text("")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert f"{name}.jsonl:1: schema header must declare {SCHEMA_VERSION!r}" in str(err.value)


def test_validate_reports_duplicate_ids_and_stray_metric_nodes():
    first = make_stage({"hw01": 1}, stage_id="s0")
    again = make_stage({"hw01": 1}, stage_id="s0")
    trace = Trace(
        cluster=["hw01"],
        jobs=[Job(job_id="j0", stages=[first, again]), Job(job_id="j0")],
        metrics=row_groups([metric_series("hw09", 0, 2, lambda i: {"cpu_usage": 0.5})]),
    )
    problems = trace.validate()
    assert "job j0: duplicate job_id" in problems
    assert "stage s0: duplicate stage_id" in problems
    assert "task t0: duplicate task_id" in problems
    assert "metric series for hw09: node not in cluster" in problems


def test_infinite_metric_value_fails_validation():
    """An infinite value is refused when the trace is built, so no trace
    holds one to save."""
    store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": [0.5, float("inf"), 0.5][i]})
    with pytest.raises(MetricSeriesError) as err:
        Trace(cluster=["hw01"], metrics=row_groups([store]))
    assert str(err.value) == "metric series for hw01: infinite value"


def _store(**changes) -> MetricStore:
    store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": 0.5, "x": 1.0})
    for name, value in changes.items():
        setattr(store, name, value)
    return store


@pytest.mark.parametrize(
    "store, problem",
    [
        (_store(timestamps=np.arange(3, dtype=np.int32)), "needs int64[n] timestamps"),
        (_store(timestamps=np.arange(3.0)), "needs int64[n] timestamps"),
        (_store(timestamps=np.arange(3, dtype=np.int64).reshape(3, 1)), "needs int64[n]"),
        (_store(timestamps=[0, 1, 2]), "needs int64[n] timestamps"),
        (_store(values=np.zeros((2, 3), dtype=np.float32)), "float64[2, n] values"),
        (_store(values=np.zeros((3, 2))), "float64[2, n] values"),
        (_store(values=np.zeros((2, 4))), "float64[2, n] values"),
        (_store(values=np.zeros(6)), "float64[2, n] values"),
        (_store(columns=("cpu_usage",)), "float64[1, n] values"),
        (_store(columns=("x", "x")), "columns must be distinct names in store order"),
        (_store(columns=("x", "cpu_usage")), "columns must be distinct names in store order"),
        (_store(columns=("cpu_usage", 7)), "columns must be distinct names in store order"),
        (_store(columns=("cpu_usage", [])), "columns must be distinct names in store order"),
    ],
)
def test_validate_checks_store_shape(store, problem):
    """A clock group of one node refuses a store of the wrong shape when it
    is built, naming the node and the rule, so no trace holds the store to
    validate or save."""
    with pytest.raises(MetricSeriesError) as err:
        row_groups([store])
    assert str(err.value) == f"metric series for hw01: {err.value.rule}"
    assert err.value.node == "hw01" and problem in err.value.rule


# Names that need JSON escapes or that a %-format would misread.
_NAMES = st.text(st.characters() | st.sampled_from('%"\\\u00e9\n'), min_size=1, max_size=6)
# Schema names and a short one recur, so nodes often share a column layout.
_ROW_VALUES = st.dictionaries(
    st.sampled_from(["cpu_usage", "IPC", "x"]) | _NAMES,
    st.floats(allow_nan=False, allow_infinity=False),
    max_size=5,
)


@given(
    series=st.dictionaries(
        _NAMES | st.sampled_from(["hw01", "hw02", "hw03"]),
        st.dictionaries(st.integers(-2**53, 2**53), _ROW_VALUES, max_size=6),
        # save_trace rejects a trace whose cluster is empty.
        min_size=1,
        max_size=5,
    )
)
@example(series={"0": {}})
@example(series={"b": {0: {"x": 1.0}}, "a": {}, "c": {1: {"x": 2.0}}, "d": {2: {"IPC": 3.0}}})
def test_store_round_trip_property(tmp_path_factory, series):
    """Any node and metric names (escapes, %, non-ASCII), any finite floats,
    rows in any order, several column layouts and nodes without samples:
    metrics.jsonl holds one sorted-key JSON line per column layout and
    timestamp vector, listing its nodes sorted and its sample count, lines
    in order of their first node; the timestamps file is what np.save
    writes for the lines' clocks joined in that order, and the values file
    for the stores' blocks in index order; load(save(t)) == t, and saving
    again gives the same bytes."""
    trace = Trace(
        cluster=sorted(series),
        metrics=clock_groups({
            node: store_from_samples(
                node, [MetricSample(node, ts, values) for ts, values in rows.items()]
            )
            for node, rows in series.items()
        }),
    )
    a = tmp_path_factory.mktemp("a")
    b = tmp_path_factory.mktemp("b")
    save_trace(trace, str(a))
    lines = {}
    for node in sorted(trace.metrics):
        store = trace.metrics[node]
        if len(store):
            lines.setdefault((store.columns, store.timestamps.tobytes()), []).append(store)
    expected = [
        json.dumps({"columns": list(group[0].columns), "nodes": [s.node for s in group],
                    "samples": len(group[0])}, sort_keys=True, separators=(",", ":"))
        for group in lines.values()
    ]
    assert (a / "metrics.jsonl").read_text().splitlines()[1:] == expected
    for name, column, parts in (
        ("timestamps", np.zeros(0, np.int64), [group[0].timestamps for group in lines.values()]),
        ("values", np.zeros(0), [s.values.ravel() for group in lines.values() for s in group]),
    ):
        saved = io.BytesIO()
        np.save(saved, np.concatenate([column] + parts))
        assert (a / f"metrics.{name}.npy").read_bytes() == saved.getvalue()
    loaded = load_trace(str(a))
    assert loaded == trace
    save_trace(loaded, str(b))
    for name in TRACE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# Clocks nodes draw from, so that they often share one; the empty one
# writes no line.
_SHARED_CLOCKS = (np.array([0, 10, 20]), np.array([0, 10, 30]), np.array([-7]),
                  np.zeros(0, np.int64))


@given(data=st.data())
def test_any_grouping_saves_the_same_bytes(tmp_path_factory, data):
    """However a trace's series are split into clock groups (any partition
    of the nodes that share a layout and a clock, in any order, groups in
    any order), save writes the bytes it writes for one group per layout
    and clock, and the two traces are equal: metrics.jsonl holds one line
    per distinct (layout, clock) with samples, and a load builds one group
    per line, its nodes sorted."""
    draw = data.draw
    stores = []
    for node in draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True)):
        columns = draw(st.sampled_from([("cpu_usage",), ("cpu_usage", "x")]))
        ts = _SHARED_CLOCKS[draw(st.integers(0, len(_SHARED_CLOCKS) - 1))]
        cells = draw(st.lists(st.floats(allow_infinity=False), min_size=len(columns) * len(ts),
                              max_size=len(columns) * len(ts)))
        stores.append(MetricStore(node, ts, columns,
                                  np.array(cells, np.float64).reshape(len(columns), len(ts))))
    classes = {}
    for store in stores:
        classes.setdefault((store.columns, store.timestamps.tobytes()), []).append(store)
    groups = []
    for members in classes.values():
        members = draw(st.permutations(members))
        cuts = [0] + [i for i in range(1, len(members)) if draw(st.booleans())] + [len(members)]
        groups += [clock_groups({s.node: s for s in members[lo:hi]})[0]
                   for lo, hi in zip(cuts, cuts[1:])]
    cluster = sorted(s.node for s in stores)
    merged, split = tmp_path_factory.mktemp("merged"), tmp_path_factory.mktemp("split")
    one = Trace(cluster=cluster, metrics=clock_groups({s.node: s for s in stores}))
    many = Trace(cluster=cluster, metrics=draw(st.permutations(groups)))
    save_trace(one, str(merged))
    save_trace(many, str(split))
    for name in TRACE_FILES:
        assert (merged / name).read_bytes() == (split / name).read_bytes()
    assert one == many
    lines = (merged / "metrics.jsonl").read_text().splitlines()[1:]
    assert len(lines) == sum(1 for _, ts in classes if ts)
    loaded = load_trace(str(merged))
    assert [list(g.nodes) for g in loaded.metrics.groups] == [
        json.loads(line)["nodes"] for line in lines
    ]
    assert all(list(g.nodes) == sorted(g.nodes) for g in loaded.metrics.groups)


_NUMBERS = st.one_of(st.integers(0, 10**6), st.integers(2**53 - 10**6, 2**53 - 1))


@st.composite
def task_traces(draw):
    """A trace of up to three stages whose tasks have any ids and node names
    (escapes, %, non-ASCII) and numbers up to the 2**53 bound."""
    rows = draw(st.lists(
        st.builds(
            lambda task_id, node, launch, runtime, locality, size, ok: Task(
                task_id, node, launch, min(2**53 - 1, launch + runtime), locality, size, ok
            ),
            _NAMES, _NAMES, _NUMBERS, _NUMBERS, st.sampled_from(list(Locality)), _NUMBERS,
            st.booleans(),
        ),
        unique_by=lambda row: row.task_id,
        max_size=12,
    ))
    where = [draw(st.sampled_from(["s0", "s1", "s2"])) for _ in rows]
    stages = [
        stage_of([row for row, at in zip(rows, where) if at == stage_id], stage_id)
        for stage_id in draw(st.lists(st.sampled_from(["s0", "s1", "s2"]), unique=True))
    ]
    nodes = {row.node for stage in stages for row in stage.tasks}
    return Trace(cluster=sorted(nodes | {"hw01"}), jobs=[Job("j0", stages)])


@given(trace=task_traces())
def test_task_round_trip_property(tmp_path_factory, trace):
    """Each tasks line is the sorted-key JSON of one stage's index entry
    (stages in id order, task ids sorted, nodes the sorted names they use),
    tasks.values.npy is what np.save writes for the stages' _TASK_ROWS
    blocks in that order, load(save(t)) == t, and saving again gives the
    same bytes."""
    a = tmp_path_factory.mktemp("a")
    b = tmp_path_factory.mktemp("b")
    save_trace(trace, str(a))
    lines, blocks = [], [np.zeros(0, np.int64)]
    for stage in sorted(trace.stages(), key=lambda s: s.stage_id):
        rows = sorted(stage.tasks, key=lambda t: t.task_id)
        if not rows:
            continue
        nodes = sorted({t.node for t in rows})
        lines.append(json.dumps(
            {"count": len(rows), "nodes": nodes, "stage_id": stage.stage_id,
             "task_ids": [t.task_id for t in rows]},
            sort_keys=True, separators=(",", ":"),
        ))
        codes = {
            "node": [nodes.index(t.node) for t in rows],
            "locality": [list(Locality).index(t.locality) for t in rows],
        }
        blocks += [np.array(codes[name] if name in codes else [getattr(t, name) for t in rows])
                   for name in _TASK_ROWS]
    assert (a / "tasks.jsonl").read_text().splitlines()[1:] == lines
    saved = io.BytesIO()
    np.save(saved, np.concatenate(blocks).astype(np.int64))
    assert (a / "tasks.values.npy").read_bytes() == saved.getvalue()
    loaded = load_trace(str(a))
    assert loaded == trace
    save_trace(loaded, str(b))
    for name in TRACE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def trace_of(parts):
    """The Trace of parts [cluster, jobs, groups]: jobs as [job id, [[stage
    id, Task rows]]], groups as [nodes, columns, timestamps, values],
    ClockGroup's arguments."""
    cluster, jobs, groups = parts
    return Trace(
        cluster=list(cluster),
        jobs=[Job(job_id, [stage_of(rows, stage_id) for stage_id, rows in stages])
              for job_id, stages in jobs],
        metrics=[ClockGroup(*group) for group in groups],
    )


@st.composite
def trace_parts(draw):
    """The parts (see trace_of) of a valid trace of up to three jobs, whose
    first stage holds a task, and whose first clock group holds two nodes
    and a sample; cells are drawn from a few that include 0.0, -0.0 and NaN,
    and the last cluster node has no series."""
    nodes = [f"hw{i}" for i in range(draw(st.integers(3, 6)))]
    jobs = [[f"j{i}", []] for i in range(draw(st.integers(1, 3)))]
    task = 0
    for s in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(int(s == 0), 3))):
            launch = draw(st.integers(0, 50))
            rows.append(Task(f"t{task}", draw(st.sampled_from(nodes)), launch,
                             launch + draw(st.integers(0, 9)),
                             draw(st.sampled_from(list(Locality))), draw(st.integers(0, 9)),
                             draw(st.booleans())))
            task += 1
        draw(st.sampled_from(jobs))[1].append([f"s{s}", rows])
    groups = []
    free = nodes[: draw(st.integers(2, len(nodes) - 1))]
    while free:
        size = draw(st.integers(1 if groups else 2, len(free)))
        members, free = free[:size], free[size:]
        columns = draw(st.sampled_from([("cpu_usage",), ("cpu_usage", "x"), ("IPC", "x")]))
        ts = sorted(draw(st.sets(st.integers(0, 60), min_size=0 if groups else 1, max_size=4)))
        shape = (len(members), len(columns), len(ts))
        count = len(members) * len(columns) * len(ts)
        cells = draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, np.nan]),
                              min_size=count, max_size=count))
        groups.append([members, columns, np.array(ts, np.int64),
                       np.array(cells, np.float64).reshape(shape)])
    return [nodes, jobs, groups]


# Edits of a trace that a save must not see, and edits it must.
_KEEPS = ("permute jobs", "permute stages", "permute tasks", "permute cluster",
          "permute group nodes", "regroup series", "nan payload", "add empty series")
_CHANGES = ("flip zero", "add nan column", "move stage", "change value", "change timestamp",
            "change task field")


def edit(parts, kind, seed):
    """Two copies of the parts, the second with edit `kind` made at places
    drawn from `seed`; the first holds at the edited cell what the edit
    needs there (0.0 for a flip, NaN for a payload)."""
    rng = random.Random(seed)
    t = copy.deepcopy(parts)
    nodes, jobs, groups = t
    g = rng.choice([i for i, group in enumerate(groups) if group[2].size])
    cell = tuple(rng.randrange(n) for n in groups[g][3].shape)
    if kind in ("flip zero", "nan payload"):
        groups[g][3][cell] = 0.0 if kind == "flip zero" else np.nan
    u = copy.deepcopy(t)
    nodes, jobs, groups = u
    group = groups[g]
    stages = [stage for _, job_stages in jobs for stage in job_stages]
    if kind == "permute jobs":
        rng.shuffle(jobs)
    elif kind == "permute stages":
        for _, job_stages in jobs:
            rng.shuffle(job_stages)
    elif kind == "permute tasks":
        for _, rows in stages:
            rng.shuffle(rows)
    elif kind == "permute cluster":
        rng.shuffle(nodes)
    elif kind == "permute group nodes":
        order = rng.sample(range(len(group[0])), len(group[0]))
        group[0], group[3] = [group[0][i] for i in order], group[3][order]
        rng.shuffle(groups)
    elif kind == "regroup series":
        first = groups[0]
        at = rng.randrange(1, len(first[0]))
        groups[:1] = [[first[0][:at], first[1], first[2], first[3][:at]],
                      [first[0][at:], first[1], first[2], first[3][at:]]]
    elif kind == "nan payload":
        group[3].view(np.int64)[cell] = rng.choice([0x7FF0000000000001, -1, -(2**51)])
    elif kind == "add empty series":
        groups.append([[nodes[-1]], ("x",), np.zeros(0, np.int64), np.zeros((1, 1, 0))])
    elif kind == "flip zero":
        group[3][cell] = -0.0
    elif kind == "add nan column":
        name = next(c for c in ("IPC", "cpu_usage", "x") if c not in group[1])
        columns = metric_columns(group[1] + (name,))
        group[3] = np.insert(group[3], columns.index(name), np.nan, axis=1)
        group[1] = columns
    elif kind == "move stage":
        source = rng.choice([job for job in jobs if job[1]])
        stage = source[1].pop(rng.randrange(len(source[1])))
        target = rng.choice([job for job in jobs if job is not source] + [["j9", []]])
        if target[0] == "j9":
            jobs.append(target)
        target[1].insert(rng.randrange(len(target[1]) + 1), stage)
    elif kind == "change value":
        group[3][cell] = 7.0 if group[3][cell] == 1.5 else 1.5
    elif kind == "change timestamp":
        group[2][-1] += 1
    elif kind == "change task field":
        rows = rng.choice([rows for _, rows in stages if rows])
        i = rng.randrange(len(rows))
        row = rows[i]
        name, value = rng.choice([
            ("task_id", "tz"),
            ("node", next(n for n in nodes if n != row.node)),
            ("finish_time", row.finish_time + 1),
            ("locality", next(loc for loc in Locality if loc is not row.locality)),
            ("data_size", row.data_size + 1),
            ("succeeded", not row.succeeded),
        ])
        rows[i] = row._replace(**{name: value})
    return t, u


_PARTS = [
    ["hw0", "hw1", "hw2"],
    [["j0", [["s0", [Task("t0", "hw0", 0, 5, Locality.NODE_LOCAL, 3), Task("t1", "hw1", 2, 9)]],
             ["s1", []]]],
     ["j1", [["s2", [Task("t2", "hw0", 4, 4, succeeded=False)]]]]],
    [[["hw0", "hw1"], ("cpu_usage", "x"), np.array([0, 10]),
      np.array([[[0.0, np.nan], [1.5, -0.0]], [[2.0, 3.0], [np.nan, 4.0]]])]],
]


@given(parts=trace_parts(), kind=st.sampled_from(_KEEPS + _CHANGES), seed=st.integers(0, 2**16))
@example(parts=_PARTS, kind="permute jobs", seed=0)
@example(parts=_PARTS, kind="permute stages", seed=0)
@example(parts=_PARTS, kind="permute tasks", seed=0)
@example(parts=_PARTS, kind="permute cluster", seed=0)
@example(parts=_PARTS, kind="permute group nodes", seed=0)
@example(parts=_PARTS, kind="regroup series", seed=0)
@example(parts=_PARTS, kind="nan payload", seed=0)
@example(parts=_PARTS, kind="add empty series", seed=0)
@example(parts=_PARTS, kind="flip zero", seed=0)
@example(parts=_PARTS, kind="add nan column", seed=0)
@example(parts=_PARTS, kind="move stage", seed=0)
@example(parts=_PARTS, kind="change value", seed=0)
@example(parts=_PARTS, kind="change timestamp", seed=0)
@example(parts=_PARTS, kind="change task field", seed=0)
def test_traces_are_equal_exactly_when_they_save_the_same_files(
    tmp_path_factory, parts, kind, seed
):
    """A trace and an edit of it are equal exactly when their saved
    directories are byte-identical, file by file. Neither sees the order of
    jobs, stages, tasks, cluster entries or group nodes, how equal series
    are grouped, a NaN payload, or a series with no rows; both see a 0.0
    flipped to -0.0, an all-NaN column, a stage moved to another job, and
    one value, timestamp or task field changed."""
    t, u = (trace_of(p) for p in edit(parts, kind, seed))
    a, b = tmp_path_factory.mktemp("t"), tmp_path_factory.mktemp("u")
    save_trace(t, str(a))
    save_trace(u, str(b))
    same = all((a / name).read_bytes() == (b / name).read_bytes() for name in TRACE_FILES)
    assert (t == u) == same
    assert same == (kind in _KEEPS)


def test_names_a_save_refuses_compare_without_raising():
    """A cluster entry, job id or stage id that validate() refuses makes a
    trace unequal to the one with a valid value, and equal to its copy."""
    pairs = [
        (Trace(cluster=["a", 7]), Trace(cluster=["a"])),
        (Trace(cluster=["a"], jobs=[Job(["x"])]), Trace(cluster=["a"], jobs=[Job("x")])),
        (Trace(cluster=["a"], jobs=[Job("j", [Stage(["s"])])]),
         Trace(cluster=["a"], jobs=[Job("j", [Stage("s")])])),
    ]
    for t, u in pairs:
        assert (t == u) is False and (u == t) is False
        assert t == copy.deepcopy(t)


def test_schema_header_is_checked(tmp_path):
    trace = Trace(cluster=["hw01"])
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    meta = out / "meta.jsonl"
    lines = meta.read_text().splitlines()
    lines[0] = json.dumps({"schema": "other/9", "entity": "meta"})
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert SCHEMA_VERSION in str(err.value)


def test_validation_error_lists_every_problem(tmp_path):
    launch = 1_460_000_000_000
    trace = make_trace(stage_of([make_task(launch=launch, runtime=-launch)]))  # finish 0
    with pytest.raises(TraceValidationError) as err:
        save_trace(trace, str(tmp_path / "x"))
    assert err.value.problems


def test_unapplied_clock_offsets_shift_once(tmp_path):
    stage = make_stage({"hw01": 1}, launch=1_000_000)
    metrics = {"hw01": metric_series("hw01", 1_000_000, 3, lambda i: {"cpu_usage": 0.1})}
    trace = make_trace(stage, stores=metrics)
    out = tmp_path / "trace"
    save_trace(trace, str(out))

    meta = out / "meta.jsonl"
    lines = meta.read_text().splitlines()
    header, body = lines[0], json.loads(lines[1])
    body["clock_offsets"] = {"hw01": 500}
    meta.write_text(header + "\n" + json.dumps(body, sort_keys=True) + "\n")

    shifted = load_trace(str(out))
    assert shifted.jobs[0].stages[0].tasks.launch_time[0] == 1_000_500
    assert shifted.metrics["hw01"].timestamps[0] == 1_000_500
    # A save writes no offsets, so a second save/load cycle does not shift again.
    out2 = tmp_path / "trace2"
    save_trace(shifted, str(out2))
    assert (out2 / "meta.jsonl").read_text().splitlines()[1] == '{"cluster":["hw01"]}'
    assert load_trace(str(out2)) == shifted


def test_unapplied_offsets_build_each_clock_group_once(tmp_path, monkeypatch):
    # Three nodes on one stored clock; their offsets part hw02 from the others.
    stage = make_stage({"hw01": 1, "hw02": 1, "hw03": 1}, launch=1_000_000)
    metrics = {node: metric_series(node, 1_000_000, 3, lambda i: {"cpu_usage": 0.1})
               for node in ("hw01", "hw02", "hw03")}
    out = tmp_path / "trace"
    save_trace(make_trace(stage, stores=metrics, group=clock_groups), str(out))
    meta = out / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    body = {**json.loads(body), "clock_offsets": {"hw01": 500, "hw03": 500}}
    meta.write_text(header + "\n" + json.dumps(body) + "\n")

    built = []

    class Counted(ClockGroup):
        def __init__(self, nodes, *args):
            built.append(tuple(nodes))
            super().__init__(nodes, *args)

    monkeypatch.setattr(traceio, "ClockGroup", Counted)
    loaded = load_trace(str(out))
    assert built == [("hw01", "hw03"), ("hw02",)]
    assert [group.nodes for group in loaded.metrics.groups] == built
    assert loaded.metrics["hw03"].timestamps.tolist() == [1_000_500, 1_001_500, 1_002_500]


def stored_before_offsets(trace, offsets):
    """The trace as stored by a collector whose clocks run `offsets` ms
    behind the cluster clock: every task and metric time of a node moved
    back by its offset."""
    jobs = []
    for job in trace.jobs:
        stages = []
        for stage in job.stages:
            t = stage.tasks
            back = np.array([offsets[n] for n in t.nodes], np.int64)[t.node]
            tasks = TaskTable(t.task_id, t.node, t.launch_time - back, t.finish_time - back,
                              t.locality, t.data_size, t.succeeded, nodes=t.nodes)
            stages.append(Stage(stage.stage_id, tasks))
        jobs.append(Job(job.job_id, stages))
    metrics = {
        node: MetricStore(node, store.timestamps - offsets[node], store.columns, store.values)
        for node, store in trace.metrics.items()
    }
    return Trace(cluster=trace.cluster, jobs=jobs, metrics=clock_groups(metrics))


@given(
    case=st.sampled_from(["case1", "case2", "case3"]),
    seed=st.integers(1, 3),
    shifts=st.lists(st.integers(-10**9, 10**9), min_size=6, max_size=6),
)
def test_unapplied_offsets_give_the_reports_of_applied_ones(tmp_path_factory, case, seed, shifts):
    """A trace saved with its stored times moved back by each node's offset,
    and those offsets written into its meta.jsonl, reports, text and
    structured, byte for byte what the same trace on one clock reports."""
    trace, _ = generate_trace(preset(case, seed))
    offsets = dict(zip(trace.cluster, shifts))
    applied = tmp_path_factory.mktemp("applied")
    save_trace(trace, str(applied))
    unapplied = tmp_path_factory.mktemp("unapplied")
    save_trace(stored_before_offsets(trace, offsets), str(unapplied))
    meta = unapplied / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    body = json.dumps({**json.loads(body), "clock_offsets": offsets})
    meta.write_text(header + "\n" + body + "\n")
    fft = PipelineConfig(transform="fft", representative="median", dmin=0.5)
    for cfg in (PipelineConfig(), fft):
        want = diagnose(load_trace(str(applied)), cfg)
        got = diagnose(load_trace(str(unapplied)), cfg)
        for form in ("text", "structured"):
            assert render_report(got, form) == render_report(want, form)


@pytest.fixture(scope="module")
def saved_trace_files(tmp_path_factory):
    """The files of one saved simulator trace, with a metric gap on hw02."""
    trace, _ = generate_trace(ScenarioSpec(seed=5, nodes=3, stages=2, tasks_per_stage=6))
    store = trace.metrics["hw02"]
    values = store.values.copy()
    values[3, ::4] = np.nan
    trace.metrics = row_groups({**trace.metrics, "hw02": MetricStore("hw02", store.timestamps,
                                                                     store.columns, values)})
    out = tmp_path_factory.mktemp("saved")
    save_trace(trace, str(out))
    return {name: (out / name).read_bytes() for name in TRACE_FILES}


_DAMAGE = st.one_of(
    # (position, xor mask) pairs; small positions hit the headers.
    st.lists(
        st.tuples(st.integers(0, 255) | st.integers(0, 2**20), st.integers(1, 255)),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 255) | st.integers(0, 2**20),  # truncate at
    st.none(),  # delete the file
)


@given(name=st.sampled_from(TRACE_FILES), damage=_DAMAGE)
def test_damaged_trace_loads_or_raises_trace_error(
    tmp_path_factory, saved_trace_files, name, damage
):
    """Flipped bytes, a cut or a deleted file in any file of a trace directory:
    load_trace returns or raises TraceParseError / TraceValidationError."""
    out = tmp_path_factory.mktemp("damaged")
    for file, data in saved_trace_files.items():
        if file != name:
            (out / file).write_bytes(data)
        elif isinstance(damage, list):
            data = bytearray(data)
            for at, mask in damage:
                data[at % len(data)] ^= mask
            (out / file).write_bytes(bytes(data))
        elif isinstance(damage, int):
            (out / file).write_bytes(data[: damage % (len(data) + 1)])
    try:
        load_trace(str(out))
    except (TraceParseError, TraceValidationError):
        pass


def oracle_read_entity_file(path, schema, entity):
    """The line-by-line reader the loader's is checked against: one
    JSONDecoder.decode call per stripped line."""
    if not os.path.exists(path):
        raise TraceParseError(path, 0, "file missing from trace directory")
    with open(path, "rb") as fh:
        line_no = 0
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line and line_no > 1:
                continue
            try:
                record = _DECODER.decode(line.decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise TraceParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            except ValueError as exc:
                raise TraceParseError(path, line_no, str(exc)) from exc
            if not isinstance(record, dict):
                raise TraceParseError(path, line_no, "record must be a JSON object")
            if line_no == 1:
                if record.get("schema") != schema:
                    raise TraceParseError(path, 1, f"schema header must declare {schema!r}")
                if record.get("entity") != entity:
                    raise TraceParseError(
                        path, 1, f"entity header must be {entity!r}, got {record.get('entity')!r}"
                    )
                continue
            yield line_no, record
    if line_no == 0:
        raise TraceParseError(path, 1, f"schema header must declare {schema!r}")


def read_outcome(reader, path, entity):
    """Every record a reader yields from a trace file, or the (path, line,
    rule) it fails with."""
    try:
        return list(reader(path, SCHEMA_VERSION, entity))
    except TraceParseError as exc:
        return (exc.path, exc.line_no, exc.rule)


_LINE = st.integers(0, 2**16)  # taken modulo the line count
_WHOLE_LINES = st.sampled_from(
    [b"", b" ", b"\x0b\x0c", b"5", b"[]", b'"j0"', b"null", b"{", b"{}", b"\xc3",
     b'{"a":"\xc3("}', b'{"a":NaN}', b'{"a":[Infinity]}', b"\xef\xbb\xbf{}"]
)
_LINE_EDIT = st.one_of(
    st.tuples(
        st.just("append"),
        _LINE,
        st.sampled_from(
            [b" x", b"{}", b" 1", b",", b"]", b"\x0b", b"\x0c", b" \x0b\x0c", b"\x0c{}",
             b"\r", b"\r{}", b"\xff", b"\x85"]
        ),
    ),
    st.tuples(
        st.just("prepend"),
        _LINE,
        st.sampled_from([b"\x0b", b"\x0c", b" \t", b"\r", b"x", b"\xff", b"\xc2\x85"]),
    ),
    st.tuples(st.just("replace"), _LINE, _WHOLE_LINES),
    st.tuples(st.just("insert"), _LINE, _WHOLE_LINES),
    # In place of the line's first number (or its first key's value).
    st.tuples(
        st.just("token"),
        _LINE,
        st.sampled_from([b"NaN", b"-NaN", b"Infinity", b"-Infinity", b"1e999", b"1 2", b"0x1"]),
    ),
    # An invalid UTF-8 byte somewhere in the line.
    st.tuples(st.just("byte"), _LINE, st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])),
)


def _edit_lines(lines, edits, data):
    for op, at, payload in edits:
        i = at % len(lines)
        if op == "append":
            lines[i] += payload
        elif op == "prepend":
            lines[i] = payload + lines[i]
        elif op == "replace":
            lines[i] = payload
        elif op == "insert":
            lines.insert(i, payload)
        elif op == "token":
            lines[i] = re.sub(rb"(?<=:)(-?[0-9][0-9.e+-]*|\"[^\"]*\")", payload, lines[i], count=1)
        else:
            cut = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:cut] + payload + lines[i][cut:]


@given(
    name=st.sampled_from([name for name in TRACE_FILES if name.endswith(".jsonl")]),
    edits=st.lists(_LINE_EDIT, min_size=1, max_size=4),
    data=st.data(),
)
@example(name="tasks.jsonl", edits=[("append", 2, b" x")], data=None)
def test_entity_reader_equals_line_by_line_oracle(
    tmp_path_factory, saved_trace_files, name, edits, data
):
    """Over line edits of a saved trace's JSON files (trailing data, NaN and
    Infinity tokens, non-objects, blank lines, \\x0b/\\x0c padding, invalid
    UTF-8), the loader's reader and the line-by-line oracle yield equal
    records or fail at the same file, line and rule."""
    lines = saved_trace_files[name].split(b"\n")
    _edit_lines(lines, edits, data)
    path = str(tmp_path_factory.mktemp("edited") / name)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    entity = name.split(".")[0]
    assert read_outcome(_read_entity_file, path, entity) == read_outcome(
        oracle_read_entity_file, path, entity
    )


def oracle_store_problems(node, store):
    """The problems of one store as given, but for its node's cluster
    membership, each rule checked on its own: the reference for the checks
    a trace makes of its stores when it is built."""
    from stagelens.model import metric_columns

    problems = []
    columns = tuple(store.columns)
    if not (all(isinstance(c, str) for c in columns) and columns == metric_columns(columns)):
        problems.append(
            f"metric series for {node}: columns must be distinct names in store order"
        )
    ts, values = store.timestamps, store.values
    if not (
        isinstance(ts, np.ndarray) and ts.ndim == 1 and ts.dtype == np.int64
        and isinstance(values, np.ndarray) and values.dtype == np.float64
        and values.shape == (len(columns), len(ts))
    ):
        problems.append(
            f"metric series for {node}: needs int64[n] timestamps and "
            f"float64[{len(columns)}, n] values"
        )
        return problems
    if np.isinf(values).any():
        problems.append(f"metric series for {node}: infinite value")
    for i in range(1, len(ts)):
        if ts[i] <= ts[i - 1]:
            problems.append(
                f"metric series for {node}: timestamps not strictly increasing at {ts[i]}"
            )
    return problems


def oracle_validate(trace):
    """Trace.validate as one walk over every task and node, with each
    store's problems: the reference for validate's checks of a whole stage
    at once. `trace` may be a Trace or its parts as given (as_given)."""
    problems = []
    if not trace.cluster:
        problems.append("cluster must list at least one node")
    for node in trace.cluster:
        if type(node) is not str:
            problems.append(f"node {node!r}: bad cluster entry: node name must be a string")
    job_ids = []
    for job in trace.jobs:
        if type(job.job_id) is not str:
            problems.append(f"job {job.job_id}: bad job record: job_id must be a string")
        elif job.job_id in job_ids:
            problems.append(f"job {job.job_id}: duplicate job_id")
        job_ids.append(job.job_id)
    stage_ids = []
    task_ids = set()
    for stage in trace.stages():
        if type(stage.stage_id) is not str:
            problems.append(f"stage {stage.stage_id}: bad stage record: stage_id must be a string")
        elif stage.stage_id in stage_ids:
            problems.append(f"stage {stage.stage_id}: duplicate stage_id")
        stage_ids.append(stage.stage_id)
        for task in stage.tasks:
            if task.task_id in task_ids:
                problems.append(f"task {task.task_id}: duplicate task_id")
            task_ids.add(task.task_id)
            if task.finish_time < task.launch_time:
                problems.append(
                    f"task {task.task_id}: finish_time {task.finish_time} "
                    f"< launch_time {task.launch_time}"
                )
            if task.node not in trace.cluster:
                problems.append(f"task {task.task_id}: node {task.node!r} not in cluster")
    for node, store in trace.metrics.items():
        if node not in trace.cluster:
            problems.append(f"metric series for {node}: node not in cluster")
        problems += oracle_store_problems(node, store)
    return problems


def as_given(cluster, jobs, metrics):
    """A trace's parts, not built into a Trace: stores stay as given."""
    return SimpleNamespace(
        cluster=cluster, jobs=jobs, metrics=metrics,
        stages=lambda: (stage for job in jobs for stage in job.stages),
    )


def build(parts):
    return Trace(cluster=parts.cluster, jobs=parts.jobs, metrics=row_groups(parts.metrics))


_FLAWS = st.sampled_from(["none"] * 6 + ["task_id", "order", "node"])
_LAYOUTS = st.sampled_from(
    [("cpu_usage", "x")] * 4 + [("cpu_usage",), ("x", "cpu_usage"), ("x", "x"), ("cpu_usage", 7), ()]
)


@st.composite
def small_traces(draw):
    """A trace's parts as given, in which each task and node has at most one
    of the flaws validate names, and each store may break rules a trace
    refuses: flaws drawn rarely enough that many stages and stores are
    clean."""
    stages = []
    last_id = 0  # task ids t0, t1, ... so far; a duplicate reuses a recent one
    for stage_id in draw(st.lists(st.sampled_from(["s0", "s1", "s2", "s3", "s4"]), max_size=4)):
        rows = []
        for _ in range(draw(st.integers(0, 5))):
            flaw = draw(_FLAWS)
            last_id += flaw != "task_id"
            rows.append(
                Task(
                    task_id=f"t{last_id - draw(st.integers(0, 2)) if flaw == 'task_id' else last_id}",
                    node="ghost" if flaw == "node" else draw(st.sampled_from(["hw01", "hw02"])),
                    launch_time=5,
                    finish_time=4 if flaw == "order" else 5 + draw(st.integers(0, 2)),
                    data_size=draw(st.integers(0, 2)),
                )
            )
        stages.append(stage_of(rows, stage_id))
    metrics = {}
    for node in draw(st.lists(st.sampled_from(["hw01", "hw02", "ghost"]), unique=True, max_size=3)):
        columns = draw(_LAYOUTS)
        steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 0, -1]), max_size=4))
        ts = np.cumsum(np.array([0] + steps, dtype=np.int64))
        rows = len(columns) + draw(st.sampled_from([0, 0, 0, 0, 0, 1]))  # 1: a row too many
        values = np.full(rows * len(ts), 0.5)
        values[: draw(st.integers(0, 1)) * draw(st.integers(0, len(values)))][-1:] = np.inf
        metrics[node] = MetricStore(node, ts, columns, values.reshape(rows, len(ts)))
    jobs = [Job(job_id="j0", stages=stages)] + [Job(job_id="j0")] * draw(st.integers(0, 1))
    return as_given(["hw01", "hw02"], jobs, metrics)


def _one_store(node="hw01", ts=(0, 1, 2), columns=("cpu_usage", "x"), values=None, rows=2):
    """The parts of a trace of one task on hw01 and one store under `node`."""
    values = np.full((rows, len(ts)), 0.5) if values is None else np.array(values)
    store = MetricStore(node, np.array(ts, dtype=np.int64), columns, values)
    return as_given(["hw01", "hw02"], [Job("j0", [make_stage({"hw01": 1})])], {"hw01": store})


@given(parts=small_traces())
@example(parts=_one_store())
@example(parts=_one_store(node="hw02"))
@example(parts=_one_store(columns=("x", "cpu_usage")))
@example(parts=_one_store(rows=3))
@example(parts=_one_store(ts=(0, 2, 1)))
@example(parts=_one_store(values=[[0.5, np.inf, 0.5], [0.5] * 3]))
@example(parts=as_given(["hw01"], [], {  # an infinite value before a refused store
    "hw01": MetricStore("hw01", np.arange(2), ("x",), np.array([[0.5, -np.inf]])),
    "hw02": MetricStore("hw02", np.array([1, 0]), ("x",), np.zeros((1, 2))),
}))
@example(parts=_one_store(ts=(0, 2, 1), values=[[0.5, np.inf, 0.5], [0.5] * 3]))
@example(parts=as_given(  # every type a save refuses, lists too, beside a duplicate job
    ["hw01", 7, ["hw02"]],
    [Job(5, [make_stage({"hw01": 1}, stage_id=3)]), Job(5), Job(["x"], [Stage(["s0"])]),
     Job("j0"), Job("j0")],
    {},
))
def test_validate_equals_one_walk_oracle(parts):
    """Building a trace raises MetricSeriesError exactly when the oracle
    names a store problem, with the first of those problems (the first
    broken rule of the first malformed store); otherwise the trace's
    validate() equals the oracle's list."""
    store_problems = [p for n, s in parts.metrics.items() for p in oracle_store_problems(n, s)]
    if store_problems:
        with pytest.raises(MetricSeriesError) as err:
            build(parts)
        assert str(err.value) == store_problems[0]
    else:
        assert build(parts).validate() == oracle_validate(parts)


_MALFORMED = {
    "int32 timestamps": ({"timestamps": np.arange(3, dtype=np.int32)}, "needs int64[n]"),
    "float timestamps": ({"timestamps": np.arange(3.0)}, "needs int64[n]"),
    "2-D timestamps": ({"timestamps": np.arange(3, dtype=np.int64).reshape(3, 1)}, "needs"),
    "list timestamps": ({"timestamps": [0, 1000, 2000]}, "needs int64[n]"),
    "float32 values": ({"values": np.zeros((2, 3), dtype=np.float32)}, "float64[2, n]"),
    "extra value row": ({"values": np.zeros((3, 3))}, "float64[2, n]"),
    "transposed values": ({"values": np.zeros((3, 2))}, "float64[2, n]"),
    "extra sample": ({"values": np.zeros((2, 4))}, "float64[2, n]"),
    "1-D values": ({"values": np.zeros(6)}, "float64[2, n]"),
    "too few columns": ({"columns": ("cpu_usage",)}, "float64[1, n]"),
    "repeated column": ({"columns": ("x", "x")}, "store order"),
    "columns out of order": ({"columns": ("x", "cpu_usage")}, "store order"),
    "non-name column": ({"columns": ("cpu_usage", 7)}, "store order"),
    "unhashable column": ({"columns": ("cpu_usage", [])}, "store order"),
    "equal timestamps": ({"timestamps": np.array([0, 1000, 1000])}, "not strictly increasing"),
    "falling timestamps": ({"timestamps": np.array([2000, 1000, 3000])}, "at 1000"),
    "infinite value": ({"values": np.array([[0.5, -np.inf, 0.5], [1.0] * 3])}, "infinite"),
}


@pytest.mark.parametrize("changes, problem", list(_MALFORMED.values()), ids=list(_MALFORMED))
@pytest.mark.parametrize("at", [0, 1, 3])
def test_construction_keeps_validate(changes, problem, at):
    """Clock groups keep validate's store rules: building the one-row
    groups of four stores, one of them malformed (at `at`; the others
    valid), raises MetricSeriesError with the malformed store's first
    problem, which names its node and the rule."""
    nodes = ["hw01", "hw02", "hw03", "hw04"]
    base = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": 0.5 + i, "x": 1.0})
    given = [MetricStore(node, base.timestamps, base.columns, base.values + i)
             for i, node in enumerate(nodes)]
    bad = given[at] = MetricStore(nodes[at], base.timestamps, base.columns, base.values)
    for name, value in changes.items():
        setattr(bad, name, value)
    message = oracle_store_problems(nodes[at], bad)[0]
    assert problem in message and nodes[at] in message
    with pytest.raises(MetricSeriesError) as err:
        Trace(cluster=nodes, metrics=row_groups(given))
    assert str(err.value) == message


def test_group_names_its_first_failing_node():
    """A group's layout, shape and timestamps are every node's, so their
    rules name its first node; an infinite value names the node whose row
    holds it, and comes first for that node."""
    values = np.zeros((3, 1, 3))
    values[2, 0, 1] = np.inf
    falling = np.array([0, 2, 1])
    for ts, first, rule in (
        (np.arange(3), "hw03", "infinite value"),
        (falling, "hw01", "timestamps not strictly increasing at 1"),
    ):
        with pytest.raises(MetricSeriesError) as err:
            ClockGroup(["hw01", "hw02", "hw03"], ("x",), ts, values)
        assert (err.value.node, err.value.rule) == (first, rule)
    values[0, 0, 2] = -np.inf
    with pytest.raises(MetricSeriesError) as err:
        ClockGroup(["hw01", "hw02", "hw03"], ("x",), falling, values)
    assert str(err.value) == "metric series for hw01: infinite value"
    with pytest.raises(ValueError):
        ClockGroup([], ("x",), np.arange(3), np.zeros((0, 1, 3)))


def test_trace_metrics_take_only_clock_groups():
    """Trace.metrics takes ClockGroups, or a sequence of ClockGroup. A
    mapping of stores, or a store, raises TypeError naming ClockGroup; a
    node held by two rows raises MetricSeriesError. An assignment that
    raises leaves the metrics as they were, and the groups hold the arrays
    they were given, read-only."""
    store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": 0.5})
    trace = Trace(cluster=["hw01"], metrics=row_groups([store]))
    before = trace.metrics
    for given in ({"hw01": store}, [store]):
        with pytest.raises(TypeError, match="ClockGroup"):
            trace.metrics = given
        with pytest.raises(TypeError, match="ClockGroup"):
            Trace(cluster=["hw01"], metrics=given)
    twice = ClockGroup(["hw01", "hw01"], store.columns, store.timestamps,
                       np.stack([store.values, store.values]))
    for given in (row_groups([store, store]), [twice]):
        with pytest.raises(MetricSeriesError) as err:
            trace.metrics = given
        assert str(err.value) == "metric series for hw01: node held twice"
    assert trace.metrics is before and Trace(metrics=before).metrics is before
    (group,) = before.groups
    assert np.shares_memory(group.values, store.values) and group.timestamps.base is store.timestamps
    assert not group.values.flags.writeable and not group.timestamps.flags.writeable
    assert trace.metrics["hw01"] == store


def loadable(parts):
    """The trace of drawn parts without what the loader rejects before it
    validates: one j0 job, distinct stage ids, and every store under its
    own node with a layout in store order, rising timestamps and finite
    values. Task flaws and nodes outside the cluster stay."""
    stages = {}
    for stage in parts.jobs[0].stages:
        stages.setdefault(stage.stage_id, stage)
    layouts = {0: (), 1: ("cpu_usage",), 2: ("cpu_usage", "x")}
    metrics = {}
    for node, store in parts.metrics.items():
        columns = layouts[len(store.columns)]
        values = np.where(np.isinf(store.values), 0.5, store.values)[: len(columns)]
        metrics[node] = MetricStore(node, 2 * np.arange(len(store), dtype=np.int64), columns,
                                    values)
    return Trace(cluster=parts.cluster, jobs=[Job("j0", list(stages.values()))],
                 metrics=row_groups(metrics))


def save_unchecked(trace, out):
    """save_trace's files for a trace it would refuse for failing validate."""
    with mock.patch.object(Trace, "validate", return_value=[]):
        save_trace(trace, str(out))


# Two clean nodes, three samples each.
_CLEAN = as_given(
    ["hw01", "hw02"],
    [Job("j0", [make_stage({"hw01": 1, "hw02": 1}, launch=5)])],
    {node: metric_series(node, 0, 3, lambda i: {"cpu_usage": 0.5}) for node in ("hw01", "hw02")},
)


@given(
    parts=small_traces(),
    fault=st.sampled_from(["none", "inside", "boundary", "cluster"]),
    at=st.integers(0, 2**16),  # taken modulo the places the fault can go
    drop=st.integers(0, 2),
)
@example(parts=_CLEAN, fault="inside", at=4, drop=0)
@example(parts=_CLEAN, fault="boundary", at=0, drop=2)
@example(parts=_CLEAN, fault="cluster", at=1, drop=0)
def test_load_checks_equal_validate(tmp_path_factory, parts, fault, at, drop):
    """A saved trace with one more metric fault:
    - a timestamp `drop` below its predecessor inside a line's clock fails
      at that line, naming its first node and the timestamp;
    - a line's series moved so that its clock starts `drop` below the last
      timestamp of the clock before it is no fault: the trace loads, equal
      to the trace saved;
    - a node left out of the cluster raises validate's problems.
    Without a fault, a trace loads equal to the one saved, or raises its
    validate problems."""
    trace = loadable(parts)
    out = tmp_path_factory.mktemp("faulty")
    save_unchecked(trace, out)
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    # Each line, in index order: its nodes, its sample count, its number.
    entries = [(row["nodes"], row["samples"], line_no)
               for line_no, row in enumerate(rows[1:], start=2)]
    ends = np.cumsum([n for _, n, _ in entries], dtype=np.int64).tolist()
    ts = np.load(out / "metrics.timestamps.npy")
    # Sample positions whose predecessor is on the same clock, or on another.
    places = {
        "inside": [i for i in range(1, len(ts)) if i not in ends],
        "boundary": sorted({e for e in ends[:-1] if 0 < e < len(ts)}),
    }.get(fault)
    cluster = list(trace.cluster)
    metrics = {node: trace.metrics[node] for nodes, _, _ in entries for node in nodes}
    if places:
        i = places[at % len(places)]
        nodes, _, line_no = entries[int(np.searchsorted(ends, i, side="right"))]
        if fault == "inside":
            ts[i] = ts[i - 1] - drop
            np.save(out / "metrics.timestamps.npy", ts)
            with pytest.raises(TraceParseError) as err:
                load_trace(str(out))
            assert str(err.value) == (
                f"{out / 'metrics.jsonl'}:{line_no}: node {nodes[0]!r}: "
                f"timestamps not strictly increasing at {ts[i]}"
            )
            return
        for node in nodes:
            store = metrics[node]
            moved = store.timestamps + (ts[i - 1] - drop - ts[i])
            metrics[node] = MetricStore(node, moved, store.columns, store.values)
        save_unchecked(Trace(cluster, trace.jobs, row_groups(metrics)), out)
        assert np.load(out / "metrics.timestamps.npy")[i] == ts[i - 1] - drop
    indexed = sorted(set(cluster) & set(metrics))
    if fault == "cluster" and indexed:
        cluster.remove(indexed[at % len(indexed)])
        meta = out / "meta.jsonl"
        header, body = meta.read_text().splitlines()
        meta.write_text(header + "\n" + json.dumps({**json.loads(body), "cluster": cluster}) + "\n")
    # The trace as saved: stages and tasks sorted by id, series grouped as
    # the loader groups them.
    stages = [Stage(s.stage_id, s.tasks.sorted_by_id())
              for s in sorted(trace.jobs[0].stages, key=lambda s: s.stage_id)]
    saved = Trace(cluster=sorted(cluster), jobs=[Job("j0", stages)], metrics=clock_groups(metrics))
    problems = saved.validate()
    if problems:
        with pytest.raises(TraceValidationError) as err:
            load_trace(str(out))
        assert err.value.problems == problems
    else:
        assert load_trace(str(out)) == saved


# Clocks the nodes draw from: equal ones group nodes, and the negative one
# lets an offset of -2**63 move a timestamp out of int64.
_CLOCKS = (np.array([0, 10, 20, 30]), np.array([10, 20, 30, 40]), np.array([-5, 0, 5]))


@given(data=st.data())
def test_load_names_the_first_bad_node_of_a_per_node_walk(tmp_path_factory, data):
    """Saved series with infinite cells, falling timestamps and clock
    offsets drawn into the files fail at the metrics.jsonl line of
    the first node, in index order, that a walk over each node's own block
    of values and its line's clock finds at fault, with the first rule it
    breaks in the order: an infinite value, falling timestamps, then its
    offset. Without a fault, each node loads with its line's stored
    timestamps moved by its offset."""
    draw = data.draw
    nodes = [f"hw{i}" for i in range(draw(st.integers(1, 5)))]
    stores = []
    for node in nodes:
        columns = draw(st.sampled_from([("cpu_usage",), ("cpu_usage", "x")]))
        ts = _CLOCKS[draw(st.integers(0, len(_CLOCKS) - 1))]
        stores.append(MetricStore(node, ts, columns, np.full((len(columns), len(ts)), 0.5)))
    out = tmp_path_factory.mktemp("damaged")
    save_trace(Trace(cluster=nodes, metrics=row_groups(stores)), str(out))
    ts = np.load(out / "metrics.timestamps.npy")
    values = np.load(out / "metrics.values.npy")
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[i] = draw(st.sampled_from([np.inf, -np.inf]))
    for i in draw(st.lists(st.integers(1, len(ts) - 1), max_size=2)):
        ts[i] = ts[i - 1] - draw(st.integers(0, 1))
    offsets = draw(st.dictionaries(st.sampled_from(nodes),
                                   st.sampled_from([0, 5, 2**63 - 1, -(2**63)]), max_size=3))
    np.save(out / "metrics.timestamps.npy", ts)
    np.save(out / "metrics.values.npy", values)
    meta = out / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    body = {**json.loads(body), "clock_offsets": offsets}
    meta.write_text(header + "\n" + json.dumps(body) + "\n")

    expected, stored = None, {}
    t = c = 0
    for line_no, line in enumerate((out / "metrics.jsonl").read_text().splitlines()[1:], 2):
        row = json.loads(line)
        n = row["samples"]
        own = ts[t : t + n]
        t += n
        for node in row["nodes"]:
            cells = values[c : c + len(row["columns"]) * n]
            c += len(row["columns"]) * n
            stored[node] = own
            offset = offsets.get(node, 0)
            falling = [int(own[i]) for i in range(1, n) if own[i] <= own[i - 1]]
            if np.isinf(cells).any():
                rule = "metric values must be finite numbers"
            elif falling:
                rule = f"timestamps not strictly increasing at {falling[0]}"
            elif n and not -(2**63) <= int(own.min()) + offset <= int(own.max()) + offset < 2**63:
                rule = f"clock offset {offset} moves timestamps out of range"
            else:
                continue
            expected = expected or f"{out / 'metrics.jsonl'}:{line_no}: node {node!r}: {rule}"
    if expected:
        assert str(load_error(out)) == expected
        return
    loaded = load_trace(str(out))
    for node, own in stored.items():
        assert loaded.metrics[node].timestamps.tolist() == [
            v + offsets.get(node, 0) for v in own.tolist()
        ]
