import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given
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
from stagelens.model import (
    Job,
    Locality,
    MetricStore,
    Stage,
    Task,
    TaskTable,
    TaskTableError,
    Trace,
    parse_locality,
)
from stagelens.simulate import ScenarioSpec, generate_trace
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
    trace = Trace(cluster=["hw01"], metrics={"hw01": store_from_samples("hw01", samples)})
    assert any("strictly increasing" in p for p in trace.validate())


def test_int64_edge_timestamps_are_increasing(tmp_path):
    """The step from the least to the greatest int64 overflows a difference;
    the order check compares instead."""
    edges = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    store = MetricStore("hw01", edges, ("cpu_usage",), np.zeros((1, 2)))
    trace = Trace(cluster=["hw01"], metrics={"hw01": store})
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
    trace = make_trace(stage, metrics=metrics)

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
    first = make_stage({"hw01": 1}, stage_id="s0", job_id="j0")
    second = stage_of([make_task(task_id="t1")], "s1", "j1")  # task ids are trace-wide
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
    stage = make_stage({"hw01": 1}, stage_id=stage_id, job_id=job_id)
    out = tmp_path / "trace"
    with pytest.raises(TraceValidationError) as err:
        save_trace(make_trace(stage), str(out))
    assert err.value.problems[0] == problem
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
    """A trace whose metrics.jsonl indexes hw01 on line 2 and hw02 on line 3,
    three samples each."""
    stage = make_stage({"hw01": 1, "hw02": 1})
    metrics = {
        node: metric_series(node, 1_460_000_000_000, 3, lambda i: {"cpu_usage": 0.5, "x": 1.0})
        for node in ("hw01", "hw02")
    }
    save_trace(make_trace(stage, metrics=metrics), str(out))
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
    lines[2] = lines[2].replace('"samples":3', f'"samples":{token}')
    assert token in lines[2]
    metrics_file.write_text("\n".join(lines) + "\n")
    error = load_error(out)
    assert "metrics.jsonl:3:" in str(error)
    assert token in str(error)


@pytest.mark.parametrize(
    "value, rule",
    [
        ("1e999", "metric values must be finite numbers"),  # overflows to inf
        ("-1e999", "metric values must be finite numbers"),
    ],
)
def test_non_number_metric_value_rejected_at_load(tmp_path, value, rule):
    """An infinity in metrics.values.npy fails at the index line of its node."""
    out = save_two_nodes(tmp_path / "trace")
    values = np.load(out / "metrics.values.npy")
    values[7] = float(value)  # hw02's block starts at 2 columns x 3 samples
    np.save(out / "metrics.values.npy", values)
    assert f"metrics.jsonl:3: {rule}" in str(load_error(out))


def test_first_infinite_node_in_index_order_is_named(tmp_path):
    out = save_two_nodes(tmp_path / "trace")
    values = np.load(out / "metrics.values.npy")
    values[[1, 8]] = np.inf
    np.save(out / "metrics.values.npy", values)
    assert "metrics.jsonl:2: metric values must be finite numbers" in str(load_error(out))


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


@pytest.mark.parametrize("name", ["metrics.values.npy", "metrics.timestamps.npy"])
def test_missing_column_file_rejected(tmp_path, name):
    out = save_two_nodes(tmp_path / "trace")
    (out / name).unlink()
    assert str(load_error(out)) == f"{out / name}:0: file missing from trace directory"


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
        (lambda row: row.pop("node"), "missing required field 'node'"),
        (lambda row: row.update(node=2), "node must be a string"),
        (lambda row: row.update(columns="cpu_usage"), "columns must be a list of metric names"),
        (lambda row: row.update(columns=["cpu_usage", 1]), "columns must be a list of metric names"),
        (lambda row: row.update(columns=["cpu_usage", {}]), "columns must be a list of metric names"),
        (lambda row: row.update(columns=["x", "cpu_usage"]), "columns must be distinct and in store order"),
        (lambda row: row.update(columns=["cpu_usage", "cpu_usage"]), "columns must be distinct and in store order"),
        (lambda row: row.update(samples=-1), "samples must be a non-negative integer"),
        (lambda row: row.update(samples=3.0), "samples must be a non-negative integer"),
        (lambda row: row.update(samples="3"), "samples must be a non-negative integer"),
        (lambda row: row.update(samples=True), "samples must be a non-negative integer"),
        (lambda row: row.update(node="hw01"), "duplicate node 'hw01'"),
    ],
)
def test_bad_index_line_rejected(tmp_path, edit, rule):
    out = save_two_nodes(tmp_path / "trace")
    metrics_file = out / "metrics.jsonl"
    lines = metrics_file.read_text().splitlines()
    row = json.loads(lines[2])
    edit(row)
    lines[2] = json.dumps(row)
    metrics_file.write_text("\n".join(lines) + "\n")
    assert f"metrics.jsonl:3: {rule}" in str(load_error(out))


@pytest.mark.parametrize("name", ["meta", "jobs", "stages", "tasks", "metrics"])
def test_version_1_trace_rejected(tmp_path, name):
    out = save_two_nodes(tmp_path / "trace")
    path = out / f"{name}.jsonl"
    path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/1", 1))
    assert str(load_error(out)) == (
        f"{path}:1: schema header must declare 'stagelens-trace/3'"
    )


def test_version_2_trace_rejected(tmp_path):
    """A stagelens-trace/2 directory fails at its first header: there is no
    reader of the per-task records it holds."""
    out = save_two_nodes(tmp_path / "trace")
    for name in ("meta", "jobs", "stages", "tasks", "metrics"):
        path = out / f"{name}.jsonl"
        path.write_text(path.read_text().replace(SCHEMA_VERSION, "stagelens-trace/2", 1))
    assert str(load_error(out)) == (
        f"{out / 'meta.jsonl'}:1: schema header must declare 'stagelens-trace/3'"
    )


def test_nan_payload_does_not_reach_the_bytes(tmp_path):
    def trace_with(missing: float) -> Trace:
        store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": 0.5, "x": 1.0})
        store.values[1, 1] = missing
        return Trace(cluster=["hw01"], metrics={"hw01": store})

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
    first, second = Stage("s0", "j0"), Stage("s1", "j0")
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
        ({"offsets_applied": "false"}, "offsets_applied must be true or false"),
        ({"offsets_applied": 0}, "offsets_applied must be true or false"),
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
    change = {"clock_offsets": {"hw02": 2**63 - 1}, "offsets_applied": False}
    meta.write_text(header + "\n" + json.dumps({**json.loads(body), **change}) + "\n")
    assert f"metrics.jsonl:3: clock offset {2**63 - 1} moves timestamps out of range" in str(
        load_error(out)
    )


def test_clock_offset_moving_a_task_out_of_range_rejected(tmp_path):
    out = save_two_tasks(tmp_path / "trace")
    meta = out / "meta.jsonl"
    header, body = meta.read_text().splitlines()
    change = {"clock_offsets": {"hw01": -(2**62)}, "offsets_applied": False}
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
        metrics={"hw09": metric_series("hw09", 0, 2, lambda i: {"cpu_usage": 0.5})},
    )
    problems = trace.validate()
    assert "job j0: duplicate job_id" in problems
    assert "stage s0: duplicate stage_id" in problems
    assert "task t0: duplicate task_id" in problems
    assert "metric series for hw09: node not in cluster" in problems


def test_infinite_metric_value_fails_validation(tmp_path):
    store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": [0.5, float("inf"), 0.5][i]})
    trace = Trace(cluster=["hw01"], metrics={"hw01": store})
    assert trace.validate() == ["metric series for hw01: infinite value"]
    with pytest.raises(TraceValidationError):
        save_trace(trace, str(tmp_path / "trace"))


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
def test_validate_checks_store_shape(tmp_path, store, problem):
    trace = Trace(cluster=["hw01"], metrics={"hw01": store})
    assert any(problem in p for p in trace.validate()), trace.validate()
    with pytest.raises(TraceValidationError):
        save_trace(trace, str(tmp_path / "trace"))


# Names that need JSON escapes or that a %-format would misread.
_NAMES = st.text(st.characters() | st.sampled_from('%"\\\u00e9\n'), min_size=1, max_size=6)
_ROW_VALUES = st.dictionaries(
    _NAMES,
    st.floats(allow_nan=False, allow_infinity=False),
    max_size=5,
)


@given(
    series=st.dictionaries(
        _NAMES,
        st.dictionaries(st.integers(-2**53, 2**53), _ROW_VALUES, max_size=6),
        # save_trace rejects a trace whose cluster is empty.
        min_size=1,
        max_size=3,
    )
)
@example(series={"0": {}})
def test_store_round_trip_property(tmp_path_factory, series):
    """Any node and metric names (escapes, %, non-ASCII), any finite floats,
    rows in any order: each metrics line is the sorted-key JSON of its
    node's index entry, the column files are what np.save writes for the
    stores joined in index order, load(save(t)) == t, and saving again gives
    the same bytes."""
    trace = Trace(
        cluster=sorted(series),
        metrics={
            node: store_from_samples(
                node, [MetricSample(node, ts, values) for ts, values in rows.items()]
            )
            for node, rows in series.items()
        },
    )
    a = tmp_path_factory.mktemp("a")
    b = tmp_path_factory.mktemp("b")
    save_trace(trace, str(a))
    stores = [trace.metrics[node] for node in sorted(trace.metrics) if len(trace.metrics[node])]
    expected = [
        json.dumps({"columns": list(store.columns), "node": store.node, "samples": len(store)},
                   sort_keys=True, separators=(",", ":"))
        for store in stores
    ]
    assert (a / "metrics.jsonl").read_text().splitlines()[1:] == expected
    for name, column in (("timestamps", np.zeros(0, np.int64)), ("values", np.zeros(0))):
        saved = io.BytesIO()
        np.save(saved, np.concatenate([column] + [getattr(s, name).ravel() for s in stores]))
        assert (a / f"metrics.{name}.npy").read_bytes() == saved.getvalue()
    loaded = load_trace(str(a))
    assert loaded == trace
    save_trace(loaded, str(b))
    for name in TRACE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


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
    trace = make_trace(stage, metrics=metrics)
    out = tmp_path / "trace"
    save_trace(trace, str(out))

    meta = out / "meta.jsonl"
    lines = meta.read_text().splitlines()
    header, body = lines[0], json.loads(lines[1])
    body["clock_offsets"] = {"hw01": 500}
    body["offsets_applied"] = False
    meta.write_text(header + "\n" + json.dumps(body, sort_keys=True) + "\n")

    shifted = load_trace(str(out))
    task = shifted.jobs[0].stages[0].tasks[0]
    assert task.launch_time == 1_000_500
    assert shifted.metrics["hw01"].timestamps[0] == 1_000_500
    # a second save/load cycle must not shift again
    out2 = tmp_path / "trace2"
    save_trace(shifted, str(out2))
    assert load_trace(str(out2)) == shifted


@pytest.fixture(scope="module")
def saved_trace_files(tmp_path_factory):
    """The files of one saved simulator trace, with a metric gap on hw02."""
    trace, _ = generate_trace(ScenarioSpec(seed=5, nodes=3, stages=2, tasks_per_stage=6))
    trace.metrics["hw02"].values[3, ::4] = np.nan
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


def oracle_read_entity_file(path, entity):
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
                if record.get("schema") != SCHEMA_VERSION:
                    raise TraceParseError(
                        path, 1, f"schema header must declare {SCHEMA_VERSION!r}"
                    )
                if record.get("entity") != entity:
                    raise TraceParseError(
                        path, 1, f"entity header must be {entity!r}, got {record.get('entity')!r}"
                    )
                continue
            yield line_no, record
    if line_no == 0:
        raise TraceParseError(path, 1, f"schema header must declare {SCHEMA_VERSION!r}")


def read_outcome(reader, path, entity):
    """Every record a reader yields, or the (path, line, rule) it fails with."""
    try:
        return list(reader(path, entity))
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


def test_validate_names_every_node_of_a_shared_bad_layout():
    """A column layout is checked once, and every node that has it is named."""
    metrics = {}
    for node in ("hw01", "hw02", "hw03"):
        metrics[node] = metric_series(node, 0, 3, lambda i: {"cpu_usage": 0.5, "x": 1.0})
    for node in ("hw01", "hw03"):
        metrics[node].columns = ("x", "cpu_usage")
    trace = Trace(cluster=sorted(metrics), metrics=metrics)
    assert trace.validate() == [
        f"metric series for {node}: columns must be distinct names in store order"
        for node in ("hw01", "hw03")
    ]


def oracle_validate(trace):
    """Trace.validate as one walk over every task and node, each column
    layout checked on its own: the reference for validate's checks of a
    whole stage at once and of each distinct layout once."""
    from stagelens.model import metric_columns

    problems = []
    if not trace.cluster:
        problems.append("cluster must list at least one node")
    job_ids = set()
    for job in trace.jobs:
        if job.job_id in job_ids:
            problems.append(f"job {job.job_id}: duplicate job_id")
        job_ids.add(job.job_id)
    known = set(trace.cluster)
    stage_ids = set()
    task_ids = set()
    for stage in trace.stages():
        if stage.stage_id in stage_ids:
            problems.append(f"stage {stage.stage_id}: duplicate stage_id")
        stage_ids.add(stage.stage_id)
        for task in stage.tasks:
            if task.task_id in task_ids:
                problems.append(f"task {task.task_id}: duplicate task_id")
            task_ids.add(task.task_id)
            if task.finish_time < task.launch_time:
                problems.append(
                    f"task {task.task_id}: finish_time {task.finish_time} "
                    f"< launch_time {task.launch_time}"
                )
            if task.node not in known:
                problems.append(f"task {task.task_id}: node {task.node!r} not in cluster")
    for node, store in trace.metrics.items():
        if node not in known:
            problems.append(f"metric series for {node}: node not in cluster")
        if store.node != node:
            problems.append(f"metric series under {node!r} carries node {store.node!r}")
        columns = tuple(store.columns)
        if not (all(isinstance(c, str) for c in columns) and columns == metric_columns(columns)):
            problems.append(
                f"metric series for {node}: columns must be distinct names in store order"
            )
        ts, values = store.timestamps, store.values
        if not (values.shape == (len(columns), len(ts))):
            problems.append(
                f"metric series for {node}: needs int64[n] timestamps and "
                f"float64[{len(columns)}, n] values"
            )
            continue
        for i in range(1, len(ts)):
            if ts[i] <= ts[i - 1]:
                problems.append(
                    f"metric series for {node}: timestamps not strictly increasing at {ts[i]}"
                )
        if np.isinf(values).any():
            problems.append(f"metric series for {node}: infinite value")
    return problems


_FLAWS = st.sampled_from(["none"] * 6 + ["task_id", "order", "node"])
_LAYOUTS = st.sampled_from(
    [("cpu_usage", "x")] * 4 + [("cpu_usage",), ("x", "cpu_usage"), ("x", "x"), ("cpu_usage", 7), ()]
)


@st.composite
def small_traces(draw):
    """Traces in which each task and node has at most one of the flaws
    validate names, drawn rarely enough that many stages are clean."""
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
        values = np.full(len(columns) * len(ts), 0.5)
        values[: draw(st.integers(0, 1)) * draw(st.integers(0, len(values)))][-1:] = np.inf
        owner = draw(st.sampled_from([node, node, node, "hw02"]))
        metrics[node] = MetricStore(owner, ts, columns, values.reshape(len(columns), len(ts)))
    jobs = [Job(job_id="j0", stages=stages)] + [Job(job_id="j0")] * draw(st.integers(0, 1))
    return Trace(cluster=["hw01", "hw02"], jobs=jobs, metrics=metrics)


@given(trace=small_traces())
def test_validate_equals_one_walk_oracle(trace):
    assert trace.validate() == oracle_validate(trace)
