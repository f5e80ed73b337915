import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_stage, make_task, make_trace, metric_series
from stagelens.model import (
    Job,
    Locality,
    MetricSample,
    MetricStore,
    Stage,
    Task,
    Trace,
    parse_locality,
)
from stagelens.simulate import ScenarioSpec, generate_trace
from stagelens.traceio import (
    SCHEMA_VERSION,
    TraceParseError,
    TraceValidationError,
    load_trace,
    save_trace,
)


def test_task_runtime_derived():
    task = make_task(launch=100, runtime=1874)
    assert task.runtime == 1874
    assert task.finish_time - task.launch_time == task.runtime


def test_stage_envelope_covers_all_tasks():
    stage = Stage(stage_id="s0", job_id="j0")
    stage.tasks.append(make_task(task_id="a", launch=1000, runtime=500))
    stage.tasks.append(make_task(task_id="b", launch=3000, runtime=500))
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
    stage = Stage(stage_id="s0", job_id="j0")
    stage.tasks.append(
        Task(task_id="bad", stage_id="s0", node="ghost", launch_time=10, finish_time=5)
    )
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
    trace = Trace(cluster=["hw01"], metrics={"hw01": MetricStore.from_samples("hw01", samples)})
    assert any("strictly increasing" in p for p in trace.validate())


def test_empty_trace_round_trip(tmp_path):
    trace = Trace(cluster=["hw01", "hw02"])
    out = tmp_path / "trace"
    save_trace(trace, str(out))
    loaded = load_trace(str(out))
    assert loaded.cluster == ["hw01", "hw02"]
    assert loaded.jobs == []
    assert loaded.metrics == {}


def test_round_trip_identity_and_determinism(tmp_path):
    stage = make_stage({"hw01": 2, "hw02": 1})
    stage.tasks[0] = make_task(task_id="t0", locality=Locality.UNKNOWN)
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
    for name in ("meta.jsonl", "jobs.jsonl", "stages.jsonl", "tasks.jsonl", "metrics.jsonl"):
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
    second = make_stage({"hw01": 1}, stage_id="s1", job_id="j1")
    second.tasks[0] = make_task(task_id="t1", stage_id="s1")  # task ids are trace-wide
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


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_metric_value_rejected_at_load(tmp_path, token):
    stage = make_stage({"hw01": 1})
    metrics = {"hw01": metric_series("hw01", 1_460_000_000_000, 3, lambda i: {"cpu_usage": 0.5})}
    out = tmp_path / "trace"
    save_trace(make_trace(stage, metrics=metrics), str(out))
    metrics_file = out / "metrics.jsonl"
    lines = metrics_file.read_text().splitlines()
    lines[2] = lines[2].replace('"cpu_usage":0.5', f'"cpu_usage":{token}')
    assert token in lines[2]
    metrics_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert "metrics.jsonl:3:" in str(err.value)
    assert token in str(err.value)


@pytest.mark.parametrize(
    "value, rule",
    [
        ("1e999", "metric values must be finite numbers"),  # overflows to inf
        ("-1e999", "metric values must be finite numbers"),
        ('"nan"', "bad metric record"),  # a string, even one float() takes
        ('"0.5"', "bad metric record"),
        ("null", "bad metric record"),
        ("[0.5]", "bad metric record"),
    ],
)
def test_non_number_metric_value_rejected_at_load(tmp_path, value, rule):
    stage = make_stage({"hw01": 1})
    metrics = {"hw01": metric_series("hw01", 1_460_000_000_000, 3, lambda i: {"cpu_usage": 0.5})}
    out = tmp_path / "trace"
    save_trace(make_trace(stage, metrics=metrics), str(out))
    metrics_file = out / "metrics.jsonl"
    lines = metrics_file.read_text().splitlines()
    lines[2] = lines[2].replace('"cpu_usage":0.5', f'"cpu_usage":{value}')
    metrics_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert f"metrics.jsonl:3: {rule}" in str(err.value)


@pytest.mark.parametrize("field", ["launch_time", "finish_time", "data_size"])
@pytest.mark.parametrize("value", [None, [1]])
def test_non_number_task_field_rejected_at_load(tmp_path, field, value):
    out = tmp_path / "trace"
    save_trace(make_trace(make_stage({"hw01": 2})), str(out))
    tasks_file = out / "tasks.jsonl"
    lines = tasks_file.read_text().splitlines()
    row = json.loads(lines[2])
    row[field] = value
    lines[2] = json.dumps(row)
    tasks_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(str(out))
    assert "tasks.jsonl:3: bad task record" in str(err.value)


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
        jobs=[Job(job_id="j0", stages=[first, again])],
        metrics={"hw09": metric_series("hw09", 0, 2, lambda i: {"cpu_usage": 0.5})},
    )
    problems = trace.validate()
    assert "stage s0: duplicate stage_id" in problems
    assert "task t0: duplicate task_id" in problems
    assert "metric series for hw09: node not in cluster" in problems


def test_infinite_metric_value_fails_validation(tmp_path):
    store = metric_series("hw01", 0, 3, lambda i: {"cpu_usage": [0.5, float("inf"), 0.5][i]})
    trace = Trace(cluster=["hw01"], metrics={"hw01": store})
    assert trace.validate() == ["metric series for hw01: infinite value"]
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
    rows in any order: each metrics line is the sorted-key JSON of its row,
    load(save(t)) == t, and saving again gives the same bytes."""
    trace = Trace(
        cluster=sorted(series),
        metrics={
            node: MetricStore.from_samples(
                node, [MetricSample(node, ts, values) for ts, values in rows.items()]
            )
            for node, rows in series.items()
        },
    )
    a = tmp_path_factory.mktemp("a")
    b = tmp_path_factory.mktemp("b")
    save_trace(trace, str(a))
    expected = [
        json.dumps({"node": row.node, "timestamp": row.timestamp, "values": row.values},
                   sort_keys=True, separators=(",", ":"))
        for node in sorted(trace.metrics) for row in trace.metrics[node]
    ]
    assert (a / "metrics.jsonl").read_text().splitlines()[1:] == expected
    loaded = load_trace(str(a))
    assert loaded == trace
    save_trace(loaded, str(b))
    for name in ("meta.jsonl", "jobs.jsonl", "stages.jsonl", "tasks.jsonl", "metrics.jsonl"):
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
    stage = make_stage({"hw01": 1})
    trace = make_trace(stage)
    object.__setattr__(trace.jobs[0].stages[0].tasks[0], "finish_time", 0)
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
