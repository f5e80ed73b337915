import json

import pytest

from conftest import make_stage, make_task, make_trace, metric_series
from stagelens.model import Job, Locality, MetricSample, Stage, Task, Trace, parse_locality
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
    trace = Trace(cluster=["hw01"], metrics={"hw01": samples})
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
    assert shifted.metrics["hw01"][0].timestamp == 1_000_500
    # a second save/load cycle must not shift again
    out2 = tmp_path / "trace2"
    save_trace(shifted, str(out2))
    assert load_trace(str(out2)) == shifted
