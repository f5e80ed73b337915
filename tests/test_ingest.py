import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import MetricSample, clock_groups, store_from_samples
from stagelens import ingest
from stagelens.ingest import (
    ARCH_COLUMNS,
    SECTOR_BYTES,
    SYSTEM_COLUMNS,
    IngestError,
    IngestReport,
    derive_series,
    ingest_raw,
    parse_metric_file,
    parse_spark_event_log,
)
from stagelens.model import (
    METRIC_SCHEMA,
    TASK_INT_BOUND,
    Job,
    Locality,
    MetricStore,
    Stage,
    Task,
    TaskTable,
    Trace,
    parse_locality,
)
from stagelens.report import PipelineConfig, diagnose, render_report
from stagelens.traceio import load_trace, save_trace

TABLE_SAMPLE = {
    "Event": "SparkListenerTaskEnd",
    "Stage ID": 0,
    "Stage Attempt ID": 0,
    "Task Type": "ShuffleMapTask",
    "Task End Reason": {"Reason": "Success"},
    "Task Info": {
        "Task ID": 2,
        "Index": 2,
        "Attempt": 0,
        "Launch Time": 1456896044081,
        "Executor ID": "0",
        "Host": "hw073",
        "Locality": "PROCESS_LOCAL",
        "Speculative": False,
        "Getting Result Time": 0,
        "Finish Time": 1456896045955,
        "Failed": False,
    },
    "Task Metrics": {
        "Host Name": "hw073",
        "Executor Deserialize Time": 1548,
        "Executor Run Time": 147,
        "Result Size": 1094,
        "JVM GC Time": 0,
    },
}


def event(stage, task, host="hw073", launch=1456896044081, finish=1456896045955):
    data = json.loads(json.dumps(TABLE_SAMPLE))
    data["Stage ID"] = stage
    data["Task Info"]["Task ID"] = task
    data["Task Info"]["Host"] = host
    data["Task Info"]["Launch Time"] = launch
    data["Task Info"]["Finish Time"] = finish
    return json.dumps(data)


def field_event(key, value):
    """event(0, 2) with one Task Info field, or its Bytes Read, set to value."""
    data = json.loads(event(0, 2))
    if key == "Bytes Read":
        data["Task Metrics"]["Input Metrics"] = {"Bytes Read": value}
    else:
        data["Task Info"][key] = value
    return json.dumps(data)


def test_sample_task_end_record():
    trace, report = parse_spark_event_log([json.dumps(TABLE_SAMPLE)])
    (stage,) = list(trace.stages())
    (task,) = stage.tasks
    assert task.task_id == "2"
    assert stage.stage_id == "0"
    assert task.node == "hw073"
    assert task.locality is Locality.PROCESS_LOCAL
    assert task.launch_time == 1456896044081
    assert task.finish_time == 1456896045955
    assert task.runtime == 1874
    assert task.succeeded
    assert not report.errors


def test_empty_stream_is_a_hard_error():
    with pytest.raises(IngestError, match="no tasks"):
        parse_spark_event_log([])


def test_three_events_two_stages():
    lines = [event(0, 1), event(0, 2), event(1, 3)]
    trace, _ = parse_spark_event_log(lines)
    counts = {s.stage_id: len(s.tasks) for s in trace.stages()}
    assert counts == {"0": 2, "1": 1}


def test_unknown_events_skipped_and_bad_lines_collected():
    lines = [
        json.dumps({"Event": "SparkListenerStageCompleted"}),
        "{broken",
        event(0, 1),
    ]
    trace, report = parse_spark_event_log(lines)
    assert report.skipped_events == 1
    assert report.errors and report.errors[0][0] == 2
    assert sum(len(s.tasks) for s in trace.stages()) == 1


@pytest.mark.parametrize("line", ["[1]", "5", '"SparkListenerTaskEnd"', "null"])
def test_event_that_is_not_an_object_is_a_note(line):
    trace, report = parse_spark_event_log([line, event(0, 1)])
    assert report.errors == [(1, "event is not a JSON object")]
    assert report.skipped_events == 0
    assert sum(len(s.tasks) for s in trace.stages()) == 1


@pytest.mark.parametrize("key, value", [
    ("Task Metrics", [1]),
    ("Task Metrics", {"Input Metrics": 5}),
    ("Task End Reason", "Success"),
    ("Task End Reason", None),
])
def test_task_end_event_with_a_part_that_is_not_an_object_is_a_note(key, value):
    bad = json.loads(event(0, 1))
    bad[key] = value
    trace, report = parse_spark_event_log([event(0, 2), json.dumps(bad)])
    ((line_no, note),) = report.errors
    assert line_no == 2 and note.startswith("unusable task-end event: AttributeError(")
    assert [t.task_id for s in trace.stages() for t in s.tasks] == ["2"]


@pytest.mark.parametrize("stage_ids", [5, None, {"0": 1}])
def test_job_start_whose_stage_ids_are_not_a_list_is_a_note(stage_ids):
    start = {"Event": "SparkListenerJobStart", "Job ID": 7, "Stage IDs": stage_ids}
    trace, report = parse_spark_event_log([json.dumps(start), event(0, 1)])
    assert report.errors == [(1, "unusable job-start event: Stage IDs must be a list")]
    assert [j.job_id for j in trace.jobs] == ["job_0"]


def test_job_start_groups_stages():
    lines = [
        json.dumps({"Event": "SparkListenerJobStart", "Job ID": 7, "Stage IDs": [0, 1]}),
        event(0, 1),
        event(1, 2),
        event(2, 3),
    ]
    trace, _ = parse_spark_event_log(lines)
    jobs = {j.job_id: sorted(s.stage_id for s in j.stages) for j in trace.jobs}
    assert jobs == {"job_7": ["0", "1"], "job_0": ["2"]}


def test_stage_and_job_ids_of_digits_sort_by_value():
    # Job j starts stage j; stages 11, "07", -1 and "s1" fall to job_0. As
    # text, stage 10 would sort before 2 and job_10 before job_2.
    lines = [json.dumps({"Event": "SparkListenerJobStart", "Job ID": j, "Stage IDs": [j]})
             for j in range(11)]
    lines += [event(stage, task) for task, stage in enumerate([*range(11, -1, -1), "s1", -1, "07"])]
    trace, _ = parse_spark_event_log(lines)
    assert [j.job_id for j in trace.jobs] == [f"job_{j}" for j in range(11)]
    assert [s.stage_id for s in trace.jobs[0].stages] == ["0", "07", "11", "-1", "s1"]
    assert [s.stage_id for s in trace.stages()][5:] == [str(s) for s in range(1, 11)]


def test_ids_of_more_digits_than_int_reads_sort_by_value():
    big, bigger = "9" * 4400, "1" + "0" * 4400
    trace, _ = parse_spark_event_log([event(bigger, 1), event(big, 2), event("2", 3)])
    assert [s.stage_id for s in trace.stages()] == ["2", big, bigger]


@pytest.mark.parametrize("line, note", [
    (json.dumps({"Event": "SparkListenerJobStart", "Stage IDs": [0]}),
     "unusable job-start event: Job ID must be an integer or a string"),
    (json.dumps({"Event": "SparkListenerJobStart", "Job ID": [1, 2], "Stage IDs": [0]}),
     "unusable job-start event: Job ID must be an integer or a string"),
    (json.dumps({"Event": "SparkListenerJobStart", "Job ID": 7, "Stage IDs": [0, [3]]}),
     "unusable job-start event: each of Stage IDs must be an integer or a string"),
    (event([3], 2), "unusable task-end event: Stage ID must be an integer or a string"),
    (event(0, True), "unusable task-end event: Task ID must be an integer or a string"),
    (event(0, 2, host=["a"]), "unusable task-end event: Host must be a non-empty string"),
    # Numbers must be JSON integers, Locality a string and Failed a bool.
    (event(0, 2, launch=4.9), "unusable task-end event: Launch Time must be an integer"),
    (event(0, 2, finish="2500"), "unusable task-end event: Finish Time must be an integer"),
    (field_event("Bytes Read", True), "unusable task-end event: Bytes Read must be an integer"),
    (field_event("Locality", 3), "unusable task-end event: Locality must be a string"),
    (field_event("Failed", "no"), "unusable task-end event: Failed must be true or false"),
])
def test_event_id_or_host_of_another_json_type_is_a_note(line, note):
    trace, report = parse_spark_event_log([line, event(0, 1)])
    assert report.errors == [(1, note)]
    assert [(j.job_id, s.stage_id, t.task_id, t.node) for j in trace.jobs for s in j.stages
            for t in s.tasks] == [("job_0", "0", "1", "hw073")]


# --- the event parser against the per-task reference -------------------------
#
# The event parser as it was written, with one Task per event.
# parse_spark_event_log must give the same tables, notes and skipped count.


_NOT_AN_ID = "%s must be an integer or a string"


def is_id(value):
    """An event id: a JSON integer (bools are not) or a string."""
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def is_int(value):
    """An event number: a JSON integer (bools are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def id_order(text):
    """Ids of ASCII digits by value (then as text), before other ids as text."""
    return (0, int(text), text) if text.isascii() and text.isdigit() else (1, 0, text)


def oracle_parse_spark_event_log(lines):
    report = IngestReport()
    tasks = {}  # stage id -> its tasks, in event order
    stage_to_job = {}

    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            report.note(line_no, f"invalid JSON: {exc.msg}")
            continue
        if not isinstance(event, dict):
            report.note(line_no, "event is not a JSON object")
            continue
        kind = event.get("Event")
        if kind == "SparkListenerJobStart":
            stage_ids = event.get("Stage IDs", [])
            job_id = event.get("Job ID")
            if not isinstance(stage_ids, list):
                rule = "Stage IDs must be a list"
            elif not is_id(job_id):
                rule = _NOT_AN_ID % "Job ID"
            elif not all(map(is_id, stage_ids)):
                rule = _NOT_AN_ID % "each of Stage IDs"
            else:
                for sid in stage_ids:
                    stage_to_job[str(sid)] = f"job_{job_id}"
                continue
            report.note(line_no, f"unusable job-start event: {rule}")
            continue
        if kind != "SparkListenerTaskEnd":
            report.skipped_events += 1
            continue
        try:
            info = event["Task Info"]
            launch = info["Launch Time"]
            if not is_int(launch):
                report.note(line_no, "unusable task-end event: Launch Time must be an integer")
                continue
            finish = info["Finish Time"]
            if not is_int(finish):
                report.note(line_no, "unusable task-end event: Finish Time must be an integer")
                continue
            metrics = event.get("Task Metrics", {}) or {}
            data_size = metrics.get("Input Metrics", {}).get("Bytes Read", 0)
            if not is_int(data_size):
                report.note(line_no, "unusable task-end event: Bytes Read must be an integer")
                continue
            reason = event.get("Task End Reason", {}).get("Reason", "Success")
            host = info.get("Host") or metrics.get("Host Name")
            if not (isinstance(host, str) and host):
                report.note(line_no, "unusable task-end event: Host must be a non-empty string")
                continue
            stage_id = event["Stage ID"]
            if not is_id(stage_id):
                report.note(line_no, f"unusable task-end event: {_NOT_AN_ID % 'Stage ID'}")
                continue
            stage_id = str(stage_id)
            if not is_id(info["Task ID"]):
                report.note(line_no, f"unusable task-end event: {_NOT_AN_ID % 'Task ID'}")
                continue
            locality = info.get("Locality", "UNKNOWN")
            if not isinstance(locality, str):
                report.note(line_no, "unusable task-end event: Locality must be a string")
                continue
            failed = info.get("Failed", False)
            if not isinstance(failed, bool):
                report.note(line_no, "unusable task-end event: Failed must be true or false")
                continue
            task = Task(
                task_id=str(info["Task ID"]),
                node=host,
                launch_time=launch,
                finish_time=finish,
                locality=parse_locality(locality),
                data_size=data_size,
                succeeded=(reason == "Success") and not failed,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            report.note(line_no, f"unusable task-end event: {exc!r}")
            continue
        outside = [
            name for name in ("launch_time", "finish_time", "data_size")
            if not 0 <= getattr(task, name) < TASK_INT_BOUND
        ]
        if outside:
            report.note(line_no, f"unusable task-end event: {outside[0]} outside [0, 2**53)")
        elif task.finish_time < task.launch_time:
            report.note(line_no, "task finishes before it launches")
        else:
            tasks.setdefault(stage_id, []).append(task)

    if not tasks:
        raise IngestError("no tasks: the event stream held no usable task-end events")

    jobs = {}
    cluster = set()
    for stage_id in sorted(tasks, key=id_order):
        job_id = stage_to_job.get(stage_id, "job_0")
        stage = Stage(stage_id=stage_id, tasks=TaskTable.from_rows(tasks[stage_id]))
        jobs.setdefault(job_id, Job(job_id=job_id)).stages.append(stage)
        cluster.update(stage.tasks.nodes)

    order = sorted(jobs, key=lambda job_id: id_order(job_id[len("job_"):]))
    trace = Trace(cluster=sorted(cluster), jobs=[jobs[k] for k in order])
    return trace, report


_HOSTS = ("hw01", "hw02", "hw10")
# Just outside [0, 2**53); values of other JSON types, each a note: strings,
# floats (an integral one too), a bool, null, a list and an object.
_ODD_INTS = st.sampled_from(
    [-1, 2**53, 2**63, -(2**63), "1005", " 1007 ", 1004.5, 1006.0, True, "12a", None, [1], {},
     "1e3"]
)


@st.composite
def task_end_event(draw):
    """A task-end event; half of them have one field dropped or made odd."""
    launch = draw(st.integers(1_000, 1_010))
    info = {
        "Task ID": draw(st.one_of(st.integers(0, 30), st.sampled_from(["t1", None, True, [1]]))),
        "Launch Time": launch,
        "Finish Time": launch + draw(st.integers(-2, 20)),
        "Host": draw(st.sampled_from(_HOSTS)),
    }
    if draw(st.booleans()):
        info["Locality"] = draw(st.sampled_from(
            ["NODE_LOCAL", "process_local", " rack_locality ", "ANY", "elsewhere", 3, None]))
    if draw(st.booleans()):
        info["Failed"] = draw(st.sampled_from([False, True, 0, 1, None, "no"]))
    data = {
        "Event": "SparkListenerTaskEnd",
        "Stage ID": draw(st.one_of(st.integers(-1, 12), st.sampled_from(
            ["2", "10", "07", "s1", [3], False, 2.0]))),
        "Task Info": info,
    }
    if draw(st.booleans()):
        data["Task Metrics"] = {"Input Metrics": {"Bytes Read": draw(st.integers(0, 10**6))}}
    if draw(st.booleans()):
        data["Task End Reason"] = {"Reason": draw(st.sampled_from(["Success", "FetchFailed"]))}
    fault = draw(st.sampled_from(
        ["none"] * 6 + ["drop", "odd", "bytes", "host", "metrics", "reason"]))
    if fault == "drop":
        key = draw(st.sampled_from(["Launch Time", "Finish Time", "Task ID", "Host"]))
        if draw(st.booleans()):
            del info[key]
        else:
            del data[draw(st.sampled_from(["Task Info", "Stage ID"]))]
    elif fault == "odd":
        for key in draw(st.sampled_from([("Launch Time",), ("Finish Time",),
                                         ("Launch Time", "Finish Time")])):
            info[key] = draw(_ODD_INTS)
    elif fault == "bytes":
        data["Task Metrics"] = {"Input Metrics": {"Bytes Read": draw(_ODD_INTS)}}
    elif fault == "host":
        # No host, or only the one under the task's metrics.
        info["Host"] = draw(st.sampled_from(["", None, ["a"], 7]))
        if draw(st.booleans()):
            data["Task Metrics"] = {"Host Name": draw(st.sampled_from(_HOSTS + ("", ["a"])))}
    elif fault == "metrics":
        data["Task Metrics"] = draw(st.sampled_from(
            [None, {}, {"Input Metrics": {}}, [1], 5, {"Input Metrics": [2]}]))
    elif fault == "reason":
        data["Task End Reason"] = draw(st.sampled_from([None, "Success", [1]]))
    return json.dumps(data)


_EVENT_LINES = st.one_of(
    task_end_event(),
    task_end_event(),
    task_end_event(),
    task_end_event().map(lambda line: line[: len(line) // 2]),  # truncated JSON
    st.builds(
        lambda job, stages: json.dumps(
            {"Event": "SparkListenerJobStart", "Job ID": job, "Stage IDs": stages}),
        st.one_of(st.integers(0, 11), st.sampled_from(["1", "010", "j", [1, 2], True, None])),
        st.one_of(st.lists(st.one_of(st.integers(-1, 12),
                                     st.sampled_from(["2", "10", "07", "s1", [3], True])),
                           max_size=3),
                  st.sampled_from([5, None, "01"])),
    ),
    st.sampled_from([
        json.dumps({"Event": "SparkListenerStageCompleted"}),
        json.dumps({"Event": "SparkListenerJobStart"}),
        json.dumps({}),
        "", "   ", "not json", "[1]", "5", "null",
    ]),
)


def _outcome(parse, lines):
    """What parse returns for these lines, or the exception it raises."""
    try:
        return parse(lines)
    except Exception as exc:  # both parsers must fail alike, whatever the error
        return type(exc), str(exc)


@given(lines=st.lists(_EVENT_LINES, min_size=1, max_size=12))
# The events of one stage, out of their id order, with every kind of note.
@example(lines=[
    event(1, 9), event(0, 10, host="hw074"), event(1, 11, launch=5, finish=4),
    event(0, 12, launch=-1), "{broken", json.dumps({"Event": "SparkListenerStageCompleted"}),
])
@example(lines=[json.dumps({"Event": "SparkListenerJobStart", "Job ID": 7, "Stage IDs": [1]}),
                event(1, 1), event(2, 2)])
# Ids and hosts of the wrong JSON type: each line is a note, and its event is skipped.
@example(lines=[json.dumps({"Event": "SparkListenerJobStart", "Stage IDs": [1]}), event(1, 1)])
@example(lines=[json.dumps({"Event": "SparkListenerJobStart", "Job ID": [1, 2], "Stage IDs": [1]}),
                event(1, 1)])
@example(lines=[event([3], 1), event(1, 2)])
@example(lines=[event(0, 1, host=["a"]), event(1, 2)])
# Numbers, localities and flags of the wrong JSON type: each line is a note.
@example(lines=[event(0, 1, launch=4.9), event(0, 2, finish="2500"),
                field_event("Bytes Read", True), event(1, 3)])
@example(lines=[field_event("Locality", 3), field_event("Failed", "no"), event(1, 3)])
def test_event_parser_equals_per_task_oracle(lines):
    got = _outcome(parse_spark_event_log, lines)
    want = _outcome(oracle_parse_spark_event_log, lines)
    if isinstance(want[0], type):
        assert got == want
        return
    (trace, report), (expected, expected_report) = got, want
    assert report.errors == expected_report.errors
    assert report.skipped_events == expected_report.skipped_events
    assert trace.cluster == expected.cluster
    assert [j.job_id for j in trace.jobs] == [j.job_id for j in expected.jobs]
    for job, want_job in zip(trace.jobs, expected.jobs):
        assert [s.stage_id for s in job.stages] == [s.stage_id for s in want_job.stages]
        for stage, want_stage in zip(job.stages, want_job.stages):
            assert stage.tasks == want_stage.tasks
            assert list(stage.tasks) == list(want_stage.tasks)


def row_text(ts, n_cols, fill=1.0):
    return " ".join([str(ts)] + [str(fill)] * (n_cols - 1))


# --- the per-row reference --------------------------------------------------
#
# Counter ingest as it was written one row at a time, with the timestamp-range
# and overflow rules added. ingest_raw must equal it exactly.


@dataclass(frozen=True)
class RawMetricRow:
    timestamp_ms: int
    counters: Tuple[float, ...]  # schema order, timestamp excluded


def added(values):
    """Left-to-right sum from 0, as the builtin sum adds floats up to Python 3.11."""
    total = 0
    for value in values:
        total = total + value
    return total


def oracle_parse(lines, schema):
    columns = SYSTEM_COLUMNS if schema == "system" else ARCH_COLUMNS
    errors = []
    by_ts = {}
    for line_no, line in enumerate(lines, start=1):
        cells = line.split()
        if not cells:
            continue
        if len(cells) != len(columns):
            raise IngestError(
                f"line {line_no}: expected {len(columns)} columns for the "
                f"{schema} schema, found {len(cells)}"
            )
        try:
            numbers = [float(c) for c in cells]
        except ValueError:
            errors.append((line_no, "non-numeric cell"))
            continue
        if not all(map(math.isfinite, numbers)):
            errors.append((line_no, "non-finite cell"))
            continue
        ms = round(numbers[0] * 1000.0 if abs(numbers[0]) < 1e12 else numbers[0])
        if not -(2**63) <= ms < 2**63:
            errors.append((line_no, "timestamp out of range"))
            continue
        by_ts[ms] = RawMetricRow(timestamp_ms=ms, counters=tuple(numbers[1:]))
    return [by_ts[ts] for ts in sorted(by_ts)], errors


_MPKI = (("L2_MPKI", "L2_miss"), ("L3_MPKI", "L3_miss"), ("L1I_MPKI", "L1I_miss"),
         ("ITLB_MPKI", "ITLB_miss"), ("DTLB_MPKI", "DTLB_miss"))
_MIX = (("MUL_Ratio", "MUL_ins"), ("DIV_Ratio", "DIV_ins"), ("FP_Ratio", "FP_ins"),
        ("LOAD_Ratio", "LOAD_ins"), ("STORE_Ratio", "STORE_ins"), ("BR_Ratio", "BR_ins"))


def derive_metrics(prev, curr, schema, node="", wrap_detection=True):
    """The derived metrics of one counter interval."""
    dt = (curr.timestamp_ms - prev.timestamp_ms) / 1000.0
    if dt <= 0:
        raise IngestError("derive_metrics requires curr.timestamp > prev.timestamp")
    columns = SYSTEM_COLUMNS if schema == "system" else ARCH_COLUMNS
    idx = {name: i - 1 for i, name in enumerate(columns) if i > 0}
    values = {}

    def delta(name):
        return curr.counters[idx[name]] - prev.counters[idx[name]]

    def emit(name, value, deltas):
        if wrap_detection and any(d < 0 for d in deltas):
            return
        if math.isfinite(value):
            values[name] = value

    if schema == "system":
        busy = [delta(n) for n in ("usr", "nice", "sys", "irq", "softirq")]
        wait = delta("iowait")
        idle = delta("idle")
        total = added(busy) + wait + idle
        # Zero total CPU delta reads as an idle interval, not missing data.
        emit("cpu_usage", (added(busy) / total) if total else 0.0, busy + [wait, idle])
        emit("ioWaitRatio", (wait / total) if total else 0.0, busy + [wait, idle])
        mem_total = curr.counters[idx["mem_total"]]
        if mem_total > 0:
            free = added(curr.counters[idx[n]] for n in ("free", "buffers", "cached"))
            emit("mem_usage", 1.0 - free / mem_total, [])
        for metric, counter in (("diskR_band", "read_sectors"), ("diskW_band", "write_sectors")):
            emit(metric, delta(counter) * SECTOR_BYTES / dt, [delta(counter)])
        for metric, counter in (("netS_band", "sbytes"), ("netR_band", "rbytes"),
                                ("weighted_io", "io_time_weighted")):
            emit(metric, delta(counter) / dt, [delta(counter)])
    else:
        d_ins = delta("ins")
        d_cycle = delta("cycle")
        if d_cycle != 0:
            emit("IPC", d_ins / d_cycle, [d_ins, d_cycle])
        for metric, counter in _MPKI:
            d = delta(counter)
            if d_ins != 0:
                emit(metric, d * 1000.0 / d_ins, [d, d_ins])
        for metric, counter in _MIX:
            d = delta(counter)
            if d_ins != 0:
                emit(metric, d / d_ins, [d, d_ins])
    return MetricSample(node=node, timestamp=curr.timestamp_ms, values=values)


def oracle_ingest_raw(event_log_path, metrics_dir, wrap_detection=True):
    """ingest_raw over well-named counter files, one row at a time."""
    with open(event_log_path, encoding="utf-8") as fh:
        trace, report = parse_spark_event_log(fh)
    merged = {}
    for name in sorted(os.listdir(metrics_dir)):
        node, kind, _ = name.rsplit(".", 2)
        schema = "architecture" if kind == "arch" else "system"
        with open(os.path.join(metrics_dir, name), encoding="utf-8") as fh:
            rows, errors = oracle_parse(fh, schema)
        report.errors.extend((ln, f"{name}: {msg}") for ln, msg in errors)
        for prev, curr in zip(rows, rows[1:]):
            sample = derive_metrics(prev, curr, schema, node, wrap_detection)
            merged.setdefault(node, {}).setdefault(sample.timestamp, {}).update(sample.values)
    # Grouped as _join groups them: by column layout and clock, in node order.
    trace.metrics = clock_groups({
        node: store_from_samples(node, (MetricSample(node, ts, v) for ts, v in by_ts.items()))
        for node, by_ts in merged.items()
    })
    trace.cluster = sorted(set(trace.cluster) | set(merged))
    return trace, report


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


def block_of(rows, schema):
    """The parse_metric_file block holding these rows."""
    columns = SYSTEM_COLUMNS if schema == "system" else ARCH_COLUMNS
    return MetricStore(
        node="",
        timestamps=np.array([r.timestamp_ms for r in rows], dtype=np.int64),
        columns=tuple(columns[1:]),
        values=np.array([r.counters for r in rows], dtype=np.float64)
        .reshape(len(rows), len(columns) - 1).T.copy(),
    )


def derived(prev, curr, schema, wrap_detection=True):
    """derive_series's metrics for the one interval prev -> curr."""
    store = derive_series(block_of([prev, curr], schema), schema, "n", wrap_detection)
    return {c: v for c, v in zip(store.columns, store.values[:, 0].tolist()) if v == v}


# --- parse_metric_file ------------------------------------------------------


def test_metric_rows_ordered_and_duplicates_collapse():
    n = len(SYSTEM_COLUMNS)
    lines = [row_text(20, n, 2.0), row_text(10, n, 1.0), row_text(20, n, 3.0)]
    block, report = parse_metric_file(lines, "system")
    assert block.timestamps.tolist() == [10_000, 20_000]
    assert block.values[0, 1] == 3.0  # last duplicate wins
    assert len(block) == 2
    assert not report.errors


def test_column_mismatch_is_hard_error():
    with pytest.raises(IngestError) as err:
        parse_metric_file([row_text(10, 10)], "system")
    assert str(len(SYSTEM_COLUMNS)) in str(err.value)
    assert "10" in str(err.value)


def test_non_numeric_cell_is_recoverable():
    n = len(SYSTEM_COLUMNS)
    bad = row_text(10, n).replace("1.0", "oops", 1)
    block, report = parse_metric_file([bad, row_text(20, n)], "system")
    assert len(block) == 1
    assert report.errors and report.errors[0][0] == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_cell_is_recoverable(cell):
    n = len(SYSTEM_COLUMNS)
    bad = row_text(10, n).replace("1.0", cell, 1)
    block, report = parse_metric_file([row_text(5, n), bad, row_text(20, n)], "system")
    assert block.timestamps.tolist() == [5_000, 20_000]
    assert report.errors == [(2, "non-finite cell")]


@pytest.mark.parametrize("stamp", ["1e20", "-1e20", "9223372036854775807", "9.3e18"])
def test_timestamp_out_of_range_is_recoverable(stamp):
    n = len(SYSTEM_COLUMNS)
    lines = [row_text(5, n), row_text(stamp, n), row_text("x", n), row_text(20, n)]
    block, report = parse_metric_file(lines, "system")
    assert block.timestamps.tolist() == [5_000, 20_000]
    assert report.errors == [(2, "timestamp out of range"), (3, "non-numeric cell")]


def test_int64_edge_timestamps_kept():
    n = len(SYSTEM_COLUMNS)
    lines = [row_text("-9223372036854775808", n), row_text("9.2233720368547748e18", n)]
    block, report = parse_metric_file(lines, "system")
    assert block.timestamps.tolist() == [-(2**63), 9223372036854774784]
    assert not report.errors
    # The difference does not fit int64; dt is still exact.
    prev, curr = system_row(-(2**63)), system_row(9223372036854774784, rbytes=1.0)
    rate = derived(prev, curr, "system")["netR_band"]
    assert rate == 1.0 / ((9223372036854774784 + 2**63) / 1000.0)


def test_sixty_rows_at_one_hz_span_59s():
    n = len(SYSTEM_COLUMNS)
    block, _ = parse_metric_file([row_text(100 + i, n) for i in range(60)], "system")
    assert block.timestamps[-1] - block.timestamps[0] == 59_000


def test_blank_lines_and_whitespace_ignored():
    n = len(SYSTEM_COLUMNS)
    block, report = parse_metric_file(["", "  ", row_text(5, n) + "   \n"], "system")
    assert len(block) == 1 and not report.errors


def test_seconds_and_milliseconds_normalize():
    block, _ = parse_metric_file([row_text(1456896044, len(SYSTEM_COLUMNS))], "system")
    assert block.timestamps.tolist() == [1456896044000]
    block, _ = parse_metric_file([row_text(1456896044081, len(SYSTEM_COLUMNS))], "system")
    assert block.timestamps.tolist() == [1456896044081]


@pytest.mark.parametrize(
    "cell, float_lines",
    [
        ("7", []),  # digits alone: the int64 scan alone
        # Above int64 strtoll saturates to 2**63 - 1: every line is read by float().
        ("99999999999999999999", [1, 2]),
        ("7.5", [1]),  # a decimal cell: its line alone is read by float()
        ("9223372036854775808", [1, 2]),
        ("9223372036854775807", [1, 2]),  # the saturated value itself
    ],
)
def test_digit_only_files_are_read_as_int64(cell, float_lines, monkeypatch):
    lines = [row_text(10, len(SYSTEM_COLUMNS), cell), row_text(20, len(SYSTEM_COLUMNS), 1)]
    read, read_lines = [], ingest._read_lines

    def spy(numbered, *args):
        numbered = list(numbered)
        read.extend(line_no for line_no, line in numbered if line.split())
        return read_lines(numbered, *args)

    monkeypatch.setattr(ingest, "_read_lines", spy)
    with mock.patch.object(np, "fromstring", wraps=np.fromstring) as scans, \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as reads:
        block, report = parse_metric_file("\n".join(lines), "system")
    # Line 2 is a digit row, so every case makes one int64 scan.
    assert [call.kwargs["dtype"] for call in scans.call_args_list] == [np.int64]
    assert not reads.called and read == float_lines
    assert block.values[0, 0] == float(cell) and not report.errors


def test_saturated_cell_is_read_as_float():
    # The int64 scan reads both rows' first counter as 2**63 - 1; float()
    # tells them apart.
    lines = [row_text(10, len(SYSTEM_COLUMNS), "99999999999999999999"),
             row_text(20, len(SYSTEM_COLUMNS), "9223372036854775807")]
    block, report = parse_metric_file("\n".join(lines) + "\n", "system")
    assert block.values[0].tolist() == [1e20, float(2**63 - 1)] and not report.errors


def test_arch_schema_width_matches_table():
    assert len(ARCH_COLUMNS) == 21  # timestamp + 20 counters, unc_* parsed unused


# --- derive_series ----------------------------------------------------------


def test_zero_delta_interval():
    values = derived(system_row(1_000), system_row(2_000), "system")
    assert values["cpu_usage"] == 0.0
    assert values["ioWaitRatio"] == 0.0
    for band in ("diskR_band", "diskW_band", "netS_band", "netR_band", "weighted_io"):
        assert values[band] == 0.0
    arch = derived(arch_row(1_000), arch_row(2_000), "architecture")
    assert "IPC" not in arch  # 0/0 is missing, not zero


def test_cpu_usage_from_deltas():
    prev = system_row(1_000, usr=100.0, idle=100.0)
    curr = system_row(2_000, usr=150.0, idle=150.0)
    assert derived(prev, curr, "system")["cpu_usage"] == pytest.approx(0.5)


def test_ipc_and_mpki():
    values = derived(arch_row(1_000), arch_row(2_000, ins=2e9, cycle=1e9, L3_miss=1e6),
                     "architecture")
    assert values["IPC"] == pytest.approx(2.0)
    assert values["L3_MPKI"] == pytest.approx(0.5)


def test_mem_usage_is_instantaneous():
    values = derived(system_row(1_000), system_row(2_000), "system")
    assert values["mem_usage"] == pytest.approx(1 - 24 / 32)


def test_counter_wrap_goes_missing_by_default():
    prev = system_row(1_000, io_time_weighted=4294936240.0)
    curr = system_row(2_000, io_time_weighted=258900.0)
    assert "weighted_io" not in derived(prev, curr, "system")


def test_wrap_detection_off_reproduces_negative_rate():
    prev = system_row(1_000, io_time_weighted=4294936240.0)
    curr = system_row(2_000, io_time_weighted=258900.0)
    assert derived(prev, curr, "system", wrap_detection=False)["weighted_io"] < -4e6


def test_nonpositive_dt_rejected():
    with pytest.raises(IngestError):
        derive_metrics(system_row(2_000), system_row(2_000), "system")


def test_ratio_metrics_stay_in_unit_interval(rng):
    # random monotone counter states: every ratio-type metric lands in [0,1]
    ratio_metrics = {"cpu_usage", "mem_usage", "ioWaitRatio"} | {
        m for m in METRIC_SCHEMA if m.endswith("_Ratio")
    }
    for _ in range(200):
        sys_incr = {
            name: float(rng.integers(0, 1000))
            for name in ("usr", "nice", "sys", "idle", "iowait", "irq", "softirq")
        }
        prev = system_row(1_000)
        curr = system_row(2_000, **sys_incr)
        ins = float(rng.integers(1, 10**9))
        sub = {
            name: float(rng.integers(0, ins))
            for name in ("MUL_ins", "DIV_ins", "FP_ins", "LOAD_ins", "STORE_ins", "BR_ins")
        }
        arch_prev = arch_row(1_000)
        arch_curr = arch_row(2_000, ins=ins, cycle=float(rng.integers(1, 10**9)), **sub)
        for values in (
            derived(prev, curr, "system"),
            derived(arch_prev, arch_curr, "architecture"),
        ):
            for name, value in values.items():
                if name in ratio_metrics:
                    assert 0.0 <= value <= 1.0
                elif name.endswith("_band") or name == "weighted_io":
                    assert value >= 0.0


def test_overflowing_delta_is_missing():
    prev = system_row(1_000, rbytes=-1e308, usr=-1e308, idle=1e308)
    curr = system_row(2_000, rbytes=1e308, usr=1e308, idle=-1e308)
    # rbytes' delta is inf; the CPU total is inf + -inf = NaN.
    for wrap_detection in (True, False):
        values = derived(prev, curr, "system", wrap_detection)
        assert "netR_band" not in values
        assert "cpu_usage" not in values and "ioWaitRatio" not in values
        assert values["netS_band"] == 0.0


def test_derive_series_pairs():
    rows = [system_row(1_000), system_row(2_000, usr=50.0, idle=50.0),
            system_row(3_000, usr=100.0, idle=100.0)]
    store = derive_series(block_of(rows, "system"), "system", "hw01")
    assert store.timestamps.tolist() == [2_000, 3_000]
    assert store.node == "hw01"
    assert store.values[store.columns.index("cpu_usage")].tolist() == [0.5, 0.5]


def test_derive_series_of_fewer_than_two_rows_is_empty():
    for rows in ([], [system_row(1_000)]):
        store = derive_series(block_of(rows, "system"), "system", "hw01")
        assert len(store) == 0 and store.columns == ()


# --- ingest_raw -------------------------------------------------------------


def test_ingest_raw_end_to_end(tmp_path):
    events = tmp_path / "app.log"
    events.write_text(
        "\n".join([event(0, 1, launch=1_000_000, finish=1_010_000),
                   event(0, 2, host="hw074", launch=1_000_000, finish=1_012_000)]) + "\n"
    )
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    n = len(SYSTEM_COLUMNS)
    (mdir / "hw073.system.tsv").write_text(
        "\n".join(row_text(1000 + i, n, fill=float(i)) for i in range(5)) + "\n"
    )
    trace, report = ingest_raw(str(events), str(mdir))
    assert trace.cluster == ["hw073", "hw074"]
    assert len(trace.metrics["hw073"]) == 4  # derived samples: one per interval
    assert sum(len(s.tasks) for s in trace.stages()) == 2


def test_byte_that_is_not_utf8_is_a_note_at_its_line(tmp_path):
    """A counter row or an event line holding a byte that is not UTF-8 is
    skipped and noted at its line, and the rest of each file is read: the
    trace equals the one ingested without those lines."""
    lines = [event(0, 1, launch=1_000_000, finish=1_010_000).encode(),
             event(0, 2, host="hw", launch=1_000_000).encode().replace(b'"hw"', b'"hw\xff"'),
             b"\xff" + event(0, 3).encode(),
             event(0, 4, host="hw074", launch=1_000_000, finish=1_012_000).encode()]
    n = len(SYSTEM_COLUMNS)
    rows = [row_text(1000 + i, n, fill=i).encode() for i in range(5)]
    rows[2] = rows[2].replace(b" 2 ", b" 2\xff3 ", 1)
    for name, dropped in (("dirty", ()), ("clean", (1, 2))):
        (tmp_path / name / "metrics").mkdir(parents=True)
        (tmp_path / name / "app.log").write_bytes(
            b"\n".join(line for i, line in enumerate(lines) if i not in dropped))
        (tmp_path / name / "metrics" / "hw073.system.tsv").write_bytes(
            b"\n".join(row for i, row in enumerate(rows) if i not in dropped[1:]) + b"\n")
    dirty, dirty_report = ingest_raw(str(tmp_path / "dirty" / "app.log"),
                                     str(tmp_path / "dirty" / "metrics"))
    clean, clean_report = ingest_raw(str(tmp_path / "clean" / "app.log"),
                                     str(tmp_path / "clean" / "metrics"))
    assert dirty_report.errors == [(2, "invalid JSON: not UTF-8"), (3, "invalid JSON: not UTF-8"),
                                   (3, "hw073.system.tsv: non-numeric cell")]
    assert not clean_report.errors
    assert [s.tasks.task_id for s in dirty.stages()] == [("1", "4")]
    assert [s.tasks.task_id for s in clean.stages()] == [("1", "4")]
    assert dirty.metrics["hw073"].timestamps.tolist() == [1001000, 1003000, 1004000]
    assert dirty.metrics["hw073"].values.tobytes() == clean.metrics["hw073"].values.tobytes()


def test_ingest_raw_hands_over_the_blocks_it_joins(tmp_path):
    """ingest_raw's clock groups are the ones _join builds, each holding
    the nodes x metrics x samples block _join filled: no copy. Two nodes
    share a clock and a third has its own."""
    events = tmp_path / "app.log"
    events.write_text(event(0, 1, launch=1_000_000, finish=1_010_000) + "\n")
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    for node, start in (("hw01", 1000), ("hw02", 1000), ("hw03", 1002)):
        (mdir / f"{node}.system.tsv").write_text(
            "\n".join(row_text(start + i, len(SYSTEM_COLUMNS), fill=float(i)) for i in range(5))
        )
    real, made = ingest._join, []

    def join(derived):
        made.extend(real(derived))
        return made

    with mock.patch.object(ingest, "_join", join):
        trace, _ = ingest_raw(str(events), str(mdir))
    assert [group.nodes for group in made] == [("hw01", "hw02"), ("hw03",)]
    assert trace.metrics.groups == tuple(made)
    for group in made:
        block = group.values.base
        assert block.flags.owndata and block.shape == group.values.shape


def test_join_writes_each_store_on_its_node_clock(tmp_path):
    """hw01's arch file holds fewer rows than its system file, hw02's as
    many: each store lands on its node's union of timestamps, NaN where it
    has no row, as the per-row reference joins them."""
    events = tmp_path / "app.log"
    events.write_text(event(0, 1, launch=1_000_000, finish=1_010_000) + "\n")
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    for node, arch_rows in (("hw01", range(1, 4)), ("hw02", range(5))):
        (mdir / f"{node}.system.tsv").write_text(
            "\n".join(row_text(1000 + i, len(SYSTEM_COLUMNS), fill=i) for i in range(5)))
        (mdir / f"{node}.arch.tsv").write_text(
            "\n".join(row_text(1000 + i, len(ARCH_COLUMNS), fill=i * i) for i in arch_rows))
    trace, _ = ingest_raw(str(events), str(mdir))
    expected, _ = oracle_ingest_raw(str(events), str(mdir))
    for node in ("hw01", "hw02"):
        store, want = trace.metrics[node], expected.metrics[node]
        assert store.columns == want.columns and store.values.tobytes() == want.values.tobytes()
        assert store.timestamps.tolist() == [1_001_000, 1_002_000, 1_003_000, 1_004_000]
    ipc = trace.metrics["hw01"].columns.index("IPC")
    assert np.isnan(trace.metrics["hw01"].values[ipc]).tolist() == [True, False, False, True]


def test_ingests_share_one_column_tuple_per_layout(tmp_path):
    """Blocks and groups of one layout hold one column tuple, so no ingest
    frees a 20-name tuple of its own."""
    events = tmp_path / "app.log"
    events.write_text(event(0, 1, launch=1_000_000, finish=1_010_000) + "\n")
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    for schema, columns in (("system", SYSTEM_COLUMNS), ("arch", ARCH_COLUMNS)):
        (mdir / f"hw01.{schema}.tsv").write_text(
            "\n".join(row_text(1000 + i, len(columns), fill=i) for i in range(5))
        )
    first, _ = ingest_raw(str(events), str(mdir))
    second, _ = ingest_raw(str(events), str(mdir))
    (group,) = first.metrics.groups
    assert len(group.columns) == 20 and second.metrics.groups[0].columns is group.columns
    text = (mdir / "hw01.arch.tsv").read_text()
    assert (parse_metric_file(text, "architecture")[0].columns
            is parse_metric_file(text.split("\n"), "architecture")[0].columns)


def test_ingested_trace_round_trips(tmp_path):
    """Event order is not task-id order ("10" sorts before "9"), and a save
    sorts by id: the reloaded trace still equals the ingested one."""
    events = tmp_path / "app.log"
    events.write_text(
        "\n".join([event(1, 9, launch=1_000_000, finish=1_010_000),
                   event(0, 10, host="hw074", launch=1_000_000, finish=1_012_000),
                   event(1, 11, launch=1_001_000, finish=1_011_000)]) + "\n"
    )
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    (mdir / "hw073.system.tsv").write_text(
        "\n".join(row_text(1000 + i, len(SYSTEM_COLUMNS), fill=float(i)) for i in range(5)) + "\n"
    )
    trace, _ = ingest_raw(str(events), str(mdir))
    save_trace(trace, str(tmp_path / "trace"))
    loaded = load_trace(str(tmp_path / "trace"))
    assert [t.task_id for s in loaded.stages() for t in s.tasks] != [
        t.task_id for s in trace.stages() for t in s.tasks
    ]
    assert loaded == trace


def test_ingested_trace_reports_the_same_after_a_save(tmp_path):
    """Skewed tasks are listed by task id, so event order (9 before 10) and
    the id order a save writes (10 before 9) give one report."""
    lines = []
    for task, size in ((9, 900), (10, 800), (11, 100), (12, 100), (13, 100)):
        data = json.loads(event(0, task, launch=1_000_000, finish=1_010_000))
        data["Task Metrics"]["Input Metrics"] = {"Bytes Read": size}
        lines.append(json.dumps(data))
    trace, report = parse_spark_event_log(lines)
    assert not report.errors
    save_trace(trace, str(tmp_path / "trace"))
    before = render_report(diagnose(trace, PipelineConfig()))
    assert "Skew data size: hw073 (x4.00), hw073/10 (x8.00), hw073/9 (x9.00)" in before.decode()
    assert render_report(diagnose(load_trace(str(tmp_path / "trace")), PipelineConfig())) == before


@pytest.mark.parametrize(
    "field, key, value",
    [
        ("launch_time", "Launch Time", -1),
        ("launch_time", "Launch Time", 2**63),
        ("finish_time", "Finish Time", 2**53),
        ("data_size", "Bytes Read", 2**53),
    ],
)
def test_task_number_outside_the_bound_is_an_unusable_event(field, key, value):
    """A task-end event whose launch, finish or size lies outside [0, 2**53)
    is noted at its line and skipped; the table build never sees it."""
    data = json.loads(event(0, 7))
    if key == "Bytes Read":
        data["Task Metrics"]["Input Metrics"] = {key: value}
    else:
        data["Task Info"][key] = value
    trace, report = parse_spark_event_log([event(0, 1), json.dumps(data), event(0, 2)])
    assert report.errors == [(2, f"unusable task-end event: {field} outside [0, 2**53)")]
    assert [t.task_id for t in next(trace.stages()).tasks] == ["1", "2"]


def test_overflowing_counters_ingest_and_save(tmp_path):
    """One interval whose rbytes delta overflows used to fail the save with
    'infinite value'; its netR_band is missing and every other value stays."""
    events = tmp_path / "app.log"
    events.write_text(event(0, 1, host="n1", launch=1_000_000, finish=1_010_000) + "\n")
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    n = len(SYSTEM_COLUMNS)
    rbytes = SYSTEM_COLUMNS.index("rbytes")
    lines = []
    for i, value in enumerate(["0", "-1e308", "1e308", "1e308"]):
        cells = row_text(1000 + i, n, fill=float(i)).split()
        cells[rbytes] = value
        lines.append(" ".join(cells))
    (mdir / "n1.system.tsv").write_text("\n".join(lines) + "\n")
    trace, report = ingest_raw(str(events), str(mdir), wrap_detection=False)
    store = trace.metrics["n1"]
    net_r = store.values[store.columns.index("netR_band")]
    assert net_r[0] == -1e308 and np.isnan(net_r[1]) and net_r[2] == 0.0
    assert not np.isnan(store.values[store.columns.index("netS_band")]).any()
    save_trace(trace, str(tmp_path / "trace"))
    assert load_trace(str(tmp_path / "trace")) == trace


def test_all_nan_interval_keeps_its_row(tmp_path):
    """An arch interval with no instruction or cycle delta reports nothing,
    and a node whose other file keeps one row adds no rows of its own."""
    events = tmp_path / "app.log"
    events.write_text(event(0, 1, host="n1", launch=1_000_000, finish=1_010_000) + "\n")
    mdir = tmp_path / "metrics"
    mdir.mkdir()
    m = len(ARCH_COLUMNS)
    (mdir / "n1.arch.tsv").write_text(
        "\n".join([row_text(1000, m, 5.0), row_text(1001, m, 5.0), row_text(1002, m, 7.0)])
    )
    (mdir / "n1.system.tsv").write_text(row_text(1003, len(SYSTEM_COLUMNS)))
    (mdir / "n2.system.tsv").write_text(row_text(1000, len(SYSTEM_COLUMNS)))
    trace, _ = ingest_raw(str(events), str(mdir))
    store = trace.metrics["n1"]
    assert store.timestamps.tolist() == [1_001_000, 1_002_000]
    assert np.isnan(store.values[:, 0]).all() and not np.isnan(store.values[:, 1]).any()
    assert "n2" not in trace.metrics and trace.cluster == ["n1"]


# --- columnar ingest against the per-row reference --------------------------

_NODES = ("hw00", "hw01", "hw02")
_BLANKS = ("", "   ", "\t", "\x0b", "\x1c ")
# str.split treats each as whitespace; only "\n" ends a line of the file.
_SEPARATORS = (" ", "  ", "\t", " \x0b", "\x1c", "\x85", " ")
_TIMESTAMPS = st.one_of(
    st.integers(0, 4).map(lambda k: str(1_460_000_000 + k)),  # seconds
    st.integers(0, 4).map(lambda k: str((1_460_000_000 + k) * 1000)),  # the same, in ms
    st.integers(0, 4).map(lambda k: f"{(1_460_000_000 + k) * 1000}.5"),  # half ms: to even
    st.integers(0, 4).map(lambda k: f"{1_460_000_000 + k}.0015"),
    st.sampled_from([
        "1e20", "-1e20", "9223372036854775807", "-9223372036854775808",
        "9.2233720368547748e18", "-9.2e18", "9.2e18", "-1e12", "0",
    ]),
)
_COUNTERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "7", "1_0", "2.5", "-3", "1e308", "-1e308",
                     "1.7976931348623157e308", "5e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_BAD_CELLS = st.sampled_from(["n/a", "nan", "inf", "-Infinity", "1e999", "0x10", "1__0"])
# Digits alone: a file of such rows is read as int64 first. The 20-digit
# cells lie outside int64, so a file holding one goes to the float reader.
_DIGIT_TIMESTAMPS = st.one_of(
    st.integers(0, 4).map(lambda k: str(1_460_000_000 + k)),
    st.integers(0, 4).map(lambda k: str((1_460_000_000 + k) * 1000)),
    st.sampled_from(["9223372036854775807", "0", "99999999999999999999"]),
)
_DIGIT_COUNTERS = st.one_of(
    st.sampled_from(["0", "7", "007", "9007199254740993", "9223372036854775807",
                     "18446744073709551616"]),
    st.integers(0, 2**63 - 1).map(str),
)


@st.composite
def counter_file(draw, width):
    """Lines of one counter dump: new rows, repeats of the last row (every
    delta zero), rows with a bad cell, and blank lines. Half the files hold
    digit cells alone, apart from their bad cells."""
    stamps, numbers = (
        (_DIGIT_TIMESTAMPS, _DIGIT_COUNTERS) if draw(st.booleans()) else (_TIMESTAMPS, _COUNTERS)
    )
    lines, last = [], None
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "repeat", "bad", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(_BLANKS)))
            continue
        if kind == "repeat" and last is not None:
            counters = list(last)
        else:
            counters = [draw(numbers) for _ in range(width - 1)]
            last = counters
        cells = [draw(stamps)] + counters
        if kind == "bad":
            cells[draw(st.integers(0, width - 1))] = draw(_BAD_CELLS)
        lines.append(draw(st.sampled_from(_SEPARATORS)).join(cells))
    return lines


@given(
    data=st.data(),
    wrap_detection=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_ingest_raw_equals_per_row_oracle(data, wrap_detection, newline):
    with tempfile.TemporaryDirectory() as tmp:
        events = os.path.join(tmp, "app.log")
        with open(events, "w", encoding="utf-8") as fh:
            fh.write(event(0, 1, host="hw00") + "\n")
        mdir = os.path.join(tmp, "metrics")
        os.mkdir(mdir)
        for node in _NODES:
            for kind, width in (("system", len(SYSTEM_COLUMNS)), ("arch", len(ARCH_COLUMNS))):
                if data.draw(st.booleans()):
                    lines = data.draw(counter_file(width))
                    # Both read with universal newlines: "\r\n" and "\r" end a line.
                    with open(os.path.join(mdir, f"{node}.{kind}.tsv"), "w",
                              encoding="utf-8", newline=newline) as fh:
                        fh.write("".join(line + "\n" for line in lines))
        trace, report = ingest_raw(events, mdir, wrap_detection=wrap_detection)
        expected, expected_report = oracle_ingest_raw(events, mdir, wrap_detection)

    assert report.errors == expected_report.errors
    assert trace.cluster == expected.cluster
    assert list(trace.metrics) == list(expected.metrics)
    for node, store in trace.metrics.items():
        want = expected.metrics[node]
        assert store == want
        assert store.columns == want.columns
        # Bit for bit, signed zeros included, so the saved files match too.
        assert store.values.tobytes() == want.values.tobytes()
    assert not trace.validate()


# --- the two readers of parse_metric_file against the per-row reference -----
#
# Rows of digits, spaces and tabs alone are read by one int64 scan, every
# other line by float(). The cases below mix the two in one file: rows of both
# kinds sharing a timestamp (the later line wins), a wrong-width line on
# either side of the other kind, plain rows (digits, ".", "e", "E" and signs)
# and plain tokens that float() rejects, and files with no digit row at all.

_PLAIN_SEPARATORS = (" ", "  ", "\t", " \t")
# str.split reads each as whitespace; the int64 scan does not see the line.
_OTHER_SEPARATORS = ("\x0b", "\x1c", "\x85", "\u3000", "\x0c", "\r", " \x0b ")
_PLAIN_STAMPS = st.one_of(
    st.integers(0, 2).map(lambda k: str(1_460_000_000 + k)),
    st.integers(0, 2).map(lambda k: f"{(1_460_000_000 + k) * 1000}.5"),
    st.sampled_from(["1e20", "-9223372036854775808", "1e999", "-0"]),
)
_PLAIN_CELLS = st.one_of(
    st.sampled_from(["0", "-0", "+7", "2.5", ".5", "5.", "1E3", "1e-400", "1e308"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# float() reads these and the int64 scan never sees them.
_OTHER_CELLS = st.sampled_from(["1_0", "\u0663", "\uff11", "nan", "-Infinity", "inf", "0x10", "n/a"])
# Plain characters that float() rejects: each such row is noted.
_BAD_PLAIN_CELLS = st.sampled_from(["1.2.3", "-", ".", "e5", "1e", "+-1"])
_BLANK_LINES = st.sampled_from(["", " ", "\t", " \t  ", "\x0b", "\x1c "])


@st.composite
def metric_lines(draw, width):
    """Lines of one counter dump: plain rows, rows float() alone reads,
    rows with a rejected plain token, wrong-width rows and blank lines. Half
    the rows after the first repeat an earlier row's timestamp. Half the
    files draw digit rows in place of plain ones and no rejected token."""
    digits = draw(st.booleans())
    row_stamps, row_cells = (_DIGIT_TIMESTAMPS, _DIGIT_COUNTERS) if digits else (
        _PLAIN_STAMPS, _PLAIN_CELLS)
    kinds = ["plain"] * 3 + ["other"] * 3 + ["wide", "blank"] + ([] if digits else ["bad"])
    lines, stamps = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(_BLANK_LINES))
            continue
        n = width
        if kind == "wide":
            n = draw(st.sampled_from([1, width - 1, width + 1]))
        if stamps and draw(st.booleans()):
            stamps.append(draw(st.sampled_from(stamps)))
        else:
            stamps.append(draw(row_stamps))
        cells = [stamps[-1]] + [draw(row_cells) for _ in range(n - 1)]
        separator = draw(st.sampled_from(_PLAIN_SEPARATORS))
        if kind == "bad":
            cells[draw(st.integers(0, n - 1))] = draw(_BAD_PLAIN_CELLS)
        if kind == "other" or (kind == "wide" and draw(st.booleans())):
            if draw(st.booleans()):
                cells[draw(st.integers(0, n - 1))] = draw(_OTHER_CELLS)
            else:
                separator = draw(st.sampled_from(_OTHER_SEPARATORS))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + separator.join(cells))
    return lines


def _metric_case(schema):
    width = len(SYSTEM_COLUMNS if schema == "system" else ARCH_COLUMNS)
    return metric_lines(width).map(lambda lines: (schema, lines))


def _arch_row(stamp, cell="1", separator=" "):
    return separator.join([stamp] + [cell] * (len(ARCH_COLUMNS) - 1))


@given(
    case=st.sampled_from(["architecture", "system"]).flatmap(_metric_case),
    end=st.sampled_from(["", "\n"]),
)
# A wrong-width digit row after a line float() alone reads.
@example(case=("architecture", [_arch_row("1", "1_0"), "1 2 3"]), end="\n")
# A wrong-width line float() alone reads, between digit rows.
@example(case=("architecture", [_arch_row("1"), "1_0 2", _arch_row("3")]), end="")
# Wrong-width lines of both kinds: the first one is named.
@example(case=("architecture", [_arch_row("1"), "1 2 3", "1_0 2"]), end="")
@example(case=("architecture", ["1_0 2", "1 2 3", _arch_row("1")]), end="")
# Rows of both readers on one timestamp: the later line wins.
@example(case=("architecture", [_arch_row("2", "1\x0b"), _arch_row("2", "3")]), end="")
@example(case=("architecture", [_arch_row("2", "3"), _arch_row("2", "4", "\x1c")]), end="")
# A plain token float() rejects, between rows of both readers.
@example(case=("architecture", [_arch_row("1", "1_0"), _arch_row("2", "1.2.3"),
                                _arch_row("1")]), end="\n")
# No digit row; only blank lines.
@example(case=("architecture", [_arch_row("1", "nan"), "\x0b", " "]), end="")
@example(case=("architecture", ["", " \t", "\t"]), end="\n")
# Digit files. The largest int64 cell; a 20-digit cell, read by the float
# reader to the same bits; a cell that rounds to even; leading zeros.
@example(case=("architecture", [_arch_row("1", "9223372036854775807")]), end="")
@example(case=("architecture", [_arch_row("1", "99999999999999999999"), _arch_row("2")]), end="")
@example(case=("architecture", [_arch_row("1", "9007199254740993")]), end="\n")
@example(case=("architecture", [_arch_row("007", "007")]), end="")
# A "-0" row among digit rows: the float reader keeps -0.0.
@example(case=("architecture", [_arch_row("1"), _arch_row("2", "-0"), _arch_row("3")]), end="")
# A wrong-width digit row: the first wrong-width line is named.
@example(case=("architecture", [_arch_row("1"), "2 3 4", _arch_row("3"), "5 6"]), end="")
@example(case=("architecture", ["2 3 4", "5 6 7"]), end="")
# Digit rows one cell short and one long, so the file's cell count is right.
@example(case=("architecture", [_arch_row("1") + " 5", _arch_row("2").rsplit(" ", 1)[0]]), end="")
@example(case=("architecture", [_arch_row("1").rsplit(" ", 1)[0], _arch_row("2") + " 5"]), end="")
# A cell above int64, which the int64 scan saturates.
@example(case=("architecture", [_arch_row("1"), _arch_row("2", "9223372036854775808")]), end="")
# Tab-separated digit rows; an n/a line between digit rows.
@example(case=("architecture", [_arch_row("1", "3", "\t"), _arch_row("2", "4", "\t")]), end="\n")
@example(case=("architecture", [_arch_row("1"), _arch_row("2", "n/a"), _arch_row("3")]), end="")
# Whitespace alone.
@example(case=("architecture", [" "]), end="")
@example(case=("architecture", ["\t \t", " "]), end="\n")
# Digit rows around a row that float() alone reads.
@example(case=("architecture", [_arch_row("1", "12"), _arch_row("2", "34", " \x0b "),
                                _arch_row("3", "56")]), end="\n")
# The bytes on either side of the digits, ":" above "9" and "/" below "0";
# a NUL and a DEL byte; a digit row that ends in a tab.
@example(case=("architecture", [_arch_row("1"), _arch_row("2", "1:2"), _arch_row("3", "12:")]),
         end="")
@example(case=("architecture", [_arch_row("1"), _arch_row("2", "1/2"), _arch_row("3", "/5")]),
         end="\n")
@example(case=("architecture", [_arch_row("1", "\x00"), _arch_row("2"), _arch_row("3", "7\x7f")]),
         end="")
@example(case=("architecture", [_arch_row("1") + "\t", _arch_row("2", "3", "\t") + "\t"]), end="")
def test_parse_metric_file_equals_per_row_oracle(case, end):
    schema, lines = case
    text = "\n".join(lines) + end
    try:
        expected, expected_errors = oracle_parse(text.split("\n"), schema)
    except IngestError as exc:
        with pytest.raises(IngestError) as err:
            parse_metric_file(text, schema)
        assert str(err.value) == str(exc)
        return
    block, report = parse_metric_file(text, schema)
    assert report.errors == expected_errors
    assert block.timestamps.tolist() == [row.timestamp_ms for row in expected]
    # Bit for bit, signed zeros included.
    assert block.values.tobytes() == block_of(expected, schema).values.tobytes()
    # The same file as a list of lines, with or without their "\n".
    for given_lines in (text.split("\n"), [line + "\n" for line in text.split("\n")]):
        again, again_report = parse_metric_file(given_lines, schema)
        assert again_report.errors == expected_errors
        assert again.values.tobytes() == block.values.tobytes()


def _inner_newline(row, at=1):
    """The row with its at-th space replaced by a "\n"."""
    cells = row.split(" ")
    return " ".join(cells[:at]) + "\n" + " ".join(cells[at:])


@pytest.mark.parametrize("items", [
    # A digit row among digit rows, with and without its own line end.
    [_arch_row("1"), _inner_newline(_arch_row("2")), _inner_newline(_arch_row("3"), 7) + "\n"],
    # Plain rows, and a row with a cell float() rejects.
    [_arch_row("1", "0.5"), _inner_newline(_arch_row("2", "1e3"), 5),
     _inner_newline(_arch_row("3", "n/a")) + "\n", _arch_row("4", "2.5")],
    # A wrong-width row: the first wrong-width line is named.
    [_arch_row("1"), _inner_newline("2 3 4"), "5 6"],
])
def test_line_list_item_with_an_inner_newline_is_one_line(items):
    """A list item that holds a "\n" of its own is one line, whose cells
    that "\n" separates as a space does."""
    spaced = [(item[:-1] if item.endswith("\n") else item).replace("\n", " ") for item in items]
    try:
        expected, expected_errors = oracle_parse(spaced, "architecture")
    except IngestError as exc:
        with pytest.raises(IngestError) as err:
            parse_metric_file(items, "architecture")
        assert str(err.value) == str(exc)
        return
    block, report = parse_metric_file(items, "architecture")
    assert report.errors == expected_errors
    assert block.timestamps.tolist() == [row.timestamp_ms for row in expected]
    assert block.values.tobytes() == block_of(expected, "architecture").values.tobytes()
