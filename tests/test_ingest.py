import json

import pytest

from conftest import arch_row, system_row
from stagelens.ingest import (
    ARCH_COLUMNS,
    METRIC_SCHEMA,
    SYSTEM_COLUMNS,
    IngestError,
    derive_metrics,
    derive_series,
    ingest_raw,
    parse_metric_file,
    parse_spark_event_log,
)
from stagelens.model import Locality
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


def test_sample_task_end_record():
    trace, report = parse_spark_event_log([json.dumps(TABLE_SAMPLE)])
    (stage,) = list(trace.stages())
    (task,) = stage.tasks
    assert task.task_id == "2"
    assert task.stage_id == "0"
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


def row_text(ts, n_cols, fill=1.0):
    return " ".join([str(ts)] + [str(fill)] * (n_cols - 1))


def test_metric_rows_ordered_and_duplicates_collapse():
    n = len(SYSTEM_COLUMNS)
    lines = [row_text(20, n, 2.0), row_text(10, n, 1.0), row_text(20, n, 3.0)]
    rows, report = parse_metric_file(lines, "system")
    assert [r.timestamp_ms for r in rows] == [10_000, 20_000]
    assert rows[1].counters[0] == 3.0  # last duplicate wins
    assert not report.errors


def test_column_mismatch_is_hard_error():
    with pytest.raises(IngestError) as err:
        parse_metric_file([row_text(10, 10)], "system")
    assert str(len(SYSTEM_COLUMNS)) in str(err.value)
    assert "10" in str(err.value)


def test_non_numeric_cell_is_recoverable():
    n = len(SYSTEM_COLUMNS)
    bad = row_text(10, n).replace("1.0", "oops", 1)
    rows, report = parse_metric_file([bad, row_text(20, n)], "system")
    assert len(rows) == 1
    assert report.errors and report.errors[0][0] == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_cell_is_recoverable(cell):
    n = len(SYSTEM_COLUMNS)
    bad = row_text(10, n).replace("1.0", cell, 1)
    rows, report = parse_metric_file([row_text(5, n), bad, row_text(20, n)], "system")
    assert [r.timestamp_ms for r in rows] == [5_000, 20_000]
    assert report.errors == [(2, "non-finite cell")]


def test_sixty_rows_at_one_hz_span_59s():
    n = len(SYSTEM_COLUMNS)
    rows, _ = parse_metric_file([row_text(100 + i, n) for i in range(60)], "system")
    assert rows[-1].timestamp_ms - rows[0].timestamp_ms == 59_000


def test_blank_lines_and_whitespace_ignored():
    n = len(SYSTEM_COLUMNS)
    rows, report = parse_metric_file(["", "  ", row_text(5, n) + "   \n"], "system")
    assert len(rows) == 1 and not report.errors


def test_zero_delta_interval():
    prev = system_row(1_000)
    curr = system_row(2_000)
    sample = derive_metrics(prev, curr, "system")
    assert sample.values["cpu_usage"] == 0.0
    assert sample.values["ioWaitRatio"] == 0.0
    for band in ("diskR_band", "diskW_band", "netS_band", "netR_band", "weighted_io"):
        assert sample.values[band] == 0.0
    arch = derive_metrics(arch_row(1_000), arch_row(2_000), "architecture")
    assert "IPC" not in arch.values  # 0/0 is missing, not zero


def test_cpu_usage_from_deltas():
    prev = system_row(1_000, usr=100.0, idle=100.0)
    curr = system_row(2_000, usr=150.0, idle=150.0)
    sample = derive_metrics(prev, curr, "system")
    assert sample.values["cpu_usage"] == pytest.approx(0.5)


def test_ipc_and_mpki():
    prev = arch_row(1_000)
    curr = arch_row(2_000, ins=2e9, cycle=1e9, L3_miss=1e6)
    sample = derive_metrics(prev, curr, "architecture")
    assert sample.values["IPC"] == pytest.approx(2.0)
    assert sample.values["L3_MPKI"] == pytest.approx(0.5)


def test_mem_usage_is_instantaneous():
    prev = system_row(1_000)
    curr = system_row(2_000)
    sample = derive_metrics(prev, curr, "system")
    assert sample.values["mem_usage"] == pytest.approx(1 - 24 / 32)


def test_counter_wrap_goes_missing_by_default():
    prev = system_row(1_000, io_time_weighted=4294936240.0)
    curr = system_row(2_000, io_time_weighted=258900.0)
    assert "weighted_io" not in derive_metrics(prev, curr, "system").values


def test_wrap_detection_off_reproduces_negative_rate():
    prev = system_row(1_000, io_time_weighted=4294936240.0)
    curr = system_row(2_000, io_time_weighted=258900.0)
    sample = derive_metrics(prev, curr, "system", wrap_detection=False)
    assert sample.values["weighted_io"] < -4e6


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
        for sample in (
            derive_metrics(prev, curr, "system"),
            derive_metrics(arch_prev, arch_curr, "architecture"),
        ):
            for name, value in sample.values.items():
                if name in ratio_metrics:
                    assert 0.0 <= value <= 1.0
                elif name.endswith("_band") or name == "weighted_io":
                    assert value >= 0.0


def test_seconds_and_milliseconds_normalize():
    rows, _ = parse_metric_file(
        [row_text(1456896044, len(SYSTEM_COLUMNS))], "system"
    )
    assert rows[0].timestamp_ms == 1456896044000
    rows, _ = parse_metric_file(
        [row_text(1456896044081, len(SYSTEM_COLUMNS))], "system"
    )
    assert rows[0].timestamp_ms == 1456896044081


def test_arch_schema_width_matches_table():
    assert len(ARCH_COLUMNS) == 21  # timestamp + 20 counters, unc_* parsed unused


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


def test_derive_series_pairs():
    rows = [system_row(1_000), system_row(2_000, usr=50.0, idle=50.0), system_row(3_000, usr=100.0, idle=100.0)]
    samples = derive_series(rows, "system", "hw01")
    assert [s.timestamp for s in samples] == [2_000, 3_000]
    assert all(s.node == "hw01" for s in samples)
