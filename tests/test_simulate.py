import json
import os
from unittest import mock

import numpy as np
import pytest

from stagelens import simulate
from stagelens.correlate import build_datasets, slice_metrics, stage_window
from stagelens.model import ClockGroup, FindingKind
from stagelens.report import PipelineConfig, diagnose
from stagelens.simulate import (
    BASELINE_V1,
    FaultKind,
    FaultSpec,
    ScenarioError,
    ScenarioSpec,
    emit_scenario,
    generate_trace,
    load_labels,
    preset,
    save_labels,
)
from stagelens.traceio import load_trace, save_trace


def test_simulator_hands_over_its_block():
    """The trace holds one clock group, whose values share memory with the
    nodes x metrics x samples block the simulator built: no copy."""
    made = []

    def group(*args):
        made.append(args)
        return ClockGroup(*args)

    with mock.patch.object(simulate, "ClockGroup", group):
        trace, _ = generate_trace(preset("case3", seed=2))
    (args,) = made
    (held,) = trace.metrics.groups
    block = args[3]
    assert held.nodes == tuple(trace.cluster)
    assert held.values.shape == block.shape and np.shares_memory(held.values, block)


def test_same_seed_is_bitwise_identical(tmp_path):
    spec = preset("case2", seed=9)
    a, b = tmp_path / "a", tmp_path / "b"
    emit_scenario(spec, str(a))
    emit_scenario(spec, str(b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seeds_differ():
    t1, _ = generate_trace(preset("case1", seed=1))
    t2, _ = generate_trace(preset("case1", seed=2))
    assert t1 != t2


def test_clean_spec_has_no_labels_and_no_findings():
    spec = ScenarioSpec(seed=3, nodes=5, stages=2, tasks_per_stage=30)
    trace, labels = generate_trace(spec)
    assert labels == []
    report = diagnose(trace, PipelineConfig())
    assert report.findings() == []


# Each fault kind's ground truth as published; the DiskFill row is case2.
PUBLISHED_LABELS = {
    FaultKind.SLOW_NODE: {(FindingKind.STRAGGLER, None), (FindingKind.OUTLIER_METRIC, "IPC")},
    FaultKind.DISK_FILL: {
        (FindingKind.ABNORMAL_NODE, None),
        (FindingKind.OUTLIER_METRIC, "ioWaitRatio"),
        (FindingKind.OUTLIER_METRIC, "weighted_io"),
        (FindingKind.OUTLIER_METRIC, "cpu_usage"),
    },
    FaultKind.STRESS_INTERFERENCE: {
        (FindingKind.STRAGGLER, None),
        (FindingKind.OUTLIER_METRIC, "cpu_usage"),
        (FindingKind.OUTLIER_METRIC, "mem_usage"),
        (FindingKind.OUTLIER_METRIC, "ioWaitRatio"),
        (FindingKind.OUTLIER_METRIC, "weighted_io"),
    },
    FaultKind.CACHE_FLUSH: {(FindingKind.STRAGGLER, None), (FindingKind.OUTLIER_METRIC, "L3_MPKI")},
    FaultKind.UNEVEN_PLACEMENT: {
        (FindingKind.STRAGGLER, None),
        (FindingKind.UNEVEN_PLACEMENT, None),
        (FindingKind.ABNORMAL_NODE, None),
        (FindingKind.OUTLIER_METRIC, "netR_band"),
    },
    FaultKind.SKEW_DATA_SIZE: {(FindingKind.SKEW_DATA_SIZE, None)},
    FaultKind.TASK_IMBALANCE: {(FindingKind.WORKLOAD_IMBALANCE, None)},
}


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda kind: kind.value)
def test_labels_match_published_pattern(kind):
    spec = ScenarioSpec(seed=4, faults=(FaultSpec(kind, ("hw03",)),))
    if kind is FaultKind.DISK_FILL:
        assert spec == preset("case2", seed=4)
    trace, labels = generate_trace(spec)
    (label,) = labels
    assert label.node == "hw03"
    assert label.expected_findings == frozenset(PUBLISHED_LABELS[kind])


def test_case_presets_shapes():
    c1 = preset("case1")
    assert c1.nodes == 6
    assert [f.kind for f in c1.faults] == [FaultKind.UNEVEN_PLACEMENT]
    c3 = preset("case3")
    assert len(c3.faults[0].nodes) == 2
    corpus = preset("eval-corpus")
    assert len(corpus) == 50
    assert len({s.seed for s in corpus}) == 50
    assert {f.kind for s in corpus for f in s.faults} == set(FaultKind)
    # deterministic: the factory returns the same specs every call
    assert corpus == preset("eval-corpus")


def test_unknown_preset_lists_options():
    with pytest.raises(ScenarioError, match="case1"):
        preset("case9")


def test_fault_validation():
    with pytest.raises(ScenarioError, match="unknown node"):
        generate_trace(
            ScenarioSpec(seed=1, faults=(FaultSpec(FaultKind.SLOW_NODE, ("ghost",)),))
        )
    with pytest.raises(ScenarioError, match="unknown stage"):
        generate_trace(
            ScenarioSpec(
                seed=1,
                faults=(FaultSpec(FaultKind.SLOW_NODE, ("hw01",), stages=("stage_99",)),),
            )
        )
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.SLOW_NODE, ("hw01",), intensity=0.0)


def test_labels_round_trip(tmp_path):
    _, labels = generate_trace(preset("case3", seed=2))
    path = tmp_path / "labels.jsonl"
    save_labels(labels, str(path))
    assert load_labels(str(path)) == labels


@pytest.mark.parametrize(
    "line, rule",
    [
        ('{"node":"hw01","stage_id":"stage_0"}', "missing required field 'expected'"),
        ('{"expected":[],"node":"hw01"}', "missing required field 'stage_id'"),
        ('{"expected":[],"node":"hw01",', "invalid JSON"),
        ('{"expected":[["NoSuchKind",null]],"node":"hw01","stage_id":"stage_0"}',
         "bad expected findings: 'NoSuchKind' is not a valid FindingKind"),
        ('{"expected":[["OutlierMetric"]],"node":"hw01","stage_id":"stage_0"}',
         "bad expected findings"),
        ('{"expected":[],"node":1,"stage_id":"stage_0"}', "stage_id and node must be strings"),
        ('{"expected":[["OutlierMetric",5]],"node":"hw01","stage_id":"stage_0"}',
         "bad expected findings: metric 5 must be a string or null"),
        ('{"expected":[["Straggler",true]],"node":"hw01","stage_id":"stage_0"}',
         "bad expected findings: metric True must be a string or null"),
        ('{"expected":[["OutlierMetric",NaN]],"node":"hw01","stage_id":"stage_0"}',
         "non-finite number NaN is not allowed"),
        ('["stage_0"]', "record must be a JSON object"),
        ("\xff", "'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_malformed_label_row_rejected(tmp_path, line, rule):
    path = tmp_path / "labels.jsonl"
    save_labels([], str(path))
    path.write_bytes(path.read_bytes() + line.encode("latin-1") + b"\n")
    with pytest.raises(ScenarioError) as err:
        load_labels(str(path))
    assert str(err.value).startswith(f"{path}:2: {rule}")


@pytest.mark.parametrize(
    "header",
    [
        '{"entity":"labels","schema":"stagelens-trace/1"}',
        '{"entity":"labels"}',
        '{"entity":"labels","schema":"stagelens-labels/2"}',
    ],
)
def test_labels_header_must_name_the_labels_schema(tmp_path, header):
    path = tmp_path / "labels.jsonl"
    save_labels([], str(path))
    assert json.loads(path.read_text())["schema"] == "stagelens-labels/1"
    path.write_text(header + "\n")
    with pytest.raises(ScenarioError) as err:
        load_labels(str(path))
    assert str(err.value) == f"{path}:1: schema header must declare 'stagelens-labels/1'"


@pytest.mark.parametrize(
    "text, rule",
    [
        ("", "schema header must declare 'stagelens-labels/1'"),
        ('\n{"expected":[],"node":"hw01","stage_id":"stage_0"}\n', "invalid JSON: Expecting value"),
        ('{"expected":[],"node":"hw01","stage_id":"stage_0"}\n',
         "schema header must declare 'stagelens-labels/1'"),
    ],
    ids=["empty", "blank-first-line", "headerless"],
)
def test_labels_file_must_start_with_its_header(tmp_path, text, rule):
    """A labels file follows the trace files' header rule: an empty file, or
    one whose first line is blank, has no header and fails at line 1."""
    path = tmp_path / "labels.jsonl"
    path.write_text(text)
    with pytest.raises(ScenarioError) as err:
        load_labels(str(path))
    assert str(err.value) == f"{path}:1: {rule}"


def test_labels_file_bytes(tmp_path):
    """A labels file is its header, then one sorted-key line per label with
    its expected findings sorted."""
    path = tmp_path / "labels.jsonl"
    save_labels(generate_trace(preset("case1", seed=1))[1], str(path))
    assert path.read_text() == (
        '{"entity":"labels","schema":"stagelens-labels/1"}\n'
        '{"expected":[["AbnormalNode",null],["OutlierMetric","netR_band"],'
        '["Straggler",null],["UnevenPlacement",null]],"node":"hw05","stage_id":"stage_00"}\n'
    )


def test_label_soundness_metric_deviation():
    # every injected metric effect moves the target's window mean well past
    # the baseline jitter band
    from stagelens.simulate import _EFFECTS

    for name in ("case1", "case2", "case3"):
        spec = preset(name, seed=6)
        trace, _ = generate_trace(spec)
        stage = trace.jobs[0].stages[0]
        ds = build_datasets(stage, slice_metrics(trace, stage_window(stage)), trace.cluster)
        for fault in spec.faults:
            effects = _EFFECTS[fault.kind].metrics
            peers = [n for n in trace.cluster if n not in fault.nodes]
            for metric, (mult, _) in effects.items():
                mean_level, jitter = BASELINE_V1[metric]
                for node in fault.nodes:
                    deviation = abs(ds.vectors[node][metric] - ds.vectors[peers[0]][metric])
                    assert deviation >= fault.intensity * jitter * mean_level


def test_task_imbalance_shifts_counts():
    spec = ScenarioSpec(
        seed=5,
        nodes=6,
        stages=1,
        tasks_per_stage=60,
        faults=(FaultSpec(FaultKind.TASK_IMBALANCE, ("hw02",)),),
    )
    trace, labels = generate_trace(spec)
    stage = trace.jobs[0].stages[0]
    counts = {}
    for task in stage.tasks:
        counts[task.node] = counts.get(task.node, 0) + 1
    assert counts["hw02"] == 15
    assert all(c == 9 for n, c in counts.items() if n != "hw02")
    assert labels[0].expected_findings == frozenset({(FindingKind.WORKLOAD_IMBALANCE, None)})


def test_skew_fault_inflates_some_tasks():
    spec = ScenarioSpec(
        seed=5,
        nodes=4,
        stages=1,
        tasks_per_stage=20,
        faults=(FaultSpec(FaultKind.SKEW_DATA_SIZE, ("hw01",)),),
    )
    trace, _ = generate_trace(spec)
    sizes = {}
    for task in trace.jobs[0].stages[0].tasks:
        sizes.setdefault(task.node, []).append(task.data_size)
    assert max(sizes["hw01"]) > 3 * max(sizes["hw02"])


def test_metric_rate_controls_sampling():
    spec = ScenarioSpec(seed=2, nodes=2, stages=1, tasks_per_stage=4, metric_rate_hz=2.0)
    trace, _ = generate_trace(spec)
    series = trace.metrics["hw01"]
    assert series.timestamps[1] - series.timestamps[0] == 500


def test_trace_is_save_load_stable(tmp_path):
    trace, _ = generate_trace(preset("case1", seed=8))
    out = tmp_path / "t"
    save_trace(trace, str(out))
    assert load_trace(str(out)) == trace
