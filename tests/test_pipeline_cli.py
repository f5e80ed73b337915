import json
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import row_groups, store_from_samples
from stagelens.appdetect import detect_stragglers
from stagelens.cli import _build_parser, _resolve_config, main
from stagelens.report import (
    CONFIG_KEYS,
    DiagnoseError,
    PipelineConfig,
    config_from_mapping,
    diagnose,
    parse_report,
    read_config_file,
    render_report,
)
from stagelens.simulate import (
    _PRESET_NAMES,
    ScenarioSpec,
    emit_scenario,
    generate_trace,
    preset,
    save_labels,
)
from stagelens.model import TaskTable, Trace

MEAN_MEDIAN = PipelineConfig(representative="median", dmin=0.5)


def test_case1_report_sections():
    trace, _ = generate_trace(preset("case1", seed=1))
    report = diagnose(trace, MEAN_MEDIAN)
    stage = report.stages[0]
    assert any(n == "hw05" and loc == "ANY" for n, loc, _ in stage.placement)
    assert stage.abnormal_nodes == ["hw05"]
    assert stage.skew_nodes == [] and stage.skew_tasks == []
    text = render_report(report, "text").decode()
    assert "Skew data size: Null" in text
    assert "Uneven data placement: hw05 [ANY:" in text
    assert "Detected abnormal node: hw05" in text


def test_clean_trace_renders_all_null():
    trace, _ = generate_trace(ScenarioSpec(seed=21, nodes=4, stages=1, tasks_per_stage=16))
    report = diagnose(trace, PipelineConfig())
    text = render_report(report, "text").decode()
    assert "Detected straggle outlier node: Null" in text
    assert "Detected workload imbalance: Null" in text
    assert "Skew data size: Null" in text
    assert "Uneven data placement: Null" in text
    assert "Detected abnormal node: Null" in text
    assert text.count(": Null") >= 6


def test_case3_fft_mode_flags_both_nodes():
    trace, _ = generate_trace(preset("case3", seed=2))
    cfg = PipelineConfig(transform="fft", representative="median", dmin=0.5)
    report = diagnose(trace, cfg)
    stage = report.stages[0]
    assert stage.outliers.get("hw02") == ["L3_MPKI"]
    assert stage.outliers.get("hw06") == ["L3_MPKI"]
    assert stage.abnormal_nodes == []
    assert "[FFT,median,CCRate_d=0.95,dmin=0.5]" in render_report(report, "text").decode()


def test_case2_mode_tuple_line():
    trace, _ = generate_trace(preset("case2", seed=1))
    text = render_report(diagnose(trace, MEAN_MEDIAN), "text").decode()
    assert "[Mean-Value,median,CCRate_d=0.95,dmin=0.5]" in text


def test_structured_round_trip_is_byte_identical():
    trace, _ = generate_trace(preset("case2", seed=3))
    report = diagnose(trace, MEAN_MEDIAN)
    payload = render_report(report, "structured")
    reparsed = parse_report(payload)
    assert render_report(reparsed, "structured") == payload


def test_derived_views_survive_structured_round_trip():
    views = ("stragglers", "imbalance_nodes", "skew_nodes", "skew_tasks", "placement",
             "abnormal_nodes", "outliers", "similarity", "warnings")
    for case in ("case1", "case2", "case3"):
        trace, _ = generate_trace(preset(case, seed=1))
        report = diagnose(trace, MEAN_MEDIAN)
        reparsed = parse_report(render_report(report, "structured"))
        assert len(reparsed.stages) == len(report.stages)
        for before, after in zip(report.stages, reparsed.stages):
            for view in views:
                assert getattr(after, view) == getattr(before, view), (case, view)


def test_old_report_schema_rejected():
    trace, _ = generate_trace(preset("case1", seed=1))
    data = json.loads(render_report(diagnose(trace, MEAN_MEDIAN), "structured"))
    data["schema"] = "stagelens-report/1"
    with pytest.raises(DiagnoseError, match="stagelens-report/2"):
        parse_report(json.dumps(data).encode())


def test_all_failed_stage_warns_no_successful_tasks():
    trace, _ = generate_trace(preset("case1", seed=1))
    stage = next(trace.stages())
    stage.tasks = TaskTable.from_rows(task._replace(succeeded=False) for task in stage.tasks)
    warnings = diagnose(trace, PipelineConfig()).stages[0].warnings
    assert "skew screen not evaluable (no successful tasks)" in warnings
    assert not any("median data size" in w for w in warnings)


def test_gap_node_is_named_in_one_warning():
    trace, _ = generate_trace(preset("case1", seed=1))
    trace.metrics = row_groups({**trace.metrics, "hw02": store_from_samples("hw02", [])})
    for stage in diagnose(trace, MEAN_MEDIAN).stages:
        assert [w for w in stage.warnings if "hw02" in w] == [
            "no in-window metric samples for: hw02"
        ]


def test_every_finding_appears_once_in_structured_report():
    trace, _ = generate_trace(preset("case1", seed=4))
    report = diagnose(trace, MEAN_MEDIAN)
    data = json.loads(render_report(report, "structured"))
    flat = [f for s in data["stages"] for f in s["findings"]]
    keys = [(f["kind"], f["stage_id"], tuple(f["subjects"])) for f in flat]
    assert len(keys) == len(set(keys))
    assert len(flat) == len(report.findings())


def test_identical_inputs_render_identically(tmp_path):
    from stagelens.traceio import load_trace, save_trace

    trace, _ = generate_trace(preset("case1", seed=5))
    save_trace(trace, str(tmp_path / "t"))
    reloaded = load_trace(str(tmp_path / "t"))
    a = render_report(diagnose(trace, MEAN_MEDIAN), "structured")
    b = render_report(diagnose(reloaded, MEAN_MEDIAN), "structured")
    assert a == b


def test_diagnose_rejects_empty_trace():
    with pytest.raises(DiagnoseError):
        diagnose(Trace(cluster=["hw01"]), PipelineConfig())


def test_unknown_format_rejected():
    trace, _ = generate_trace(ScenarioSpec(seed=1, nodes=2, stages=1, tasks_per_stage=4))
    report = diagnose(trace, PipelineConfig())
    with pytest.raises(DiagnoseError):
        render_report(report, "yaml")


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "stagelens.conf"
    cfg_file.write_text(
        "# thresholds\n"
        "bc = 0.2\n"
        "th_simi = 0.4\n"
        "dmin = 0.5\n"
        "representative = median\n"
        "pri_any = 3\n"
    )
    cfg = config_from_mapping(read_config_file(str(cfg_file)))
    assert cfg.bc == 0.2
    assert cfg.th_simi == 0.4
    assert cfg.representative == "median"
    assert cfg.pri_any == 3.0
    # unchanged keys keep their documented defaults
    assert cfg.th_size == 1.5 and cfg.th_d == 1.5


_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
_WEIGHT = st.floats(0, allow_infinity=False)
# Valid values of every configuration key.
_VALID = {
    "bc": _UNIT,
    "th_ub": st.floats(0, 1, exclude_min=True),
    "th_size": st.floats(1, exclude_min=True),
    "th_d": st.floats(1, exclude_min=True),
    "th_simi": _UNIT,
    "flag_small": st.booleans(),
    "transform": st.sampled_from(["mean", "fft"]),
    "representative": st.sampled_from(["median", "max_min"]),
    "dmin": _UNIT,
    "ccrate": st.floats(0, 1, exclude_min=True),
    "magnitude_gap": st.integers(1, 10**6),
    "ultrashort_absolute_ms": st.integers(0, 10**12),
    "ultrashort_median_fraction": st.floats(0, 1),
    "homogeneous": st.booleans(),
    **{key: _WEIGHT for key in CONFIG_KEYS if key.startswith("pri_")},
}


@given(st.sampled_from(list(_VALID)).flatmap(lambda key: st.tuples(st.just(key), _VALID[key])))
def test_each_config_key_is_the_field_and_flag_of_that_name(item):
    """The PipelineConfig fields, CONFIG_KEYS and the diagnose flags are one
    list, and a key's text sets the field of its name to the value."""
    assert [f.name for f in fields(PipelineConfig)] == list(CONFIG_KEYS) == list(_VALID)
    key, value = item
    text = str(value)
    flag = "--" + key.replace("_", "-")
    args = _build_parser().parse_args(["diagnose", "--trace", "t", f"{flag}={text}"])
    assert getattr(args, key) == text
    assert config_from_mapping({key: text}) == PipelineConfig(**{key: value})


def test_unknown_config_key_rejected():
    with pytest.raises(DiagnoseError, match="unknown configuration key"):
        config_from_mapping({"thsimi": "0.4"})


@pytest.mark.parametrize(
    "raw,expected",
    [("1", True), ("TRUE", True), (" Yes ", True), ("on", True),
     ("0", False), ("False", False), ("NO", False), ("off", False)],
)
def test_boolean_config_words(raw, expected):
    assert config_from_mapping({"homogeneous": raw}).homogeneous is expected
    assert config_from_mapping({"flag_small": raw}).flag_small is expected


@pytest.mark.parametrize("raw", ["ture", "", "2", "y"])
def test_unknown_boolean_config_word_rejected(raw):
    with pytest.raises(DiagnoseError) as err:
        config_from_mapping({"homogeneous": raw})
    assert "'homogeneous'" in str(err.value)
    assert repr(raw) in str(err.value)


def test_cli_rejects_unknown_boolean_word(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    trace_dir = tmp_path / "trace"
    emit_scenario(preset("case1", seed=1), str(trace_dir))
    assert main(["diagnose", "--trace", str(trace_dir), "--homogeneous", "ture"]) == 2
    err = capsys.readouterr().err
    assert "'ture'" in err and "'homogeneous'" in err


def test_bad_config_values_rejected():
    with pytest.raises(ValueError, match="balance coefficient"):
        config_from_mapping({"bc": "1.4"})
    with pytest.raises(ValueError, match="dmin"):
        PipelineConfig(dmin=2)
    # The skew and straggler screens' rule, checked before any stage is
    # diagnosed: each threshold is a multiple of a median.
    for name in ("th_size", "th_d"):
        for value in (0.5, 1.0, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must exceed 1$"):
                PipelineConfig(**{name: value})
    with pytest.raises(ValueError, match="^th_d must exceed 1$"):
        detect_stragglers({"n1": 1.0, "n2": 3.0}, th_d=1.0)
    with pytest.raises(ValueError, match="^ultrashort_absolute_ms must be nonnegative$"):
        PipelineConfig(ultrashort_absolute_ms=-1)
    for fraction in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"^ultrashort_median_fraction must be in \[0,1\]$"):
            PipelineConfig(ultrashort_median_fraction=fraction)
    for weight in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^priority for ANY must be finite and nonnegative$"):
            PipelineConfig(pri_any=weight)


def test_cli_rejects_th_size_at_most_one(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    emit_scenario(preset("case1", seed=1), str(tmp_path))
    assert main(["diagnose", "--trace", str(tmp_path), "--th-size", "0.5"]) == 2
    assert capsys.readouterr().err == "error: th_size must exceed 1\n"


@pytest.mark.parametrize("flags, error", [
    (["--th-d", "0"], "th_d must exceed 1"),
    (["--ultrashort-median-fraction", "nan"], "ultrashort_median_fraction must be in [0,1]"),
    (["--ultrashort-absolute-ms", "-1"], "ultrashort_absolute_ms must be nonnegative"),
])
def test_cli_rejects_th_d_and_ultrashort_values_out_of_range(
    tmp_path, capsys, monkeypatch, flags, error
):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    assert main(["diagnose", "--trace", str(tmp_path / "missing"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
def test_cli_rejects_locality_weights_not_finite_and_nonnegative(
    tmp_path, capsys, monkeypatch, weight
):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    assert main(["diagnose", "--trace", str(tmp_path / "missing"), f"--pri-any={weight}"]) == 2
    assert capsys.readouterr().err == "error: priority for ANY must be finite and nonnegative\n"


def test_cli_checks_config_before_loading_the_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    assert main(["diagnose", "--trace", str(tmp_path / "missing"), "--dmin", "2"]) == 2
    assert capsys.readouterr().err == "error: dmin must be in (0,1)\n"


def test_cli_flag_beats_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    cfg_file = tmp_path / "conf"
    cfg_file.write_text("dmin = 0.9\nrepresentative = median\n")
    args = _build_parser().parse_args(
        ["diagnose", "--trace", "t", "--config", str(cfg_file), "--dmin", "0.5"]
    )
    cfg = _resolve_config(args)
    assert cfg.dmin == 0.5
    assert cfg.representative == "median"


def test_cli_priority_flag_reaches_config(monkeypatch):
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    args = _build_parser().parse_args(["diagnose", "--trace", "t", "--pri-any", "3"])
    assert _resolve_config(args).pri_any == 3.0


def test_cli_diagnose_at_ccrate_one(tmp_path, capsys, monkeypatch):
    """On case1 no cumulative contribution reaches 1.0 after rounding; PCA
    keeps every dimension instead of raising StopIteration."""
    monkeypatch.delenv("STAGELENS_CONFIG", raising=False)
    trace_dir = tmp_path / "trace"
    emit_scenario(preset("case1", seed=1), str(trace_dir))
    assert main(["diagnose", "--trace", str(trace_dir), "--ccrate", "1.0"]) == 1  # findings
    assert "CCRate_d=1," in capsys.readouterr().out


def test_cli_rejects_removed_pct_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--trace", str(tmp_path), "--pct", "1.0"])
    assert exc.value.code == 2


def test_cli_simulate_diagnose_evaluate(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert main(["simulate", "--preset", "case1", "--seed", "1", "--out", str(trace_dir)]) == 0
    assert (trace_dir / "labels.jsonl").exists()

    report_file = tmp_path / "report.json"
    code = main(
        [
            "diagnose",
            "--trace", str(trace_dir),
            "--format", "structured",
            "--out", str(report_file),
            "--representative", "median",
            "--dmin", "0.5",
        ]
    )
    assert code == 1  # findings present
    payload = parse_report(report_file.read_bytes())
    assert payload.findings()

    assert main(
        [
            "evaluate",
            "--report", str(report_file),
            "--labels", str(trace_dir / "labels.jsonl"),
            "--kind", "AbnormalNode",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "precision=1.0000" in out


def test_cli_evaluate_names_a_missing_labels_file(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    report = diagnose(generate_trace(preset("case1"))[0])
    report_file.write_bytes(render_report(report, "structured"))
    labels = tmp_path / "labels.jsonl"
    assert main(["evaluate", "--report", str(report_file), "--labels", str(labels)]) == 2
    assert str(labels) in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"schema":"stagelens-report/2"}', "structured report lacks field 'mode_label'"),
        ('{"mode_label":"m","schema":"stagelens-report/2","stages":[{"findings":[{'
         '"kind":"Straggler","score":2.0,"subjects":["hw01"],"threshold":1.5}],'
         '"stage_id":"s0"}]}', "structured report lacks field 'stage_id'"),
        ("[1]", "structured report must be a JSON object"),
        ('{"jobs":[{"job_id":"j0"}],"mode_label":"m","schema":"stagelens-report/2"}',
         "malformed structured report: "),
    ],
    ids=["no-mode-label", "finding-without-stage-id", "not-an-object", "short-job"],
)
def test_cli_evaluate_rejects_malformed_report(tmp_path, capsys, document, message):
    """A structured report that is not one exits 2 with the field it lacks,
    not a traceback."""
    report_file = tmp_path / "report.json"
    report_file.write_text(document + "\n")
    labels = tmp_path / "labels.jsonl"
    save_labels([], str(labels))
    assert main(["evaluate", "--report", str(report_file), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_evaluate_rejects_malformed_labels(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert main(["simulate", "--preset", "case1", "--seed", "1", "--out", str(trace_dir)]) == 0
    report_file = tmp_path / "report.json"
    main(["diagnose", "--trace", str(trace_dir), "--format", "structured",
          "--out", str(report_file)])
    labels = trace_dir / "labels.jsonl"
    header = labels.read_text().splitlines()[0]
    labels.write_text(header + "\n" + '{"node":"hw05","stage_id":"stage_0"}\n')
    capsys.readouterr()
    assert main(["evaluate", "--report", str(report_file), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == (
        f"error: {labels}:2: missing required field 'expected'\n"
    )


def test_cli_clean_trace_exits_zero(tmp_path, capsys):
    trace_dir = tmp_path / "clean"
    emit_scenario(ScenarioSpec(seed=2, nodes=4, stages=1, tasks_per_stage=16), str(trace_dir))
    assert main(["diagnose", "--trace", str(trace_dir)]) == 0
    assert "Null" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["diagnose", "--trace", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_env_config(tmp_path, capsys, monkeypatch):
    cfg_file = tmp_path / "conf"
    cfg_file.write_text("dmin = 0.5\nrepresentative = median\n")
    monkeypatch.setenv("STAGELENS_CONFIG", str(cfg_file))
    trace_dir = tmp_path / "trace"
    emit_scenario(preset("case2", seed=1), str(trace_dir))
    assert main(["diagnose", "--trace", str(trace_dir)]) == 1
    out = capsys.readouterr().out
    assert "[Mean-Value,median,CCRate_d=0.95,dmin=0.5]" in out


def test_cli_ingest(tmp_path, capsys):
    events = tmp_path / "app.log"
    record = {
        "Event": "SparkListenerTaskEnd",
        "Stage ID": 0,
        "Task End Reason": {"Reason": "Success"},
        "Task Info": {
            "Task ID": 1,
            "Launch Time": 1456896044081,
            "Finish Time": 1456896045955,
            "Host": "hw073",
            "Locality": "PROCESS_LOCAL",
        },
        "Task Metrics": {},
    }
    events.write_text(json.dumps(record) + "\n")
    out_dir = tmp_path / "trace"
    assert main(["ingest", "--events", str(events), "--out", str(out_dir)]) == 0
    from stagelens.traceio import load_trace

    trace = load_trace(str(out_dir))
    assert trace.cluster == ["hw073"]


@pytest.mark.parametrize("name", _PRESET_NAMES)
def test_every_preset_name_parses(name):
    """The simulate --preset choices are the simulator's preset table."""
    args = _build_parser().parse_args(["simulate", "--preset", name, "--out", "x"])
    assert args.preset == name
