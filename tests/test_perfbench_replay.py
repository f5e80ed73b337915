"""The benchmark's traced replay (perfbench/spans.py) calls stagelens layer by
layer through its public functions; this guards that interface on tiny
inputs, much faster than perfbench/smoke.py."""

import importlib
import os
from collections import defaultdict
from pathlib import Path

from stagelens.ingest import ingest_raw
from stagelens.report import PipelineConfig, diagnose, render_report
from stagelens.simulate import FaultKind, FaultSpec, ScenarioSpec, generate_trace
from stagelens.traceio import load_trace, save_trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_report_matches_diagnose(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")

    spec = ScenarioSpec(
        seed=5, nodes=5, stages=2, tasks_per_stage=20, metric_rate_hz=2.0,
        faults=(FaultSpec(FaultKind.CACHE_FLUSH, ("hw02",)),),
    )
    trace, _ = generate_trace(spec)
    save_trace(trace, str(tmp_path))
    cfg = PipelineConfig(transform="fft", representative="median", dmin=0.5)

    counts = defaultdict(float)
    text, _ = spans.traced_report(spans.Spans(), counts, str(tmp_path), cfg)

    assert text == render_report(diagnose(load_trace(str(tmp_path)), cfg))
    assert counts["traceio.samples"] == sum(len(s) for s in trace.metrics.values())
    assert counts["correlate.window_samples"] > 0


def test_traced_ingest_matches_ingest_raw(tmp_path, monkeypatch):
    """traced_ingest calls parse_metric_file and derive_series by name, and
    counts the rows parse_metric_file keeps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rawgen = importlib.import_module("rawgen")
    size = importlib.import_module("workloads").RAW_SIZES["tiny"]
    raw = rawgen.write_raw_inputs(str(tmp_path / "raw"), 1, size)

    counts = defaultdict(float)
    spans.traced_ingest(spans.Spans(), counts, raw["events"], raw["metrics_dir"],
                        str(tmp_path / "traced"))
    trace, _ = ingest_raw(raw["events"], raw["metrics_dir"])
    save_trace(trace, str(tmp_path / "direct"))

    names = sorted(os.listdir(tmp_path / "direct"))
    assert names == sorted(os.listdir(tmp_path / "traced"))
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
    # Every counter file has one row per second; each malformed line drops one.
    assert counts["ingest.rows"] == size.nodes * 2 * size.rows - size.bad_metric_lines
