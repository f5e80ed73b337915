"""The benchmark's traced replay (perfbench/spans.py) calls stagelens layer by
layer through its public functions; this guards that interface on a tiny
trace, much faster than perfbench/smoke.py."""

import importlib
from collections import defaultdict
from pathlib import Path

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
