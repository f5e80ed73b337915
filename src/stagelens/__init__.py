"""stagelens: stage-centric performance diagnosis for distributed clusters.

The package namespace is lazy (PEP 562): ``import stagelens`` loads no
detector, no report, ingest or evaluation code, so a process that only
simulates and saves a trace does not compile them. The first use of a
public name, or of a submodule as ``stagelens.<module>``, imports its module
and keeps the value in this namespace. The import still fixes glibc's
malloc thresholds (see ``_alloc``).
"""

import importlib

__version__ = "0.1.0"

from ._alloc import fix_malloc_thresholds

fix_malloc_thresholds()

#: Each public name -> the submodule that defines it.
_EXPORTS = {
    "ImbalanceConfig": "appdetect",
    "PlacementConfig": "appdetect",
    "detect_skew_data_size": "appdetect",
    "detect_stragglers": "appdetect",
    "detect_uneven_placement": "appdetect",
    "detect_workload_imbalance": "appdetect",
    "judge_job_imbalance": "appdetect",
    "FeatureDatasets": "correlate",
    "StageWindow": "correlate",
    "UltrashortPolicy": "correlate",
    "build_datasets": "correlate",
    "slice_metrics": "correlate",
    "stage_window": "correlate",
    "Score": "evaluate",
    "score": "evaluate",
    "score_report": "evaluate",
    "ingest_raw": "ingest",
    "parse_metric_file": "ingest",
    "parse_spark_event_log": "ingest",
    "OutlierConfig": "metricdetect",
    "db_outlier_oracle": "metricdetect",
    "detect_metric_outliers": "metricdetect",
    "diagnose_outlier_metrics": "metricdetect",
    "minmax_normalize": "metricdetect",
    "pca_select_metrics": "metricdetect",
    "reduce_fft": "metricdetect",
    "METRIC_SCHEMA": "model",
    "ClockGroup": "model",
    "ClockGroups": "model",
    "Finding": "model",
    "FindingKind": "model",
    "Job": "model",
    "Locality": "model",
    "MetricSeriesError": "model",
    "MetricStore": "model",
    "Stage": "model",
    "Task": "model",
    "TaskTable": "model",
    "Trace": "model",
    "SimilarityConfig": "nodedetect",
    "cosine_similarity": "nodedetect",
    "detect_abnormal_nodes": "nodedetect",
    "DiagnosisReport": "report",
    "PipelineConfig": "report",
    "diagnose": "report",
    "parse_report": "report",
    "render_report": "report",
    "FaultKind": "simulate",
    "FaultSpec": "simulate",
    "LabeledAnomaly": "simulate",
    "ScenarioSpec": "simulate",
    "generate_trace": "simulate",
    "preset": "simulate",
    "load_trace": "traceio",
    "save_trace": "traceio",
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
