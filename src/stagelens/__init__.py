"""stagelens: stage-centric performance diagnosis for distributed clusters."""

__version__ = "0.1.0"

from ._alloc import fix_malloc_thresholds

fix_malloc_thresholds()

from .appdetect import (
    ImbalanceConfig,
    PlacementConfig,
    detect_skew_data_size,
    detect_stragglers,
    detect_uneven_placement,
    detect_workload_imbalance,
    judge_job_imbalance,
)
from .correlate import (
    FeatureDatasets,
    StageWindow,
    UltrashortPolicy,
    build_datasets,
    slice_metrics,
    stage_window,
)
from .evaluate import Score, score, score_report
from .ingest import (
    METRIC_SCHEMA,
    ingest_raw,
    parse_metric_file,
    parse_spark_event_log,
)
from .metricdetect import (
    OutlierConfig,
    db_outlier_oracle,
    detect_metric_outliers,
    diagnose_outlier_metrics,
    minmax_normalize,
    pca_select_metrics,
    reduce_fft,
    reduce_mean,
)
from .model import (
    ClockGroup,
    ClockGroups,
    Finding,
    FindingKind,
    Job,
    Locality,
    MetricSeriesError,
    MetricStore,
    Stage,
    Task,
    TaskTable,
    Trace,
)
from .nodedetect import SimilarityConfig, cosine_similarity, detect_abnormal_nodes
from .report import (
    DiagnosisReport,
    PipelineConfig,
    diagnose,
    load_config,
    parse_report,
    render_report,
)
from .simulate import (
    FaultKind,
    FaultSpec,
    LabeledAnomaly,
    ScenarioSpec,
    generate_trace,
    preset,
)
from .traceio import load_trace, save_trace
