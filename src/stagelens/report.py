"""Pipeline orchestration and diagnosis-report rendering.

diagnose() runs every detector over every stage and assembles one report;
render_report() emits either the human-readable table layout or a structured
JSON document that round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Mapping, NamedTuple, Tuple

from . import appdetect, metricdetect, nodedetect
from .appdetect import DEFAULT_PRIORITIES, ImbalanceConfig, PlacementConfig
from .correlate import UltrashortPolicy, build_datasets, slice_metrics, stage_window
from .metricdetect import OutlierConfig
from .model import Finding, FindingKind, Locality, Trace
from .nodedetect import SimilarityConfig
from .traceio import _dumps

REPORT_SCHEMA = "stagelens-report/2"


class DiagnoseError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Every user-tunable threshold, with the published defaults. Each field
    is one configuration key (file line or `diagnose` flag) of the same name.
    A threshold a detector config owns takes its default from that class,
    and the others from appdetect's DEFAULT_* constants; the pri_* fields
    are the placement weights, in Locality order."""

    bc: float = ImbalanceConfig.bc
    th_ub: float = ImbalanceConfig.th_ub
    th_size: float = appdetect.DEFAULT_TH_SIZE
    th_d: float = appdetect.DEFAULT_TH_D
    th_simi: float = SimilarityConfig.th_simi
    flag_small: bool = appdetect.DEFAULT_FLAG_SMALL
    transform: str = OutlierConfig.transform
    representative: str = OutlierConfig.representative
    dmin: float = OutlierConfig.dmin
    ccrate: float = OutlierConfig.ccrate
    magnitude_gap: int = OutlierConfig.magnitude_gap
    ultrashort_absolute_ms: int = UltrashortPolicy.absolute_ms
    ultrashort_median_fraction: float = UltrashortPolicy.median_fraction
    homogeneous: bool = SimilarityConfig.homogeneous
    pri_process_local: float = DEFAULT_PRIORITIES[Locality.PROCESS_LOCAL]
    pri_node_local: float = DEFAULT_PRIORITIES[Locality.NODE_LOCAL]
    pri_rack_local: float = DEFAULT_PRIORITIES[Locality.RACK_LOCAL]
    pri_any: float = DEFAULT_PRIORITIES[Locality.ANY]
    pri_off_switch: float = DEFAULT_PRIORITIES[Locality.OFF_SWITCH]
    pri_unknown: float = DEFAULT_PRIORITIES[Locality.UNKNOWN]

    def __post_init__(self) -> None:
        # The detector configs hold the rules; building each one checks them.
        for build in (self.imbalance, self.placement, self.similarity, self.outlier,
                      self.ultrashort):
            build()
        appdetect.check_multiple("th_size", self.th_size)
        appdetect.check_multiple("th_d", self.th_d)

    def imbalance(self) -> ImbalanceConfig:
        return ImbalanceConfig(bc=self.bc, th_ub=self.th_ub)

    def placement(self) -> PlacementConfig:
        return PlacementConfig(
            priorities={loc: getattr(self, f"pri_{loc.value.lower()}") for loc in Locality}
        )

    def similarity(self) -> SimilarityConfig:
        return SimilarityConfig(th_simi=self.th_simi, homogeneous=self.homogeneous)

    def outlier(self) -> OutlierConfig:
        return OutlierConfig(
            transform=self.transform,
            representative=self.representative,
            dmin=self.dmin,
            ccrate=self.ccrate,
            magnitude_gap=self.magnitude_gap,
        )

    def ultrashort(self) -> UltrashortPolicy:
        return UltrashortPolicy(
            absolute_ms=self.ultrashort_absolute_ms,
            median_fraction=self.ultrashort_median_fraction,
        )

    def mode_label(self) -> str:
        transform = "Mean-Value" if self.transform == "mean" else "FFT"
        representative = "median" if self.representative == "median" else "max/min"
        return f"[{transform},{representative},CCRate_d={self.ccrate:g},dmin={self.dmin:g}]"


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _parse_bool(raw: str) -> bool:
    word = str(raw).strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError("expected one of " + "/".join(_BOOL_WORDS))
    return _BOOL_WORDS[word]


_PARSERS: Dict[type, Callable[[str], object]] = {
    bool: _parse_bool,
    int: int,
    float: float,
    str: lambda raw: str(raw).strip(),
}
# Every config key (file line or CLI flag), one per PipelineConfig field, and
# the parser for its value, chosen by the type of the field's default.
CONFIG_KEYS: Dict[str, Callable[[str], object]] = {
    f.name: _PARSERS[type(f.default)] for f in fields(PipelineConfig)
}


def config_from_mapping(values: Mapping[str, str]) -> PipelineConfig:
    """Build a config from flat text keys (file or CLI), validating names."""
    updates: Dict[str, object] = {}
    for key, raw in values.items():
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise DiagnoseError(f"unknown configuration key {key!r}")
        try:
            updates[key] = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise DiagnoseError(f"bad value {raw!r} for configuration key {key!r}: {exc}") from exc
    return PipelineConfig(**updates)


def read_config_file(path: str) -> Dict[str, str]:
    """Flat key=value file; blank lines and #-comments are ignored."""
    values: Dict[str, str] = {}
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r and \r\n, as text mode splits
    for line_no, line in enumerate(lines, start=1):
        try:
            stripped = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DiagnoseError(f"{path}:{line_no}: not UTF-8: {exc.reason}") from exc
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DiagnoseError(f"{path}:{line_no}: expected key = value")
        key, _, value = stripped.partition("=")
        values[key.strip().lower()] = value.strip()
    return values


@dataclass
class StageReport:
    """One stage's verdicts; the per-kind views below are read from findings."""

    stage_id: str
    findings: List[Finding] = field(default_factory=list)
    similarity: Dict[str, float] = field(default_factory=dict)  # node -> score
    warnings: List[str] = field(default_factory=list)

    def _of(self, kind: FindingKind) -> List[tuple]:
        """(*subjects, score) of each finding of one kind, in report order."""
        return [(*f.subjects, f.score) for f in self.findings if f.kind is kind]

    @property
    def stragglers(self) -> List[str]:
        return [row[0] for row in self._of(FindingKind.STRAGGLER)]

    @property
    def imbalance_nodes(self) -> List[str]:  # tilt-rank order
        return [row[0] for row in self._of(FindingKind.WORKLOAD_IMBALANCE)]

    @property
    def skew_nodes(self) -> List[Tuple[str, float]]:
        return [row for row in self._of(FindingKind.SKEW_DATA_SIZE) if len(row) == 2]

    @property
    def skew_tasks(self) -> List[Tuple[str, str, float]]:
        rows = [row for row in self._of(FindingKind.SKEW_DATA_SIZE) if len(row) == 3]
        return [(node, task.removeprefix("task:"), ratio) for node, task, ratio in rows]

    @property
    def placement(self) -> List[Tuple[str, str, float]]:  # node, locality, ratio
        return self._of(FindingKind.UNEVEN_PLACEMENT)

    @property
    def abnormal_nodes(self) -> List[str]:
        return [row[0] for row in self._of(FindingKind.ABNORMAL_NODE)]

    @property
    def outliers(self) -> Dict[str, List[str]]:  # node -> sorted metrics
        out: Dict[str, List[str]] = {}
        for node, metric, _ in self._of(FindingKind.OUTLIER_METRIC):
            out.setdefault(node, []).append(metric)
        return {node: sorted(metrics) for node, metrics in sorted(out.items())}


@dataclass
class JobSummary:
    job_id: str
    evaluable: bool
    unbalanced: bool
    ratio_ub: float


@dataclass
class DiagnosisReport:
    mode_label: str
    stages: List[StageReport] = field(default_factory=list)
    jobs: List[JobSummary] = field(default_factory=list)

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for stage in self.stages:
            out.extend(stage.findings)
        return out


class DetectorConfigs(NamedTuple):
    """The detector configs a PipelineConfig builds, built once per report."""

    ultrashort: UltrashortPolicy
    imbalance: ImbalanceConfig
    placement: PlacementConfig
    similarity: SimilarityConfig
    outlier: OutlierConfig

    @classmethod
    def of(cls, cfg: PipelineConfig) -> "DetectorConfigs":
        return cls(cfg.ultrashort(), cfg.imbalance(), cfg.placement(), cfg.similarity(),
                   cfg.outlier())


def _diagnose_stage(
    trace: Trace, stage, cfg: PipelineConfig, built: DetectorConfigs
) -> Tuple[StageReport, appdetect.ImbalanceResult]:
    report = StageReport(stage_id=stage.stage_id)

    def found(kind, subjects, score, threshold, detail=""):
        report.findings.append(Finding(kind, stage.stage_id, subjects, score, threshold, detail))

    window = stage_window(stage)
    slices = slice_metrics(trace, window)
    if slices.gaps:
        report.warnings.append(
            "no in-window metric samples for: " + ", ".join(slices.gaps)
        )
    datasets = build_datasets(stage, slices, trace.cluster, built.ultrashort)

    # Straggler screen over per-node mean runtimes of successful tasks.
    straggle = appdetect.detect_stragglers(appdetect.mean_runtimes(datasets.data_size), cfg.th_d)
    if straggle.evaluable:
        for node, scale in straggle.stragglers:
            found(FindingKind.STRAGGLER, (node,), scale, cfg.th_d)
    else:
        report.warnings.append("straggler screen not evaluable")

    imbalance = appdetect.detect_workload_imbalance(datasets.tnum, built.imbalance)
    if imbalance.evaluable:
        if imbalance.unbalanced:
            tilt = dict((node, t) for t, node in imbalance.tilt)
            for node in imbalance.flagged:
                found(FindingKind.WORKLOAD_IMBALANCE, (node,), tilt[node], cfg.bc * imbalance.mean)
    else:
        report.warnings.append("workload imbalance not evaluable (no countable tasks)")

    skew = appdetect.detect_skew_data_size(datasets.data_size, cfg.th_size, cfg.flag_small)
    if skew.evaluable:
        for node, ratio in skew.flagged_nodes:
            found(FindingKind.SKEW_DATA_SIZE, (node,), ratio, cfg.th_size)
        for node, task_id, ratio in skew.flagged_tasks:
            found(FindingKind.SKEW_DATA_SIZE, (node, f"task:{task_id}"), ratio, cfg.th_size)
    elif not datasets.data_size:
        report.warnings.append("skew screen not evaluable (no successful tasks)")
    else:
        report.warnings.append("skew screen not evaluable (median data size is zero)")

    if len(datasets.data_size) >= 2:
        for entry in appdetect.detect_uneven_placement(datasets.data_size, built.placement):
            subjects = (entry.node, entry.locality.value)
            found(FindingKind.UNEVEN_PLACEMENT, subjects, entry.ratio, 0.0)

    similarity = nodedetect.detect_abnormal_nodes(datasets, built.similarity)
    if similarity.evaluable:
        report.similarity = dict(similarity.similarity)
        for node in similarity.abnormal:
            found(FindingKind.ABNORMAL_NODE, (node,), similarity.similarity[node], cfg.th_simi)
        if similarity.caveat:
            report.warnings.append(similarity.caveat)
        if similarity.skipped:
            report.warnings.append(
                "similarity skipped nodes: " + ", ".join(similarity.skipped)
            )
    else:
        report.warnings.append("abnormal-node screen not evaluable")

    diagnosis = metricdetect.diagnose_outlier_metrics(datasets, built.outlier)
    report.warnings.extend(diagnosis.warnings)
    if diagnosis.evaluable:
        for metric, node, branch, distance in diagnosis.findings:
            detail = f"branch={branch}"
            found(FindingKind.OUTLIER_METRIC, (node, metric), distance, cfg.dmin, detail)
    return report, imbalance


#: The one warning of a stage whose diagnosis raised.
STAGE_FAILED = "stage not diagnosed: internal error"


def diagnose(trace: Trace, cfg: PipelineConfig = PipelineConfig()) -> DiagnosisReport:
    """Run every detector per stage; partial failures become warnings. A
    stage whose diagnosis raises reports only STAGE_FAILED, its traceback
    goes to the "stagelens" logger, and its job's verdict counts the other
    stages."""
    stages = list(trace.stages())
    if not stages:
        raise DiagnoseError("trace holds no stages to diagnose")
    report = DiagnosisReport(mode_label=cfg.mode_label())
    built = DetectorConfigs.of(cfg)
    for job in trace.jobs:
        results: List[appdetect.ImbalanceResult] = []
        for stage in job.stages:
            if not stage.tasks:
                report.stages.append(
                    StageReport(stage_id=stage.stage_id, warnings=["stage has no tasks"])
                )
                continue
            try:
                stage_report, imbalance = _diagnose_stage(trace, stage, cfg, built)
            except Exception:
                # Imported here: importing logging costs more than a report,
                # and only a failing stage needs it.
                import logging

                logging.getLogger("stagelens").exception(
                    "stage %s: diagnosis failed", stage.stage_id
                )
                report.stages.append(StageReport(stage_id=stage.stage_id, warnings=[STAGE_FAILED]))
                continue
            report.stages.append(stage_report)
            results.append(imbalance)
        verdict = appdetect.judge_job_imbalance(results, built.imbalance)
        report.jobs.append(
            JobSummary(
                job_id=job.job_id,
                evaluable=verdict.evaluable,
                unbalanced=verdict.unbalanced,
                ratio_ub=verdict.ratio_ub,
            )
        )
    return report


def _null_or(parts: List[str]) -> str:
    return ", ".join(parts) if parts else "Null"


def _render_text(report: DiagnosisReport) -> str:
    lines: List[str] = []
    for stage in report.stages:
        lines.append(f"Stage id: {stage.stage_id}")
        lines.append(f"Detected straggle outlier node: {_null_or(stage.stragglers)}")
        lines.append(f"Detected workload imbalance: {_null_or(stage.imbalance_nodes)}")
        lines.append("--- Data skew diagnosis:")
        skew_parts = [f"{node} (x{ratio:.2f})" for node, ratio in stage.skew_nodes]
        skew_parts += [f"{node}/{task} (x{ratio:.2f})" for node, task, ratio in stage.skew_tasks]
        lines.append(f"    Skew data size: {_null_or(skew_parts)}")
        placement_parts = [
            f"{node} [{locality}:{ratio:.5f}]" for node, locality, ratio in stage.placement
        ]
        lines.append(f"    Uneven data placement: {_null_or(placement_parts)}")
        lines.append("--- Abnormal node diagnosis:")
        if stage.similarity:
            nodes = sorted(stage.similarity)
            names = "[" + ", ".join(f"'{n}'" for n in nodes) + "]"
            values = "[" + ", ".join(f"{stage.similarity[n]:.4f}" for n in nodes) + "]"
            lines.append(f"    Similarity analysis: Similarity ({names}, other nodes): {values}")
        else:
            lines.append("    Similarity analysis: Null")
        lines.append(f"    Detected abnormal node: {_null_or(stage.abnormal_nodes)}")
        lines.append("--- Outlier metrics diagnosis:")
        outliers = stage.outliers
        if outliers:
            per_node = "; ".join(
                f"{node}:({', '.join(metrics)})" for node, metrics in outliers.items()
            )
            lines.append(f"    Mode: {report.mode_label}: {per_node}")
        else:
            lines.append(f"    Mode: {report.mode_label}: Null")
        for warning in stage.warnings:
            lines.append(f"    Warning: {warning}")
        lines.append("")
    return "\n".join(lines)


def _finding_to_dict(finding: Finding) -> dict:
    return {
        "kind": finding.kind.value,
        "stage_id": finding.stage_id,
        "subjects": list(finding.subjects),
        "score": finding.score,
        "threshold": finding.threshold,
        "detail": finding.detail,
    }


def _finding_from_dict(data: dict) -> Finding:
    return Finding(
        kind=FindingKind(data["kind"]),
        stage_id=data["stage_id"],
        subjects=tuple(data["subjects"]),
        score=data["score"],
        threshold=data["threshold"],
        detail=data.get("detail", ""),
    )


def report_to_dict(report: DiagnosisReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "mode_label": report.mode_label,
        "stages": [
            {
                "stage_id": s.stage_id,
                "findings": [_finding_to_dict(f) for f in s.findings],
                "similarity": dict(s.similarity),
                "warnings": list(s.warnings),
            }
            for s in report.stages
        ],
        "jobs": [asdict(j) for j in report.jobs],
    }


def report_from_dict(data: dict) -> DiagnosisReport:
    """The report a structured document holds; a document that is not one
    raises DiagnoseError."""
    if not isinstance(data, dict):
        raise DiagnoseError("structured report must be a JSON object")
    if data.get("schema") != REPORT_SCHEMA:
        raise DiagnoseError(f"structured report must declare schema {REPORT_SCHEMA!r}")
    try:
        stages = [
            StageReport(
                stage_id=s["stage_id"],
                findings=[_finding_from_dict(f) for f in s.get("findings", [])],
                similarity=dict(s.get("similarity", {})),
                warnings=list(s.get("warnings", [])),
            )
            for s in data.get("stages", [])
        ]
        jobs = [JobSummary(**j) for j in data.get("jobs", [])]
        return DiagnosisReport(mode_label=data["mode_label"], stages=stages, jobs=jobs)
    except KeyError as exc:
        raise DiagnoseError(f"structured report lacks field {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise DiagnoseError(f"malformed structured report: {exc}") from exc


def render_report(report: DiagnosisReport, format: str = "text") -> bytes:
    """Serialize a report; 'structured' renders parse/render byte-stable JSON."""
    if format == "text":
        return _render_text(report).encode("utf-8")
    if format == "structured":
        return (_dumps(report_to_dict(report)) + "\n").encode("utf-8")
    raise DiagnoseError(f"unknown report format {format!r} (expected text|structured)")


def parse_report(data: bytes) -> DiagnosisReport:
    return report_from_dict(json.loads(data.decode("utf-8")))
