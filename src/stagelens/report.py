"""Pipeline orchestration and diagnosis-report rendering.

diagnose() runs every detector over every stage and assembles one report;
render_report() emits either the human-readable table layout or a structured
JSON document that round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Mapping, Tuple

from . import appdetect, metricdetect, nodedetect
from .appdetect import ImbalanceConfig, PlacementConfig
from .correlate import UltrashortPolicy, build_datasets, slice_metrics, stage_window
from .metricdetect import OutlierConfig
from .model import Finding, FindingKind, Locality, Trace
from .nodedetect import SimilarityConfig

REPORT_SCHEMA = "stagelens-report/2"


class DiagnoseError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Every user-tunable threshold, with the published defaults."""

    bc: float = 0.1
    th_ub: float = 0.6
    th_size: float = 1.5
    th_d: float = 1.5
    th_simi: float = 0.5
    flag_small: bool = False
    priorities: Tuple[Tuple[str, float], ...] = tuple(
        sorted((loc.value, w) for loc, w in appdetect.DEFAULT_PRIORITIES.items())
    )
    transform: str = "mean"
    representative: str = "max_min"
    dmin: float = 0.6
    ccrate: float = 0.95
    magnitude_gap: int = 2
    ultrashort_absolute_ms: int = 1000
    ultrashort_median_fraction: float = 0.05
    homogeneous: bool = True

    def __post_init__(self) -> None:
        # The detector configs hold the rules; building each one checks them.
        for build in (self.imbalance, self.placement, self.similarity, self.outlier,
                      self.ultrashort):
            build()

    def imbalance(self) -> ImbalanceConfig:
        return ImbalanceConfig(bc=self.bc, th_ub=self.th_ub)

    def placement(self) -> PlacementConfig:
        return PlacementConfig(
            priorities={Locality(name): w for name, w in self.priorities}
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


_PRIORITY_KEYS = {f"pri_{loc.value.lower()}": loc for loc in Locality}
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
# Every flat config key (file line or CLI flag) and the parser for its value,
# chosen by the type of the field's default. The priorities tuple is set
# through one pri_<locality> key per Locality instead.
CONFIG_KEYS: Dict[str, Callable[[str], object]] = {
    f.name: _PARSERS[type(f.default)]
    for f in fields(PipelineConfig)
    if type(f.default) in _PARSERS
}
CONFIG_KEYS.update(dict.fromkeys(_PRIORITY_KEYS, float))


def config_from_mapping(values: Mapping[str, str]) -> PipelineConfig:
    """Build a config from flat text keys (file or CLI), validating names."""
    cfg = PipelineConfig()
    priorities = dict(cfg.priorities)
    updates: Dict[str, object] = {}
    for key, raw in values.items():
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise DiagnoseError(f"unknown configuration key {key!r}")
        try:
            value = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise DiagnoseError(f"bad value {raw!r} for configuration key {key!r}: {exc}") from exc
        if key in _PRIORITY_KEYS:
            priorities[_PRIORITY_KEYS[key].value] = value
        else:
            updates[key] = value
    updates["priorities"] = tuple(sorted(priorities.items()))
    return replace(cfg, **updates)


def read_config_file(path: str) -> Dict[str, str]:
    """Flat key=value file; blank lines and #-comments are ignored."""
    values: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DiagnoseError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            values[key.strip().lower()] = value.strip()
    return values


def load_config(path: str) -> PipelineConfig:
    return config_from_mapping(read_config_file(path))


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


def _diagnose_stage(
    trace: Trace, stage, cfg: PipelineConfig
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
    datasets = build_datasets(stage, slices, trace.cluster, cfg.ultrashort())

    # Straggler screen over per-node mean runtimes of successful tasks.
    runtimes: Dict[str, List[int]] = {}
    for node, _, runtime in datasets.locality:
        runtimes.setdefault(node, []).append(runtime)
    means = {node: sum(rs) / len(rs) for node, rs in runtimes.items()}
    straggle = appdetect.detect_stragglers(means, cfg.th_d)
    if straggle.evaluable:
        for node, scale in straggle.stragglers:
            found(FindingKind.STRAGGLER, (node,), scale, cfg.th_d)
    else:
        report.warnings.append("straggler screen not evaluable")

    imbalance = appdetect.detect_workload_imbalance(datasets.tnum, cfg.imbalance())
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

    if len(datasets.locality) >= 2:
        for entry in appdetect.detect_uneven_placement(
            datasets.locality, cfg.placement(), total=len(datasets.locality)
        ):
            subjects = (entry.node, entry.locality.value)
            found(FindingKind.UNEVEN_PLACEMENT, subjects, entry.ratio, 0.0)

    similarity = nodedetect.detect_abnormal_nodes(datasets, cfg.similarity())
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

    diagnosis = metricdetect.diagnose_outlier_metrics(datasets, cfg.outlier())
    report.warnings.extend(diagnosis.warnings)
    if diagnosis.evaluable:
        for metric, node, branch, distance in diagnosis.findings:
            detail = f"branch={branch}"
            found(FindingKind.OUTLIER_METRIC, (node, metric), distance, cfg.dmin, detail)
    return report, imbalance


def diagnose(trace: Trace, cfg: PipelineConfig = PipelineConfig()) -> DiagnosisReport:
    """Run every detector per stage; partial failures become warnings."""
    stages = list(trace.stages())
    if not stages:
        raise DiagnoseError("trace holds no stages to diagnose")
    report = DiagnosisReport(mode_label=cfg.mode_label())
    for job in trace.jobs:
        results: List[appdetect.ImbalanceResult] = []
        for stage in job.stages:
            if not stage.tasks:
                report.stages.append(
                    StageReport(stage_id=stage.stage_id, warnings=["stage has no tasks"])
                )
                continue
            stage_report, imbalance = _diagnose_stage(trace, stage, cfg)
            report.stages.append(stage_report)
            results.append(imbalance)
        verdict = appdetect.judge_job_imbalance(results, cfg.imbalance())
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
    if data.get("schema") != REPORT_SCHEMA:
        raise DiagnoseError(f"structured report must declare schema {REPORT_SCHEMA!r}")
    stages = []
    for s in data.get("stages", []):
        stages.append(
            StageReport(
                stage_id=s["stage_id"],
                findings=[_finding_from_dict(f) for f in s.get("findings", [])],
                similarity=dict(s.get("similarity", {})),
                warnings=list(s.get("warnings", [])),
            )
        )
    jobs = [JobSummary(**j) for j in data.get("jobs", [])]
    return DiagnosisReport(mode_label=data["mode_label"], stages=stages, jobs=jobs)


def render_report(report: DiagnosisReport, format: str = "text") -> bytes:
    """Serialize a report; 'structured' renders parse/render byte-stable JSON."""
    if format == "text":
        return _render_text(report).encode("utf-8")
    if format == "structured":
        return (
            json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
    raise DiagnoseError(f"unknown report format {format!r} (expected text|structured)")


def parse_report(data: bytes) -> DiagnosisReport:
    return report_from_dict(json.loads(data.decode("utf-8")))
