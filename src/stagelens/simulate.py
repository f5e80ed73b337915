"""Deterministic synthetic traces with labeled anomaly injection.

The generator is not a cluster performance model; it produces distributional
shapes the detectors can act on. The clean baseline shares one per-metric
series realization across nodes (independent per-node noise would be blown up
to full scale by min-max normalization and read as an outlier), while faults
superimpose per-(node,metric) mean shifts with decorrelated alternating
fluctuation patterns. All randomness flows from one numpy PCG64 generator
seeded by the scenario, consumed in a fixed order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .model import (
    METRIC_SCHEMA,
    FindingKind,
    Job,
    Locality,
    MetricStore,
    Stage,
    Task,
    Trace,
)

BASE_EPOCH_MS = 1_460_000_000_000
BASE_RUNTIME_MS = 12_000
BASE_DATA_SIZE = 128 * 1024 * 1024
RUNTIME_JITTER = 0.10  # uniform, bounded: keeps clean stages under every screen
DATA_JITTER = 0.10
STAGE_GAP_MS = 5_000

#: Versioned baseline preset: metric -> (mean level, relative jitter amplitude).
#: Values are abstract levels of similar magnitude; real-unit semantics live in
#: the ingest module, not here.
BASELINE_V1: Dict[str, Tuple[float, float]] = {
    "cpu_usage": (0.15, 0.05),
    "mem_usage": (0.40, 0.02),
    "ioWaitRatio": (0.02, 0.05),
    "weighted_io": (0.05, 0.05),
    "diskR_band": (0.30, 0.04),
    "diskW_band": (0.12, 0.04),
    "netS_band": (0.18, 0.04),
    "netR_band": (0.18, 0.04),
    "IPC": (0.35, 0.02),
    "L2_MPKI": (0.25, 0.03),
    "L3_MPKI": (0.15, 0.03),
    "L1I_MPKI": (0.18, 0.03),
    "ITLB_MPKI": (0.08, 0.03),
    "DTLB_MPKI": (0.12, 0.03),
    "MUL_Ratio": (0.03, 0.02),
    "DIV_Ratio": (0.015, 0.02),
    "FP_Ratio": (0.06, 0.02),
    "LOAD_Ratio": (0.15, 0.02),
    "STORE_Ratio": (0.08, 0.02),
    "BR_Ratio": (0.10, 0.02),
}


class FaultKind(Enum):
    SLOW_NODE = "SlowNode"
    DISK_FILL = "DiskFill"
    STRESS_INTERFERENCE = "StressInterference"
    CACHE_FLUSH = "CacheFlush"
    UNEVEN_PLACEMENT = "UnevenPlacement"
    SKEW_DATA_SIZE = "SkewDataSize"
    TASK_IMBALANCE = "TaskImbalance"


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind
    nodes: Tuple[str, ...]
    intensity: float = 1.0
    stages: Tuple[str, ...] = ()  # empty tuple = every stage

    def __post_init__(self) -> None:
        if self.intensity <= 0:
            raise ValueError("fault intensity must be positive")
        if not self.nodes:
            raise ValueError("fault must target at least one node")


@dataclass
class ScenarioSpec:
    seed: int
    nodes: int = 6
    stages: int = 1
    tasks_per_stage: int = 48
    metric_rate_hz: float = 1.0
    baseline: Mapping[str, Tuple[float, float]] = field(
        default_factory=lambda: dict(BASELINE_V1)
    )
    faults: Tuple[FaultSpec, ...] = ()


@dataclass(frozen=True)
class LabeledAnomaly:
    stage_id: str
    node: str
    expected_findings: frozenset  # of (FindingKind, metric name or None)


class ScenarioError(Exception):
    pass


class _Effect(NamedTuple):
    """What one fault kind injects at intensity 1.

    Metric effects are (multiplier, modulation): the deviation from baseline
    is (mult-1)*intensity*(1+mod*wave) with an alternating per-(node,metric)
    wave. Modulating the deviation rather than the value keeps the window mean
    at the multiplier while decorrelating co-perturbed metric columns, so
    covariance PCA sees one direction per metric instead of a single joint
    fault direction. Bounded-ratio metrics keep their peaks inside [0,1] at
    intensity 1.
    """

    runtime_mult: float
    metrics: Dict[str, Tuple[float, float]]
    findings: Tuple[FindingKind, ...] = ()  # those the injection does not imply

    def expected_findings(self) -> frozenset:
        """The ground truth: a fault that slows tasks is a straggler, each
        metric it perturbs an outlier metric, plus the listed findings."""
        expected = {(kind, None) for kind in self.findings}
        expected.update((FindingKind.OUTLIER_METRIC, metric) for metric in self.metrics)
        if self.runtime_mult > 1:
            expected.add((FindingKind.STRAGGLER, None))
        return frozenset(expected)


_EFFECTS: Dict[FaultKind, _Effect] = {
    FaultKind.SLOW_NODE: _Effect(2.5, {"IPC": (0.45, 0.15)}),
    FaultKind.DISK_FILL: _Effect(
        1.0,
        {"weighted_io": (39.0, 1.0), "ioWaitRatio": (25.0, 1.0), "cpu_usage": (3.0, 1.0)},
        (FindingKind.ABNORMAL_NODE,),
    ),
    FaultKind.STRESS_INTERFERENCE: _Effect(
        1.8,
        {
            "cpu_usage": (3.0, 1.0),
            "mem_usage": (1.7, 1.0),
            "ioWaitRatio": (25.0, 1.0),
            "weighted_io": (18.0, 1.0),
        },
    ),
    FaultKind.CACHE_FLUSH: _Effect(1.8, {"L3_MPKI": (8.0, 1.0)}),
    FaultKind.UNEVEN_PLACEMENT: _Effect(
        3.0,
        {"netR_band": (21.0, 1.0)},
        (FindingKind.UNEVEN_PLACEMENT, FindingKind.ABNORMAL_NODE),
    ),
    FaultKind.SKEW_DATA_SIZE: _Effect(1.0, {}, (FindingKind.SKEW_DATA_SIZE,)),
    FaultKind.TASK_IMBALANCE: _Effect(1.0, {}, (FindingKind.WORKLOAD_IMBALANCE,)),
}

_SKEW_FRACTION = 0.3
_WAVE_PERIODS = (2, 3, 5, 7)


def node_names(count: int) -> List[str]:
    return [f"hw{i + 1:02d}" for i in range(count)]


def stage_ids(count: int) -> List[str]:
    return [f"stage_{i:02d}" for i in range(count)]


def _validate(spec: ScenarioSpec) -> Tuple[List[str], List[str]]:
    if spec.nodes < 2:
        raise ScenarioError("a scenario needs at least two nodes")
    if spec.metric_rate_hz <= 0:
        raise ScenarioError("metric rate must be positive")
    if spec.stages < 1:
        raise ScenarioError("a scenario needs at least one stage")
    if spec.tasks_per_stage < spec.nodes:
        raise ScenarioError("tasks_per_stage must cover every node")
    nodes = node_names(spec.nodes)
    sids = stage_ids(spec.stages)
    for fault in spec.faults:
        for node in fault.nodes:
            if node not in nodes:
                raise ScenarioError(f"fault targets unknown node {node!r}")
        for sid in fault.stages:
            if sid not in sids:
                raise ScenarioError(f"fault targets unknown stage {sid!r}")
    return nodes, sids


def _fault_stages(fault: FaultSpec, sids: Sequence[str]) -> Tuple[str, ...]:
    return fault.stages if fault.stages else tuple(sids)


def _alternating(length: int, period: int, phase: int) -> np.ndarray:
    idx = np.arange(length) + phase
    return np.where((idx // period) % 2 == 0, 1.0, -1.0)


def generate_trace(spec: ScenarioSpec) -> Tuple[Trace, List[LabeledAnomaly]]:
    """Build one labeled trace; identical specs yield identical output."""
    nodes, sids = _validate(spec)
    rng = np.random.default_rng(spec.seed)

    runtime_mult: Dict[Tuple[str, str], float] = {}
    locality_override: Dict[Tuple[str, str], Locality] = {}
    skew_mult: Dict[Tuple[str, str], float] = {}
    count_shift: Dict[Tuple[str, str], int] = {}
    for fault in spec.faults:
        mult = 1.0 + (_EFFECTS[fault.kind].runtime_mult - 1.0) * fault.intensity
        for sid in _fault_stages(fault, sids):
            for node in fault.nodes:
                key = (sid, node)
                runtime_mult[key] = runtime_mult.get(key, 1.0) * mult
                if fault.kind is FaultKind.UNEVEN_PLACEMENT:
                    locality_override[key] = Locality.ANY
                elif fault.kind is FaultKind.SKEW_DATA_SIZE:
                    skew_mult[key] = 1.0 + 4.0 * fault.intensity
                elif fault.kind is FaultKind.TASK_IMBALANCE:
                    base = spec.tasks_per_stage // spec.nodes
                    count_shift[key] = max(1, round(0.1 * base * fault.intensity))

    # Task generation: balanced round counts unless an imbalance fault shifts
    # them; per node, tasks run back-to-back from the stage start.
    stages: List[Stage] = []
    windows: Dict[str, Tuple[int, int]] = {}
    clock = BASE_EPOCH_MS + 10_000
    for sid in sids:
        base = spec.tasks_per_stage // spec.nodes
        counts = {node: base for node in nodes}
        leftover = spec.tasks_per_stage - base * spec.nodes
        for node in nodes[:leftover]:
            counts[node] += 1
        for (stage_key, node), shift in count_shift.items():
            if stage_key != sid:
                continue
            for donor in (n for n in nodes if n != node):
                donated = min(shift, counts[donor])  # donors never go negative
                counts[donor] -= donated
                counts[node] += donated

        stage = Stage(stage_id=sid, job_id="job_0")
        task_idx = 0
        stage_end = clock
        for node in nodes:
            cursor = clock
            n_skewed = math.ceil(_SKEW_FRACTION * counts[node]) if (sid, node) in skew_mult else 0
            for k in range(counts[node]):
                runtime = BASE_RUNTIME_MS * runtime_mult.get((sid, node), 1.0)
                runtime *= 1.0 + RUNTIME_JITTER * rng.uniform(-1.0, 1.0)
                size = BASE_DATA_SIZE * (1.0 + DATA_JITTER * rng.uniform(-1.0, 1.0))
                if k < n_skewed:
                    size *= skew_mult[(sid, node)]
                task = Task(
                    task_id=f"{sid}-t{task_idx:04d}",
                    stage_id=sid,
                    node=node,
                    launch_time=int(cursor),
                    finish_time=int(cursor + max(1.0, runtime)),
                    locality=locality_override.get((sid, node), Locality.PROCESS_LOCAL),
                    data_size=int(size),
                )
                stage.tasks.append(task)
                cursor = task.finish_time
                task_idx += 1
            stage_end = max(stage_end, cursor)
        stages.append(stage)
        windows[sid] = (clock, int(stage_end))
        clock = int(stage_end) + STAGE_GAP_MS

    # Shared baseline series, then per-fault multiplicative deviations.
    step_ms = max(1, int(round(1000.0 / spec.metric_rate_hz)))
    t_start = BASE_EPOCH_MS
    t_end = clock + 5_000
    timestamps = np.arange(t_start, t_end, step_ms, dtype=np.int64)
    baseline_series: Dict[str, np.ndarray] = {}
    for metric in METRIC_SCHEMA:
        mean, jitter = spec.baseline[metric]
        u = rng.uniform(-1.0, 1.0, size=len(timestamps))
        baseline_series[metric] = mean * (1.0 + jitter * u)

    per_node: Dict[str, Dict[str, np.ndarray]] = {
        node: {m: baseline_series[m].copy() for m in METRIC_SCHEMA} for node in nodes
    }
    for fault in spec.faults:
        effects = _EFFECTS[fault.kind].metrics
        for sid in _fault_stages(fault, sids):
            lo, hi = windows[sid]
            mask = (timestamps >= lo) & (timestamps <= hi)
            for node in fault.nodes:
                # Distinct periods per co-perturbed metric: colliding wave
                # patterns would re-correlate the columns and collapse the
                # fault back into a single principal component.
                affected = [m for m in METRIC_SCHEMA if m in effects]
                for eff_idx, metric in enumerate(affected):
                    mult, mod = effects[metric]
                    period = _WAVE_PERIODS[eff_idx % len(_WAVE_PERIODS)]
                    phase = int(rng.integers(0, 2 * period))
                    deviation = (mult - 1.0) * fault.intensity
                    wave = 1.0 + mod * _alternating(len(timestamps), period, phase)
                    series = per_node[node][metric]
                    series[mask] = series[mask] * (1.0 + deviation * wave[mask])

    metrics = {
        node: MetricStore(
            node=node,
            timestamps=timestamps,
            columns=METRIC_SCHEMA,
            values=np.array([per_node[node][m] for m in METRIC_SCHEMA]),
        )
        for node in nodes
    }

    # One label per (stage, node, fault kind), however many faults repeat it.
    labeled = {
        (sid, node, fault.kind): LabeledAnomaly(sid, node, _EFFECTS[fault.kind].expected_findings())
        for fault in spec.faults
        for sid in _fault_stages(fault, sids)
        for node in fault.nodes
    }
    labels = sorted(labeled.values(), key=lambda rec: (rec.stage_id, rec.node))

    trace = Trace(
        cluster=list(nodes),
        jobs=[Job(job_id="job_0", stages=stages)],
        metrics=metrics,
    )
    return trace, labels


# The case studies share ScenarioSpec's defaults (6 nodes, 1 stage, 48 tasks)
# and differ in their one fault: kind and target nodes.
_CASES: Dict[str, Tuple[FaultKind, Tuple[str, ...]]] = {
    "case1": (FaultKind.UNEVEN_PLACEMENT, ("hw05",)),
    "case2": (FaultKind.DISK_FILL, ("hw03",)),
    "case3": (FaultKind.CACHE_FLUSH, ("hw02", "hw06")),
}
_PRESET_NAMES = (*_CASES, "eval-corpus")
_CORPUS_SIZE = 50
_CORPUS_SEED_BASE = 20_260_000


def preset(name: str, seed: int = 1) -> Union[ScenarioSpec, List[ScenarioSpec]]:
    """Named scenarios: the three case studies plus the evaluation corpus."""
    if name in _CASES:
        return ScenarioSpec(seed=seed, faults=(FaultSpec(*_CASES[name]),))
    if name == "eval-corpus":
        kinds = list(FaultKind)
        specs = []
        for i in range(_CORPUS_SIZE):
            kind = kinds[i % len(kinds)]
            nodes = node_names(6)
            target = nodes[i % 6]
            targets = (target, nodes[(i + 3) % 6]) if kind is FaultKind.CACHE_FLUSH else (target,)
            sid = stage_ids(2)[i % 2]
            specs.append(
                ScenarioSpec(
                    seed=_CORPUS_SEED_BASE + i,
                    nodes=6,
                    stages=2,
                    tasks_per_stage=60,
                    faults=(FaultSpec(kind, targets, stages=(sid,)),),
                )
            )
        return specs
    raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(_PRESET_NAMES)}")


LABELS_SCHEMA = "stagelens-labels/1"


def save_labels(labels: Sequence[LabeledAnomaly], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps({"schema": LABELS_SCHEMA, "entity": "labels"}, sort_keys=True,
                       separators=(",", ":")) + "\n"
        )
        for rec in labels:
            expected = sorted(
                [kind.value, metric] for kind, metric in rec.expected_findings
            )
            row = {"stage_id": rec.stage_id, "node": rec.node, "expected": expected}
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def load_labels(path: str) -> List[LabeledAnomaly]:
    """Read a labels file; a malformed line is a ScenarioError naming
    `path:line`."""

    def fail(line_no: int, rule: str) -> ScenarioError:
        return ScenarioError(f"{path}:{line_no}: {rule}")

    labels = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise fail(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise fail(line_no, "record must be a JSON object")
            if line_no == 1:
                if row.get("entity") != "labels":
                    raise fail(line_no, "not a labels file")
                if row.get("schema") != LABELS_SCHEMA:
                    raise fail(line_no, f"schema header must declare {LABELS_SCHEMA!r}")
                continue
            for key in ("stage_id", "node", "expected"):
                if key not in row:
                    raise fail(line_no, f"missing required field {key!r}")
            if not (isinstance(row["stage_id"], str) and isinstance(row["node"], str)):
                raise fail(line_no, "stage_id and node must be strings")
            try:
                expected = frozenset(
                    (FindingKind(kind), metric) for kind, metric in row["expected"]
                )
            except (TypeError, ValueError) as exc:
                raise fail(line_no, f"bad expected findings: {exc}") from exc
            labels.append(
                LabeledAnomaly(stage_id=row["stage_id"], node=row["node"],
                               expected_findings=expected)
            )
    return labels


def emit_scenario(spec: ScenarioSpec, out_dir: str) -> Tuple[Trace, List[LabeledAnomaly]]:
    """Generate and persist one scenario: trace directory plus labels file."""
    from .traceio import save_trace

    trace, labels = generate_trace(spec)
    save_trace(trace, out_dir)
    save_labels(labels, os.path.join(out_dir, "labels.jsonl"))
    return trace, labels
