"""Deterministic synthetic traces with labeled anomaly injection.

The generator is not a cluster performance model; it produces distributional
shapes the detectors can act on. The clean baseline shares one per-metric
series realization across nodes (independent per-node noise would be blown up
to full scale by min-max normalization and read as an outlier), while faults
superimpose per-(node,metric) mean shifts with decorrelated alternating
fluctuation patterns. All randomness flows from one numpy PCG64 generator
seeded by the scenario, consumed in a fixed order.

The ground truth goes to a labels file, written and read by the trace
files' code in `traceio` under its own schema header: a malformed file is a
ScenarioError naming `path:line`, as a trace loader error would.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (
    METRIC_SCHEMA,
    ClockGroup,
    FindingKind,
    Job,
    Locality,
    Stage,
    Task,
    TaskTable,
    Trace,
)
from .traceio import (
    TraceParseError,
    _dumps,
    _read_entity_file,
    _require,
    _write_entity_file,
    save_trace,
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

        rows: List[Task] = []
        stage_end = clock
        for node in nodes:
            cursor = clock
            n_skewed = math.ceil(_SKEW_FRACTION * counts[node]) if (sid, node) in skew_mult else 0
            locality = locality_override.get((sid, node), Locality.PROCESS_LOCAL)
            for k in range(counts[node]):
                runtime = BASE_RUNTIME_MS * runtime_mult.get((sid, node), 1.0)
                runtime *= 1.0 + RUNTIME_JITTER * rng.uniform(-1.0, 1.0)
                size = BASE_DATA_SIZE * (1.0 + DATA_JITTER * rng.uniform(-1.0, 1.0))
                if k < n_skewed:
                    size *= skew_mult[(sid, node)]
                finish = int(cursor + max(1.0, runtime))
                rows.append(
                    Task(f"{sid}-t{len(rows):04d}", node, cursor, finish, locality, int(size))
                )
                cursor = finish
            stage_end = max(stage_end, cursor)
        stages.append(Stage(stage_id=sid, tasks=TaskTable.from_rows(rows)))
        windows[sid] = (clock, int(stage_end))
        clock = int(stage_end) + STAGE_GAP_MS

    # Every node's series on one clock, one nodes x metrics x samples block:
    # the shared baseline series, then per-fault multiplicative deviations.
    step_ms = max(1, int(round(1000.0 / spec.metric_rate_hz)))
    timestamps = np.arange(BASE_EPOCH_MS, clock + 5_000, step_ms, dtype=np.int64)
    values = np.empty((len(nodes), len(METRIC_SCHEMA), len(timestamps)))
    for m, metric in enumerate(METRIC_SCHEMA):
        mean, jitter = BASELINE_V1[metric]
        values[:, m] = mean * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=len(timestamps)))
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
                    series = values[nodes.index(node), METRIC_SCHEMA.index(metric)]
                    series[mask] = series[mask] * (1.0 + deviation * wave[mask])

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
        metrics=[ClockGroup(nodes, METRIC_SCHEMA, timestamps, values)],
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
    rows = (
        {"expected": sorted([kind.value, metric] for kind, metric in rec.expected_findings),
         "node": rec.node, "stage_id": rec.stage_id}
        for rec in labels
    )
    _write_entity_file(path, LABELS_SCHEMA, "labels", map(_dumps, rows))


def _expected_finding(kind: object, metric: object) -> Tuple[FindingKind, Optional[str]]:
    if metric is not None and type(metric) is not str:
        raise ValueError(f"metric {metric!r} must be a string or null")
    return FindingKind(kind), metric


def load_labels(path: str) -> List[LabeledAnomaly]:
    """Read a labels file by the trace files' header and line rules; a
    malformed file is a ScenarioError naming `path:line`."""
    labels = []
    try:
        for line_no, row in _read_entity_file(path, LABELS_SCHEMA, "labels"):
            stage_id, node, expected = (
                _require(row, key, path, line_no) for key in ("stage_id", "node", "expected")
            )
            if not (isinstance(stage_id, str) and isinstance(node, str)):
                raise TraceParseError(path, line_no, "stage_id and node must be strings")
            try:
                expected = frozenset(_expected_finding(kind, metric) for kind, metric in expected)
            except (TypeError, ValueError) as exc:
                raise TraceParseError(path, line_no, f"bad expected findings: {exc}") from exc
            labels.append(LabeledAnomaly(stage_id, node, expected))
    except TraceParseError as exc:
        raise ScenarioError(str(exc)) from exc
    return labels


def emit_scenario(spec: ScenarioSpec, out_dir: str) -> Tuple[Trace, List[LabeledAnomaly]]:
    """Generate and persist one scenario: trace directory plus labels file."""
    trace, labels = generate_trace(spec)
    save_trace(trace, out_dir)
    save_labels(labels, os.path.join(out_dir, "labels.jsonl"))
    return trace, labels
