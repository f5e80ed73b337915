"""The four benchmark workloads: what each builds from a seed and how it is
diagnosed.

Every workload exists to load a different layer of stagelens; the reasons are
in BENCHMARK.json and README.md. Sizes come in two variants: `full` is what
the benchmark measures, `tiny` is what the smoke test runs.

stagelens is imported inside the functions, never at module level, so that a
process importing this module has not yet paid for importing stagelens (the
set-up time includes that import).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from rawgen import RawSize

WORKLOADS = ("wide-cluster", "long-series", "raw-ingest", "desk-corpus")
SIZES = ("full", "tiny")

#: The seed at which text reports must match the digests in digests.json.
DEFAULT_SEED = 1

#: Acceptance-suite floors on the evaluation corpus (outlier-metric findings).
ACCURACY_FLOOR = 0.75  # representative=max_min, dmin=0.6
PRECISION_FLOOR = 0.85  # representative=median, dmin=0.5


@dataclass(frozen=True)
class SimShape:
    nodes: int
    stages: int
    tasks_per_stage: int
    metric_rate_hz: float


_SIM_SHAPES: Dict[Tuple[str, str], SimShape] = {
    ("wide-cluster", "full"): SimShape(120, 2, 480, 0.2),
    ("wide-cluster", "tiny"): SimShape(12, 2, 48, 0.2),
    ("long-series", "full"): SimShape(8, 2, 96, 4.0),
    ("long-series", "tiny"): SimShape(6, 1, 24, 4.0),
}

RAW_SIZES: Dict[str, RawSize] = {
    "full": RawSize(nodes=16, rows=400, tasks=240, wraps=12, bad_metric_lines=9,
                    bad_event_lines=4),
    "tiny": RawSize(nodes=4, rows=240, tasks=24, wraps=2, bad_metric_lines=2,
                    bad_event_lines=1),
}


def pipeline_config(workload: str):
    """The configuration each workload's timed reports run with."""
    from stagelens import PipelineConfig

    if workload == "long-series":
        return PipelineConfig(transform="fft", representative="median", dmin=0.5)
    return PipelineConfig(representative="median", dmin=0.5)


def accuracy_config():
    """The recall-leaning configuration the corpus accuracy floor applies to."""
    from stagelens import PipelineConfig

    return PipelineConfig(representative="max_min", dmin=0.6)


def scenario_specs(workload: str, seed: int, size: str) -> List[object]:
    """The simulator scenarios of a simulated workload, derived from the seed."""
    import dataclasses

    import numpy as np
    from stagelens.simulate import FaultKind, FaultSpec, ScenarioSpec, node_names, preset

    if workload == "desk-corpus":
        # At the default seed this is exactly the eval-corpus preset; any other
        # seed shifts every scenario seed past the ones an earlier seed used.
        offset = 50 * (seed - DEFAULT_SEED)
        return [
            dataclasses.replace(spec, seed=spec.seed + offset)
            for spec in preset("eval-corpus")
        ]
    shape = _SIM_SHAPES[(workload, size)]
    picks = np.random.default_rng(seed).choice(shape.nodes, size=2, replace=False)
    first, second = (node_names(shape.nodes)[int(i)] for i in picks)
    if workload == "wide-cluster":
        faults = (
            FaultSpec(FaultKind.DISK_FILL, (first,)),
            FaultSpec(FaultKind.SLOW_NODE, (second,)),
        )
    else:
        faults = (FaultSpec(FaultKind.CACHE_FLUSH, (first, second)),)
    return [
        ScenarioSpec(
            seed=seed,
            nodes=shape.nodes,
            stages=shape.stages,
            tasks_per_stage=shape.tasks_per_stage,
            metric_rate_hz=shape.metric_rate_hz,
            faults=faults,
        )
    ]
