"""Scores detector findings against simulator ground-truth labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

from .model import Finding, FindingKind
from .simulate import LabeledAnomaly

MatchKey = Tuple[FindingKind, str, str, Optional[str]]  # kind, stage, node, metric


def _finding_key(finding: Finding) -> MatchKey:
    return (finding.kind, finding.stage_id, finding.node, finding.metric)


def _label_keys(label: LabeledAnomaly) -> Set[MatchKey]:
    return {
        (kind, label.stage_id, label.node, metric)
        for kind, metric in label.expected_findings
    }


@dataclass
class Score:
    precision: float
    recall: float
    accuracy: float
    successes: int
    alarms: int
    outliers: int
    degenerate: bool = False

    @staticmethod
    def from_counts(successes: int, alarms: int, outliers: int) -> "Score":
        degenerate = alarms == 0 or outliers == 0
        if alarms == 0:
            precision = 1.0 if outliers == 0 else 0.0
        else:
            precision = successes / alarms
        if outliers == 0:
            recall = 1.0 if alarms == 0 else 0.0
        else:
            recall = successes / outliers
        if precision + recall > 0:
            accuracy = 2 * precision * recall / (precision + recall)
        else:
            accuracy = 0.0
        return Score(
            precision=precision,
            recall=recall,
            accuracy=accuracy,
            successes=successes,
            alarms=alarms,
            outliers=outliers,
            degenerate=degenerate,
        )


def score(
    findings: Iterable[Finding],
    labels: Iterable[LabeledAnomaly],
    kinds: Optional[Set[FindingKind]] = None,
) -> Score:
    """Precision / recall / harmonic-mean accuracy over deduplicated keys.

    A finding succeeds when a label matches its kind, stage and node (and
    metric name for outlier-metric findings). `kinds` restricts scoring to a
    detector subset.
    """
    alarm_keys: Set[MatchKey] = set()
    for finding in findings:
        if kinds is None or finding.kind in kinds:
            alarm_keys.add(_finding_key(finding))
    truth_keys: Set[MatchKey] = set()
    for label in labels:
        for key in _label_keys(label):
            if kinds is None or key[0] in kinds:
                truth_keys.add(key)
    successes = len(alarm_keys & truth_keys)
    return Score.from_counts(successes, len(alarm_keys), len(truth_keys))


def score_report(
    findings: Sequence[Finding],
    labels: Sequence[LabeledAnomaly],
    kinds: Optional[Set[FindingKind]] = None,
) -> str:
    """Structured-text score table: overall plus one row per detector kind,
    both restricted to `kinds` when given."""
    rows = [("overall", score(findings, labels, kinds))]
    for kind in FindingKind:
        if kinds is None or kind in kinds:
            s = score(findings, labels, kinds={kind})
            if s.alarms or s.outliers:
                rows.append((kind.value, s))
    return "".join(
        f"{name}\tprecision={s.precision:.4f}"
        f"\trecall={s.recall:.4f}"
        f"\taccuracy={s.accuracy:.4f}"
        f"\tsuccesses={s.successes}"
        f"\talarms={s.alarms}"
        f"\toutliers={s.outliers}\n"
        for name, s in rows
    )
