from dataclasses import replace

import pytest

from stagelens.evaluate import Score, score, score_report
from stagelens.model import Finding, FindingKind
from stagelens.simulate import LabeledAnomaly


def finding(kind, stage="s0", node="n1", metric=None, score_value=1.0):
    subjects = (node, metric) if metric else (node,)
    return Finding(kind, stage, subjects, score_value, 0.5)


def label(stage="s0", node="n1", expected=((FindingKind.STRAGGLER, None),)):
    return LabeledAnomaly(stage_id=stage, node=node, expected_findings=frozenset(expected))


def test_perfect_detection():
    findings = [finding(FindingKind.STRAGGLER)]
    labels = [label()]
    s = score(findings, labels)
    assert (s.precision, s.recall, s.accuracy) == (1.0, 1.0, 1.0)


def test_published_arithmetic_example():
    findings = [
        finding(FindingKind.STRAGGLER, node="n1"),
        finding(FindingKind.STRAGGLER, node="n2"),
        finding(FindingKind.STRAGGLER, node="nX"),  # false alarm
    ]
    labels = [
        label(node="n1"),
        label(node="n2"),
        label(node="n3"),
        label(node="n4"),
    ]
    s = score(findings, labels)
    assert s.precision == pytest.approx(2 / 3)
    assert s.recall == pytest.approx(1 / 2)
    assert s.accuracy == pytest.approx(4 / 7)


def test_outlier_metric_requires_metric_match():
    findings = [finding(FindingKind.OUTLIER_METRIC, metric="IPC")]
    labels = [label(expected=((FindingKind.OUTLIER_METRIC, "L3_MPKI"),))]
    s = score(findings, labels)
    assert s.successes == 0
    ok = score(
        findings, [label(expected=((FindingKind.OUTLIER_METRIC, "IPC"),))]
    )
    assert ok.successes == 1


def test_duplicates_collapse_before_counting():
    findings = [finding(FindingKind.STRAGGLER)] * 5
    labels = [label()]
    s = score(findings, labels)
    assert s.alarms == 1
    assert s.precision == 1.0


def test_zero_alarms_degenerate():
    s = score([], [label()])
    assert s.degenerate
    assert s.precision == 0.0
    assert s.recall == 0.0
    assert s.accuracy == 0.0
    empty = score([], [])
    assert empty.degenerate and empty.precision == 1.0 and empty.recall == 1.0


def test_accuracy_is_harmonic_mean_invariants(rng):
    for _ in range(100):
        successes = int(rng.integers(0, 10))
        alarms = successes + int(rng.integers(0, 10))
        outliers = successes + int(rng.integers(0, 10))
        if alarms == 0 or outliers == 0:
            continue
        s = Score.from_counts(successes, alarms, outliers)
        assert 0.0 <= s.precision <= 1.0
        assert 0.0 <= s.recall <= 1.0
        assert s.accuracy <= max(s.precision, s.recall) + 1e-12
        if s.precision == 0 or s.recall == 0:
            assert s.accuracy == 0.0


def test_kind_filter_restricts_scoring():
    findings = [
        finding(FindingKind.STRAGGLER),
        finding(FindingKind.OUTLIER_METRIC, metric="IPC"),
    ]
    labels = [
        label(expected=((FindingKind.STRAGGLER, None), (FindingKind.OUTLIER_METRIC, "IPC")))
    ]
    s = score(findings, labels, kinds={FindingKind.OUTLIER_METRIC})
    assert s.alarms == 1 and s.outliers == 1 and s.successes == 1


def test_score_report_lists_overall_and_kinds():
    findings = [finding(FindingKind.STRAGGLER)]
    labels = [label()]
    text = score_report(findings, labels)
    assert text.startswith("overall")
    assert "Straggler" in text
    assert "precision=1.0000" in text

    # Restricted to kinds, the table is that of the filtered inputs.
    findings += [
        finding(FindingKind.ABNORMAL_NODE, node="n2"),
        finding(FindingKind.OUTLIER_METRIC, metric="IPC"),
    ]
    labels += [
        label(node="n2", expected=((FindingKind.ABNORMAL_NODE, None), (FindingKind.STRAGGLER, None))),
        label(node="n3", expected=((FindingKind.SKEW_DATA_SIZE, None),)),
    ]
    for kinds in ({FindingKind.ABNORMAL_NODE}, {FindingKind.STRAGGLER, FindingKind.OUTLIER_METRIC}):
        text = score_report(findings, labels, kinds=kinds)
        kept = [f for f in findings if f.kind in kinds]
        narrowed = [
            replace(rec, expected_findings=frozenset(e for e in rec.expected_findings if e[0] in kinds))
            for rec in labels
            if any(e[0] in kinds for e in rec.expected_findings)
        ]
        assert text == score_report(kept, narrowed)
        assert [row.split("\t")[0] for row in text.splitlines()] == ["overall"] + [
            kind.value for kind in FindingKind if kind in kinds
        ]
