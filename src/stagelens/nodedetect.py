"""Abnormal-node detection via pairwise cosine similarity of per-node mean
metric vectors.

`detect_abnormal_nodes` scores each pair once: in blocks of rows, each
block's nodes against the nodes from its first on, its products over every
metric in as few calls as fit, every temporary within
`correlate._BLOCK_BYTES`. A running total per node carries its scores from
block to block. The sums add and multiply in the same order and with the
same operations as the pairwise `cosine_similarity`, so the scores are
bit-identical to averaging that function over all peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Union

import numpy as np

from . import correlate
from .correlate import FeatureDatasets
from .model import METRIC_SCHEMA


class SimilarityError(Exception):
    pass


@dataclass(frozen=True)
class SimilarityConfig:
    th_simi: float = 0.5
    homogeneous: bool = True  # heterogeneous clusters get a caveat, not a block

    def __post_init__(self) -> None:
        if not 0 < self.th_simi < 1:
            raise ValueError("similarity threshold must be in (0,1)")


def cosine_similarity(v1: Mapping[str, float], v2: Mapping[str, float]) -> float:
    """Cosine over the dimensions both vectors share.

    Missing metrics are excluded pairwise; a zero-norm restriction is an
    error so callers can mark the node not evaluable.
    """
    shared = sorted(set(v1) & set(v2))
    if not shared:
        raise SimilarityError("vectors share no metric dimensions")
    dot = sum(v1[k] * v2[k] for k in shared)
    n1 = math.sqrt(sum(v1[k] ** 2 for k in shared))
    n2 = math.sqrt(sum(v2[k] ** 2 for k in shared))
    if n1 == 0 or n2 == 0:
        raise SimilarityError("zero-norm vector has undefined similarity")
    return dot / (n1 * n2)


@dataclass
class AbnormalNodeResult:
    evaluable: bool
    similarity: Dict[str, float] = field(default_factory=dict)  # node -> avg simi
    abnormal: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)  # not evaluable nodes
    caveat: str = ""


def _similarity_totals(x: np.ndarray, mask: np.ndarray):
    """Each node's sum of cosine similarities over the peers it has a valid
    score with, and the count of those peers.

    x is p nodes x d metrics (0 where missing), mask True where present,
    p >= 2. The p x p pair table is symmetric bit for bit, so only its part
    on and right of the diagonal is built, in blocks of rows taken in row
    order, and each node's total is carried from block to block. No
    temporary holds more than _BLOCK_BYTES, except the inputs, the
    p x (distinct presence patterns) table of squared norms, and a single
    row with its running totals, or a single row's products, when one does
    not fit.
    """
    p, d = x.shape
    budget = correlate._BLOCK_BYTES
    # Metrics x nodes, so that each metric is a contiguous row.
    xT, maskT = np.ascontiguousarray(x.T), np.ascontiguousarray(mask.T)
    finite = bool(np.isfinite(xT).all())
    # |a|^2 over the dims b has depends on b only through b's mask row: sum
    # once per distinct mask row, then spread. When every node reports every
    # metric, the one pattern is all True and every node has it: the arrays
    # np.unique would return, without its sort. Else np.unique sees each row
    # as one d-byte item: its axis=0 form does the same through a d-field
    # record type, 5-20x slower, and leaves d-item tuples on CPython's free
    # list.
    if mask.all():
        patternsT, pattern_of = np.ones((d, 1), dtype=bool), np.zeros(p, dtype=np.intp)
    else:
        items = np.ascontiguousarray(mask).view(np.dtype((np.void, d))).reshape(p)
        patterns, pattern_of = np.unique(items, return_inverse=True)
        patternsT = patterns.view(bool).reshape(-1, d).T
    kinds = patternsT.shape[1]
    per_pattern = np.empty((p, kinds))
    totals, counts = np.zeros(p), np.zeros(p, dtype=np.int64)
    # One buffer holds each step's products. Their shapes differ from step to
    # step, and arrays allocated anew leave holes in the heap that later
    # ones do not fit, which raises peak RSS.
    buffer = np.empty(max(d * p, min(budget // 8, d * p * p)))
    # Overflow gives inf here, where cosine_similarity's `** 2` raises
    # OverflowError; the pairs it touches are dropped below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float_power calls libm pow, as cosine_similarity's `** 2` does;
        # x * x rounds differently for about one value in a thousand.
        x2T = np.float_power(xT, 2)
        # Each reduce over the metric axis below runs over the outermost axis
        # in memory (the products are built in C order; np.where keeps its
        # inputs'), and each slice holds at least two values; so it adds
        # slice after slice in sorted metric order, as cosine_similarity's
        # sums do. Only a reduce along the innermost axis sums pairwise. (The
        # last node's product with itself is one value a slice: no score.)
        step = max(1, budget // (8 * d * p))
        for lo in range(0, kinds, step):
            # per_pattern[b, j] is |b|^2 over the dims of pattern j, `step`
            # patterns at a time; a dim outside the pattern adds an exact 0,
            # and no square is -0.0.
            chunk = patternsT[:, None, lo : lo + step]
            per_pattern[:, lo : lo + step] = np.add.reduce(
                np.where(chunk, x2T[:, :, None], 0.0), axis=0
            )
        # A pair counts when both norms over the shared dims are positive and
        # finite: the cases where cosine_similarity returns a score without
        # overflowing. Any other norm is NaN here, and so is its pairs' score.
        roots = np.where(
            (per_pattern > 0) & np.isfinite(per_pattern), np.sqrt(per_pattern), np.nan
        )
        lo = 0
        while lo < p:
            # A block: rows [lo, lo + n) against columns [lo, p), under a row
            # of each column's running total over the rows above the block.
            m = p - lo
            n = max(1, min(m, budget // (8 * m) - 1))
            hi = lo + n
            table = np.empty((n + 1, m))
            table[0] = totals[lo:]
            dots = table[1:]
            a = 0
            while a < n:
                # A step: block rows [a, b) against block columns [a, m).
                b = min(n, a + max(1, budget // (8 * d * (m - a))))
                rows, cols = slice(lo + a, lo + b), slice(lo + a, p)
                products = buffer[: d * (b - a) * (m - a)].reshape(d, b - a, m - a)
                np.multiply(xT[:, rows, None], xT[:, None, cols], out=products)
                if not finite:
                    # 0 * inf is NaN, but a dim one side lacks must add 0.
                    products[~(maskT[:, rows, None] & maskT[:, None, cols])] = 0.0
                np.add.reduce(products, axis=0, out=dots[a:b, a:])
                if a:
                    # The columns left of the step: the same products added
                    # in the same order, so dots[j, i] is dots[i, j] bit for bit.
                    dots[a:b, :a] = dots[:a, a:b].T
                a = b
            # Row i, column j: |i| over j's dims times |j| over i's dims.
            np.divide(
                dots, roots[lo:hi][:, pattern_of[lo:]] * roots[lo:, pattern_of[lo:hi]].T, out=dots
            )
            valid = np.isfinite(table)  # C-contiguous, as table is
            valid[1:].reshape(-1)[:: m + 1] = False  # the diagonal
            table[~valid] = 0.0
            # One pass down the table adds to each column's running total its
            # scores with the block's rows, top to bottom: a row below the
            # block takes its next peers in order, and a block row, by
            # symmetry, its peers in the block. The totals start from +0.0, as
            # sum() does, so a score of -0.0 adds as +0.0 does.
            totals[lo:] = np.add.reduce(table, axis=0)
            counts[lo:] += valid[1:].sum(axis=0)
            if n < m:
                # Then a block row adds its peers right of the block in order,
                # from its total so far, put in a block column already summed.
                dots[:, n - 1] = totals[lo:hi]
                totals[lo:hi] = np.cumsum(dots[:, n - 1 :], axis=1)[:, -1]
                counts[lo:hi] += valid[1:, n:].sum(axis=1)
            lo = hi
    return totals, counts


def detect_abnormal_nodes(
    vectors: Union[FeatureDatasets, Mapping[str, Mapping[str, float]]],
    cfg: SimilarityConfig = SimilarityConfig(),
) -> AbnormalNodeResult:
    """Average each node's similarity against all peers; below-threshold
    nodes are abnormal.

    `vectors` is a stage's datasets, whose mean table is read directly, or a
    node -> metric -> mean mapping, which is first turned into such a table.
    `diagnose` passes the datasets; the mapping form is kept only for
    perfbench/spans.py:128, whose replay passes `datasets.vectors`.
    """
    if isinstance(vectors, FeatureDatasets):
        nodes, dims = vectors.nodes, list(METRIC_SCHEMA)
        means, present = vectors.means, vectors.present
    else:
        nodes = sorted(vectors)
        dims = sorted(set().union(*vectors.values()))
        shape = (len(nodes), len(dims))
        means = np.array([[vectors[n].get(k, 0.0) for k in dims] for n in nodes], float)
        present = np.array([[k in vectors[n] for k in dims] for n in nodes], bool)
        means, present = means.reshape(shape), present.reshape(shape)
    # A node with no metric, or with only zeros, has no direction.
    usable_rows = (present & (means != 0)).any(axis=1)
    usable = [n for n, ok in zip(nodes, usable_rows.tolist()) if ok]
    skipped = [n for n, ok in zip(nodes, usable_rows.tolist()) if not ok]
    if len(usable) < 2:
        return AbnormalNodeResult(evaluable=False, skipped=list(nodes))

    # x: p nodes x d metrics in sorted metric order (0 where missing); mask:
    # True where present. A metric no usable node has adds exact zeros.
    order = sorted(range(len(dims)), key=dims.__getitem__)
    mask = present[usable_rows][:, order]
    x = np.where(mask, means[usable_rows][:, order], 0.0)
    totals, counts = _similarity_totals(x, mask)

    # Nodes whose every pairing failed drop out of the evaluable set.
    similarity: Dict[str, float] = {}
    for node, total, count in zip(usable, totals.tolist(), counts.tolist()):
        if not count:
            skipped.append(node)
            continue
        similarity[node] = total / count

    if len(similarity) < 2:
        return AbnormalNodeResult(evaluable=False, skipped=sorted(skipped))
    abnormal = [n for n in sorted(similarity) if similarity[n] < cfg.th_simi]
    caveat = "" if cfg.homogeneous else (
        "cluster declared heterogeneous; cross-node similarity assumes peer nodes"
    )
    return AbnormalNodeResult(
        evaluable=True,
        similarity=similarity,
        abnormal=abnormal,
        skipped=sorted(skipped),
        caveat=caveat,
    )
