"""Abnormal-node detection via pairwise cosine similarity of per-node mean
metric vectors.

`detect_abnormal_nodes` computes the pairs in blocks of rows: a block of
nodes against all p nodes at a time, its products over every metric in as
few calls as fit, every temporary within _BLOCK_BYTES. The sums add and
multiply in the same order and with the same operations as the pairwise
`cosine_similarity`, so the scores are bit-identical to averaging that
function over all peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Union

import numpy as np

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


#: The byte budget of each temporary array of the screen: a block of rows
#: of the p x p pair tables, or the metrics x rows x p products behind it.
_BLOCK_BYTES = 256 * 1024


def _similarity_totals(x: np.ndarray, mask: np.ndarray):
    """Each node's sum of cosine similarities over the peers it has a valid
    score with, and the count of those peers.

    x is p nodes x d metrics (0 where missing), mask True where present,
    p >= 2. The pair tables are built `rows` nodes against all p at a time,
    and their products over every metric `step` rows at a time, one call
    each, so no temporary holds more than _BLOCK_BYTES. The exceptions are
    the inputs, the p x (distinct presence patterns) table of squared norms,
    and a single row when d * p * 8 > _BLOCK_BYTES.
    """
    p, d = x.shape
    rows = max(1, min(p, _BLOCK_BYTES // (8 * p)))
    # The rows whose products over every metric fit the budget.
    step = max(1, min(rows, _BLOCK_BYTES // (8 * d * p)))
    # Metrics x nodes, so that each metric is a contiguous row.
    xT, maskT = np.ascontiguousarray(x.T), np.ascontiguousarray(mask.T)
    finite = bool(np.isfinite(xT).all())
    # |a|^2 over the dims b has depends on b only through b's mask row: sum
    # once per distinct mask row, then spread. np.unique sees each row as
    # one d-byte item: its axis=0 form does the same through a d-field
    # record type, 5-20x slower, and leaves d-item tuples on CPython's
    # free list.
    items = np.ascontiguousarray(mask).view(np.dtype((np.void, d))).reshape(p)
    patterns, pattern_of = np.unique(items, return_inverse=True)
    patternsT = patterns.view(bool).reshape(-1, d).T
    per_pattern = np.empty((p, len(patterns)))
    totals, counts = np.empty(p), np.empty(p, dtype=np.int64)
    dots_buffer = np.empty((rows, p))
    # Overflow gives inf here, where cosine_similarity's `** 2` raises
    # OverflowError; the pairs it touches are dropped below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float_power calls libm pow, as cosine_similarity's `** 2` does;
        # x * x rounds differently for about one value in a thousand.
        x2T = np.float_power(xT, 2)
        # Each reduce below runs over the metric axis, outermost in memory
        # (the products are built in C order; np.where keeps its inputs'),
        # and each slice holds at least p >= 2 values; so it adds slice after
        # slice in sorted metric order, as cosine_similarity's sums do. Only
        # a reduce along the innermost axis sums pairwise.
        for lo in range(0, len(patterns), step):
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
        for lo in range(0, p, rows):
            hi = min(lo + rows, p)
            dots = dots_buffer[: hi - lo]
            for top in range(lo, hi, step):
                end = min(top + step, hi)
                block = np.multiply(xT[:, top:end, None], xT[:, None, :], order="C")
                if not finite:
                    # 0 * inf is NaN, but a dim one side lacks must add 0.
                    block[~(maskT[:, top:end, None] & maskT[:, None, :])] = 0.0
                np.add.reduce(block, axis=0, out=dots[top - lo : end - lo])
            # Some numpy versions start a reduce from its first slice, not
            # from +0.0: adding 0.0 turns a sum of only -0.0 into +0.0.
            dots += 0.0
            # Row a, column b: |a| over b's dims times |b| over a's dims.
            norms = roots[lo:hi][:, pattern_of] * roots[:, pattern_of[lo:hi]].T
            sims = np.divide(dots, norms, out=dots)
            valid = np.isfinite(sims)  # C-contiguous, as dots is
            valid.reshape(-1)[lo :: p + 1] = False  # the diagonal
            # cumsum adds each row left to right, as sum() over the peers does.
            totals[lo:hi] = np.cumsum(np.where(valid, sims, 0.0), axis=1)[:, -1]
            counts[lo:hi] = valid.sum(axis=1)
    return totals, counts


def detect_abnormal_nodes(
    vectors: Union[FeatureDatasets, Mapping[str, Mapping[str, float]]],
    cfg: SimilarityConfig = SimilarityConfig(),
) -> AbnormalNodeResult:
    """Average each node's similarity against all peers; below-threshold
    nodes are abnormal.

    `vectors` is a stage's datasets, whose mean table is read directly, or a
    node -> metric -> mean mapping, which is first turned into such a table.
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
