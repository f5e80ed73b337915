"""Abnormal-node detection via pairwise cosine similarity of per-node mean
metric vectors.

`detect_abnormal_nodes` computes every pair at once in matrix form, one
array pass per metric dimension. It adds and multiplies in the same order
and with the same operations as the pairwise `cosine_similarity`, so its
scores are bit-identical to averaging that function over all peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np


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


def detect_abnormal_nodes(
    vectors: Mapping[str, Mapping[str, float]],
    cfg: SimilarityConfig = SimilarityConfig(),
) -> AbnormalNodeResult:
    """Average each node's similarity against all peers; below-threshold
    nodes are abnormal."""
    nodes = sorted(vectors)
    skipped: List[str] = []
    usable: List[str] = []
    for node in nodes:
        vec = vectors[node]
        if not vec or all(v == 0 for v in vec.values()):
            skipped.append(node)
            continue
        usable.append(node)
    if len(usable) < 2:
        return AbnormalNodeResult(evaluable=False, skipped=nodes)

    # x: p nodes x d metrics (0 where missing); mask: True where present.
    dims = sorted(set().union(*(vectors[n] for n in usable)))
    x = np.array([[vectors[n].get(k, 0.0) for k in dims] for n in usable])
    mask = np.array([[k in vectors[n] for k in dims] for n in usable])
    dots = np.zeros((len(usable), len(usable)))
    sq = np.zeros_like(dots)
    # Overflow gives inf here, where cosine_similarity's `** 2` raises
    # OverflowError; the pairs it touches are dropped below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float_power calls libm pow, as cosine_similarity's `** 2` does;
        # x * x rounds differently for about one value in a thousand.
        x2 = np.float_power(x, 2)
        # Accumulate dim by dim in sorted order, as cosine_similarity's sums
        # do; a dim one side lacks adds an exact 0. sq[a, b] is |a|^2 over
        # the dims b has.
        for k in range(len(dims)):
            dots += x[:, k, None] * x[None, :, k]
            sq += np.where(mask[None, :, k], x2[:, k, None], 0.0)
        norms = np.sqrt(sq)
        sims = dots / (norms * norms.T)
    # A pair counts when both norms over the shared dims are positive and
    # finite: the cases where cosine_similarity returns a score without
    # overflowing.
    ok = (sq > 0) & np.isfinite(sq)
    valid = ok & ok.T & np.isfinite(sims)
    np.fill_diagonal(valid, False)
    # cumsum adds each row left to right, as sum() over the peers does.
    totals = np.cumsum(np.where(valid, sims, 0.0), axis=1)[:, -1]

    # Nodes whose every pairing failed drop out of the evaluable set.
    similarity: Dict[str, float] = {}
    for node, total, count in zip(usable, totals.tolist(), valid.sum(axis=1).tolist()):
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
