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
    dots = np.zeros((len(usable), len(usable)))
    product = np.empty_like(dots)
    # sq[a, b] is |a|^2 over the dims b has, so it depends on b only through
    # b's mask row: sum once per distinct mask row, then spread.
    distinct: Dict[tuple, int] = {}
    pattern_of = [distinct.setdefault(tuple(row), len(distinct)) for row in mask.tolist()]
    patterns = np.array(list(distinct), dtype=bool)
    per_pattern = np.zeros((len(usable), len(patterns)))
    # Overflow gives inf here, where cosine_similarity's `** 2` raises
    # OverflowError; the pairs it touches are dropped below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float_power calls libm pow, as cosine_similarity's `** 2` does;
        # x * x rounds differently for about one value in a thousand.
        x2 = np.float_power(x, 2)
        # Accumulate dim by dim in sorted order, as cosine_similarity's sums
        # do; a dim one side lacks adds an exact 0.
        for k in range(len(order)):
            np.multiply(x[:, k, None], x[None, :, k], out=product)
            if not np.isfinite(x[:, k]).all():
                # 0 * inf is NaN, but a dim one side lacks must add 0.
                product[~(mask[:, k, None] & mask[None, :, k])] = 0.0
            dots += product
            per_pattern += np.where(patterns[None, :, k], x2[:, k, None], 0.0)
        sq = per_pattern[:, pattern_of]
        norms = np.sqrt(sq)
        # dots / (norms * norms.T), reusing the p x p buffers.
        sims = np.divide(dots, np.multiply(norms, norms.T, out=product), out=dots)
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
