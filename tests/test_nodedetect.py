import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stagelens import correlate
from stagelens.correlate import FeatureDatasets
from stagelens.model import METRIC_SCHEMA
from stagelens.nodedetect import (
    SimilarityConfig,
    SimilarityError,
    cosine_similarity,
    detect_abnormal_nodes,
)


def as_vec(values):
    return {f"m{i}": v for i, v in enumerate(values)}


def test_identity_similarity_is_one():
    v = as_vec([0.3, 1.2, 9.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0)


def test_orthogonal_vectors():
    assert cosine_similarity(as_vec([1, 0]), as_vec([0, 1])) == pytest.approx(0.0)


def test_nearly_parallel_vectors_match_dot_product_oracle():
    v1, v2 = [1.0, 2.0, 3.0], [2.0, 4.0, 6.1]
    dot = sum(a * b for a, b in zip(v1, v2))
    expected = dot / (math.sqrt(sum(a * a for a in v1)) * math.sqrt(sum(b * b for b in v2)))
    got = cosine_similarity(as_vec(v1), as_vec(v2))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.99997, abs=1e-5)


def test_zero_norm_vector_is_an_error():
    with pytest.raises(SimilarityError):
        cosine_similarity(as_vec([0.0, 0.0]), as_vec([1.0, 2.0]))


def test_disjoint_dimensions_are_an_error():
    with pytest.raises(SimilarityError):
        cosine_similarity({"a": 1.0}, {"b": 1.0})


def test_shared_dimension_restriction():
    v1 = {"a": 1.0, "b": 2.0, "only1": 99.0}
    v2 = {"a": 1.0, "b": 2.0, "only2": -99.0}
    assert cosine_similarity(v1, v2) == pytest.approx(1.0)


def test_symmetry_and_positive_scale_invariance(rng):
    for _ in range(100):
        v1 = as_vec(rng.uniform(-2, 2, size=6))
        v2 = as_vec(rng.uniform(-2, 2, size=6))
        s = cosine_similarity(v1, v2)
        assert cosine_similarity(v2, v1) == pytest.approx(s, abs=1e-12)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        scaled = {k: 3.7 * v for k, v in v1.items()}
        assert cosine_similarity(scaled, v2) == pytest.approx(s, abs=1e-12)


def test_nonnegative_vectors_land_in_unit_interval(rng):
    for _ in range(100):
        v1 = as_vec(rng.uniform(0, 5, size=4) + 1e-6)
        v2 = as_vec(rng.uniform(0, 5, size=4) + 1e-6)
        assert 0.0 <= cosine_similarity(v1, v2) <= 1.0 + 1e-12


def test_published_similarity_pattern_flags_low_node():
    # one node far off-direction, five alike: the published case shape
    vectors = {
        "hw089": as_vec([1.0, 1.0, 0.2]),
        "hw062": as_vec([1.0, 0.9, 0.21]),
        "hw073": as_vec([0.9, 1.0, 0.2]),
        "hw103": as_vec([1.0, 1.0, 0.19]),
        "hw106": as_vec([1.05, 0.98, 0.2]),
        "hw114": as_vec([0.02, 0.01, 4.0]),
    }
    result = detect_abnormal_nodes(vectors, SimilarityConfig(th_simi=0.5))
    assert result.evaluable
    assert result.abnormal == ["hw114"]
    assert result.similarity["hw114"] < 0.5
    assert all(result.similarity[n] > 0.5 for n in vectors if n != "hw114")


def test_identical_vectors_are_all_normal():
    vectors = {f"n{i}": as_vec([1.0, 2.0, 3.0]) for i in range(4)}
    result = detect_abnormal_nodes(vectors)
    assert result.abnormal == []
    assert all(v == pytest.approx(1.0) for v in result.similarity.values())


def test_average_similarity_matches_bruteforce(rng):
    vectors = {f"n{i}": as_vec(rng.uniform(0.1, 2.0, size=5)) for i in range(3)}
    result = detect_abnormal_nodes(vectors)
    for node in vectors:
        sims = [
            cosine_similarity(vectors[node], vectors[other])
            for other in vectors
            if other != node
        ]
        assert result.similarity[node] == pytest.approx(sum(sims) / len(sims), abs=1e-12)


def test_fewer_than_two_evaluable_nodes():
    assert not detect_abnormal_nodes({"n1": as_vec([1.0])}).evaluable
    result = detect_abnormal_nodes({"n1": as_vec([1.0, 2.0]), "n2": as_vec([0.0, 0.0])})
    assert not result.evaluable
    assert "n2" in result.skipped


def test_abnormal_set_invariant_to_per_node_rescaling(rng):
    vectors = {f"n{i}": as_vec(rng.uniform(0.1, 3.0, size=6)) for i in range(5)}
    vectors["odd"] = as_vec(np.concatenate([rng.uniform(0.1, 0.2, 5), [60.0]]))
    base = detect_abnormal_nodes(vectors)
    rescaled = {
        node: {k: v * s for k, v in vec.items()}
        for (node, vec), s in zip(vectors.items(), [0.5, 2.0, 7.0, 1.0, 0.1, 3.0])
    }
    again = detect_abnormal_nodes(rescaled)
    assert base.abnormal == again.abnormal


def test_heterogeneous_flag_surfaces_caveat():
    vectors = {f"n{i}": as_vec([1.0, 2.0]) for i in range(3)}
    result = detect_abnormal_nodes(vectors, SimilarityConfig(homogeneous=False))
    assert result.caveat


def test_threshold_bounds_are_validated():
    with pytest.raises(ValueError):
        SimilarityConfig(th_simi=1.5)


def bruteforce_abnormal_nodes(vectors, cfg=SimilarityConfig()):
    """The pairwise definition: each node's mean cosine_similarity to every
    peer it has a defined score with, one cosine_similarity call per pair."""
    nodes = sorted(vectors)
    skipped = [n for n in nodes if not any(vectors[n].values())]
    usable = [n for n in nodes if n not in skipped]
    pair = {}
    for i, a in enumerate(usable):
        for b in usable[i + 1 :]:
            try:
                pair[a, b] = pair[b, a] = cosine_similarity(vectors[a], vectors[b])
            except SimilarityError:
                pass
    similarity = {}
    for node in usable:
        sims = [
            pair[node, other]
            for other in usable
            if (node, other) in pair and not math.isnan(pair[node, other])
        ]
        if sims:
            similarity[node] = sum(sims) / len(sims)
        else:
            skipped.append(node)
    if len(similarity) < 2:
        return False, {}, [], sorted(skipped)
    abnormal = [n for n in sorted(similarity) if similarity[n] < cfg.th_simi]
    return True, similarity, abnormal, sorted(skipped)


def assert_matches_bruteforce(vectors, cfg=SimilarityConfig()):
    result = detect_abnormal_nodes(vectors, cfg)
    evaluable, similarity, abnormal, skipped = bruteforce_abnormal_nodes(vectors, cfg)
    assert result.evaluable == evaluable
    assert result.skipped == skipped
    assert result.abnormal == abnormal
    assert result.similarity == similarity  # exact: the screen is bit-identical
    assert all(type(v) is float for v in result.similarity.values())


# A small metric pool, so that pairs often share few dims, none at all, or
# only dims where one side is zero. Values stay below 1e150, so that squares
# and their sums stay finite: cosine_similarity raises OverflowError past
# that (see test_overflowing_vector_is_skipped).
_METRICS = ("cpu", "disk", "mem", "net", "swap")
_VALUES = st.one_of(
    st.just(0.0),
    st.floats(-10.0, 10.0),
    st.floats(-1e150, 1e150),
)
_VECTOR = st.one_of(
    st.dictionaries(st.sampled_from(_METRICS), _VALUES),
    st.dictionaries(st.sampled_from(_METRICS), st.just(0.0)),
)
_VECTORS = st.integers(0, 40).flatmap(
    lambda p: st.lists(_VECTOR, min_size=p, max_size=p)
).map(lambda vecs: {f"n{i:02d}": v for i, v in enumerate(vecs)})


@given(vectors=_VECTORS, th_simi=st.floats(0.01, 0.99))
def test_screen_equals_pairwise_bruteforce(vectors, th_simi):
    assert_matches_bruteforce(vectors, SimilarityConfig(th_simi=th_simi))


def test_wide_cluster_with_missing_dims_equals_bruteforce():
    rng = np.random.default_rng(200)
    values = rng.uniform(-1.0, 5.0, size=(200, 20)).tolist()
    present = (rng.random((200, 20)) >= 0.05).tolist()
    vectors = {
        f"hw{i:03d}": {f"m{k:02d}": v for k, (v, keep) in enumerate(zip(row, mask)) if keep}
        for i, (row, mask) in enumerate(zip(values, present))
    }
    assert sum(len(v) for v in vectors.values()) < 200 * 20
    assert_matches_bruteforce(vectors)


def test_squares_round_as_pairwise_pow_does():
    # cosine_similarity squares with `** 2` (libm pow), which for about one
    # value in a thousand rounds differently from v * v.
    rng = np.random.default_rng(3)
    odd = [v for v in rng.uniform(100.0, 1000.0, size=20_000).tolist() if v**2 != v * v]
    if len(odd) < 8:
        pytest.skip("this libm's pow squares as v * v does")
    vectors = {f"n{i}": {"a": v, "b": 0.5, "c": 1.0 + i} for i, v in enumerate(odd[:8])}
    assert_matches_bruteforce(vectors)


def test_overflowing_vector_is_skipped():
    vectors = {"n0": {"cpu": 1e200}, "n1": {"cpu": 1.0}, "n2": {"cpu": 2.0}}
    with pytest.raises(OverflowError):
        cosine_similarity(vectors["n0"], vectors["n1"])
    result = detect_abnormal_nodes(vectors)
    assert result.skipped == ["n0"]
    assert result.similarity == {"n1": 1.0, "n2": 1.0}


def datasets_of(vectors):
    """Datasets whose mean table holds `vectors` (node -> schema metric -> mean)."""
    nodes = sorted(vectors)
    means = np.full((len(nodes), len(METRIC_SCHEMA)), np.nan)
    present = np.zeros(means.shape, dtype=bool)
    for i, node in enumerate(nodes):
        for metric, value in vectors[node].items():
            means[i, METRIC_SCHEMA.index(metric)] = value
            present[i, METRIC_SCHEMA.index(metric)] = True
    return FeatureDatasets(
        stage_id="s0", tnum={}, data_size=[], locality=[], nodes=nodes, means=means,
        present=present, blocks=[np.empty((len(nodes), 0, 1))],
        positions=[np.arange(len(nodes))], counts=np.ones(len(nodes), np.int64),
        matrix_metrics=[],
    )


# Schema metrics whose sorted order differs from the schema order, and means
# that overflowed to inf or NaN but are still present.
_SCHEMA_METRICS = ("cpu_usage", "mem_usage", "diskW_band", "IPC", "L2_MPKI")
_MEANS = st.one_of(_VALUES, st.sampled_from([math.inf, -math.inf, math.nan]))
_TABLES = st.integers(0, 40).flatmap(
    lambda p: st.lists(
        st.dictionaries(st.sampled_from(_SCHEMA_METRICS), _MEANS), min_size=p, max_size=p
    )
).map(lambda vecs: {f"n{i:02d}": v for i, v in enumerate(vecs)})


@given(vectors=_TABLES, th_simi=st.floats(0.01, 0.99))
def test_mean_table_screen_equals_dict_input_and_bruteforce(vectors, th_simi):
    cfg = SimilarityConfig(th_simi=th_simi)
    result = detect_abnormal_nodes(datasets_of(vectors), cfg)
    assert result == detect_abnormal_nodes(vectors, cfg)
    evaluable, similarity, abnormal, skipped = bruteforce_abnormal_nodes(vectors, cfg)
    assert (result.evaluable, result.similarity, result.abnormal, result.skipped) == (
        evaluable, similarity, abnormal, skipped
    )


# Budgets that force each block size of the screen. At 8 bytes every block
# is one row, and so is every product (a block never has fewer); at 2560
# bytes, blocks of several rows take their products a few rows or one row at
# a time, the last step often shorter; at 2**40 every node is in one block,
# its products taken in one call.
_BUDGETS = {"one-row": 8, "steps": 2560, "default": correlate._BLOCK_BYTES, "one-block": 2**40}
_SHAPES = pytest.mark.parametrize("budget", _BUDGETS.values(), ids=_BUDGETS.keys())


@st.composite
def _schema_tables(draw):
    """node -> schema metric -> mean over all 20 schema metrics: two nodes
    often, each node with one of a few presence patterns, and means picked
    from a small pool, so that +-0.0, inf, NaN and magnitudes far apart meet
    in one sum."""
    p = draw(st.one_of(st.just(2), st.integers(0, 24)))
    patterns = draw(st.lists(
        st.one_of(st.just(METRIC_SCHEMA), st.sets(st.sampled_from(METRIC_SCHEMA)).map(sorted)),
        min_size=1, max_size=3,
    ))
    pool = draw(st.lists(st.one_of(_MEANS, st.just(-0.0)), min_size=1, max_size=6))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        f"n{i:02d}": {m: pool[pick.integers(len(pool))] for m in draw(st.sampled_from(patterns))}
        for i in range(p)
    }


def assert_bits_match_bruteforce(vectors, cfg=SimilarityConfig()):
    """Table and mapping input give one result, and it is the brute force's
    bit for bit."""
    result = detect_abnormal_nodes(datasets_of(vectors), cfg)
    assert result == detect_abnormal_nodes(vectors, cfg)
    evaluable, similarity, abnormal, skipped = bruteforce_abnormal_nodes(vectors, cfg)
    assert (result.evaluable, result.abnormal, result.skipped) == (evaluable, abnormal, skipped)
    assert {n: v.hex() for n, v in result.similarity.items()} == {
        n: v.hex() for n, v in similarity.items()
    }


@_SHAPES
@given(vectors=_schema_tables(), th_simi=st.floats(0.01, 0.99))
def test_every_block_shape_equals_bruteforce(budget, vectors, th_simi):
    with mock.patch.object(correlate, "_BLOCK_BYTES", budget):
        assert_bits_match_bruteforce(vectors, SimilarityConfig(th_simi=th_simi))


@_SHAPES
def test_blocks_of_a_wide_cluster_equal_bruteforce(budget):
    # 200 nodes: at the default budget, a block of 163 rows and one of 37,
    # their products and the squared norms of the many presence patterns
    # that missing values make taken 8 at a time.
    rng = np.random.default_rng(200)
    values = rng.lognormal(0.0, 4.0, size=(200, 20)) * rng.choice([-1.0, 1.0], size=(200, 20))
    values[rng.random(values.shape) < 0.05] = np.nan  # missing
    values[3, 7], values[11, 0], values[40, 19] = math.inf, -0.0, 0.0
    vectors = {
        f"hw{i:03d}": {m: v for m, v in zip(METRIC_SCHEMA, row) if not math.isnan(v)}
        for i, row in enumerate(values.tolist())
    }
    with mock.patch.object(correlate, "_BLOCK_BYTES", budget):
        assert_bits_match_bruteforce(vectors)


@_SHAPES
def test_products_that_are_all_minus_zero_sum_to_plus_zero(budget):
    # Both products are -0.0, so the pair's dot is 0 and its score +0.0, as
    # cosine_similarity's sum from 0 gives: not -0.0.
    vectors = {"n0": {"IPC": 5.0, "cpu_usage": -0.0}, "n1": {"IPC": -0.0, "cpu_usage": 3.0}}
    assert cosine_similarity(vectors["n0"], vectors["n1"]).hex() == "0x0.0p+0"
    with mock.patch.object(correlate, "_BLOCK_BYTES", budget):
        assert_bits_match_bruteforce(vectors)


# Block shapes where a node's total could lose its peers' left-to-right
# order: numpy sums a reduce of 8 or more terms pairwise if it runs along a
# row, or down an array that is one column wide or in Fortran order.
_ORDER_SHAPES = {
    # 12 nodes at 8 * 12 * 12 bytes: a first block of 11 rows, whose
    # transposed remainder is the one column of node 11.
    "one-column-remainder": (12, 8 * 12 * 12),
    # 10 nodes at 8 bytes, in one-row blocks: node 0 adds its 9 peers along
    # its row, node 9 its 9 peers as 9 blocks' running totals.
    "one-row": (10, 8),
    # 30 nodes at 8 * 30 * 10 bytes: a first block of 9 rows, whose scores
    # add to the running totals of the 21 columns right of it, then blocks of
    # 13 and 8 rows.
    "running-totals": (30, 8 * 30 * 10),
}


@pytest.mark.parametrize("p, budget", _ORDER_SHAPES.values(), ids=_ORDER_SHAPES.keys())
def test_block_shapes_keep_each_total_in_peer_order(p, budget):
    # Means over 16 decades, so that scores far apart in size meet in one sum,
    # whose rounding then turns on the order of its terms.
    rng = np.random.default_rng(p)
    values = rng.normal(size=(p, len(METRIC_SCHEMA)))
    values *= 10.0 ** rng.integers(-8, 9, size=values.shape)
    values[rng.random(values.shape) < 0.1] = np.nan  # missing
    vectors = {
        f"hw{i:02d}": {m: v for m, v in zip(METRIC_SCHEMA, row) if not math.isnan(v)}
        for i, row in enumerate(values.tolist())
    }
    with mock.patch.object(correlate, "_BLOCK_BYTES", budget):
        assert_bits_match_bruteforce(vectors)


def test_screen_holds_no_table_of_all_pairs():
    # At 600 nodes one p x p float table is 2.88 MB; a block of the products
    # is at most _BLOCK_BYTES.
    rng = np.random.default_rng(600)
    means = rng.lognormal(0.0, 1.0, size=(600, len(METRIC_SCHEMA)))
    nodes = [f"hw{i:03d}" for i in range(600)]
    datasets = datasets_of({n: dict(zip(METRIC_SCHEMA, row)) for n, row in zip(nodes, means)})
    tracemalloc.start()
    try:
        result = detect_abnormal_nodes(datasets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluable and len(result.similarity) == 600
    assert peak < 600 * 600 * 8
