import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mmdf.graph import _BLOCK_ROWS, WeightedGraph
from mmdf.modularity import ModularityValue, estimate_k, fuzzy_weighted_modularity

from conftest import standard_spec
from mmdf.generator import Family, sample_adjacency


def brute_force_q(weights: np.ndarray, m: np.ndarray) -> tuple[float, float, float]:
    """Direct double-sum evaluation of the positive/negative soft
    modularities and their mass-weighted combination. Independent of the
    package implementation: explicit loops, straight from the formula."""
    n = weights.shape[0]
    a_pos = np.maximum(0.0, weights)
    a_neg = np.maximum(0.0, -weights)
    d_pos = a_pos.sum(axis=1)
    d_neg = a_neg.sum(axis=1)
    two_m_pos = d_pos.sum()
    two_m_neg = d_neg.sum()
    q_pos = 0.0
    if two_m_pos > 0:
        for i in range(n):
            for j in range(n):
                q_pos += (a_pos[i, j] - d_pos[i] * d_pos[j] / two_m_pos) * float(m[i] @ m[j])
        q_pos /= two_m_pos
    q_neg = 0.0
    if two_m_neg > 0:
        for i in range(n):
            for j in range(n):
                q_neg += (a_neg[i, j] - d_neg[i] * d_neg[j] / two_m_neg) * float(m[i] @ m[j])
        q_neg /= two_m_neg
    total = two_m_pos + two_m_neg
    q = (two_m_pos / total) * q_pos - (two_m_neg / total) * q_neg
    return q, q_pos, q_neg


def newman_girvan_q(weights: np.ndarray, labels: np.ndarray) -> float:
    """Classical hard-partition modularity, written out directly."""
    n = weights.shape[0]
    degrees = weights.sum(axis=1)
    two_m = degrees.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += weights[i, j] - degrees[i] * degrees[j] / two_m
    return q / two_m


def indicator(labels: np.ndarray, k: int) -> np.ndarray:
    m = np.zeros((len(labels), k))
    m[np.arange(len(labels)), labels] = 1.0
    return m


FOUR_NODE_SIGNED = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, -1.0, 0.0],
    [0.0, -1.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
])
# frozen from the brute-force oracle on the hard partition {0,1} / {2,3}
FOUR_NODE_EXPECTED = (0.5, 0.5, -0.5)


class TestFuzzyWeightedModularity:
    def test_single_community_is_exact_zero(self, rng):
        w = rng.normal(size=(9, 9))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        value = fuzzy_weighted_modularity(WeightedGraph(w), np.ones((9, 1)))
        assert value.q == 0.0
        assert value.q_pos == 0.0
        assert value.q_neg == 0.0

    def test_four_node_signed_example(self):
        m = indicator(np.array([0, 0, 1, 1]), 2)
        value = fuzzy_weighted_modularity(WeightedGraph(FOUR_NODE_SIGNED), m)
        oracle = brute_force_q(FOUR_NODE_SIGNED, m)
        assert oracle == pytest.approx(FOUR_NODE_EXPECTED, abs=1e-12)
        assert value.q == pytest.approx(oracle[0], abs=1e-12)
        assert value.q_pos == pytest.approx(oracle[1], abs=1e-12)
        assert value.q_neg == pytest.approx(oracle[2], abs=1e-12)

    def test_matches_brute_force_on_random_soft_partitions(self, rng):
        for _ in range(5):
            n = 8
            w = np.round(rng.normal(size=(n, n)), 2)
            w = w + w.T
            np.fill_diagonal(w, 0.0)
            m = rng.dirichlet(np.ones(3), size=n)
            value = fuzzy_weighted_modularity(WeightedGraph(w), m)
            q, q_pos, q_neg = brute_force_q(w, m)
            assert value.q == pytest.approx(q, abs=1e-12)
            assert value.q_pos == pytest.approx(q_pos, abs=1e-12)
            assert value.q_neg == pytest.approx(q_neg, abs=1e-12)

    def test_reduces_to_newman_girvan_for_hard_nonnegative(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 14))
            w = np.abs(np.round(rng.normal(size=(n, n)), 2))
            w = w + w.T
            np.fill_diagonal(w, 0.0)
            labels = rng.integers(0, 3, size=n)
            k = int(labels.max()) + 1
            value = fuzzy_weighted_modularity(WeightedGraph(w), indicator(labels, k))
            assert value.q == pytest.approx(newman_girvan_q(w, labels), abs=1e-12)
            assert value.neg_weight == 0.0

    def test_nonnegative_soft_reduces_to_positive_part(self, rng):
        w = np.abs(rng.normal(size=(7, 7)))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        m = rng.dirichlet(np.ones(2), size=7)
        value = fuzzy_weighted_modularity(WeightedGraph(w), m)
        assert value.q == value.q_pos
        assert value.pos_weight == 1.0

    def test_positive_scale_invariance_exact_for_binary_powers(self, rng):
        w = rng.normal(size=(8, 8))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        m = rng.dirichlet(np.ones(3), size=8)
        base = fuzzy_weighted_modularity(WeightedGraph(w), m)
        for c in (2.0, 0.5, 8.0, 0.125):
            scaled = fuzzy_weighted_modularity(WeightedGraph(c * w), m)
            assert scaled.q == base.q  # exact: scaling by 2**k is lossless
        # arbitrary positive scales agree to rounding error
        near = fuzzy_weighted_modularity(WeightedGraph(3.7 * w), m)
        assert near.q == pytest.approx(base.q, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(-1000, 1000))
    def test_binary_scaling_is_bitwise_invariant_at_any_exponent(self, seed, n, j):
        rng = np.random.default_rng(seed)
        w = np.triu(rng.normal(size=(n, n)), 1)
        w = w + w.T
        scaled = np.ldexp(w, j)
        # the scaled graph must hold w exactly (no overflow, no lost bits)
        assume(np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -j), w))
        m = rng.dirichlet(np.ones(3), size=n)
        base = fuzzy_weighted_modularity(WeightedGraph(w), m)
        assert fuzzy_weighted_modularity(WeightedGraph(scaled), m) == base

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data())
    def test_finite_for_any_finite_weights(self, seed, n, data):
        upper = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        w = np.zeros((n, n))
        w[np.triu_indices(n, 1)] = upper
        w = w + w.T
        m = np.random.default_rng(seed).dirichlet(np.ones(3), size=n)
        value = fuzzy_weighted_modularity(WeightedGraph(w), m)
        assert all(np.isfinite([value.q, value.q_pos, value.q_neg, value.pos_weight, value.neg_weight]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 2 * _BLOCK_ROWS + 3),
           st.integers(-5, 20), st.integers(-5, 20))
    @example(seed=0, n=12, pos_exp=20, neg_exp=-5)
    @example(seed=1, n=_BLOCK_ROWS + 1, pos_exp=20, neg_exp=-5)
    def test_streamed_products_match_dense_parts(self, seed, n, pos_exp, neg_exp):
        # positive and negative weights of independent scales: the
        # negative part must not be recovered as a difference of
        # positive-scale products, which loses it to rounding
        rng = np.random.default_rng(seed)
        sign = rng.choice([1.0, -1.0, 0.0], p=[0.4, 0.4, 0.2], size=(n, n))
        scale = np.where(sign > 0, 10.0**pos_exp, 10.0**neg_exp)
        w = np.triu(sign * scale * rng.uniform(0.5, 1.5, size=(n, n)), 1)
        w = w + w.T
        m = rng.dirichlet(np.ones(3), size=n)
        dense, two_ms = [], []
        for part in (np.maximum(w, 0.0), np.maximum(-w, 0.0)):
            d = part.sum(axis=1)
            two_m = d.sum()
            edge = np.einsum("ij,ij->", part @ m, m)
            dense.append((edge - np.square(d @ m).sum() / two_m) / two_m if two_m > 0 else 0.0)
            two_ms.append(two_m)
        total = sum(two_ms)
        q_dense = (two_ms[0] * dense[0] - two_ms[1] * dense[1]) / total if total > 0 else 0.0
        value = fuzzy_weighted_modularity(WeightedGraph(w), m)
        # every part lies in [-1, 1], so 1e-12 is relative to its scale
        assert value.q_pos == pytest.approx(dense[0], rel=1e-12, abs=1e-12)
        assert value.q_neg == pytest.approx(dense[1], rel=1e-12, abs=1e-12)
        assert value.q == pytest.approx(q_dense, rel=1e-12, abs=1e-12)

    def test_column_permutation_invariance(self, rng):
        w = rng.normal(size=(6, 6))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        m = rng.dirichlet(np.ones(3), size=6)
        base = fuzzy_weighted_modularity(WeightedGraph(w), m)
        permuted = fuzzy_weighted_modularity(WeightedGraph(w), m[:, [2, 0, 1]])
        assert permuted.q == pytest.approx(base.q, abs=1e-14)

    def test_pure_negative_graph_weighting(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        m = indicator(np.array([0, 1]), 2)
        value = fuzzy_weighted_modularity(WeightedGraph(w), m)
        assert value.pos_weight == 0.0
        assert value.neg_weight == 1.0
        assert value.q == -value.q_neg

    def test_empty_graph_scores_zero(self):
        value = fuzzy_weighted_modularity(WeightedGraph(np.zeros((4, 4))), np.full((4, 2), 0.5))
        assert value.q == 0.0

    def test_combination_identity_holds_exactly(self, rng):
        w = rng.normal(size=(10, 10))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        m = rng.dirichlet(np.ones(2), size=10)
        v = fuzzy_weighted_modularity(WeightedGraph(w), m)
        assert v.q == v.pos_weight * v.q_pos - v.neg_weight * v.q_neg
        assert v.pos_weight + v.neg_weight == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            fuzzy_weighted_modularity(WeightedGraph(np.zeros((3, 3))), np.ones((4, 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5 * _BLOCK_ROWS),
           st.integers(-5, 20), st.integers(-5, 20),
           st.lists(st.integers(1, 6), min_size=1, max_size=6), st.booleans())
    @example(seed=0, n=12, pos_exp=20, neg_exp=-5, ks=[1, 2, 3], empty=False)  # one block
    @example(seed=1, n=5 * _BLOCK_ROWS, pos_exp=20, neg_exp=-5, ks=[3, 1, 4], empty=False)  # five blocks
    @example(seed=2, n=9, pos_exp=0, neg_exp=0, ks=[1, 2, 5], empty=True)
    @example(seed=3, n=40, pos_exp=0, neg_exp=0, ks=[1], empty=False)
    def test_batch_matches_single_calls(self, seed, n, pos_exp, neg_exp, ks, empty):
        rng = np.random.default_rng(seed)
        sign = rng.choice([1.0, -1.0, 0.0], p=[0.4, 0.4, 0.2], size=(n, n))
        scale = np.where(sign > 0, 10.0**pos_exp, 10.0**neg_exp)
        w = np.triu(sign * scale * rng.uniform(0.5, 1.5, size=(n, n)), 1)
        w = np.zeros((n, n)) if empty else w + w.T
        ms = [rng.dirichlet(np.ones(k), size=n) for k in ks]
        g = WeightedGraph(w)
        batch = fuzzy_weighted_modularity(g, ms)
        assert isinstance(batch, list) and len(batch) == len(ms)
        for m, value in zip(ms, batch):
            single = fuzzy_weighted_modularity(WeightedGraph(w), m)
            assert value.q == pytest.approx(single.q, rel=1e-12, abs=1e-12)
            assert value.q_pos == pytest.approx(single.q_pos, rel=1e-12, abs=1e-12)
            assert value.q_neg == pytest.approx(single.q_neg, rel=1e-12, abs=1e-12)
            assert (value.pos_weight, value.neg_weight) == (single.pos_weight, single.neg_weight)

    def test_single_form_keeps_its_type_for_any_matrix_like(self, rng):
        w = rng.normal(size=(6, 6))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        g = WeightedGraph(w)
        m = rng.dirichlet(np.ones(2), size=6)
        value = fuzzy_weighted_modularity(g, m)
        assert isinstance(value, ModularityValue)
        # nested lists and lists of rows are one matrix, not a batch
        assert fuzzy_weighted_modularity(g, m.tolist()) == value
        assert fuzzy_weighted_modularity(g, list(m)) == value
        assert fuzzy_weighted_modularity(g, (m,)) == [value]

    def test_batch_checks_every_matrix(self):
        g = WeightedGraph(FOUR_NODE_SIGNED)
        good = indicator(np.array([0, 0, 1, 1]), 2)
        with pytest.raises(ValueError, match="sum to 1"):
            fuzzy_weighted_modularity(g, [good, 2.0 * good])
        with pytest.raises(ValueError, match="match"):
            fuzzy_weighted_modularity(g, [good, np.ones((3, 1))])


def q_without_diagonal(weights: np.ndarray, m: np.ndarray) -> float:
    """Variant oracle that drops the i == j null-model terms."""
    parts = []
    for part in (np.maximum(0.0, weights), np.maximum(0.0, -weights)):
        degrees = part.sum(axis=1)
        two_m = degrees.sum()
        if two_m == 0:
            parts.append(0.0)
            continue
        n = weights.shape[0]
        q = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    q += (part[i, j] - degrees[i] * degrees[j] / two_m) * float(m[i] @ m[j])
        parts.append(q / two_m)
    mass_pos = np.maximum(0.0, weights).sum()
    mass_neg = np.maximum(0.0, -weights).sum()
    total = mass_pos + mass_neg
    return (mass_pos / total) * parts[0] - (mass_neg / total) * parts[1]


def test_diagonal_terms_are_part_of_the_score():
    """The double sums include i == j, where only the null model
    contributes (the adjacency diagonal is zero). The regression values
    of the bundled networks pin this down: dropping the diagonal moves
    the middle network's score by 0.049, and only the with-diagonal
    value matches its published 0.3734."""
    from mmdf.datasets import load_dataset
    from mmdf.dfsp import dfsp

    published = {"gahuku-gama": (3, 0.4000), "karate": (2, 0.3734), "slovene-parties": (2, 0.4492)}
    for name, (k, target) in published.items():
        ds = load_dataset(name)
        m = dfsp(ds.graph.weights, k).memberships
        with_diag = fuzzy_weighted_modularity(ds.graph, m).q
        without_diag = q_without_diagonal(ds.graph.weights, m)
        assert with_diag == pytest.approx(target, abs=5e-4)
        if name == "karate":
            assert abs(without_diag - target) > 0.02  # the variant is distinguishable


def all_partitions(items, k):
    """Every partition of items into at most k nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest, k):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [first]] + sub[i + 1 :]
        if len(sub) < k:
            yield sub + [[first]]


class TestEstimateK:
    def test_two_cliques_match_exhaustive_partition_oracle(self):
        # two disjoint positive 5-cliques
        n = 10
        w = np.zeros((n, n))
        for block in (range(5), range(5, 10)):
            for i, j in itertools.combinations(block, 2):
                w[i, j] = w[j, i] = 1.0
        g = WeightedGraph(w)

        # oracle: best Newman-Girvan value over all hard partitions with
        # at most 3 blocks, tracking the block count of the argmax
        best_q, best_k = -np.inf, None
        for partition in all_partitions(list(range(n)), 3):
            labels = np.zeros(n, dtype=int)
            for b, block in enumerate(partition):
                labels[block] = b
            q = newman_girvan_q(w, labels)
            if q > best_q + 1e-12:
                best_q, best_k = q, len(partition)
        assert best_k == 2

        scan = estimate_k(g, k_max=3)
        assert scan.best_k == best_k

    def test_curve_starts_at_zero(self, rng):
        w = rng.normal(size=(12, 12))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        scan = estimate_k(WeightedGraph(w), k_max=4)
        assert scan.curve[0].k == 1
        assert scan.curve[0].modularity.q == 0.0

    def test_recovers_planted_k_on_generated_network(self):
        spec = standard_spec(Family.BERNOULLI, rho=0.9, n=120, pure=24, seed=21)
        graph, _ = sample_adjacency(spec)
        scan = estimate_k(graph, k_max=6)
        assert scan.best_k == 3

    def test_failures_recorded_not_fatal(self):
        # star graph: spectrum (+sqrt(3), -sqrt(3), 0, 0), so k=3 has no
        # rank-3 structure and must be skipped rather than fatal
        w = np.zeros((4, 4))
        w[0, 1:] = 1.0
        w[1:, 0] = 1.0
        scan = estimate_k(WeightedGraph(w), k_max=3)
        assert [p.ok for p in scan.curve] == [True, True, False]
        # a star has no community structure: the k=1 baseline (exact 0)
        # beats the negative k=2 score
        assert scan.best_k == 1

    def test_k_cutting_through_tied_magnitudes_is_a_recorded_failure(self):
        # 8-cycle: |λ| = 2, 2, √2, √2, √2, √2, 0, 0
        w = np.zeros((8, 8))
        idx = np.arange(8)
        w[idx, (idx + 1) % 8] = w[(idx + 1) % 8, idx] = 1.0
        scan = estimate_k(WeightedGraph(w), k_max=6)
        assert [p.ok for p in scan.curve] == [True, True, False, False, False, True]
        for p in scan.curve[2:5]:
            assert p.failure.startswith("eigendecomposition: ")
            assert "equal magnitude" in p.failure
        assert [p.k for p in scan.curve if p.failure is not None] == [3, 4, 5]

    def test_all_k_failing_raises(self):
        from mmdf.dfsp import EstimationError

        with pytest.raises(EstimationError, match="every k"):
            estimate_k(WeightedGraph(np.zeros((5, 5))), k_max=3)
