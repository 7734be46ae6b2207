from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from mmdf.metrics import (
    _min_cost_permutation,
    accuracy_rate,
    membership_errors,
    mislabel_count,
    mixedness_indices,
)


def exhaustive_errors(estimate: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Oracle: evaluate the full matrix difference for every column
    permutation of the truth, no columnwise decomposition."""
    n, k = estimate.shape
    best_l1 = np.inf
    best_fro = np.inf
    for perm in permutations(range(k)):
        diff = estimate - truth[:, perm]
        best_l1 = min(best_l1, np.abs(diff).sum() / n)
        best_fro = min(best_fro, np.linalg.norm(diff))
    return best_l1, best_fro / np.linalg.norm(truth)


def brute_force_cost(cost: np.ndarray) -> float:
    """Oracle: the smallest total over all k! column permutations."""
    k = cost.shape[0]
    return min(sum(cost[a, perm[a]] for a in range(k)) for perm in permutations(range(k)))


def random_cost(seed: int, k: int, tied: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if tied:  # a few small integers, so many permutations tie
        return rng.integers(0, 3, size=(k, k)).astype(float)
    return rng.normal(size=(k, k))


def dense_mislabel_count(estimate: np.ndarray, truth: np.ndarray) -> int:
    """Oracle: the count over a square confusion matrix of every label
    from 0 to the largest, present or not."""
    k = int(max(estimate.max(initial=0), truth.max(initial=0))) + 1
    confusion = np.zeros((k, k))
    np.add.at(confusion, (estimate, truth), 1)
    return int(len(estimate) + _min_cost_permutation(-confusion)[0])


class TestAssignmentSolver:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.booleans())
    def test_cost_equals_brute_force_up_to_k7(self, seed, k, tied):
        cost = random_cost(seed, k, tied)
        total, perm = _min_cost_permutation(cost)
        assert sorted(perm) == list(range(k))
        assert total == sum(cost[a, perm[a]] for a in range(k))
        assert total == pytest.approx(brute_force_cost(cost), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 30), st.booleans())
    def test_cost_equals_linear_sum_assignment(self, seed, k, tied):
        cost = random_cost(seed, k, tied)
        rows, cols = linear_sum_assignment(cost)
        assert _min_cost_permutation(cost)[0] == pytest.approx(cost[rows, cols].sum(), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6), st.booleans())
    def test_rows_go_to_distinct_columns_of_a_wider_matrix(self, seed, r, extra, tied):
        cost = random_cost(seed, r + extra, tied)[:r]
        total, perm = _min_cost_permutation(cost)
        assert len(set(perm)) == r
        assert total == sum(cost[a, perm[a]] for a in range(r))
        rows, cols = linear_sum_assignment(cost)
        assert total == pytest.approx(cost[rows, cols].sum(), abs=1e-12)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError, match="3 rows cannot go to distinct columns of 2"):
            _min_cost_permutation(np.zeros((3, 2)))

    def test_empty_and_single(self):
        assert _min_cost_permutation(np.zeros((0, 0))) == (0.0, ())
        assert _min_cost_permutation(np.array([[2.5]])) == (2.5, (0,))

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _min_cost_permutation(np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_tie_rule(self):
        # equal costs everywhere give the identity
        assert _min_cost_permutation(np.full((5, 5), 0.25)) == (1.25, (0, 1, 2, 3, 4))
        # rows are inserted in order along shortest augmenting paths, so
        # (1, 2, 0), the lexicographically first of the tied minimizers,
        # is not the one reported
        cost = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        assert _min_cost_permutation(cost) == (1.0, (2, 1, 0))
        assert brute_force_cost(cost) == 1.0
        assert sum(cost[a, (1, 2, 0)[a]] for a in range(3)) == 1.0
        # identical estimate columns: the tied matchings report the identity
        truth = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        estimate = np.full((3, 2), 0.5)
        assert membership_errors(estimate, truth).permutation == (0, 1)


class TestMembershipErrors:
    def test_identical_matrices(self, rng):
        m = rng.dirichlet(np.ones(3), size=10)
        err = membership_errors(m, m)
        assert err.hamming == 0.0
        assert err.relative == 0.0

    def test_swap_permutation_scores_zero(self):
        truth = np.array([[1.0, 0.0]])
        estimate = np.array([[0.0, 1.0]])
        err = membership_errors(estimate, truth)
        assert err.hamming == 0.0
        assert err.relative == 0.0
        assert err.permutation == (1, 0)

    def test_matches_exhaustive_oracle(self, rng):
        estimate = rng.dirichlet(np.ones(3), size=20)
        truth = rng.dirichlet(np.ones(3), size=20)
        err = membership_errors(estimate, truth)
        oracle_l1, oracle_rel = exhaustive_errors(estimate, truth)
        assert err.hamming == pytest.approx(oracle_l1, abs=1e-12)
        assert err.relative == pytest.approx(oracle_rel, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_assignment_equals_exhaustive_up_to_k6(self, rng, k):
        estimate = rng.dirichlet(np.ones(k), size=15)
        truth = rng.dirichlet(np.ones(k), size=15)
        err = membership_errors(estimate, truth)
        oracle_l1, oracle_rel = exhaustive_errors(estimate, truth)
        assert err.hamming == pytest.approx(oracle_l1, abs=1e-12)
        assert err.relative == pytest.approx(oracle_rel, abs=1e-12)

    def test_invariant_under_row_permutation(self, rng):
        estimate = rng.dirichlet(np.ones(4), size=12)
        truth = rng.dirichlet(np.ones(4), size=12)
        base = membership_errors(estimate, truth)
        order = rng.permutation(12)
        shuffled = membership_errors(estimate[order], truth[order])
        assert shuffled.hamming == pytest.approx(base.hamming, abs=1e-12)
        assert shuffled.relative == pytest.approx(base.relative, abs=1e-12)

    def test_hamming_range_bound(self, rng):
        for _ in range(20):
            estimate = rng.dirichlet(np.ones(3), size=8)
            truth = rng.dirichlet(np.ones(3), size=8)
            err = membership_errors(estimate, truth)
            assert 0.0 <= err.hamming <= 2.0

    def test_zero_iff_permutation_match(self, rng):
        truth = rng.dirichlet(np.ones(3), size=9)
        for perm in permutations(range(3)):
            err = membership_errors(truth[:, perm], truth)
            assert err.hamming == pytest.approx(0.0, abs=1e-12)
            assert err.relative == pytest.approx(0.0, abs=1e-12)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            membership_errors(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            membership_errors(np.full((2, 2), 0.5), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            membership_errors(np.ones((3, 2)) / 2, np.ones((4, 2)) / 2)


class TestMislabelCount:
    def test_identical(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert mislabel_count(labels, labels) == 0

    def test_swapped_binary(self):
        a = np.array([0, 0, 1, 1])
        assert mislabel_count(1 - a, a) == 0

    def test_single_disagreement(self):
        truth = np.array([0, 0, 1, 1])
        est = np.array([1, 1, 0, 1])  # swap-optimal with one mismatch
        assert mislabel_count(est, truth) == 1

    def test_matches_exhaustive_three_labels(self, rng):
        truth = rng.integers(0, 3, size=30)
        est = rng.integers(0, 3, size=30)
        best = min(
            int(np.sum(np.array([perm[x] for x in est]) != truth))
            for perm in permutations(range(3))
        )
        assert mislabel_count(est, truth) == best

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
    def test_matches_brute_force(self, seed, k, n):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, k, size=n)
        est = rng.integers(0, k, size=n)
        labels = int(max(est.max(), truth.max())) + 1
        best = min(
            int(np.sum(np.array(perm)[est] != truth))
            for perm in permutations(range(labels))
        )
        assert mislabel_count(est, truth) == best

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 12), min_size=n, max_size=n),
        st.lists(st.integers(0, 12), min_size=n, max_size=n))))
    def test_matches_dense_confusion_oracle(self, case):
        est, truth = (np.array(x, dtype=int) for x in case)
        assert mislabel_count(est, truth) == dense_mislabel_count(est, truth)

    def test_negative_label_rejected(self):
        # labels are community indices; a negative one is malformed input
        for est, truth in (([0, 0, 1], [0, 0, -1]), ([0, -2, 1], [0, 1, 1])):
            with pytest.raises(ValueError, match="got -"):
                mislabel_count(np.array(est), np.array(truth))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mislabel_count(np.array([0, 1]), np.array([0, 1, 1]))

    def test_empty_labels_disagree_nowhere(self):
        assert mislabel_count([], []) == 0


class TestAccuracyRate:
    def test_all_correct(self):
        assert accuracy_rate([3, 3, 3, 3], 3) == 1.0

    def test_half_correct(self):
        assert accuracy_rate([2, 3, 3, 4], 3) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy_rate([], 3)


class TestMixednessIndices:
    def test_identity_membership(self):
        idx = mixedness_indices(np.eye(4))
        assert idx.eta_pure == 1.0
        assert idx.eta_mixed == 0.0

    def test_uniform_rows_k2(self):
        idx = mixedness_indices(np.full((5, 2), 0.5))
        assert idx.eta_mixed == 1.0
        assert idx.eta_pure == 0.0

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            mixedness_indices(np.zeros((0, 2)))

    def test_thresholds_are_inclusive(self):
        m = np.array([[0.7, 0.3], [0.9, 0.1], [0.8, 0.2]])
        idx = mixedness_indices(m)
        assert idx.eta_mixed == pytest.approx(1 / 3)  # 0.7 counts as mixed
        assert idx.eta_pure == pytest.approx(1 / 3)   # 0.9 counts as pure
