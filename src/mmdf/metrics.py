"""Evaluation metrics: permutation-minimized membership errors,
mislabel counts for hard assignments, accuracy of community-count
estimation, and mixedness/purity indices of an estimated membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = [
    "ErrorPair",
    "MixednessIndices",
    "membership_errors",
    "mislabel_count",
    "accuracy_rate",
    "mixedness_indices",
]

# beyond this community count the K! permutation search switches to
# optimal linear assignment, which is exact because both error metrics
# decompose into per-column-pair costs
_EXHAUSTIVE_LIMIT = 8

_HIGHLY_MIXED_MAX = 0.7
_HIGHLY_PURE_MIN = 0.9


@dataclass(frozen=True)
class ErrorPair:
    """Permutation-minimized distances between membership matrices.

    hamming: minimum over column permutations of the entrywise l1
        difference divided by the node count. By the row structure of
        membership matrices it ranges in [0, 2].
    relative: minimum over column permutations of the Frobenius
        distance divided by the truth's Frobenius norm.
    permutation: the l1-minimizing column permutation (estimate column
        a matches truth column permutation[a]); the l2 minimizer may
        differ, but both metrics are zero together at the reported
        permutation when the matrices match.
    """

    hamming: float
    relative: float
    permutation: tuple[int, ...]


def _min_cost_permutation(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    k = cost.shape[0]
    if k <= _EXHAUSTIVE_LIMIT:
        best_perm = None
        best = np.inf
        for perm in permutations(range(k)):
            total = sum(cost[a, perm[a]] for a in range(k))
            if total < best:
                best = total
                best_perm = perm
        return float(best), tuple(best_perm)
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()), tuple(int(c) for c in cols)


def membership_errors(estimate: np.ndarray, truth: np.ndarray) -> ErrorPair:
    """l1 and l2 errors of an estimated membership matrix.

    Both metrics minimize over all column permutations of the truth;
    the minimizations are independent (the optimal matching can differ
    between the metrics).
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    n, k = estimate.shape
    # cost[a, b] = distance between estimate column a and truth column b
    l1_cost = np.abs(estimate[:, :, None] - truth[:, None, :]).sum(axis=0)
    sq_cost = np.square(estimate[:, :, None] - truth[:, None, :]).sum(axis=0)
    l1_total, perm = _min_cost_permutation(l1_cost)
    sq_total, _ = _min_cost_permutation(sq_cost)
    truth_norm = float(np.linalg.norm(truth))
    return ErrorPair(
        hamming=l1_total / n,
        relative=float(np.sqrt(sq_total)) / truth_norm,
        permutation=perm,
    )


def mislabel_count(estimate: np.ndarray, truth: np.ndarray) -> int:
    """Disagreements between two hard labelings, minimized over label
    permutations. Labels are 0-based community indices."""
    estimate = np.asarray(estimate, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if estimate.shape != truth.shape or estimate.ndim != 1:
        raise ValueError(f"label vectors must match: {estimate.shape} vs {truth.shape}")
    k = int(max(estimate.max(), truth.max())) + 1
    confusion = np.zeros((k, k))
    np.add.at(confusion, (estimate, truth), 1)
    # maximize agreement = minimize negated confusion
    agreement = -_min_cost_permutation(-confusion)[0]
    return int(len(estimate) - agreement)


def accuracy_rate(estimates: list[int] | np.ndarray, true_k: int) -> float:
    """Fraction of estimated community counts equal to the truth."""
    estimates = np.asarray(estimates)
    if estimates.size == 0:
        raise ValueError("no estimates supplied")
    return float(np.mean(estimates == true_k))


@dataclass(frozen=True)
class MixednessIndices:
    """Fractions of nodes with extreme membership concentration.

    eta_mixed: fraction of rows whose largest entry is <= 0.7.
    eta_pure: fraction of rows whose largest entry is >= 0.9.
    """

    eta_mixed: float
    eta_pure: float


def mixedness_indices(memberships: np.ndarray) -> MixednessIndices:
    m = np.asarray(memberships, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"membership matrix must be 2-d, got shape {m.shape}")
    row_max = m.max(axis=1)
    return MixednessIndices(
        eta_mixed=float(np.mean(row_max <= _HIGHLY_MIXED_MAX)),
        eta_pure=float(np.mean(row_max >= _HIGHLY_PURE_MIN)),
    )
