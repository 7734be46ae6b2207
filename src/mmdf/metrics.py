"""Evaluation metrics: permutation-minimized membership errors,
mislabel counts for hard assignments, accuracy of community-count
estimation, and mixedness/purity indices of an estimated membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        permutation when the matrices match. Among tied l1 minimizers
        it is the first the assignment solver reaches: estimate columns
        are matched in order 0..k-1, each along a shortest augmenting
        path, equally short paths going to the lowest truth column; so
        it depends on the costs alone, and equal costs give the identity.
    """

    hamming: float
    relative: float
    permutation: tuple[int, ...]


def _min_cost_permutation(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact minimum-cost assignment of r rows to distinct columns of an
    r x c cost matrix, r <= c: the total, summed over rows from left to
    right, and the assignment (row a goes to column perm[a]; a
    permutation when the matrix is square).

    Shortest augmenting path (Hungarian) method with dual potentials,
    O(r^2 c) (Jonker & Volgenant 1987). Both error metrics are sums of
    per-column-pair costs, so this minimizes them over permutations.
    """
    if not np.isfinite(cost).all():
        raise ValueError("assignment costs must be finite")
    r, c = cost.shape
    if r > c:
        raise ValueError(f"{r} rows cannot go to distinct columns of {c}")
    rows = cost.tolist()
    # index 0 is a virtual column that holds the row being inserted;
    # owner[j] is the 1-based row matched to column j - 1, 0 if free
    u = [0.0] * (r + 1)
    v = [0.0] * (c + 1)
    owner = [0] * (c + 1)
    way = [0] * (c + 1)
    for i in range(1, r + 1):
        owner[0] = i
        j0 = 0
        min_reduced = [np.inf] * (c + 1)
        used = [False] * (c + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = rows[i0 - 1], u[i0]
            delta, j1 = np.inf, 0
            for j in range(1, c + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < min_reduced[j]:
                        min_reduced[j], way[j] = reduced, j0
                    if min_reduced[j] < delta:
                        delta, j1 = min_reduced[j], j
            for j in range(c + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    min_reduced[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    perm = [0] * r
    for j in range(1, c + 1):
        if owner[j]:
            perm[owner[j] - 1] = j - 1
    # a plain loop: sum() of floats is compensated from Python 3.12 on
    total = 0.0
    for a in range(r):
        total += rows[a][perm[a]]
    return total, tuple(perm)


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
    if n == 0:
        raise ValueError("membership matrices have no rows")
    truth_norm = float(np.linalg.norm(truth))
    if truth_norm == 0.0:
        raise ValueError("truth membership matrix has zero norm, so the relative error is undefined")
    # cost[a, b] = distance between estimate column a and truth column b
    l1_cost = np.abs(estimate[:, :, None] - truth[:, None, :]).sum(axis=0)
    sq_cost = np.square(estimate[:, :, None] - truth[:, None, :]).sum(axis=0)
    l1_total, perm = _min_cost_permutation(l1_cost)
    sq_total, _ = _min_cost_permutation(sq_cost)
    return ErrorPair(
        hamming=l1_total / n,
        relative=float(np.sqrt(sq_total)) / truth_norm,
        permutation=perm,
    )


def mislabel_count(estimate: np.ndarray, truth: np.ndarray) -> int:
    """Disagreements between two hard labelings, minimized over label
    permutations. Labels are 0-based community indices; only those
    present count, so the cost does not grow with the largest label."""
    estimate = np.asarray(estimate, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if estimate.shape != truth.shape or estimate.ndim != 1:
        raise ValueError(f"label vectors must match: {estimate.shape} vs {truth.shape}")
    low = min(estimate.min(initial=0), truth.min(initial=0))
    if low < 0:
        raise ValueError(f"labels must be nonnegative community indices, got {low}")
    # each side's labels as dense codes, in first-appearance order
    codes, sizes = [], []
    for labels in (estimate.tolist(), truth.tolist()):
        dense: dict[int, int] = {}
        codes.append([dense.setdefault(x, len(dense)) for x in labels])
        sizes.append(len(dense))
    confusion = np.zeros(sizes)
    np.add.at(confusion, tuple(codes), 1)
    if confusion.shape[0] > confusion.shape[1]:
        confusion = confusion.T
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
    if len(m) == 0:
        raise ValueError("membership matrix has no rows")
    row_max = m.max(axis=1)
    return MixednessIndices(
        eta_mixed=float(np.mean(row_max <= _HIGHLY_MIXED_MAX)),
        eta_pure=float(np.mean(row_max >= _HIGHLY_PURE_MIN)),
    )
