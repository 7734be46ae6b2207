"""Symmetric eigendecomposition truncated to the top K eigenpairs by
magnitude, and greedy vertex hunting by successive projection.

Both are pure functions over immutable inputs. The eigensolver runs a
full dense decomposition and truncates; adequate for the desk-scale
networks this package targets (n up to a few thousand).

The ordering and sign convention of top_k_eigen do not depend on k, so
top_k_eigen(m, k) is bitwise the first k pairs of top_k_eigen(m, K) for
any K >= k. Callers that fit several community counts to one graph
decompose once at the largest count and take prefixes with
TopKEigen.head.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TopKEigen",
    "top_k_eigen",
    "successive_projection",
    "EarlyStopWarning",
]

# relative symmetry tolerance for eigensolver input
_SYMMETRY_TOL = 1e-9
# successive projection stops once the residual falls below this
# fraction of its initial Frobenius norm
_SP_RESIDUAL_TOL = 1e-12


class EarlyStopWarning(UserWarning):
    """Successive projection ran out of residual mass before finding
    the requested number of vertices."""


@dataclass(frozen=True)
class TopKEigen:
    """Top-k eigenpairs of a symmetric matrix, ordered by |eigenvalue|.

    vectors: (n, k) with orthonormal columns; each column's sign is
        fixed so that its largest-magnitude entry is positive.
    values: (k,) eigenvalues, |values[0]| >= ... >= |values[k-1]|.
    """

    vectors: np.ndarray
    values: np.ndarray

    def head(self, k: int) -> "TopKEigen":
        """The first k pairs, as views into this spectrum's arrays (read-only
        when the spectrum came from top_k_eigen)."""
        if not 1 <= k <= len(self.values):
            raise ValueError(f"k={k} out of range for a spectrum of {len(self.values)} pairs")
        return TopKEigen(vectors=self.vectors[:, :k], values=self.values[:k])


def top_k_eigen(m: np.ndarray, k: int) -> TopKEigen:
    """Eigenpairs of a symmetric matrix with the k largest |eigenvalues|.

    Arguments:
        m: (n, n) real matrix, symmetric within 1e-9 relative tolerance.
            An exactly symmetric matrix (every WeightedGraph) is
            decomposed as given; an inexactly symmetric one within the
            tolerance is replaced by its average 0.5 * (m + m.T) first.
        k: number of eigenpairs, 1 <= k <= n.

    The decomposition is deterministic: eigenvalues are sorted by
    decreasing magnitude (stable for ties) and each eigenvector's sign
    is fixed by its largest-magnitude entry. Raises ValueError when the
    matrix is not symmetric within tolerance, or when the solver
    returns a non-finite eigenvalue or eigenvector (weights near the
    float64 limit).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if not np.array_equal(m, m.T):
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        m = 0.5 * (m + m.T)

    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    vecs = vecs[:, order]
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise ValueError("eigendecomposition returned non-finite eigenpairs")
    vals = vals[order]
    for c in range(k):
        lead = np.argmax(np.abs(vecs[:, c]))
        if vecs[lead, c] < 0:
            vecs[:, c] = -vecs[:, c]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return TopKEigen(vectors=vecs, values=vals)


def successive_projection(y: np.ndarray, k: int) -> np.ndarray:
    """Select k extreme rows of a point cloud by successive projection.

    Greedily picks the row of maximum Euclidean norm, then projects all
    rows onto the orthogonal complement of the picked row, and repeats.
    Ties break toward the smallest row index. If the residual becomes
    numerically zero (Frobenius norm <= 1e-12 of its initial value)
    before k rows are found, the selection stops early: the returned
    index array is shorter than k and an EarlyStopWarning is issued.

    Returns the selected row indices in pick order.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected 2-d row-point array, got shape {y.shape}")
    m, r = y.shape
    if not 1 <= k <= min(m, r):
        raise ValueError(f"k={k} out of range for {m}x{r} input")

    residual = y.copy()
    initial_norm = float(np.linalg.norm(residual))
    picked: list[int] = []
    for _ in range(k):
        if float(np.linalg.norm(residual)) <= _SP_RESIDUAL_TOL * initial_norm:
            break
        idx = int(np.argmax(np.einsum("ij,ij->i", residual, residual)))
        if idx in picked:
            # residual is pure noise; nothing extreme left to find
            break
        picked.append(idx)
        u = residual[idx].copy()
        residual -= np.outer(residual @ u, u / float(u @ u))
    if len(picked) < k:
        warnings.warn(
            f"successive projection found {len(picked)} of {k} requested "
            "vertices before the residual vanished",
            EarlyStopWarning,
            stacklevel=2,
        )
    return np.array(picked, dtype=int)
