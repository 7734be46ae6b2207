"""Spectral estimation of overlapping community memberships.

The estimator (DFSP) runs four steps on a symmetric adjacency matrix:
top-k eigendecomposition, vertex hunting over the eigenvector rows,
inversion against the corner rows, and nonnegative clipping with row
normalization. Applied to a rank-k population matrix it recovers the
generating membership matrix exactly, up to column permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import TopKEigen, successive_projection, top_k_eigen

# corner matrices above this condition number are rejected: they signal
# a bad community count or degenerate input, which callers must observe
_MAX_CORNER_CONDITION = 1e12
# the estimator presumes a rank-k mean structure; a k-th eigenvalue at
# or below this fraction of |lambda_1| (or an all-zero spectrum) means
# no such structure exists at this k
_RANK_TOL = 1e-12
# |lambda_k| - |lambda_{k+1}| at or below this fraction of |lambda_1|
# is a tie: the k-dimensional eigenspace is not identified. Rounding
# gives ~1e-13; the smallest gap measured on sampled graphs was 3.8e-5
_TIE_TOL = 1e-9
# a membership row is a probability vector when its sum is within this of 1
_ROW_SUM_TOL = 1e-10


class EstimationError(RuntimeError):
    """Estimation failed at some stage; .stage names the failing step."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class DfspReport:
    """Result of a membership estimation run.

    memberships: (n, k) nonnegative matrix with unit row sums.
    vertex_indices: rows of the eigenvector matrix picked as simplex
        corners (one estimated pure node per community).
    eigen: the truncated eigendecomposition that was inverted, exactly
        k pairs (views into the caller's spectrum when one was passed).
    clipped_rows: rows where clipping removed negative mass.
    degenerate_rows: rows that were entirely nonpositive before
        normalization and were replaced by the uniform distribution.
    corner_condition: 2-norm condition number of the corner rows that
        were inverted.
    """

    memberships: np.ndarray
    vertex_indices: np.ndarray
    eigen: TopKEigen
    clipped_rows: int
    degenerate_rows: int
    corner_condition: float


def validate_memberships(m: np.ndarray) -> None:
    """Raise unless every row of m is a probability vector."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"membership matrix must be 2-d, got shape {m.shape}")
    # reductions to one number, with no boolean temporaries: this runs
    # on every scored k
    if m.min(initial=0.0) < 0:
        raise ValueError("membership entries must be nonnegative")
    if np.abs(m.sum(axis=1) - 1.0).max(initial=0.0) > _ROW_SUM_TOL:
        raise ValueError("membership rows must sum to 1")


def memberships_from_vectors(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int, float]:
    """Vertex hunting + simplex inversion on eigenvector rows.

    Returns (memberships, vertex_indices, clipped_rows, degenerate_rows,
    corner_condition), the fit's second half in dfsp. The result is
    invariant to sign flips of any column of `vectors`.
    """
    n, k = vectors.shape
    vertices = successive_projection(vectors, k)
    if len(vertices) < k:
        raise EstimationError(
            "vertex-hunting",
            f"successive projection found only {len(vertices)} of {k} corners",
        )
    corners = vectors[vertices, :]
    # the 2-norm condition number, as np.linalg.cond computes it
    s = np.linalg.svd(corners, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _MAX_CORNER_CONDITION:
        raise EstimationError(
            "inversion",
            f"corner matrix at rows {vertices.tolist()} is numerically "
            f"singular (condition number {cond:.3g})",
        )
    # raw = vectors @ inv(corners), via a solve for numerical robustness
    raw = np.linalg.solve(corners.T, vectors.T).T
    # ufunc reductions directly: the same values as the array methods,
    # without their Python wrappers
    clipped_rows = int(np.count_nonzero(np.logical_or.reduce(raw < 0, axis=1)))
    clipped = np.maximum(0.0, raw)
    row_sums = np.add.reduce(clipped, axis=1)
    degenerate = row_sums == 0.0
    degenerate_rows = int(np.count_nonzero(degenerate))
    if degenerate_rows:
        # (1 / k) / 1 is exactly 1 / k
        row_sums[degenerate] = 1.0
        clipped[degenerate] = 1.0 / k
    memberships = clipped / row_sums[:, None]
    memberships.setflags(write=False)
    return memberships, vertices, clipped_rows, degenerate_rows, cond


def dfsp(a: np.ndarray | TopKEigen, k: int) -> DfspReport:
    """Estimate an (n, k) membership matrix from a symmetric adjacency.

    Arguments:
        a: symmetric real matrix with finite entries (any sign), or its
            top_k_eigen holding at least k pairs. A matrix is decomposed
            here at k; a spectrum is fitted from its first k pairs, which
            lets a caller fit several k from one decomposition. Both give
            bitwise the same report.
        k: number of communities, 1 <= k <= n (and k <= the number of
            pairs of a passed spectrum).

    Raises EstimationError if the k-th eigenvalue is numerically zero
    (at most 1e-12 of the first in magnitude, so the check does not
    depend on the scale of the input),
    if k >= 2 cuts through eigenvalues of equal magnitude (the top-k
    eigenspace is then not unique, and memberships fitted from it would
    depend on the LAPACK build), if vertex hunting terminates early, or
    if the corner matrix is numerically singular; each indicates that k
    does not fit the input. Every returned membership row is a valid
    probability vector; rows that clipped to zero become uniform and are
    counted in the report.
    """
    eigen = (a if isinstance(a, TopKEigen) else top_k_eigen(a, k)).head(k)
    if abs(eigen.values[k - 1]) <= _RANK_TOL * abs(eigen.values[0]):
        raise EstimationError(
            "eigendecomposition",
            f"input has no rank-{k} structure (eigenvalue {k} is "
            f"{eigen.values[k - 1]:.3g})",
        )
    kth = abs(eigen.values[k - 1])
    if k >= 2 and kth - eigen.next_magnitude <= _TIE_TOL * abs(eigen.values[0]):
        raise EstimationError(
            "eigendecomposition",
            f"k={k} cuts through eigenvalues of equal magnitude "
            f"(|eigenvalue {k}| = {kth:.6g}, |eigenvalue {k + 1}| = "
            f"{eigen.next_magnitude:.6g}); the top-{k} eigenspace is not identified",
        )
    memberships, vertices, clipped, degenerate, cond = memberships_from_vectors(eigen.vectors)
    return DfspReport(
        memberships=memberships,
        vertex_indices=vertices,
        eigen=eigen,
        clipped_rows=clipped,
        degenerate_rows=degenerate,
        corner_condition=cond,
    )


def harden(memberships: np.ndarray) -> np.ndarray:
    """Hard community labels: per-row argmax, smallest index on ties."""
    m = np.asarray(memberships)
    if m.ndim != 2:
        raise ValueError(f"membership matrix must be 2-d, got shape {m.shape}")
    return np.argmax(m, axis=1)
