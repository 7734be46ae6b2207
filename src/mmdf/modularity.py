"""Fuzzy weighted modularity for signed/weighted graphs with soft
partitions, and community-count selection by scanning it.

The score splits the adjacency into positive and negative parts,
evaluates a soft (membership-inner-product) modularity on each, and
combines them weighted by their shares of the total edge mass. For
hard partitions on nonnegative graphs it reduces to the classical
Newman-Girvan modularity; for soft partitions on nonnegative graphs,
to fuzzy modularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dfsp import DfspReport, EstimationError, dfsp, validate_memberships
from .graph import WeightedGraph, _sign_blocks
from .spectral import TopKEigen, top_k_eigen

__all__ = [
    "ModularityValue",
    "KScanPoint",
    "KScanResult",
    "fuzzy_weighted_modularity",
    "estimate_k",
    "DEFAULT_K_MAX",
]


@dataclass(frozen=True)
class ModularityValue:
    """Combined score q plus its positive/negative components.

    q == pos_weight * q_pos - neg_weight * q_neg exactly (computed as
    that expression). pos_weight + neg_weight == 1 whenever the graph
    has any edge mass.
    """

    q: float
    q_pos: float
    q_neg: float
    pos_weight: float
    neg_weight: float


def _soft_modularity(part_m: np.ndarray, degrees: np.ndarray, mass: float, m: np.ndarray) -> float:
    # sum_ij (part_ij - d_i d_j / 2m) <m_i, m_j> from part_m = part @ m,
    # including i == j as the null-model diagonal (part's diagonal is zero)
    two_m = 2.0 * mass
    edge_term = float(np.einsum("ij,ij->", part_m, m))
    null_term = float(np.square(degrees @ m).sum()) / two_m
    return (edge_term - null_term) / two_m


def fuzzy_weighted_modularity(g: WeightedGraph, memberships: np.ndarray) -> ModularityValue:
    """Score a soft partition of a weighted (possibly signed) graph.

    memberships must have one probability-vector row per node of g.
    With a single community the positive and negative sums cancel
    identically, so the score is returned as exact zero. An entirely
    empty graph scores zero as well.
    """
    m = np.asarray(memberships, dtype=float)
    if m.ndim != 2 or m.shape[0] != g.n:
        raise ValueError(
            f"membership shape {m.shape} does not match graph with {g.n} nodes"
        )
    validate_memberships(m)
    split = g._split
    total = 2.0 * split.pos_mass + 2.0 * split.neg_mass
    if total == 0.0:
        return ModularityValue(q=0.0, q_pos=0.0, q_neg=0.0, pos_weight=0.0, neg_weight=0.0)
    pos_weight = 2.0 * split.pos_mass / total
    neg_weight = 2.0 * split.neg_mass / total
    if m.shape[1] == 1:
        # single-community null: both double sums vanish identically
        return ModularityValue(0.0, 0.0, 0.0, pos_weight, neg_weight)
    # pos @ m and neg @ m, assembled from row blocks of the two parts
    products = np.empty((2, g.n, m.shape[1]))
    for rows, parts in _sign_blocks(g.weights, split.shift):
        np.matmul(parts, m, out=products[:, rows])
    pos_m, neg_m = products
    q_pos = 0.0
    if split.pos_mass > 0:
        q_pos = _soft_modularity(pos_m, split.pos_degrees, split.pos_mass, m)
    q_neg = 0.0
    if split.neg_mass > 0:
        q_neg = _soft_modularity(neg_m, split.neg_degrees, split.neg_mass, m)
    q = pos_weight * q_pos - neg_weight * q_neg
    return ModularityValue(q=q, q_pos=q_pos, q_neg=q_neg, pos_weight=pos_weight, neg_weight=neg_weight)


DEFAULT_K_MAX = 15


@dataclass(frozen=True)
class KScanPoint:
    """One k of a scan: its score, or the stage that failed.

    report is the fit that was scored, kept so callers need not refit
    this k; it takes no part in equality or repr.
    """

    k: int
    modularity: ModularityValue | None
    failure: str | None = None
    report: DfspReport | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.modularity is not None


@dataclass(frozen=True)
class KScanResult:
    """Community-count scan: the score curve and its argmax."""

    best_k: int
    curve: tuple[KScanPoint, ...]
    k_max: int

    def point(self, k: int) -> KScanPoint | None:
        """The curve's point at k, or None when the scan did not reach k."""
        return self.curve[k - 1] if 1 <= k <= len(self.curve) else None

    def curve_rows(self) -> list[tuple[int, float | None]]:
        return [(p.k, p.modularity.q if p.ok else None) for p in self.curve]

    def summary(self) -> dict:
        return {
            "best_k": self.best_k,
            "k_max": self.k_max,
            "failures": {p.k: p.failure for p in self.curve if not p.ok},
        }


def estimate_k(
    g: WeightedGraph,
    k_max: int | None = None,
    eigen: TopKEigen | None = None,
) -> KScanResult:
    """Pick the community count maximizing fuzzy weighted modularity.

    Runs the membership estimator for k = 1..k_max, scores each result,
    and returns the k of the largest score (smallest k on ties).
    Estimation failures at individual k are recorded on the curve and
    skipped; only if every k fails is an EstimationError raised. The
    full range is scanned because score curves are routinely
    non-monotone.

    Every k is fitted from one spectrum: eigen, which must be
    top_k_eigen(g.weights, K) for some K >= k_max, or else a single
    decomposition at k_max made here. Raises ValueError, before any
    decomposition, unless 1 <= k_max <= g.n.
    """
    if k_max is None:
        k_max = min(DEFAULT_K_MAX, g.n - 1)
    if not 1 <= k_max <= g.n:
        raise ValueError(f"k_max={k_max} out of range for n={g.n}")
    if eigen is None:
        eigen = top_k_eigen(g.weights, k_max)
    points: list[KScanPoint] = []
    for k in range(1, k_max + 1):
        try:
            report = dfsp(eigen, k)
        except EstimationError as exc:
            points.append(KScanPoint(k=k, modularity=None, failure=f"{exc.stage}: {exc}"))
            continue
        value = fuzzy_weighted_modularity(g, report.memberships)
        points.append(KScanPoint(k=k, modularity=value, report=report))
    successes = [p for p in points if p.ok]
    if not successes:
        raise EstimationError("scan", f"estimation failed for every k in 1..{k_max}")
    best = max(successes, key=lambda p: (p.modularity.q, -p.k))
    return KScanResult(best_k=best.k, curve=tuple(points), k_max=k_max)
