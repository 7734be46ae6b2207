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
from .graph import WeightedGraph, sign_split
from .spectral import TopKEigen, top_k_eigen


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


def _checked_memberships(g: WeightedGraph, memberships: np.ndarray) -> np.ndarray:
    m = np.asarray(memberships, dtype=float)
    if m.ndim != 2 or m.shape[0] != g.n:
        raise ValueError(
            f"membership shape {m.shape} does not match graph with {g.n} nodes"
        )
    validate_memberships(m)
    return m


def fuzzy_weighted_modularity(
    g: WeightedGraph,
    memberships: np.ndarray | list[np.ndarray] | tuple[np.ndarray, ...],
) -> ModularityValue | list[ModularityValue]:
    """Score a soft partition of a weighted (possibly signed) graph.

    memberships must have one probability-vector row per node of g.
    With a single community the positive and negative sums cancel
    identically, so the score is returned as exact zero. An entirely
    empty graph scores zero as well.

    A non-empty list or tuple of 2-d arrays is a batch: each is checked
    and scored as above, in one pass over W for all of them, and the
    values are returned as a list in the same order.
    """
    batch = (isinstance(memberships, (list, tuple)) and len(memberships) > 0
             and all(isinstance(m, np.ndarray) and m.ndim == 2 for m in memberships))
    ms = [_checked_memberships(g, m) for m in (memberships if batch else [memberships])]
    # the degrees, and pos @ m and neg @ m for every m of two or more
    # columns (one column scores exact zero), in one pass over W
    multi = [i for i, m in enumerate(ms) if m.shape[1] > 1]
    degrees, products = sign_split(g, [ms[i] for i in multi])
    products = dict(zip(multi, products))
    masses = [float(d.sum() / 2.0) for d in degrees]
    total = 2.0 * masses[0] + 2.0 * masses[1]
    # (pos_weight, neg_weight)
    weights = tuple(2.0 * mass / total if total else 0.0 for mass in masses)
    values = []
    for i, m in enumerate(ms):
        if i not in products or not total:
            values.append(ModularityValue(0.0, 0.0, 0.0, *weights))
            continue
        # (q_pos, q_neg): each part scores zero when it has no mass
        parts = [_soft_modularity(part_m, d, mass, m) if mass > 0 else 0.0
                 for part_m, d, mass in zip(products.pop(i), degrees, masses)]
        q = weights[0] * parts[0] - weights[1] * parts[1]
        values.append(ModularityValue(q, *parts, *weights))
    return values if batch else values[0]


DEFAULT_K_MAX = 15


@dataclass(frozen=True)
class KScanPoint:
    """One fitted and scored k, of a scan or given: its score, or the
    stage that failed.

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
    """Community-count scan: the score curve and its argmax. eigen, the
    spectrum every k was fitted from, takes no part in equality or repr."""

    best_k: int
    curve: tuple[KScanPoint, ...]
    eigen: TopKEigen = field(compare=False, repr=False)

    def point(self, k: int) -> KScanPoint | None:
        """The curve's point at k, or None when the scan did not reach k."""
        return self.curve[k - 1] if 1 <= k <= len(self.curve) else None

    def fit(self, k: int) -> DfspReport:
        """The scan's own fit at k where it fitted k, else dfsp(eigen, k),
        which raises where the scan's fit at k failed."""
        point = self.point(k)
        return point.report if point is not None and point.ok else dfsp(self.eigen, k)


def estimate_k(
    g: WeightedGraph,
    k_max: int | None = None,
    eigen: TopKEigen | None = None,
) -> KScanResult:
    """Pick the community count maximizing fuzzy weighted modularity.

    Runs the membership estimator for k = 1..k_max, scores every
    successful fit in one batch, and returns the k of the largest score
    (smallest k on ties).
    Estimation failures at individual k are recorded on the curve and
    skipped; only if every k fails is an EstimationError raised. The
    full range is scanned because score curves are routinely
    non-monotone.

    Every k is fitted from one spectrum: eigen, which must be
    top_k_eigen(g, K) for some K >= k_max, or else a single
    decomposition at k_max made here. k_max defaults to
    min(DEFAULT_K_MAX, n - 1). Raises ValueError, before any
    decomposition, unless 1 <= k_max <= g.n.
    """
    if k_max is None:
        if g.n < 2:
            raise ValueError(f"k_max defaults to n - 1, which leaves nothing to scan for n={g.n}")
        k_max = min(DEFAULT_K_MAX, g.n - 1)
    if not 1 <= k_max <= g.n:
        raise ValueError(f"k_max={k_max} out of range for n={g.n}")
    if eigen is None:
        eigen = top_k_eigen(g, k_max)
    fits: dict[int, DfspReport] = {}
    failures: dict[int, str] = {}
    for k in range(1, k_max + 1):
        try:
            fits[k] = dfsp(eigen, k)
        except EstimationError as exc:
            failures[k] = f"{exc.stage}: {exc}"
    if not fits:
        raise EstimationError("scan", f"estimation failed for every k in 1..{k_max}")
    scores = dict(zip(fits, fuzzy_weighted_modularity(g, [r.memberships for r in fits.values()])))
    curve = tuple(
        KScanPoint(k=k, modularity=scores[k], report=fits[k]) if k in fits
        else KScanPoint(k=k, modularity=None, failure=failures[k])
        for k in range(1, k_max + 1)
    )
    best = max((p for p in curve if p.ok), key=lambda p: (p.modularity.q, -p.k))
    return KScanResult(best_k=best.k, curve=curve, eigen=eigen)
