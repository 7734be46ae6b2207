"""Synthetic network generation with a block-structured mean.

A generated network has expected adjacency rho * Pi P Pi' where Pi is a
row-stochastic membership matrix with at least one pure row per
community and P is a symmetric full-rank connectivity matrix whose
largest absolute entry is 1. Edge weights are drawn independently from
a configurable family (normal, bernoulli, poisson, uniform, signed
+-1, or the degenerate point mass) with that mean, then optionally
thinned by an independent bernoulli(p) mask to create missing edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from enum import Enum
from math import sqrt

import numpy as np

from .dfsp import validate_memberships
from .graph import GroundTruth, WeightedGraph

__all__ = [
    "Family",
    "EdgeDistribution",
    "ConnectivityMatrix",
    "ConnectivityError",
    "GeneratorSpec",
    "DisconnectedSampleWarning",
    "build_membership",
    "check_connectivity",
    "population_adjacency",
    "sample_adjacency",
]

_RANK_TOL = 1e-10
_MAX_ENTRY_TOL = 1e-12


class Family(str, Enum):
    NORMAL = "normal"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"
    UNIFORM = "uniform"
    SIGNED = "signed"
    POINT_MASS = "point_mass"


# families whose mean must be nonnegative, hence P >= 0 entrywise
_NONNEGATIVE_MEAN = {Family.BERNOULLI, Family.POISSON, Family.UNIFORM}


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-weight family plus its parameters.

    sigma2 is the variance of the normal family and is ignored (must be
    unset) for every other family. Each family constrains the admissible
    range of the global scale rho:

        normal     rho in (0, inf)
        bernoulli  rho in (0, 1]
        poisson    rho in (0, inf)
        uniform    rho in (0, inf)   (weights ~ uniform(0, 2*mean))
        signed     rho in (0, 1)     (weights +-1 with mean in [-1, 1])
        point_mass rho in (0, inf)
    """

    family: Family
    sigma2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.family is Family.NORMAL:
            if self.sigma2 is None or not self.sigma2 > 0:
                raise ValueError("normal family requires sigma2 > 0")
        elif self.sigma2 is not None:
            raise ValueError(f"sigma2 is not a parameter of the {self.family.value} family")

    def rho_admissible(self, rho: float) -> bool:
        if not rho > 0:
            return False
        if self.family is Family.BERNOULLI:
            return rho <= 1.0
        if self.family is Family.SIGNED:
            return rho < 1.0
        return True

    def check_rho(self, rho: float) -> None:
        if not self.rho_admissible(rho):
            raise ValueError(
                f"rho={rho} outside the admissible range of the "
                f"{self.family.value} family"
            )

    @property
    def requires_nonnegative_connectivity(self) -> bool:
        return self.family in _NONNEGATIVE_MEAN


def _equal_by_value(self, other) -> bool:
    """Dataclass equality that compares ndarray fields by value (the
    generated __eq__ compares them with ==, which cannot be a bool)."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Validated symmetric full-rank block-affinity matrix.

    sigma_k, the smallest singular value, measures how well separated
    the communities are and is surfaced as a diagnostic.
    """

    entries: np.ndarray
    sigma_k: float

    __eq__ = _equal_by_value

    @property
    def k(self) -> int:
        return self.entries.shape[0]


class ConnectivityError(ValueError):
    """Connectivity matrix validation failure; .reason is one of
    'asymmetric', 'rank-deficient', 'max-entry', 'sign'."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def check_connectivity(p: np.ndarray, distribution: EdgeDistribution) -> ConnectivityMatrix:
    """Validate a candidate connectivity matrix for a weight family.

    Requires exact symmetry within floating tolerance, full rank
    (smallest singular value > 1e-10), largest absolute entry equal to
    1 within 1e-12, and nonnegative entries when the family's mean
    domain demands it.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ConnectivityError("asymmetric", f"expected square matrix, got shape {p.shape}")
    if float(np.abs(p - p.T).max(initial=0.0)) > 1e-12:
        raise ConnectivityError("asymmetric", "connectivity matrix must be symmetric")
    singular_values = np.linalg.svd(p, compute_uv=False)
    sigma_k = float(singular_values[-1])
    if sigma_k <= _RANK_TOL:
        raise ConnectivityError(
            "rank-deficient",
            f"connectivity matrix must have full rank (smallest singular value {sigma_k:.3g})",
        )
    max_entry = float(np.abs(p).max())
    if abs(max_entry - 1.0) > _MAX_ENTRY_TOL:
        raise ConnectivityError(
            "max-entry",
            f"largest |entry| must be 1 (got {max_entry!r})",
        )
    if distribution.requires_nonnegative_connectivity and np.any(p < 0):
        raise ConnectivityError(
            "sign",
            f"{distribution.family.value} family requires nonnegative connectivity entries",
        )
    p = p.copy()
    p.setflags(write=False)
    return ConnectivityMatrix(entries=p, sigma_k=sigma_k)


def build_membership(
    n: int,
    k: int,
    pure_per_community: int,
    mixed_rows: list[tuple[np.ndarray, int]] | None = None,
) -> np.ndarray:
    """Assemble a ground-truth membership matrix.

    The first k * pure_per_community rows are indicator rows in
    community blocks; the remaining rows repeat each supplied mixed
    profile with its multiplicity, in order. Counts must add up to n
    and every community needs at least one pure row.
    """
    mixed_rows = mixed_rows or []
    if pure_per_community < 1:
        raise ValueError("each community needs at least one pure node")
    total = k * pure_per_community + sum(count for _, count in mixed_rows)
    if total != n:
        raise ValueError(f"row counts sum to {total}, expected n={n}")
    rows = np.zeros((n, k))
    r = 0
    for c in range(k):
        rows[r : r + pure_per_community, c] = 1.0
        r += pure_per_community
    for profile, count in mixed_rows:
        profile = np.asarray(profile, dtype=float)
        if profile.shape != (k,) or np.any(profile < 0) or abs(profile.sum() - 1.0) > 1e-10:
            raise ValueError(f"mixed row {profile} is not a length-{k} probability vector")
        rows[r : r + count] = profile
        r += count
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to generate one network deterministically."""

    memberships: np.ndarray
    connectivity: ConnectivityMatrix
    rho: float
    distribution: EdgeDistribution
    sparsity: float | None = None
    seed: int = 0

    __eq__ = _equal_by_value

    def __post_init__(self):
        m = np.asarray(self.memberships, dtype=float)
        validate_memberships(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "memberships", m)
        if m.shape[1] != self.connectivity.k:
            raise ValueError(
                f"membership has {m.shape[1]} communities, "
                f"connectivity {self.connectivity.k}"
            )
        self.distribution.check_rho(self.rho)
        if self.sparsity is not None and not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must lie in [0, 1], got {self.sparsity}")
        # mean-domain check for the bounded families
        _check_mean_domain(_block_mean(self), self.distribution)

    @property
    def n(self) -> int:
        return self.memberships.shape[0]

    @property
    def k(self) -> int:
        return self.memberships.shape[1]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "memberships": np.asarray(self.memberships).tolist(),
            "connectivity": np.asarray(self.connectivity.entries).tolist(),
            "rho": self.rho,
            "family": self.distribution.family.value,
            "sigma2": self.distribution.sigma2,
            "sparsity": self.sparsity,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        distribution = EdgeDistribution(Family(d["family"]), sigma2=d.get("sigma2"))
        connectivity = check_connectivity(np.array(d["connectivity"], dtype=float), distribution)
        return cls(
            memberships=np.array(d["memberships"], dtype=float),
            connectivity=connectivity,
            rho=float(d["rho"]),
            distribution=distribution,
            sparsity=d.get("sparsity"),
            seed=int(d.get("seed", 0)),
        )


def _check_mean_domain(omega: np.ndarray, distribution: EdgeDistribution) -> None:
    fam = distribution.family
    if fam is Family.BERNOULLI:
        lo, hi = 0.0, 1.0
    elif fam is Family.SIGNED:
        lo, hi = -1.0, 1.0
    elif fam in (Family.POISSON, Family.UNIFORM):
        lo, hi = 0.0, np.inf
    else:
        return
    bad = (omega < lo) | (omega > hi)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"mean {omega[i, j]!r} at entry ({i}, {j}) is outside the "
            f"{fam.value} family's domain [{lo}, {hi}]"
        )


def _block_mean(spec: GeneratorSpec, scale: float = 1.0) -> np.ndarray:
    # scale * rho * Pi P Pi' as computed; symmetric only up to rounding.
    # A power-of-two scale is exact, so scale 0.5 gives bitwise half the
    # mean without overflowing where the mean is near the float64 limit
    m = spec.memberships
    return scale * spec.rho * m @ spec.connectivity.entries @ m.T


def population_adjacency(spec: GeneratorSpec) -> np.ndarray:
    """Expected adjacency rho * Pi P Pi' (diagonal not zeroed).

    This is the rank-k expectation object; only sampled networks zero
    their diagonal.
    """
    half = _block_mean(spec, 0.5)
    omega = half + half.T
    omega.setflags(write=False)
    return omega


class DisconnectedSampleWarning(UserWarning):
    """The sparsity mask left the sampled network disconnected."""


def _component_count(adjacent: np.ndarray) -> int:
    """Connected components of the undirected graph with the symmetric
    boolean adjacency matrix given, by one frontier search per component."""
    unseen = np.ones(adjacent.shape[0], dtype=bool)
    count = 0
    while unseen.any():
        count += 1
        frontier = np.arange(unseen.size) == np.argmax(unseen)
        while frontier.any():
            unseen &= ~frontier
            frontier = adjacent[frontier].any(axis=0) & unseen
    return count


def _draw_weights(rng: np.random.Generator, means: np.ndarray, distribution: EdgeDistribution) -> np.ndarray:
    fam = distribution.family
    if fam is Family.NORMAL:
        return rng.normal(means, sqrt(distribution.sigma2))
    if fam is Family.BERNOULLI:
        return (rng.random(means.shape) < means).astype(float)
    if fam is Family.POISSON:
        if np.any(means < 0):
            raise ValueError("poisson family requires nonnegative means")
        return rng.poisson(means).astype(float)
    if fam is Family.UNIFORM:
        if np.any(means < 0):
            raise ValueError("uniform family requires nonnegative means")
        return rng.uniform(0.0, 2.0 * means)
    if fam is Family.SIGNED:
        return np.where(rng.random(means.shape) < (1.0 + means) / 2.0, 1.0, -1.0)
    if fam is Family.POINT_MASS:
        return means.copy()
    raise AssertionError(f"unhandled family {fam}")


def sample_adjacency(
    spec: GeneratorSpec,
    rng: np.random.Generator | None = None,
) -> tuple[WeightedGraph, GroundTruth]:
    """Draw one network from the generator.

    Upper-triangle weights are sampled independently with the population
    means, mirrored to the lower triangle, and the diagonal is zeroed.
    If spec.sparsity is set, each pair is then independently kept with
    that probability (missing edges become exact zeros); a disconnected
    result raises DisconnectedSampleWarning but is still returned.
    Deterministic given (spec, seed); pass an explicit generator to
    drive replicate streams externally.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    half = _block_mean(spec, 0.5)
    n = spec.n
    # strict upper triangle in row-major order; the means are
    # population_adjacency's, averaged only where drawn. half goes before
    # the draw and the means after it, so sampling never holds more than
    # two n x n arrays' worth
    upper = np.arange(n)[:, None] < np.arange(n)
    means = half[upper]
    means += half.T[upper]
    del half
    values = _draw_weights(rng, means, spec.distribution)
    del means
    if spec.sparsity is not None:
        values *= rng.random(values.shape) < spec.sparsity
    # + 0.0 turns the -0.0 of masked negative draws into +0.0
    values += 0.0
    a = np.zeros((n, n))
    a[upper] = values
    a.T[upper] = values
    graph = WeightedGraph(a)
    if spec.sparsity is not None:
        n_components = _component_count(a != 0.0)
        if n_components > 1:
            warnings.warn(
                f"sparsity mask left {n_components} components",
                DisconnectedSampleWarning,
                stacklevel=2,
            )
    truth = GroundTruth(
        labels=np.argmax(spec.memberships, axis=1),
        memberships=spec.memberships,
    )
    return graph, truth
