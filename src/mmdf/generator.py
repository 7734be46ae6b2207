"""Synthetic network generation with a block-structured mean.

A generated network has expected adjacency rho * Pi P Pi' where Pi is
any row-stochastic membership matrix (build_membership's have at least
one pure row per community) and P is a symmetric full-rank connectivity
matrix whose largest absolute entry is 1; GeneratorSpec checks P against
these rules itself and holds it as a read-only array. Edge weights are drawn
independently from a configurable family (normal, bernoulli, poisson,
uniform, signed +-1, or the degenerate point mass) with that mean, then
optionally thinned by an independent bernoulli(p) mask to create
missing edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from math import inf, sqrt
from sys import float_info

import numpy as np

from .dfsp import _ROW_SUM_TOL, validate_memberships
from .graph import _BLOCK_ROWS, WeightedGraph, _equal_by_value


def _is_number(x) -> bool:
    # compared exactly: an int beyond the float range is no finite number
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= float_info.max


def _is_numbers(x) -> bool:
    return isinstance(x, list) and all(map(_is_number, x))


# per kind of config value: the JSON values it accepts, and its name
_KINDS = {
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "number": (_is_number, "a finite number"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "object": (lambda x: isinstance(x, dict), "an object"),
    "numbers": (_is_numbers, "a list of finite numbers"),
    "matrix": (lambda x: isinstance(x, list) and all(map(_is_numbers, x)), "a list of lists of finite numbers"),
}
_REQUIRED = object()


def as_kind(name: str, value, kind: str, optional: bool = False):
    """value as one JSON kind of _KINDS, a numpy scalar as its Python
    value; None passes only where optional. Raises ValueError naming it,
    so a constructor refuses what from_dict would refuse of its JSON."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None and optional:
        return None
    check, what = _KINDS[kind]
    if not check(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def read_key(d: dict, key: str, kind: str, default=_REQUIRED):
    """d[key] as_kind; an absent key gives default (a KeyError when there
    is none), and null passes only where the default is None."""
    value = d[key] if default is _REQUIRED else d.get(key, default)
    return as_kind(key, value, kind, optional=default is None)


class Family(str, Enum):
    NORMAL = "normal"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"
    UNIFORM = "uniform"
    SIGNED = "signed"
    POINT_MASS = "point_mass"


# per family: the largest admissible rho and whether rho may equal it
# (rho > 0 in every family), and the finite interval [lo, hi] every mean
# must lie in. A family whose means start at 0 needs P >= 0 entrywise
_RULES = {
    Family.NORMAL: ((inf, False), (-float_info.max, float_info.max)),
    Family.BERNOULLI: ((1.0, True), (0.0, 1.0)),
    Family.POISSON: ((inf, False), (0.0, float_info.max)),
    # weights ~ uniform(0, 2 * mean), whose support must be finite
    Family.UNIFORM: ((inf, False), (0.0, float_info.max / 2.0)),
    # weights +-1
    Family.SIGNED: ((1.0, False), (-1.0, 1.0)),
    Family.POINT_MASS: ((inf, False), (-float_info.max, float_info.max)),
}


@dataclass(frozen=True)
class EdgeDistribution:
    """Edge-weight family plus its parameters.

    sigma2 is the variance of the normal family, a finite number > 0, and
    must be unset for every other family.
    """

    family: Family
    sigma2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "sigma2", as_kind("sigma2", self.sigma2, "number", optional=True))
        if self.family is Family.NORMAL:
            if self.sigma2 is None or not self.sigma2 > 0:
                raise ValueError("normal family requires sigma2 > 0")
        elif self.sigma2 is not None:
            raise ValueError(f"sigma2 is not a parameter of the {self.family.value} family")

    def check_rho(self, rho: float) -> None:
        """Raise ValueError unless rho lies in the family's range (NaN
        lies in none)."""
        top, inclusive = _RULES[self.family][0]
        if not (0.0 < rho < top or inclusive and rho == top):
            raise ValueError(f"rho={rho} outside the admissible range of the {self.family.value} family")


class ConnectivityError(ValueError):
    """Connectivity matrix validation failure."""


def check_connectivity(p: np.ndarray, distribution: EdgeDistribution) -> np.ndarray:
    """A read-only float copy of p, the array GeneratorSpec holds as its
    P, once p passes the rules for a weight family: a nonempty square
    matrix of finite entries, symmetric within 1e-12, of full rank
    (smallest singular value > 1e-10), with largest absolute entry 1
    within 1e-12, and nonnegative where the family's mean domain starts
    at 0. Raises ConnectivityError otherwise."""
    p = np.array(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ConnectivityError(f"expected square matrix, got shape {p.shape}")
    if not (p.size and np.isfinite(p).all()):
        raise ConnectivityError("connectivity matrix must be nonempty with finite entries")
    if float(np.abs(0.5 * p - 0.5 * p.T).max(initial=0.0)) > 0.5e-12:  # halves cannot overflow
        raise ConnectivityError("connectivity matrix must be symmetric")
    sigma_k = float(np.linalg.svd(p, compute_uv=False)[-1])
    if sigma_k <= 1e-10:
        raise ConnectivityError(f"connectivity matrix must have full rank (smallest singular value {sigma_k:.3g})")
    max_entry = float(np.abs(p).max())
    if abs(max_entry - 1.0) > 1e-12:
        raise ConnectivityError(f"largest |entry| must be 1 (got {max_entry!r})")
    _, (lo, _) = _RULES[distribution.family]
    if lo == 0.0 and np.any(p < 0):
        raise ConnectivityError(f"{distribution.family.value} family requires nonnegative connectivity entries")
    p.setflags(write=False)
    return p


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
        if profile.shape != (k,) or np.any(profile < 0) or abs(profile.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"mixed row {profile} is not a length-{k} probability vector")
        rows[r : r + count] = profile
        r += count
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to generate one network deterministically.

    Holds read-only copies of the memberships and of P, which it checks
    with check_connectivity, and takes rho, sparsity and seed as_kind, so
    from_dict reads back to an equal spec what to_dict writes.
    """

    memberships: np.ndarray
    connectivity: np.ndarray
    rho: float
    distribution: EdgeDistribution
    sparsity: float | None = None
    seed: int = 0

    __eq__ = _equal_by_value

    def __post_init__(self):
        m = np.array(self.memberships, dtype=float)
        validate_memberships(m)
        m.setflags(write=False)
        object.__setattr__(self, "memberships", m)
        p = check_connectivity(self.connectivity, self.distribution)
        object.__setattr__(self, "connectivity", p)
        if m.shape[1] != p.shape[0]:
            raise ValueError(f"membership has {m.shape[1]} communities, connectivity {p.shape[0]}")
        object.__setattr__(self, "rho", as_kind("rho", self.rho, "number"))
        object.__setattr__(self, "sparsity", as_kind("sparsity", self.sparsity, "number", optional=True))
        object.__setattr__(self, "seed", as_kind("seed", self.seed, "int"))
        self.distribution.check_rho(self.rho)
        if self.sparsity is not None and not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must lie in [0, 1], got {self.sparsity}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the means rho * Pi P Pi', checked in blocks of rows
        _, (lo, hi) = _RULES[self.distribution.family]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed mean, inf or NaN, fails
            left = self.rho * m @ p
            for s in range(0, m.shape[0], _BLOCK_ROWS):
                omega = left[s:s + _BLOCK_ROWS] @ m.T
                bad = ~((lo <= omega) & (omega <= hi))
                if bad.any():
                    i, j = np.argwhere(bad)[0]
                    raise ValueError(
                        f"mean {float(omega[i, j])!r} at entry ({s + i}, {j}) is outside the "
                        f"{self.distribution.family.value} family's domain [{lo}, {hi}]"
                    )

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
            "memberships": self.memberships.tolist(),
            "connectivity": self.connectivity.tolist(),
            "rho": self.rho,
            "family": self.distribution.family.value,
            "sigma2": self.distribution.sigma2,
            "sparsity": self.sparsity,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        return cls(
            memberships=read_key(d, "memberships", "matrix"),
            connectivity=read_key(d, "connectivity", "matrix"),
            rho=float(read_key(d, "rho", "number")),
            distribution=EdgeDistribution(read_key(d, "family", "str"), read_key(d, "sigma2", "number", None)),
            sparsity=read_key(d, "sparsity", "number", None),
            seed=read_key(d, "seed", "int", 0),
        )


def _half_factor(spec: GeneratorSpec) -> np.ndarray:
    # 0.5 * rho * Pi P: half the mean is this times Pi', exactly
    return 0.5 * spec.rho * spec.memberships @ spec.connectivity


def population_adjacency(spec: GeneratorSpec) -> np.ndarray:
    """Expected adjacency rho * Pi P Pi' (diagonal not zeroed).

    This is the rank-k expectation object; only sampled networks zero
    their diagonal.
    """
    # halves, whose sum stays finite where the mean is near the float64 limit
    half = _half_factor(spec) @ spec.memberships.T
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
    """One draw per mean, in order, written over means, which it returns."""
    fam = distribution.family
    if fam is Family.NORMAL:
        # rng.normal(means, scale) draws means + scale * z from the same
        # stream, but through numpy's broadcasting path
        means += sqrt(distribution.sigma2) * rng.standard_normal(means.shape)
    elif fam is Family.BERNOULLI:
        np.less(rng.random(means.shape), means, out=means)
    elif fam is Family.POISSON:
        means[...] = rng.poisson(means)
    elif fam is Family.UNIFORM:
        # rng.uniform(0.0, 2 * mean) draws 0.0 + 2 * mean * u from the
        # same stream, but also allocates the range 2 * mean - 0.0
        means *= 2.0
        means *= rng.random(means.shape)
    elif fam is Family.SIGNED:
        # P(+1) = (1 + mean) / 2, and 2 * [u < P(+1)] - 1 is exactly +-1
        means += 1.0
        means *= 0.5
        np.less(rng.random(means.shape), means, out=means)
        means *= 2.0
        means -= 1.0
    elif fam is not Family.POINT_MASS:
        raise AssertionError(f"unhandled family {fam}")
    return means


def sample_adjacency(
    spec: GeneratorSpec,
    rng: np.random.Generator | None = None,
) -> WeightedGraph:
    """Draw one network from the generator, as its WeightedGraph; the
    memberships it is scored against are spec.memberships.

    Upper-triangle weights are sampled independently with the population
    means, mirrored to the lower triangle, and the diagonal is zeroed.
    If spec.sparsity is set, each pair is then independently kept with
    that probability (missing edges become exact zeros); a disconnected
    result raises DisconnectedSampleWarning but is still returned.
    Deterministic given (spec, seed); pass an explicit generator to
    drive replicate streams externally.

    Each block of _BLOCK_ROWS rows forms its own means above the diagonal
    and draws them into W in row-major order: the draw order and RNG
    stream are those of a draw over population_adjacency at
    np.triu_indices, and the means agree with it within eps * peak (a
    block's product need not round as the whole product does).
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n, m, left = spec.n, spec.memberships, _half_factor(spec)
    w = np.zeros((n, n))
    starts = range(0, n, _BLOCK_ROWS)
    # block s's entries above the diagonal: this mask's top left corner
    above = np.arange(_BLOCK_ROWS)[:, None] < np.arange(n)
    for s in starts:
        rows = slice(s, s + _BLOCK_ROWS)
        means = left[rows] @ m[s:].T
        means += (left[s:] @ m[rows].T).T
        upper = above[: len(means), : n - s]
        w[rows, s:][upper] = _draw_weights(rng, means[upper], spec.distribution)
    # second pass: mask uniforms follow all weights; rows above s are final
    for s in starts:
        rows = slice(s, s + _BLOCK_ROWS)
        block = w[rows, s:]
        if spec.sparsity is not None:
            upper = above[: len(block), : n - s]
            block[upper] *= rng.random(np.count_nonzero(upper)) < spec.sparsity
        # + 0.0 turns the -0.0 of masked negative draws into +0.0; the
        # block's part below the diagonal still holds np.zeros' zeros
        block += 0.0
        w[rows, :s] = w[:s, rows].T
        tile = np.triu(w[rows, rows], 1)
        np.add(tile, tile.T, out=w[rows, rows])
    # exactly symmetric by construction, so only that test is skipped
    graph = WeightedGraph(w, _exact_symmetric=True)
    if spec.sparsity is not None:
        n_components = _component_count(w != 0.0)
        if n_components > 1:
            warnings.warn(
                f"sparsity mask left {n_components} components",
                DisconnectedSampleWarning,
                stacklevel=2,
            )
    return graph
