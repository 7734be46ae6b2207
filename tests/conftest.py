import numpy as np
import pytest

from mmdf.generator import (
    EdgeDistribution,
    Family,
    GeneratorSpec,
    build_membership,
    check_connectivity,
)

# connectivity matrices used across the simulation designs
P_SIGNED = np.array([
    [1.0, -0.2, -0.3],
    [-0.2, 0.9, 0.3],
    [-0.3, 0.3, 0.9],
])
P_NONNEG = np.array([
    [1.0, 0.2, 0.3],
    [0.2, 0.9, 0.3],
    [0.3, 0.3, 0.9],
])

MIXED_PROFILES = [
    np.array([0.4, 0.4, 0.2]),
    np.array([0.4, 0.2, 0.4]),
    np.array([0.2, 0.4, 0.4]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
]


def standard_membership(n: int = 200, pure_per_community: int = 40) -> np.ndarray:
    """Three communities with the standard mixed-profile layout."""
    mixed_count = (n - 3 * pure_per_community) // 4
    return build_membership(
        n, 3, pure_per_community, [(p, mixed_count) for p in MIXED_PROFILES]
    )


def standard_spec(family: Family, rho: float, n: int = 200, pure: int = 40, seed: int = 0, **kw) -> GeneratorSpec:
    """Simulation design: standard membership + the family's P matrix."""
    p = P_SIGNED if family in (Family.NORMAL,) else P_NONNEG
    if family is Family.SIGNED:
        p = P_NONNEG
    sigma2 = kw.pop("sigma2", 2.0 if family is Family.NORMAL else None)
    dist = EdgeDistribution(family, sigma2=sigma2)
    return GeneratorSpec(
        memberships=standard_membership(n, pure),
        connectivity=check_connectivity(p, dist),
        rho=rho,
        distribution=dist,
        seed=seed,
        **kw,
    )


def random_valid_spec(rng: np.random.Generator, k: int, n: int, signed: bool = True):
    """Random (memberships, connectivity) pair satisfying the model rules.

    Mixed rows are kept away from the simplex corners so vertex hunting
    has unambiguous extremes.
    """
    while True:
        p = rng.uniform(-1.0 if signed else 0.05, 1.0, size=(k, k))
        p = 0.5 * (p + p.T)
        np.fill_diagonal(p, rng.uniform(0.5, 1.0, size=k))
        p /= np.abs(p).max()
        if np.linalg.svd(p, compute_uv=False)[-1] > 0.1:
            break
    pure_per_community = max(1, n // (2 * k))
    n_mixed = n - k * pure_per_community
    alpha = np.ones(k)
    mixed = rng.dirichlet(alpha, size=n_mixed)
    mixed = 0.2 / k + 0.8 * mixed  # bound rows away from the corners
    mixed /= mixed.sum(axis=1, keepdims=True)
    rows = np.zeros((n, k))
    for c in range(k):
        rows[c * pure_per_community : (c + 1) * pure_per_community, c] = 1.0
    rows[k * pure_per_community :] = mixed
    return rows, p


def shuffled_copies(seed: int, n: int = 640) -> np.ndarray:
    """n // 8 copies of one random 8-node graph, with the nodes shuffled:
    every eigenvalue of the small graph has multiplicity n // 8, and the
    tridiagonal form does not split into the copies."""
    rng = np.random.default_rng(seed)
    b = (rng.random((8, 8)) < 0.4).astype(float)
    b = np.triu(b, 1)
    b = b + b.T
    p = rng.permutation(n)
    return np.kron(np.eye(n // 8), b)[np.ix_(p, p)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
