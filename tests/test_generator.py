import json
import re
import warnings
from dataclasses import replace
from math import inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from mmdf.generator import (
    ConnectivityError,
    DisconnectedSampleWarning,
    EdgeDistribution,
    Family,
    GeneratorSpec,
    build_membership,
    check_connectivity,
    _component_count,
    _draw_weights,
    population_adjacency,
    sample_adjacency,
)

from conftest import MIXED_PROFILES, P_NONNEG, P_SIGNED, standard_membership, standard_spec


class TestBuildMembership:
    def test_standard_design_layout(self):
        pi = standard_membership()
        assert pi.shape == (200, 3)
        assert np.array_equal(pi[:120], np.repeat(np.eye(3), 40, axis=0))
        assert np.allclose(pi[120:140], [0.4, 0.4, 0.2])
        assert np.linalg.matrix_rank(pi) == 3

    def test_all_pure_identity(self):
        assert np.array_equal(build_membership(3, 3, 1), np.eye(3))

    def test_rows_are_pmfs(self):
        pi = standard_membership()
        assert np.all(pi >= 0)
        assert np.allclose(pi.sum(axis=1), 1.0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            build_membership(10, 3, 2, [(MIXED_PROFILES[0], 1)])

    def test_zero_pure_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            build_membership(4, 2, 0, [(np.array([0.5, 0.5]), 4)])


class TestCheckConnectivity:
    def test_signed_design_matrix_valid(self):
        c = check_connectivity(P_SIGNED, EdgeDistribution(Family.NORMAL, sigma2=2.0))
        assert type(c) is np.ndarray and c.dtype == float and c.shape == (3, 3)
        assert np.array_equal(c, P_SIGNED)

    def test_nonnegative_design_matrix_valid(self):
        # a read-only copy: writing to the caller's matrix changes nothing
        p = P_NONNEG.copy()
        c = check_connectivity(p, EdgeDistribution(Family.BERNOULLI))
        assert np.array_equal(c, P_NONNEG)
        assert not c.flags.writeable
        p[0, 0] = 5.0
        assert np.array_equal(c, P_NONNEG)

    @pytest.mark.parametrize("bad", [[[nan]], [[1.0, inf], [inf, 1.0]], [[-inf]], np.zeros((0, 0))])
    def test_non_finite_or_empty_rejected(self, bad):
        # before any arithmetic, so no numpy warning and no LinAlgError
        distribution = EdgeDistribution(Family.NORMAL, sigma2=1.0)
        message = "connectivity matrix must be nonempty with finite entries"
        with pytest.raises(ConnectivityError, match=f"^{message}$"):
            check_connectivity(bad, distribution)
        with pytest.raises(ConnectivityError, match=f"^{message}$"):
            GeneratorSpec(memberships=np.ones((1, 1)), connectivity=bad, rho=1.0, distribution=distribution)

    def test_scaled_matrix_fails_max_entry(self):
        with pytest.raises(ConnectivityError, match=r"largest \|entry\| must be 1"):
            check_connectivity(0.5 * P_NONNEG, EdgeDistribution(Family.BERNOULLI))

    def test_asymmetric_rejected(self):
        bad = P_NONNEG.copy()
        bad[0, 1] = 0.7
        with pytest.raises(ConnectivityError, match="must be symmetric"):
            check_connectivity(bad, EdgeDistribution(Family.BERNOULLI))
        # entries whose difference overflows float64, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConnectivityError, match="^connectivity matrix must be symmetric$"):
                check_connectivity(np.array([[1e308, -1e308], [1e308, 1.0]]), EdgeDistribution(Family.NORMAL, 1.0))
        with pytest.raises(ConnectivityError, match="expected square matrix"):
            check_connectivity(P_NONNEG[:2], EdgeDistribution(Family.BERNOULLI))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False),
           st.floats(-3e-12, 3e-12))
    @example(1e308, -1e308, 0.0)
    def test_symmetric_exactly_when_the_entries_differ_by_at_most_1e_12(self, a, b, d):
        # a Python float difference is inf where it overflows, and no warning
        for other in (b, a + d):
            if abs(other) == inf:
                continue
            try:
                check_connectivity(np.array([[1.0, a], [other, 1.0]]), EdgeDistribution(Family.NORMAL, 1.0))
                refused = False
            except ConnectivityError as exc:
                refused = str(exc) == "connectivity matrix must be symmetric"
            assert refused == (abs(a - other) > 1e-12)

    def test_rank_deficient_rejected(self):
        bad = np.ones((3, 3))
        with pytest.raises(ConnectivityError, match="must have full rank"):
            check_connectivity(bad, EdgeDistribution(Family.POISSON))

    def test_negative_entries_rejected_for_nonnegative_families(self):
        with pytest.raises(ConnectivityError, match="poisson family requires nonnegative"):
            check_connectivity(P_SIGNED, EdgeDistribution(Family.POISSON))

    def test_negative_entries_fine_for_normal_and_signed(self):
        check_connectivity(P_SIGNED, EdgeDistribution(Family.NORMAL, sigma2=1.0))
        check_connectivity(P_SIGNED, EdgeDistribution(Family.SIGNED))


class TestRhoRanges:
    @pytest.mark.parametrize(
        "family,rho,ok",
        [
            (Family.NORMAL, 100.0, True),
            (Family.BERNOULLI, 1.0, True),
            (Family.BERNOULLI, 1.01, False),
            (Family.SIGNED, 1.0, False),
            (Family.SIGNED, 0.99, True),
            (Family.POISSON, 7.0, True),
            (Family.UNIFORM, 20.0, True),
            (Family.NORMAL, 0.0, False),
            (Family.NORMAL, np.inf, False),
            (Family.POISSON, np.inf, False),
            (Family.UNIFORM, np.inf, False),
            (Family.POINT_MASS, np.inf, False),
            (Family.POINT_MASS, 1e300, True),
            (Family.UNIFORM, np.nan, False),
            (Family.BERNOULLI, np.nan, False),
        ],
    )
    def test_admissibility(self, family, rho, ok):
        sigma2 = 1.0 if family is Family.NORMAL else None
        distribution = EdgeDistribution(family, sigma2=sigma2)
        if ok:
            distribution.check_rho(rho)
        else:
            with pytest.raises(ValueError, match="admissible range"):
                distribution.check_rho(rho)


# each family's rules, written out independently of the code: the
# largest admissible rho, whether rho may equal it, and the interval
# [lo, hi] every mean must lie in
FAMILY_RULES = {
    Family.NORMAL: (inf, False, -1.7976931348623157e308, 1.7976931348623157e308),
    Family.BERNOULLI: (1.0, True, 0.0, 1.0),
    Family.POISSON: (inf, False, 0.0, 1.7976931348623157e308),
    Family.UNIFORM: (inf, False, 0.0, 8.988465674311579e307),
    Family.SIGNED: (1.0, False, -1.0, 1.0),
    Family.POINT_MASS: (inf, False, -1.7976931348623157e308, 1.7976931348623157e308),
}


def family_distribution(family: Family) -> EdgeDistribution:
    return EdgeDistribution(family, sigma2=1.0 if family is Family.NORMAL else None)


# a membership row [ROW_SUM, 0] passes the 1e-10 row-sum tolerance and
# puts a spec's means just beyond rho * P[0, 0]
ROW_SUM = 1 + 5e-11
NEAR_ONE = float(np.nextafter(1.0, 0.0))
FLOAT_MAX = float(np.finfo(float).max)


def two_node_spec(family: Family, rho: float, p00: float, row_sum: float = 1.0) -> GeneratorSpec:
    # two nodes with the row [row_sum, 0], so every mean is rho * row_sum**2 * p00,
    # and a P of full rank with largest |entry| 1 that is nonnegative where p00 is
    off = 1.0 - abs(p00)
    return GeneratorSpec(memberships=np.array([[row_sum, 0.0]] * 2), connectivity=np.array([[p00, off], [off, 1.0]]),
                         rho=rho, distribution=family_distribution(family))


# per family, (rho, P[0, 0]) of a pure-row spec at each end of the mean
# domain, whose mean rho * P[0, 0] is that end or, where no validated spec
# reaches it, the nearest mean one does: no mean lies below 0 when P >= 0,
# rho < 1 keeps signed means off +-1, and a mean is infinite only where
# rho * Pi P overflows, so the largest admissible rho stands for those ends
DOMAIN_END_SPECS = {
    Family.NORMAL: [(FLOAT_MAX, -1.0), (FLOAT_MAX, 1.0)],
    Family.BERNOULLI: [(1.0, 0.0), (1.0, 1.0)],
    Family.POISSON: [(1.0, 0.0), (FLOAT_MAX, 1.0)],
    Family.UNIFORM: [(1.0, 0.0), (FLOAT_MAX / 2.0, 1.0)],
    Family.SIGNED: [(NEAR_ONE, -1.0), (NEAR_ONE, 1.0)],
    Family.POINT_MASS: [(FLOAT_MAX, -1.0), (FLOAT_MAX, 1.0)],
}
# per family, (rho, P[0, 0]) of a spec whose means rho * ROW_SUM**2 * P[0, 0]
# lie just beyond a finite end that validated specs get past
BEYOND_DOMAIN_SPECS = {
    Family.BERNOULLI: [(1.0, 1.0)],
    Family.UNIFORM: [(1e308, 1.0)],
    Family.SIGNED: [(NEAR_ONE, -1.0), (NEAR_ONE, 1.0)],
}


class TestFamilyRules:
    @pytest.mark.parametrize("family", list(Family))
    def test_rho_range(self, family):
        top, inclusive, _, _ = FAMILY_RULES[family]
        cases = [
            (0.0, False),
            (5e-324, True),
            (float(np.nextafter(top, 0.0)), True),
            (top, inclusive),
            (float(np.nextafter(top, inf)), False),
            (inf, False),
            (nan, False),
        ]
        distribution = family_distribution(family)
        for rho, ok in cases:
            if ok:
                distribution.check_rho(rho)
                continue
            message = f"rho={rho} outside the admissible range of the {family.value} family"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                distribution.check_rho(rho)

    @pytest.mark.parametrize("family", list(Family))
    def test_mean_domain_ends(self, family):
        _, _, lo, hi = FAMILY_RULES[family]
        for rho, p00 in DOMAIN_END_SPECS[family]:
            mean = population_adjacency(two_node_spec(family, rho, p00))[0, 1]
            assert mean == rho * p00 and lo <= mean <= hi
        for rho, p00 in BEYOND_DOMAIN_SPECS.get(family, []):
            beyond = rho * ROW_SUM * ROW_SUM * p00
            assert not lo <= beyond <= hi
            message = (f"mean {beyond!r} at entry (0, 0) is outside the "
                       f"{family.value} family's domain [{lo}, {hi}]")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                two_node_spec(family, rho, p00, ROW_SUM)

    @pytest.mark.parametrize("family", [f for f in Family if FAMILY_RULES[f][0] == inf])
    def test_overflowing_means_are_refused_naming_their_entry(self, family):
        # rho * ROW_SUM overflows to inf, and inf * 0 is NaN, so every mean
        # is NaN; it must be refused here, without a numpy warning, and not
        # by every draw from the spec later
        _, _, lo, hi = FAMILY_RULES[family]
        message = f"mean nan at entry (0, 0) is outside the {family.value} family's domain [{lo}, {hi}]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                two_node_spec(family, FLOAT_MAX, 1.0, ROW_SUM)

    @pytest.mark.parametrize("family", list(Family))
    def test_nonnegative_connectivity_exactly_where_means_start_at_zero(self, family):
        distribution = family_distribution(family)
        # -0.0 is not negative
        check_connectivity(np.array([[1.0, -0.0], [-0.0, 1.0]]), distribution)
        negative = np.array([[1.0, -0.5], [-0.5, 1.0]])
        if FAMILY_RULES[family][2] != 0.0:
            check_connectivity(negative, distribution)
            return
        message = f"{family.value} family requires nonnegative connectivity entries"
        with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
            check_connectivity(negative, distribution)


class TestPopulation:
    def test_identity_memberships_scale(self):
        dist = EdgeDistribution(Family.NORMAL, sigma2=1.0)
        spec = GeneratorSpec(
            memberships=np.eye(3),
            connectivity=check_connectivity(np.eye(3), dist),
            rho=2.0,
            distribution=dist,
        )
        assert np.allclose(population_adjacency(spec), 2.0 * np.eye(3))

    def test_rank_and_symmetry(self):
        spec = standard_spec(Family.NORMAL, rho=10.0)
        omega = population_adjacency(spec)
        assert np.array_equal(omega, omega.T)
        sv = np.linalg.svd(omega, compute_uv=False)
        assert sv[3] <= 1e-9 * sv[0]

    def test_bernoulli_mean_domain_violation_names_entry(self):
        # 70 nodes pure in community 1, whose means are 0.5, then one with
        # the row [ROW_SUM, 0]: its own mean, in the second 64-row block of
        # the check, is the first beyond 1
        m = np.array([[0.0, 1.0]] * 70 + [[ROW_SUM, 0.0]])
        message = ("mean 1.0000000001 at entry (70, 70) is outside the "
                   "bernoulli family's domain [0.0, 1.0]")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeneratorSpec(memberships=m, connectivity=np.array([[1.0, 0.5], [0.5, 0.5]]),
                          rho=1.0, distribution=EdgeDistribution(Family.BERNOULLI))


def triu_sample_oracle(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """Reference draw: the full symmetrized mean read at triu_indices,
    scattered into a zero matrix and mirrored with a + a.T."""
    from mmdf.generator import _draw_weights

    n = spec.n
    iu = np.triu_indices(n, k=1)
    values = _draw_weights(rng, population_adjacency(spec)[iu], spec.distribution)
    if spec.sparsity is not None:
        values = values * (rng.random(values.shape) < spec.sparsity)
    a = np.zeros((n, n))
    a[iu] = values
    return a + a.T


FAMILY_RHO = {
    Family.NORMAL: 0.5,
    Family.BERNOULLI: 0.3,
    Family.POISSON: 2.0,
    Family.UNIFORM: 1.5,
    Family.SIGNED: 0.4,
    Family.POINT_MASS: 1.0,
}


def spec_of_order(family: Family, n: int, seed: int = 0, sparsity: float | None = None) -> GeneratorSpec:
    """A spec at any n >= 1: min(3, n) communities with one pure node
    each, the other nodes evenly mixed."""
    k = min(3, n)
    dist = EdgeDistribution(family, sigma2=2.0 if family is Family.NORMAL else None)
    p = (P_SIGNED if family is Family.NORMAL else P_NONNEG)[:k, :k]
    mixed = [(np.full(k, 1.0 / k), n - k)] if n > k else []
    return GeneratorSpec(
        memberships=build_membership(n, k, 1, mixed),
        connectivity=check_connectivity(p, dist),
        rho=FAMILY_RHO[family],
        distribution=dist,
        sparsity=sparsity,
        seed=seed,
    )


# orders on either side of each edge of the sampler's 64-row blocks:
# one block of 1, 63 or 64 rows, and a last block of one row after one
# or two full blocks
TILE_EDGE_ORDERS = (1, 63, 64, 65, 129)


class TestSampling:
    @pytest.mark.parametrize("sparsity", [None, 0.5])
    @pytest.mark.parametrize("family", list(Family))
    def test_bytes_match_triu_oracle(self, family, sparsity):
        # bitwise, so a -0.0 left by the sparsity mask shows as a mismatch
        for seed in range(3):
            spec = standard_spec(family, rho=FAMILY_RHO[family], n=60, pure=12,
                                 seed=seed, sparsity=sparsity)
            graph = sample_adjacency(spec)
            expected = triu_sample_oracle(spec, np.random.default_rng(seed))
            assert graph.weights.tobytes() == expected.tobytes()
        for n in TILE_EDGE_ORDERS:
            spec = spec_of_order(family, n, seed=n, sparsity=sparsity)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DisconnectedSampleWarning)
                graph = sample_adjacency(spec)
            expected = triu_sample_oracle(spec, np.random.default_rng(n))
            assert graph.weights.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sparsity", [None, 0.5])
    @pytest.mark.parametrize("family", list(Family))
    def test_bytes_match_triu_oracle_on_the_benchmark_designs(self, family, sparsity):
        # the criterion-6 designs the benchmark samples: 4 blocks at
        # n = 200, the last one short, and 13 blocks at n = 800
        for seed, (n, pure) in enumerate(((200, 40), (800, 200))):
            spec = standard_spec(family, rho=FAMILY_RHO[family], n=n, pure=pure,
                                 seed=seed, sparsity=sparsity)
            graph = sample_adjacency(spec)
            expected = triu_sample_oracle(spec, np.random.default_rng(seed))
            assert graph.weights.tobytes() == expected.tobytes()

    def test_distinct_mixed_rows_match_the_oracle_within_rounding(self):
        # with every row distinct, a block's means can differ from the whole
        # product's in the last bit (BLAS picks kernels by shape), so only the
        # draw order and the RNG stream are bitwise those of the oracle
        n = 204
        m = np.random.default_rng(0).dirichlet(np.ones(3), size=n)
        dist = EdgeDistribution(Family.POINT_MASS)
        spec = GeneratorSpec(memberships=m, connectivity=check_connectivity(P_NONNEG[:3, :3], dist),
                             rho=1.0, distribution=dist)
        rng, oracle_rng = np.random.default_rng(1), np.random.default_rng(1)
        graph = sample_adjacency(spec, rng=rng)
        expected = triu_sample_oracle(spec, oracle_rng)
        iu = np.triu_indices(n, 1)
        peak = np.abs(population_adjacency(spec)).max()
        assert np.abs(graph.weights[iu] - expected[iu]).max() <= 2 * np.finfo(float).eps * peak
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("family", list(Family))
    def test_draws_match_the_numpy_samplers(self, family):
        # _draw_weights writes over the means; the values and the stream
        # they use are those of numpy's own sampler for each family
        rng = np.random.default_rng(5)
        means = {
            Family.NORMAL: rng.normal(size=5000) * 1e3,
            Family.BERNOULLI: rng.uniform(0.0, 1.0, 5000),
            Family.POISSON: rng.uniform(0.0, 50.0, 5000),
            Family.UNIFORM: np.concatenate([rng.uniform(0.0, 1.0, 4997) * 10.0 ** rng.integers(-320, 300, 4997),
                                            [np.finfo(float).max / 2.0, 0.0, 5e-324]]),
            Family.SIGNED: rng.uniform(-1.0, 1.0, 5000),
            Family.POINT_MASS: rng.normal(size=5000),
        }[family]
        numpy_sampler = {
            Family.NORMAL: lambda r, m: r.normal(m, np.sqrt(2.0)),
            Family.BERNOULLI: lambda r, m: (r.random(m.shape) < m).astype(float),
            Family.POISSON: lambda r, m: r.poisson(m).astype(float),
            Family.UNIFORM: lambda r, m: r.uniform(0.0, 2.0 * m),
            Family.SIGNED: lambda r, m: np.where(r.random(m.shape) < (1.0 + m) / 2.0, 1.0, -1.0),
            Family.POINT_MASS: lambda r, m: m.copy(),
        }[family]
        dist = EdgeDistribution(family, sigma2=2.0 if family is Family.NORMAL else None)
        for seed in range(3):
            expected = numpy_sampler(np.random.default_rng(seed), means)
            drawn = _draw_weights(np.random.default_rng(seed), means.copy(), dist)
            assert drawn.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(Family)), st.sampled_from(TILE_EDGE_ORDERS),
           st.one_of(st.none(), st.floats(0.0, 1.0)), st.integers(0, 2**32 - 1))
    def test_samples_are_exactly_symmetric_finite_with_zero_diagonal(self, family, n, sparsity, seed):
        # what WeightedGraph no longer tests on a sampled matrix
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedSampleWarning)
            graph = sample_adjacency(spec_of_order(family, n, seed=seed, sparsity=sparsity))
        w = graph.weights
        assert w.shape == (n, n)
        assert w.tobytes() == np.ascontiguousarray(w.T).tobytes()
        assert np.isfinite(w).all()
        assert not np.diagonal(w).any()

    def test_uniform_mean_up_to_half_the_float64_limit_samples_finite_weights(self):
        spec = standard_spec(Family.UNIFORM, rho=np.finfo(float).max / 2.0, n=30, pure=6)
        graph = sample_adjacency(spec)
        assert np.isfinite(graph.weights).all() and graph.weights.max() > 1e307

    def test_uniform_mean_beyond_half_the_float64_limit_rejected(self):
        # the support [0, 2 * mean] would overflow to inf
        with pytest.raises(ValueError, match="outside the uniform family's domain"):
            standard_spec(Family.UNIFORM, rho=1e308, n=30, pure=6)

    def test_point_mass_reproduces_population(self):
        spec = standard_spec(Family.POINT_MASS, rho=3.0, n=40, pure=8)
        graph = sample_adjacency(spec)
        omega = population_adjacency(spec)
        off = ~np.eye(40, dtype=bool)
        assert np.allclose(graph.weights[off], omega[off])
        assert np.all(np.diag(graph.weights) == 0)

    def test_point_mass_near_the_float64_limit(self):
        # the averaged means stay finite where mean + mean.T would overflow
        spec = standard_spec(Family.POINT_MASS, rho=1e308, n=40, pure=8)
        graph = sample_adjacency(spec)
        omega = population_adjacency(spec)
        off = ~np.eye(40, dtype=bool)
        assert np.isfinite(omega).all() and np.abs(omega).max() > 1e307
        assert np.array_equal(graph.weights[off], omega[off])

    def test_seed_determinism(self):
        spec = standard_spec(Family.NORMAL, rho=5.0, n=30, pure=6, seed=99)
        g1 = sample_adjacency(spec)
        g2 = sample_adjacency(spec)
        assert np.array_equal(g1.weights, g2.weights)

    def test_bernoulli_constant_mean_clt(self):
        # single community: every pair has mean rho
        dist = EdgeDistribution(Family.BERNOULLI)
        n = 60
        spec = GeneratorSpec(
            memberships=np.ones((n, 1)),
            connectivity=check_connectivity(np.eye(1), dist),
            rho=0.5,
            distribution=dist,
            seed=11,
        )
        rng = np.random.default_rng(0)
        means = []
        for _ in range(200):
            g = sample_adjacency(spec, rng=rng)
            means.append(g.weights[np.triu_indices(n, 1)].mean())
        n_pairs = n * (n - 1) / 2
        tol = 4.0 * np.sqrt(0.25 / (n_pairs * 200))
        assert abs(np.mean(means) - 0.5) < tol

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.BERNOULLI, Family.POISSON, Family.UNIFORM, Family.SIGNED])
    def test_sampled_means_match_population(self, family):
        rho = {"normal": 10.0, "bernoulli": 0.8, "poisson": 3.0, "uniform": 5.0, "signed": 0.8}[family.value]
        spec = standard_spec(family, rho=rho, n=40, pure=8, seed=5)
        omega = population_adjacency(spec)
        rng = np.random.default_rng(42)
        reps = 200
        acc = np.zeros_like(omega)
        for _ in range(reps):
            g = sample_adjacency(spec, rng=rng)
            acc += g.weights
        mean = acc / reps
        iu = np.triu_indices(40, 1)
        # per-family variance at the mean, for standard-error bounds
        if family is Family.NORMAL:
            var = np.full_like(omega, 2.0)
        elif family is Family.BERNOULLI:
            var = omega * (1 - omega)
        elif family is Family.POISSON:
            var = omega.copy()
        elif family is Family.UNIFORM:
            var = omega**2 / 3.0
        else:
            var = 1 - omega**2
        se = np.sqrt(np.maximum(var[iu], 1e-12) / reps)
        assert np.all(np.abs(mean[iu] - omega[iu]) <= 5.0 * se + 1e-9)

    @pytest.mark.parametrize("family", [Family.UNIFORM, Family.SIGNED])
    def test_sampled_variance_matches_family(self, family):
        rho = 5.0 if family is Family.UNIFORM else 0.6
        spec = standard_spec(family, rho=rho, n=30, pure=6, seed=6)
        omega = population_adjacency(spec)
        rng = np.random.default_rng(43)
        reps = 400
        samples = np.stack([sample_adjacency(spec, rng=rng).weights for _ in range(reps)])
        iu = np.triu_indices(30, 1)
        emp_var = samples.var(axis=0)[iu]
        theory = (omega**2 / 3.0 if family is Family.UNIFORM else 1 - omega**2)[iu]
        # variance of the sample variance ~ 2 sigma^4 / reps for light tails
        se = np.sqrt(2.0 * np.maximum(theory, 1e-12) ** 2 / reps)
        assert np.all(np.abs(emp_var - theory) <= 6.0 * se + 1e-6)

    @pytest.mark.parametrize("family", [Family.POISSON, Family.UNIFORM])
    def test_negative_mean_rejected_by_the_spec(self, family):
        # the spec checks its P itself, so no negative entry of P, and so
        # no negative mean, reaches the sampler
        message = f"{family.value} family requires nonnegative connectivity entries"
        with pytest.raises(ConnectivityError, match=f"^{message}$"):
            GeneratorSpec(memberships=np.eye(2), connectivity=np.array([[1.0, -0.5], [-0.5, 1.0]]),
                          rho=1.0, distribution=EdgeDistribution(family))


class TestSparsityMask:
    def test_zero_keeps_nothing(self):
        spec = standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, sparsity=0.0)
        with pytest.warns(DisconnectedSampleWarning, match="left 20 components"):
            g = sample_adjacency(spec)
        assert np.all(g.weights == 0)

    def test_one_matches_unmasked_sample(self):
        base = standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, seed=3)
        masked = standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, seed=3, sparsity=1.0)
        g_base = sample_adjacency(base)
        g_masked = sample_adjacency(masked)
        assert np.array_equal(g_base.weights, g_masked.weights)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 0.3))
    def test_component_count_matches_scipy(self, seed, n, density):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < density, k=1)
        adjacent = upper | upper.T
        assert _component_count(adjacent) == connected_components(adjacent, directed=False)[0]

    def test_component_count_edge_cases(self):
        assert _component_count(np.zeros((1, 1), dtype=bool)) == 1
        assert _component_count(np.zeros((6, 6), dtype=bool)) == 6
        path = np.eye(6, k=1, dtype=bool)
        assert _component_count(path | path.T) == 1

    def test_survival_fraction(self):
        p = 0.6
        n = 60
        spec = standard_spec(Family.NORMAL, rho=5.0, n=n, pure=12, seed=8, sparsity=p)
        g = sample_adjacency(spec)
        iu = np.triu_indices(n, 1)
        frac = np.count_nonzero(g.weights[iu]) / len(g.weights[iu])
        n_pairs = len(g.weights[iu])
        assert abs(frac - p) <= 4.0 * np.sqrt(p * (1 - p) / n_pairs)

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="sparsity"):
            standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, sparsity=1.5)


def test_spec_round_trips_through_dict():
    spec = standard_spec(Family.BERNOULLI, rho=0.4, n=20, pure=4, seed=17, sparsity=0.9)
    restored = GeneratorSpec.from_dict(spec.to_dict())
    assert np.array_equal(restored.memberships, spec.memberships)
    assert np.array_equal(restored.connectivity, spec.connectivity)
    assert not restored.connectivity.flags.writeable
    assert restored.rho == spec.rho
    assert restored.seed == spec.seed
    assert restored.sparsity == spec.sparsity
    assert restored.distribution == spec.distribution


def test_spec_equality_compares_arrays_by_value():
    spec = standard_spec(Family.BERNOULLI, rho=0.4, n=20, pure=4, seed=17, sparsity=0.9)
    restored = GeneratorSpec.from_dict(spec.to_dict())
    assert restored.connectivity is not spec.connectivity
    assert (restored == spec) is True
    memberships = spec.memberships.copy()
    memberships[-1] = memberships[0]
    assert not np.array_equal(memberships, spec.memberships)
    assert GeneratorSpec.from_dict({**spec.to_dict(), "memberships": memberships.tolist()}) != spec
    other = check_connectivity(P_NONNEG.T[::-1, ::-1], spec.distribution)
    assert not np.array_equal(other, spec.connectivity)
    assert replace(spec, connectivity=other) != spec


class TestSpecOwnsConnectivityRules:
    def test_asymmetric_p_rejected_for_the_normal_family(self):
        # largest |entry| 3 as well; the first rule P breaks is named
        with pytest.raises(ConnectivityError, match="^connectivity matrix must be symmetric$"):
            GeneratorSpec(memberships=np.eye(2), connectivity=np.array([[3.0, 0.9], [-0.4, 0.0]]),
                          rho=1.0, distribution=EdgeDistribution(Family.NORMAL, sigma2=1.0))

    def test_spec_holds_a_copy_of_the_callers_p(self):
        p = np.array([[1.0, 0.2], [0.2, 1.0]])
        spec = GeneratorSpec(memberships=np.eye(2), connectivity=p, rho=1.0,
                             distribution=EdgeDistribution(Family.BERNOULLI))
        before = population_adjacency(spec)
        p[0, 0] = 5.0
        assert not spec.connectivity.flags.writeable
        assert spec.connectivity[0, 0] == 1.0
        assert np.array_equal(population_adjacency(spec), before)

    def test_rank_deficient_p_fails_at_construction_not_at_from_dict(self):
        with pytest.raises(ConnectivityError, match="must have full rank"):
            GeneratorSpec(memberships=np.eye(2), connectivity=np.ones((2, 2)), rho=1.0,
                          distribution=EdgeDistribution(Family.BERNOULLI))

    def test_every_replace_checks_p(self):
        spec = standard_spec(Family.POISSON, rho=2.0, n=20, pure=4)
        with pytest.raises(ConnectivityError, match="poisson family requires nonnegative"):
            replace(spec, connectivity=P_SIGNED)


class TestSpecValuesAreJsonKinds:
    def test_infinite_variance_rejected(self):
        for sigma2 in (inf, nan):
            with pytest.raises(ValueError, match=f"^sigma2 must be a finite number, got {sigma2}$"):
                EdgeDistribution(Family.NORMAL, sigma2=sigma2)
        with pytest.raises(ValueError, match="^sigma2 must be a finite number, got True$"):
            EdgeDistribution(Family.NORMAL, sigma2=True)

    def test_numpy_scalars_are_taken_as_python_values(self):
        spec = standard_spec(Family.NORMAL, rho=np.float32(0.5), n=20, pure=4, seed=np.int64(2),
                             sparsity=np.float64(0.75), sigma2=np.float32(2.0))
        values = (spec.rho, spec.seed, spec.sparsity, spec.distribution.sigma2)
        assert values == (0.5, 2, 0.75, 2.0)
        assert [type(v) for v in values] == [float, int, float, float]
        assert GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("key, value, what", [
        ("seed", True, "an integer"),
        ("seed", 2.0, "an integer"),
        ("rho", True, "a finite number"),
        ("rho", "0.5", "a finite number"),
        ("sparsity", True, "a finite number"),
    ])
    def test_values_from_dict_refuses_are_refused(self, key, value, what):
        # the message read_key gives for the same value in JSON
        spec = standard_spec(Family.BERNOULLI, rho=0.4, n=20, pure=4)
        message = f"{key} must be {what}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(spec, **{key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeneratorSpec.from_dict({**spec.to_dict(), key: value})
