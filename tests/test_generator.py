import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
        assert c.sigma_k > 0
        assert c.k == 3

    def test_nonnegative_design_matrix_valid(self):
        c = check_connectivity(P_NONNEG, EdgeDistribution(Family.BERNOULLI))
        assert c.sigma_k == pytest.approx(
            np.linalg.svd(P_NONNEG, compute_uv=False)[-1]
        )

    def test_scaled_matrix_fails_max_entry(self):
        with pytest.raises(ConnectivityError) as exc:
            check_connectivity(0.5 * P_NONNEG, EdgeDistribution(Family.BERNOULLI))
        assert exc.value.reason == "max-entry"

    def test_asymmetric_rejected(self):
        bad = P_NONNEG.copy()
        bad[0, 1] = 0.7
        with pytest.raises(ConnectivityError) as exc:
            check_connectivity(bad, EdgeDistribution(Family.BERNOULLI))
        assert exc.value.reason == "asymmetric"

    def test_rank_deficient_rejected(self):
        bad = np.ones((3, 3))
        with pytest.raises(ConnectivityError) as exc:
            check_connectivity(bad, EdgeDistribution(Family.POISSON))
        assert exc.value.reason == "rank-deficient"

    def test_negative_entries_rejected_for_nonnegative_families(self):
        with pytest.raises(ConnectivityError) as exc:
            check_connectivity(P_SIGNED, EdgeDistribution(Family.POISSON))
        assert exc.value.reason == "sign"

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
        ],
    )
    def test_admissibility(self, family, rho, ok):
        sigma2 = 1.0 if family is Family.NORMAL else None
        assert EdgeDistribution(family, sigma2=sigma2).rho_admissible(rho) is ok


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
        # a signed-admissible connectivity paired with the bernoulli
        # family puts negative means in play, which must be rejected
        # with the offending entry named
        dist = EdgeDistribution(Family.BERNOULLI)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            GeneratorSpec(
                memberships=np.eye(2),
                connectivity=check_connectivity(
                    np.array([[1.0, -0.5], [-0.5, 1.0]]), EdgeDistribution(Family.SIGNED)
                ),
                rho=0.5,
                distribution=dist,
            )


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


class TestSampling:
    @pytest.mark.parametrize("sparsity", [None, 0.5])
    @pytest.mark.parametrize("family", list(Family))
    def test_bytes_match_triu_oracle(self, family, sparsity):
        # bitwise, so a -0.0 left by the sparsity mask shows as a mismatch
        for seed in range(3):
            spec = standard_spec(family, rho=FAMILY_RHO[family], n=60, pure=12,
                                 seed=seed, sparsity=sparsity)
            graph, _ = sample_adjacency(spec)
            expected = triu_sample_oracle(spec, np.random.default_rng(seed))
            assert graph.weights.tobytes() == expected.tobytes()

    def test_point_mass_reproduces_population(self):
        spec = standard_spec(Family.POINT_MASS, rho=3.0, n=40, pure=8)
        graph, _ = sample_adjacency(spec)
        omega = population_adjacency(spec)
        off = ~np.eye(40, dtype=bool)
        assert np.allclose(graph.weights[off], omega[off])
        assert np.all(np.diag(graph.weights) == 0)

    def test_point_mass_near_the_float64_limit(self):
        # the averaged means stay finite where mean + mean.T would overflow
        spec = standard_spec(Family.POINT_MASS, rho=1e308, n=40, pure=8)
        graph, _ = sample_adjacency(spec)
        omega = population_adjacency(spec)
        off = ~np.eye(40, dtype=bool)
        assert np.isfinite(omega).all() and np.abs(omega).max() > 1e307
        assert np.array_equal(graph.weights[off], omega[off])

    def test_seed_determinism(self):
        spec = standard_spec(Family.NORMAL, rho=5.0, n=30, pure=6, seed=99)
        g1, _ = sample_adjacency(spec)
        g2, _ = sample_adjacency(spec)
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
            g, _ = sample_adjacency(spec, rng=rng)
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
            g, _ = sample_adjacency(spec, rng=rng)
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
        samples = np.stack([sample_adjacency(spec, rng=rng)[0].weights for _ in range(reps)])
        iu = np.triu_indices(30, 1)
        emp_var = samples.var(axis=0)[iu]
        theory = (omega**2 / 3.0 if family is Family.UNIFORM else 1 - omega**2)[iu]
        # variance of the sample variance ~ 2 sigma^4 / reps for light tails
        se = np.sqrt(2.0 * np.maximum(theory, 1e-12) ** 2 / reps)
        assert np.all(np.abs(emp_var - theory) <= 6.0 * se + 1e-6)

    def test_poisson_negative_mean_rejected(self):
        from mmdf.generator import _draw_weights

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="nonnegative"):
            _draw_weights(rng, np.array([0.5, -0.1]), EdgeDistribution(Family.POISSON))


class TestSparsityMask:
    def test_zero_keeps_nothing(self):
        spec = standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, sparsity=0.0)
        with pytest.warns(DisconnectedSampleWarning, match="left 20 components"):
            g, _ = sample_adjacency(spec)
        assert np.all(g.weights == 0)

    def test_one_matches_unmasked_sample(self):
        base = standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, seed=3)
        masked = standard_spec(Family.NORMAL, rho=5.0, n=20, pure=4, seed=3, sparsity=1.0)
        g_base, _ = sample_adjacency(base)
        g_masked, _ = sample_adjacency(masked)
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
        g, _ = sample_adjacency(spec)
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
    assert np.array_equal(restored.connectivity.entries, spec.connectivity.entries)
    assert restored.rho == spec.rho
    assert restored.seed == spec.seed
    assert restored.sparsity == spec.sparsity
    assert restored.distribution == spec.distribution


def test_spec_equality_compares_arrays_by_value():
    spec = standard_spec(Family.BERNOULLI, rho=0.4, n=20, pure=4, seed=17, sparsity=0.9)
    restored = GeneratorSpec.from_dict(spec.to_dict())
    assert (restored == spec) is True
    assert (restored.connectivity == spec.connectivity) is True
    memberships = spec.memberships.copy()
    memberships[-1] = memberships[0]
    assert not np.array_equal(memberships, spec.memberships)
    assert GeneratorSpec.from_dict({**spec.to_dict(), "memberships": memberships.tolist()}) != spec
    other = check_connectivity(P_NONNEG.T[::-1, ::-1], spec.distribution)
    assert not np.array_equal(other.entries, spec.connectivity.entries)
    assert other != spec.connectivity
