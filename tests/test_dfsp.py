import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdf.datasets import load_dataset
from mmdf.dfsp import EstimationError, dfsp, harden, memberships_from_vectors
from mmdf.generator import (
    EdgeDistribution,
    Family,
    GeneratorSpec,
    check_connectivity,
    population_adjacency,
)
from mmdf.metrics import membership_errors

from conftest import P_NONNEG, random_valid_spec, standard_membership


def population(memberships, p, rho):
    dist = EdgeDistribution(Family.NORMAL, sigma2=1.0)
    spec = GeneratorSpec(
        memberships=memberships,
        connectivity=check_connectivity(p, dist),
        rho=rho,
        distribution=dist,
    )
    return population_adjacency(spec)


class TestIdealRecovery:
    def test_all_pure_population(self):
        omega = population(np.eye(3), P_NONNEG, 0.5)
        report = dfsp(omega, 3)
        err = membership_errors(report.memberships, np.eye(3))
        assert err.hamming * 3 < 1e-8  # max row-l1 bounded by n * hamming

    def test_standard_design_population(self):
        pi = standard_membership()
        p_signed = np.array([[1.0, -0.2, -0.3], [-0.2, 0.9, 0.3], [-0.3, 0.3, 0.9]])
        omega = population(pi, p_signed, 10.0)
        report = dfsp(omega, 3)
        from itertools import permutations

        best = min(
            np.abs(report.memberships - pi[:, perm]).sum(axis=1).max()
            for perm in permutations(range(3))
        )
        assert best < 1e-6

    def test_randomized_signed_populations(self, rng):
        for trial in range(5):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(30, 120))
            rows, p = random_valid_spec(rng, k, n, signed=True)
            omega = population(rows, p, float(rng.uniform(0.5, 5.0)))
            report = dfsp(omega, k)
            from itertools import permutations

            best = min(
                np.abs(report.memberships - rows[:, perm]).sum(axis=1).max()
                for perm in permutations(range(k))
            )
            assert best < 1e-6

    def test_vertex_indices_are_pure_nodes(self, rng):
        rows, p = random_valid_spec(rng, 3, 40)
        omega = population(rows, p, 2.0)
        report = dfsp(omega, 3)
        for idx in report.vertex_indices:
            assert rows[idx].max() == 1.0  # a pure row


class TestOutputContract:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-100, 100), st.integers(1, 6), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_fit_does_not_depend_on_the_scale_of_the_input(self, j, k, seed):
        # karate, or a random symmetric matrix, scaled by a power of two:
        # the rank check is relative, so the scaled graph fits wherever
        # the graph does, with the same memberships
        if seed is None:
            w = load_dataset("karate").graph.weights
        else:
            w = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(12, 12))
            w = w + w.T
        try:
            want = dfsp(w, k).memberships
        except EstimationError:
            return
        got = dfsp(2.0**j * w, k).memberships
        assert np.abs(got - want).max() <= 1e-12

    def test_all_zero_spectrum_has_no_structure(self):
        with pytest.raises(EstimationError, match="no rank-1 structure"):
            dfsp(np.zeros((5, 5)), 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 4))
    def test_rows_are_pmfs_for_arbitrary_symmetric_input(self, seed, n, k):
        if k > n:
            return
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        try:
            report = dfsp(a, k)
        except EstimationError:
            return  # legitimate failure mode for unstructured input
        m = report.memberships
        assert np.all(m >= 0)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 12))
    def test_fit_from_larger_spectrum_is_bitwise_the_direct_fit(self, seed, n):
        from mmdf.spectral import top_k_eigen

        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        try:
            direct = dfsp(a, 3)
        except EstimationError as exc:
            with pytest.raises(EstimationError) as shared:
                dfsp(top_k_eigen(a, 5), 3)
            assert shared.value.stage == exc.stage
            return
        shared = dfsp(top_k_eigen(a, 5), 3)
        assert np.array_equal(shared.memberships, direct.memberships)
        assert np.array_equal(shared.vertex_indices, direct.vertex_indices)
        assert shared.eigen.vectors.shape == (n, 3)
        assert np.array_equal(shared.eigen.values, direct.eigen.values)
        assert np.array_equal(shared.eigen.vectors, direct.eigen.vectors)
        assert (shared.clipped_rows, shared.degenerate_rows) == (direct.clipped_rows, direct.degenerate_rows)

    def test_spectrum_shorter_than_k_rejected(self, rng):
        from mmdf.spectral import top_k_eigen

        a = rng.normal(size=(6, 6))
        a = a + a.T
        with pytest.raises(ValueError, match="out of range"):
            dfsp(top_k_eigen(a, 2), 3)

    def test_k1_returns_all_ones_column(self, rng):
        a = rng.normal(size=(7, 7))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        report = dfsp(a, 1)
        assert np.allclose(report.memberships, 1.0)

    def test_permutation_equivariance(self, rng):
        # needs a well-separated top-k spectrum: exact eigenvalue ties
        # make the estimated subspace itself basis-dependent
        rows, p = random_valid_spec(rng, 3, 30)
        a = population(rows, p, 1.0)
        order = rng.permutation(30)
        a_perm = a[np.ix_(order, order)]
        base = dfsp(a, 3).memberships
        permed = dfsp(a_perm, 3).memberships
        err = membership_errors(permed, base[order])
        assert err.hamming < 1e-8

    def test_eigenvector_sign_invariance(self, rng):
        from mmdf.spectral import top_k_eigen

        rows, p = random_valid_spec(rng, 3, 25)
        omega = population(rows, p, 1.0)
        eigen = top_k_eigen(omega, 3)
        base = memberships_from_vectors(eigen.vectors)[0]
        for signs in ([-1, 1, 1], [1, -1, -1], [-1, -1, -1]):
            flipped = memberships_from_vectors(eigen.vectors * np.array(signs))[0]
            assert np.allclose(flipped, base, atol=1e-10)

    def test_clipped_and_degenerate_counters(self):
        # hand-built eigenvector rows: two clean corners, one row with a
        # negative coefficient (clipped), one row entirely outside
        # (all-nonpositive coefficients -> degenerate/uniform)
        vectors = np.array([
            [1.0, 0.0],
            [0.0, 1.0],
            [0.6, -0.1],
            [-0.5, -0.2],
        ])
        m, vertices, clipped, degenerate, cond = memberships_from_vectors(vectors)
        assert sorted(vertices.tolist()) == [0, 1]
        assert cond == 1.0
        assert clipped == 2
        assert degenerate == 1
        assert np.allclose(m[3], [0.5, 0.5])

    def test_singular_corner_matrix_raises(self):
        # rank-1 rows: vertex hunting terminates early -> estimation error
        vectors = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(EstimationError):
            memberships_from_vectors(vectors)


def cycle(n):
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = w[(idx + 1) % n, idx] = 1.0
    return w


class TestTiedMagnitudes:
    """A k that cuts through eigenvalues of equal |λ| leaves the top-k
    eigenspace unidentified, so the fit is refused, not returned."""

    def test_two_disjoint_edges(self):
        # |λ| = 1, 1, 1, 1
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(EstimationError, match="equal magnitude") as exc:
            dfsp(w, 2)
        assert exc.value.stage == "eigendecomposition"

    def test_eight_cycle(self):
        # |λ| = 2, 2, √2, √2, √2, √2, 0, 0: k = 2 and k = 6 fall in gaps
        w = cycle(8)
        for k in (3, 4, 5):
            with pytest.raises(EstimationError, match="equal magnitude"):
                dfsp(w, k)
        assert dfsp(w, 2).memberships.shape == (8, 2)

    def test_k1_is_exempt(self):
        # one community: the memberships are all ones whatever the vector
        report = dfsp(cycle(8), 1)
        assert np.array_equal(report.memberships, np.ones((8, 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12), st.floats(0.2, 1.0))
    def test_bipartite_graphs_refuse_every_odd_k(self, seed, p, q, density):
        # a bipartite spectrum pairs every λ with -λ, so each odd k >= 3
        # either splits such a pair or has no rank-k structure
        from mmdf.spectral import top_k_eigen

        rng = np.random.default_rng(seed)
        b = (rng.random((p, q)) < density) * rng.uniform(0.5, 2.0, size=(p, q))
        n = p + q
        w = np.block([[np.zeros((p, p)), b], [b.T, np.zeros((q, q))]])
        spectrum = top_k_eigen(w, n)
        for k in range(3, n, 2):
            with pytest.raises(EstimationError) as exc:
                dfsp(spectrum, k)
            assert exc.value.stage == "eigendecomposition"


class TestHarden:
    def test_pure_row(self):
        assert harden(np.array([[1.0, 0.0, 0.0]]))[0] == 0

    def test_tie_breaks_to_smallest_index(self):
        assert harden(np.array([[0.5, 0.5]]))[0] == 0

    def test_matches_argmax(self, rng):
        m = rng.dirichlet(np.ones(4), size=50)
        assert np.array_equal(harden(m), np.argmax(m, axis=1))
