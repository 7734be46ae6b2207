import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mmdf.spectral import EarlyStopWarning, successive_projection, top_k_eigen


def full_decomposition_oracle(m: np.ndarray, k: int):
    """Reference: all n eigenpairs from a dense solver, magnitude-sorted,
    truncated. Kept independent of the implementation under test."""
    vals, vecs = scipy.linalg.eigh(m)
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


class TestTopKEigen:
    def test_diagonal_matrix(self):
        res = top_k_eigen(np.diag([3.0, 1.0, -2.0]), 2)
        assert np.allclose(res.values, [3.0, -2.0])
        assert np.allclose(np.abs(res.vectors[:, 0]), [1, 0, 0])
        assert np.allclose(np.abs(res.vectors[:, 1]), [0, 0, 1])
        # sign convention: largest-magnitude entry positive
        assert res.vectors[0, 0] > 0
        assert res.vectors[2, 1] > 0

    def test_identity_degenerate_spectrum(self):
        res = top_k_eigen(np.eye(2), 1)
        assert res.values[0] == pytest.approx(1.0)
        assert np.linalg.norm(res.vectors[:, 0]) == pytest.approx(1.0)
        lead = np.argmax(np.abs(res.vectors[:, 0]))
        assert res.vectors[lead, 0] > 0

    def test_matches_full_decomposition_oracle(self, rng):
        m = rng.normal(size=(6, 6))
        m = m + m.T
        res = top_k_eigen(m, 4)
        oracle_vals, oracle_vecs = full_decomposition_oracle(m, 4)
        assert np.allclose(res.values, oracle_vals, atol=1e-8)
        # eigenvectors agree up to sign
        overlap = np.abs(np.sum(res.vectors * oracle_vecs, axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-8)

    def test_orthonormal_columns(self, rng):
        m = rng.normal(size=(20, 20))
        m = m + m.T
        res = top_k_eigen(m, 5)
        assert np.allclose(res.vectors.T @ res.vectors, np.eye(5), atol=1e-10)

    def test_residual_bound(self, rng):
        for n, k in [(10, 3), (40, 7)]:
            m = rng.normal(size=(n, n))
            m = m + m.T
            res = top_k_eigen(m, k)
            resid = np.linalg.norm(m @ res.vectors - res.vectors * res.values)
            assert resid <= 1e-7 * max(1.0, np.linalg.norm(m))

    def test_magnitude_ordering(self, rng):
        m = rng.normal(size=(15, 15))
        m = m + m.T
        res = top_k_eigen(m, 15)
        mags = np.abs(res.values)
        assert np.all(mags[:-1] >= mags[1:] - 1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            top_k_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="out of range"):
            top_k_eigen(np.eye(3), 4)

    @pytest.mark.parametrize("peak", [1.0, 1.2e308])
    def test_exactly_symmetric_input_is_decomposed_as_given(self, rng, peak):
        # at peak 1.2e308, m + m.T overflows while every eigenvalue is finite
        m = rng.normal(size=(9, 9))
        m = (0.01 * (m + m.T) + np.diag(np.linspace(1.0, -0.9, 9))) * peak
        res = top_k_eigen(m, 4)
        vals, vecs = np.linalg.eigh(m)
        order = np.argsort(-np.abs(vals), kind="stable")[:4]
        vals, vecs = vals[order], vecs[:, order]
        lead = np.argmax(np.abs(vecs), axis=0)
        vecs = vecs * np.where(vecs[lead, np.arange(4)] < 0, -1.0, 1.0)
        assert res.values.tobytes() == vals.tobytes()
        assert res.vectors.tobytes() == vecs.tobytes()

    def test_inexact_input_within_tolerance_is_averaged(self, rng):
        m = rng.normal(size=(9, 9))
        m = m + m.T
        m[0, 1] += 1e-12
        assert not np.array_equal(m, m.T)
        res = top_k_eigen(m, 4)
        avg = top_k_eigen(0.5 * (m + m.T), 4)
        assert res.values.tobytes() == avg.values.tobytes()
        assert res.vectors.tobytes() == avg.vectors.tobytes()

    def test_rejects_non_finite_spectrum(self):
        # finite weights whose eigenvalues exceed the float64 range
        m = np.full((4, 4), 1.5e308)
        np.fill_diagonal(m, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            top_k_eigen(m, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.data())
    def test_smaller_k_is_bitwise_prefix(self, seed, n, data):
        # the contract that lets one decomposition serve every k
        k_max = data.draw(st.integers(1, n))
        k = data.draw(st.integers(1, k_max))
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m = m + m.T
        full = top_k_eigen(m, k_max)
        direct = top_k_eigen(m, k)
        head = full.head(k)
        assert np.array_equal(head.values, direct.values)
        assert np.array_equal(head.vectors, direct.vectors)
        assert head.vectors.shape == (n, k)
        assert not head.values.flags.writeable
        assert not head.vectors.flags.writeable

    def test_head_rejects_bad_k(self):
        full = top_k_eigen(np.diag([3.0, 1.0, -2.0]), 2)
        for k in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                full.head(k)


class TestSuccessiveProjection:
    def test_identity_rows_in_index_order(self):
        picked = successive_projection(np.eye(3), 3)
        assert picked.tolist() == [0, 1, 2]

    def test_hand_computed_projection(self):
        # picks row 0 (norm 2); projecting onto its complement zeroes
        # rows 0 and 2, leaving row 1 as the next pick
        y = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        picked = successive_projection(y, 2)
        assert picked.tolist() == [0, 1]

    def test_recovers_pure_rows(self, rng):
        k = 3
        memberships = np.vstack([np.eye(k), rng.dirichlet(np.ones(k) * 5, size=17)])
        basis = rng.normal(size=(k, k)) + np.eye(k)
        assert np.linalg.matrix_rank(basis) == k
        y = memberships @ basis
        perm = rng.permutation(len(y))
        picked = successive_projection(y[perm], k)
        # every row must be a convex combination of the picked rows
        corners = y[perm][picked]
        coeffs = np.linalg.solve(corners.T, y[perm].T).T
        assert np.all(coeffs >= -1e-8)
        assert np.allclose(coeffs.sum(axis=1), 1.0, atol=1e-8)
        # and the picked rows are the pure ones
        assert sorted(np.argsort(perm)[:k].tolist()) == sorted(picked.tolist())

    def test_early_termination_warns_and_returns_short(self):
        y = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # rank 1
        with pytest.warns(EarlyStopWarning):
            picked = successive_projection(y, 2)
        assert len(picked) == 1

    def test_zero_matrix_terminates_immediately(self):
        with pytest.warns(EarlyStopWarning):
            picked = successive_projection(np.zeros((4, 2)), 2)
        assert len(picked) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_column_sign_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(12, k))
        base = successive_projection(y, k)
        signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        flipped = successive_projection(y * signs, k)
        assert base.tolist() == flipped.tolist()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
    def test_scale_equivariance(self, seed, c):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(10, 3))
        assert successive_projection(y, 3).tolist() == successive_projection(c * y, 3).tolist()
