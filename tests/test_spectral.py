import warnings
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mmdf import spectral
from mmdf.graph import WeightedGraph
from mmdf.spectral import successive_projection, top_k_eigen

from conftest import shuffled_copies

# smallest order that takes the partial LAPACK solve
N_PARTIAL = spectral._PARTIAL_MIN_N


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
        # entries whose difference overflows float64, without a numpy warning
        m = np.zeros((3, 3))
        m[0, 1], m[1, 0] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix is not symmetric within tolerance$"):
                top_k_eigen(m, 1)

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
        m = 0.01 * (m + m.T) + np.diag(np.linspace(1.6, -0.9, 9))
        m[0, 1] += 1e-12
        assert not np.array_equal(m, m.T)
        # the average 0.5 * (m + m.T), taken at 2**-j times the scale, where
        # it cannot overflow; at 2**1023, m + m.T overflows on the diagonal
        # while every eigenvalue is finite
        for j in (0, -1000, 1023):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = top_k_eigen(np.ldexp(m, j), 4)
            avg = top_k_eigen(np.ldexp(0.5 * (m + m.T), j), 4)
            assert res.values.tobytes() == avg.values.tobytes()
            assert res.vectors.tobytes() == avg.vectors.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(-200, 200))
    def test_symmetry_tolerance_is_scale_free(self, seed, asymmetric, j):
        # 2**j * m is exact, so it must be accepted exactly when m is
        m = np.random.default_rng(seed).normal(size=(5, 5))
        if not asymmetric:
            m = m + m.T
            m[0, 1] += 1e-12

        def accepted(a):
            try:
                top_k_eigen(a, 2)
            except ValueError as exc:
                assert "symmetric" in str(exc)
                return False
            return True

        assert accepted(m) is not asymmetric
        assert accepted(np.ldexp(m, j)) is not asymmetric

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
        assert head.next_magnitude == direct.next_magnitude
        assert head.vectors.shape == (n, k)
        assert not head.values.flags.writeable
        assert not head.vectors.flags.writeable

    def test_next_magnitude_is_the_first_pair_left_out(self):
        full = top_k_eigen(np.diag([3.0, 1.0, -2.0]), 3)
        assert full.next_magnitude == 0.0
        assert top_k_eigen(np.diag([3.0, 1.0, -2.0]), 1).next_magnitude == 2.0
        assert full.head(1).next_magnitude == 2.0
        assert full.head(2).next_magnitude == 1.0
        assert full.head(3).next_magnitude == 0.0

    def test_head_rejects_bad_k(self):
        full = top_k_eigen(np.diag([3.0, 1.0, -2.0]), 2)
        for k in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                full.head(k)


@contextmanager
def solver(name: str):
    """Run top_k_eigen's partial LAPACK solve as it runs at n >= N_PARTIAL,
    the same solve with dstemr refusing every range ("bisect"), so that
    every chunk and the spectral radius come from its fallback, which
    bisects the tridiagonal form recursively (divide and conquer), or
    force its np.linalg.eigh fallback by hiding the LAPACK binding."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "eigh":
            mp.setattr(spectral, "_lapack", lambda: None)
        elif spectral._lapack() is None:
            pytest.skip("numpy's LAPACK does not export dsytrd/dstemr/dstedc/dormtr")
        elif name == "bisect":
            chunk_order = spectral._chunk_order
            mp.setattr(spectral, "_chunk_order",
                       lambda n, values, spectrum: chunk_order(n, lambda lo, hi: None, spectrum))
        yield


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return m + m.T


def repeated_blocks(rng, n):
    # every eigenvalue of the block has multiplicity `copies`
    copies = int(rng.integers(2, 6))
    b = random_symmetric(rng, -(-n // copies))
    return np.kron(np.eye(copies), b)


def rotated_blocks(rng, n):
    # the same multiplicities, but a tridiagonal form that does not split
    # into the blocks, so chunk boundaries must keep each cluster whole
    m = repeated_blocks(rng, n)
    q, _ = np.linalg.qr(rng.normal(size=m.shape))
    m = q @ m @ q.T
    return 0.5 * (m + m.T)


def bipartite(rng, n):
    # the spectrum is symmetric: +-sigma for every singular value of b
    p = int(rng.integers(n // 4, n // 2 + 1))
    b = (rng.random((p, n - p)) < 0.1) * rng.integers(1, 4, size=(p, n - p))
    return np.block([[np.zeros((p, p)), b], [b.T, np.zeros((n - p, n - p))]]).astype(float)


def spaced(rng, lo, hi, count):
    """count values spread evenly over [lo, hi], each moved at random by
    up to a quarter of their spacing, so no two lie closer than half of
    it: check_contract's eigenvector tolerances presume such gaps."""
    step = (hi - lo) / count
    return lo + step * (np.arange(count) + 0.5 + rng.uniform(-0.25, 0.25, count))


def with_spectrum(rng, spectrum):
    """A symmetric matrix with the given eigenvalues, in a random basis
    whose tridiagonal form does not split."""
    q, _ = np.linalg.qr(rng.normal(size=(len(spectrum), len(spectrum))))
    m = (q * spectrum) @ q.T
    return 0.5 * (m + m.T)


def straddled(seed, n, size, edge, upper, data):
    """A spaced spectrum of n with a cluster of size eigenvalues within
    1e-8 of the radius that holds indices edge - 1 and edge from one end,
    and a k_max and k drawn from data, as check_contract's arguments."""
    rng = np.random.default_rng(seed)
    spectrum = spaced(rng, -1.0, 1.0, n)
    start = data.draw(st.integers(max(0, edge - size + 1), edge - 1))
    spectrum[start:start + size] = spectrum[start] + rng.uniform(0.0, 1e-8, size)
    m = with_spectrum(rng, -spectrum if upper else spectrum)
    k_max = data.draw(st.integers(1, 24))
    return m, k_max, data.draw(st.integers(1, k_max))


def check_contract(m, k_max, k):
    """The top_k_eigen contract on m: bitwise prefix, agreement with a
    full scipy decomposition, orthonormal columns and small residuals."""
    n = len(m)
    full = top_k_eigen(m, k_max)
    direct = top_k_eigen(m, k)
    head = full.head(k)
    assert head.values.tobytes() == direct.values.tobytes()
    assert head.vectors.tobytes() == np.ascontiguousarray(direct.vectors).tobytes()
    assert head.next_magnitude == direct.next_magnitude

    vals, vecs = scipy.linalg.eigh(m)
    order = np.argsort(-np.abs(vals), kind="stable")
    mags = np.abs(vals[order])
    radius = max(1.0, float(mags[0]))
    assert np.abs(np.abs(full.values) - mags[:k_max]).max() <= 1e-10 * radius
    assert abs(full.next_magnitude - (mags[k_max] if k_max < n else 0.0)) <= 1e-10 * radius
    # pairs are unique (up to the fixed sign) only away from ties in |λ|,
    # where even the order of -x and x is up to rounding: compare the
    # spectral projector and the truncated matrix at each cut in a gap
    for j in range(1, k_max + 1):
        if j == n or mags[j - 1] - mags[j] > 1e-6 * radius:
            got, want = full.vectors[:, :j], vecs[:, order[:j]]
            assert np.abs(got @ got.T - want @ want.T).max() <= 1e-10
            got_m = (got * full.values[:j]) @ got.T
            want_m = (want * vals[order[:j]]) @ want.T
            assert np.abs(got_m - want_m).max() <= 1e-10 * radius
    v = full.vectors
    assert np.abs(v.T @ v - np.eye(k_max)).max() <= 1e-10
    assert np.linalg.norm(m @ v - v * full.values) <= 1e-12 * n * radius
    lead = np.argmax(np.abs(v), axis=0)
    assert (v[lead, np.arange(k_max)] > 0).all()


@pytest.mark.parametrize("name", ["partial", "bisect", "eigh"])
class TestLargeMatrices:
    """The contract at n >= N_PARTIAL, on the partial LAPACK solve, on the
    same solve with every chunk taken from its divide-and-conquer fallback
    ("bisect") and on the np.linalg.eigh fallback that runs when numpy's
    LAPACK lacks it."""

    @settings(max_examples=16, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(N_PARTIAL, N_PARTIAL + 80),
           st.sampled_from([random_symmetric, repeated_blocks, rotated_blocks, bipartite]), st.data())
    def test_contract(self, name, seed, n, family, data):
        rng = np.random.default_rng(seed)
        m = family(rng, n)
        k_max = data.draw(st.integers(1, 24))
        k = data.draw(st.integers(1, k_max))
        with solver(name):
            check_contract(m, k_max, k)

    def test_every_pair(self, name, rng):
        # k = n reaches every chunk, including the middle of the spectrum
        with solver(name):
            check_contract(bipartite(rng, N_PARTIAL + 3), N_PARTIAL + 3, 5)

    def test_clusters_straddling_chunk_boundaries(self, name, rng):
        # multiplicity 3 in a tridiagonal form that does not split: index
        # _CHUNK from either end sits inside a cluster, and so does the
        # index one wider
        b = random_symmetric(rng, -(-N_PARTIAL // 3))
        m = np.kron(np.eye(3), b)
        q, _ = np.linalg.qr(rng.normal(size=m.shape))
        m = q @ m @ q.T
        with solver(name):
            check_contract(0.5 * (m + m.T), 20, 7)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(N_PARTIAL, N_PARTIAL + 80), st.integers(1, 24), st.data())
    def test_next_pair_at_the_other_end(self, name, seed, n, k_max, data):
        # every top-k_max magnitude is positive while the (k_max+1)-th is
        # the most negative eigenvalue, at the other end of the spectrum
        rng = np.random.default_rng(seed)
        top = spaced(rng, 3.0, 4.0, k_max)
        bottom = -2.0 - rng.random()
        bulk = spaced(rng, -1.0, 1.0, n - k_max - 1)
        m = with_spectrum(rng, np.concatenate([top, [bottom], bulk]))
        k = data.draw(st.integers(1, k_max))
        with solver(name):
            check_contract(m, k_max, k)
            assert top_k_eigen(m, k_max).next_magnitude == pytest.approx(-bottom, rel=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(N_PARTIAL, N_PARTIAL + 80), st.integers(2, 6),
           st.booleans(), st.data())
    def test_cluster_straddling_the_first_boundary(self, name, seed, n, size, upper, data):
        # a cluster within 1e-8 of the radius holds indices _CHUNK - 1 and
        # _CHUNK from one end of the spectrum
        with solver(name):
            check_contract(*straddled(seed, n, size, spectral._CHUNK, upper, data))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(N_PARTIAL, N_PARTIAL + 80), st.integers(2, 6),
           st.booleans(), st.data())
    def test_cluster_straddling_the_first_call_edge(self, name, seed, n, size, upper, data):
        # the cluster holds indices _CHUNK and _CHUNK + 1: the first chunk's
        # dstemr call, one index wider than the chunk, cuts it
        with solver(name):
            check_contract(*straddled(seed, n, size, spectral._CHUNK + 1, upper, data))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(N_PARTIAL, N_PARTIAL + 80),
           st.sampled_from([-1e-8, 0.0, 1e-8]), st.integers(1, 12), st.data())
    def test_near_tie_between_an_end_and_the_middle(self, name, seed, n, delta, k_max, data):
        # the eigenvalue at index _CHUNK (just inside the unopened middle) is
        # within 1e-8 in magnitude of the largest positive eigenvalue, so
        # the end chunks alone cannot tell which of the two comes first
        rng = np.random.default_rng(seed)
        ends = spaced(rng, -10.0, -9.0, spectral._CHUNK)
        bulk = spaced(rng, -1.0, 1.0, n - spectral._CHUNK - 2)
        m = with_spectrum(rng, np.concatenate([ends, [-3.0 - delta, 3.0], bulk]))
        k = data.draw(st.integers(1, k_max))
        with solver(name):
            check_contract(m, k_max, k)

    def test_zero_matrix(self, name):
        # one cluster holds the whole spectrum
        with solver(name):
            check_contract(np.zeros((N_PARTIAL, N_PARTIAL)), 5, 2)

    def test_exact_input_near_float64_limit(self, name, rng):
        # at peak 1.2e308, m + m.T overflows while every eigenvalue is finite
        n = N_PARTIAL
        m = rng.normal(size=(n, n))
        m = 0.01 * (m + m.T) + np.diag(np.linspace(1.4, -1.2, n))
        huge = m * 2.0**1023
        assert np.abs(huge).max() > 1.2e308
        with solver(name):
            res = top_k_eigen(huge, 4)
            unit = top_k_eigen(m, 4)
        assert np.isfinite(res.values).all()
        assert np.abs(res.values * 2.0**-1023 - unit.values).max() <= 1e-12
        assert np.abs(res.vectors - unit.vectors).max() <= 1e-10
        if name == "partial":
            # a power-of-two rescaling is exact: same bits as decomposing m
            assert res.values.tobytes() == (unit.values * 2.0**1023).tobytes()
            assert res.vectors.tobytes() == unit.vectors.tobytes()

    def test_rejects_non_finite_spectrum(self, name):
        m = np.full((N_PARTIAL, N_PARTIAL), 1.5e308)
        np.fill_diagonal(m, 0.0)
        with solver(name), pytest.raises(ValueError, match="non-finite"):
            top_k_eigen(m, 2)

    def test_rejects_non_finite_input(self, name):
        # the input is blamed, not the solver, on both sides of N_PARTIAL,
        # whether the bad entry is mirrored (exactly symmetric) or not
        for n in (3, N_PARTIAL + 2):
            for bad in (np.nan, np.inf, -np.inf):
                for mirrored in (True, False):
                    m = np.zeros((n, n))
                    m[0, 2] = bad
                    if mirrored:
                        m[2, 0] = bad
                    with solver(name), pytest.raises(ValueError, match="non-finite entries"):
                        top_k_eigen(m, 2)


@pytest.mark.parametrize("n", [60, 200, 400])
def test_a_graph_decomposes_bitwise_as_its_weights(n):
    # one order on eigh, two on the partial solve
    from mmdf.generator import Family, sample_adjacency
    from conftest import standard_spec

    assert 60 < spectral._PARTIAL_MIN_N <= 200
    graph = sample_adjacency(standard_spec(Family.SIGNED, rho=0.5, n=n, pure=n // 5, seed=n))
    for k in (1, 5):
        of_graph, of_weights = top_k_eigen(graph, k), top_k_eigen(graph.weights, k)
        assert of_graph.vectors.tobytes() == of_weights.vectors.tobytes()
        assert of_graph.values.tobytes() == of_weights.values.tobytes()
        assert of_graph.next_magnitude == of_weights.next_magnitude


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_a_graph_outside_the_safe_range_decomposes_bitwise_as_its_weights(scale):
    # the partial solve rescales by the graph's own peak, which must
    # give the bits of an array's, found by its own pass over it
    from mmdf.generator import Family, sample_adjacency
    from conftest import standard_spec

    sampled = sample_adjacency(standard_spec(Family.NORMAL, rho=5.0, n=200, pure=40, seed=3))
    graph = WeightedGraph(scale * sampled.weights)
    assert not spectral._SAFE_PEAK[0] <= graph.peak <= spectral._SAFE_PEAK[1]
    of_graph, of_weights = top_k_eigen(graph, 4), top_k_eigen(graph.weights, 4)
    assert of_graph.vectors.tobytes() == of_weights.vectors.tobytes()
    assert of_graph.values.tobytes() == of_weights.values.tobytes()


def test_partial_solve_runs_from_the_threshold_only(monkeypatch, rng):
    # the solver depends on n (and the numpy build), never on k
    if spectral._lapack() is None:
        pytest.skip("numpy's LAPACK does not export dsytrd/dstemr/dstedc/dormtr")
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    for n in (N_PARTIAL - 1, N_PARTIAL):
        for k in (1, n):
            top_k_eigen(random_symmetric(rng, n), k)
    assert calls == [N_PARTIAL - 1, N_PARTIAL - 1]


def test_partial_solve_binds_on_scipy_openblas64():
    # numpy wheels link the 64-bit-integer scipy-openblas; there the
    # partial solve must not silently fall back to eigh
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get("openblas configuration", ""):
        pytest.skip(f"numpy links {lapack.get('name')}, not scipy-openblas64")
    assert set(spectral._lapack() or ()) == {"dsytrd", "dstemr", "dstedc", "dormtr"}


def counted_lapack(monkeypatch, refuse=()):
    """Record each LAPACK call of the partial solve as (name, args), with
    dstemr refusing (info = 22) the 1-based index ranges (IL, IU) in
    refuse, as LAPACK refuses a range that cuts a tight cluster."""
    routines = spectral._lapack()
    if routines is None:
        pytest.skip("numpy's LAPACK does not export dsytrd/dstemr/dstedc/dormtr")
    calls = []

    def counted(name, routine):
        def call(*args):
            calls.append((name, args))
            if name == "dstemr" and (args[7]._obj.value, args[8]._obj.value) in refuse:
                args[-3]._obj.value = 22  # INFO
                return None
            return routine(*args)

        call.__name__ = routine.__name__
        return call

    monkeypatch.setattr(spectral, "_lapack", lambda: {name: counted(name, r) for name, r in routines.items()})
    return calls


def ranges(calls):
    """The 1-based index range (IL, IU) asked of each dstemr call."""
    return [(args[7]._obj.value, args[8]._obj.value) for name, args in calls if name == "dstemr"]


def test_partial_solve_opens_only_the_chunks_it_needs(monkeypatch, rng):
    # no pass over the full spectrum runs: dstemr runs per chunk, one
    # index wider toward the middle, and that extra eigenvalue settles the
    # chunk's boundary and bounds the middle, so dstedc never runs
    calls = counted_lapack(monkeypatch)
    n, width = 200, spectral._CHUNK
    m = random_symmetric(rng, n)
    for k in range(1, width):
        calls.clear()
        top_k_eigen(m, k)
        # the k + 1 largest magnitudes lie in the end chunks, so only those
        # two open
        assert ranges(calls) == [(1, width + 1), (n - width, n)]
        assert {name for name, _ in calls} == {"dsytrd", "dstemr", "dormtr"}
    for k in (17, 24):
        calls.clear()
        top_k_eigen(m, k)
        opened = ranges(calls)
        assert len(opened) > 2 and all(iu - il == width for il, iu in opened)
        assert "dstedc" not in {name for name, _ in calls}


@pytest.mark.parametrize("n, k", [(200, 3), (800, 5)])
def test_call_budget_on_well_separated_spectra(monkeypatch, rng, n, k):
    # the benchmark's shapes, a fit at n = 200 and k = 3 and a scan to
    # k = 5 at n = 800, cost one dstemr call per end and no dstedc
    calls = counted_lapack(monkeypatch)
    top_k_eigen(with_spectrum(rng, spaced(rng, -1.0, 1.0, n)), k)
    names = [name for name, _ in calls]
    assert names.count("dstemr") == 2
    assert set(names) == {"dsytrd", "dstemr", "dormtr"}


@pytest.mark.parametrize("refused", ["low", "high", "both"])
def test_dstemr_refusing_an_end_range(monkeypatch, rng, refused):
    # an end's first call can be refused: the full decomposition then
    # gives that end's extreme eigenvalue for the radius, and the end's
    # chunk its pairs
    n, width = N_PARTIAL + 7, spectral._CHUNK
    ends = {"low": (1, width + 1), "high": (n - width, n)}
    chosen = [ends[e] for e in ends if refused in (e, "both")]
    calls = counted_lapack(monkeypatch, refuse=chosen)
    check_contract(random_symmetric(rng, n), 12, 5)
    assert all(call in ranges(calls) for call in chosen)
    # once per top_k_eigen call: no accepted dstemr call holds that end
    assert [name for name, _ in calls].count("dstedc") == 2


def test_a_cluster_widens_an_end_chunk(monkeypatch, rng):
    # 12 eigenvalues within 1e-8 of the radius at the top of the spectrum:
    # the full decomposition computes the whole cluster, and its
    # back-transform, done in slices, keeps the prefix contract
    calls = counted_lapack(monkeypatch)
    n = N_PARTIAL + 5
    spectrum = spaced(rng, -1.0, 1.0, n)
    spectrum[-12:] = 2.0 + rng.uniform(0.0, 1e-8, 12)
    m = with_spectrum(rng, spectrum)
    for k_max, k in [(14, 13), (14, 1), (20, 12)]:
        check_contract(m, k_max, k)
    assert "dstedc" in {name for name, _ in calls}
    # no pairs come from a dstemr range with an edge inside the cluster
    # (1-based indices n - 11 to n): the only such range is the probe one
    # index wider than the top chunk, whose extra value lies in it
    inside = range(n - 10, n + 1)
    assert {(il, iu) for il, iu in ranges(calls) if il in inside or iu + 1 in inside} == {(n - 4, n)}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.integers(1, 6)), min_size=1, max_size=60))
def test_chunk_bounds_partition_without_splitting_clusters(clusters):
    # eigenvalues with multiplicities, ascending; opening every chunk, with
    # dstemr refusing every range that cuts a cluster
    vals = np.sort(np.repeat([v for v, _ in clusters], [r for _, r in clusters]))
    n, width = len(vals), spectral._CHUNK
    tol = spectral._CLUSTER_TOL * max(-vals[0], vals[-1])
    asked = []

    def cuts(b):
        return 0 < b < n and vals[b] - vals[b - 1] <= tol

    def values(lo, hi):
        return None if cuts(lo) or cuts(hi) else vals[lo:hi]

    def spectrum():
        asked.append(True)
        return vals

    steps = list(spectral._chunk_order(n, values, spectrum))
    chunks = sorted(c for new, _ in steps for c in new)
    b = np.array([lo for lo, *_ in chunks] + [n])
    assert b[0] == 0 and [lo for lo, *_ in chunks[1:]] == [hi for _, hi, *_ in chunks[:-1]]
    assert (np.diff(b) > 0).all()
    assert not any(cuts(c) for c in b[1:-1])
    # a chunk's pairs come from the full decomposition (the call on 0..n-1),
    # or from an accepted call on its own indices or on one more toward
    # the middle
    for lo, hi, clo, chi in chunks:
        assert (clo, chi) == (0, n) or (
            (clo, chi) in {(lo, hi), (lo, hi + 1), (lo - 1, hi)} and values(clo, chi) is not None)
    # each step reports the largest magnitude the unopened middle holds,
    # plus tol, and after the end chunks opens the end of the middle that
    # holds it
    unopened = np.ones(n, dtype=bool)
    for step, (new, ceiling) in enumerate(steps):
        if step > 0:
            [(lo, hi, *_)] = new
            middle = np.flatnonzero(unopened)
            lower = abs(vals[middle[0]]) >= abs(vals[middle[-1]])
            assert (lo == middle[0]) if lower else (hi == middle[-1] + 1)
        for lo, hi, *_ in new:
            unopened[lo:hi] = False
        assert ceiling == (np.abs(vals[unopened]).max() + tol if unopened.any() else -np.inf)
    # away from the clusters the end chunks hold _CHUNK indices, and the
    # full spectrum is never asked for
    if np.diff(vals).min(initial=np.inf) > tol and n >= 2 * width + 2:
        assert b[1] == width and b[-2] == n - width
        assert not asked


def norm_call_successive_projection(y, k):
    """Successive projection as first written: the stop rule from a
    np.linalg.norm call per step, the pick from a separate row-norm pass,
    and the update through np.outer. Returns the picks."""
    residual = np.asarray(y, dtype=float).copy()
    initial_norm = float(np.linalg.norm(residual))
    picked = []
    for _ in range(k):
        if float(np.linalg.norm(residual)) <= 1e-12 * initial_norm:
            break
        idx = int(np.argmax(np.einsum("ij,ij->i", residual, residual)))
        if idx in picked:
            break
        picked.append(idx)
        u = residual[idx].copy()
        residual -= np.outer(residual @ u, u / float(u @ u))
    return picked


def point_cloud(rng, kind):
    """A random cloud, one whose columns span ten decades, simplex rows
    (with repeated pure rows) mapped through a random basis, or a
    rank-deficient product; and a k to hunt for."""
    m, r = int(rng.integers(1, 25)), int(rng.integers(1, 7))
    if kind == "cloud":
        return rng.normal(size=(m, r)), int(rng.integers(1, min(m, r) + 1))
    if kind == "graded":
        y = rng.normal(size=(m, r)) * 10.0 ** -rng.uniform(0, 10, size=r)
        return y, int(rng.integers(1, min(m, r) + 1))
    if kind == "simplex":
        k = int(rng.integers(1, r + 1))
        pure = np.repeat(np.eye(k), rng.integers(1, 4, size=k), axis=0)
        rows = np.vstack([pure, rng.dirichlet(np.ones(k), size=m)])
        return rows[rng.permutation(len(rows))] @ rng.normal(size=(k, r)), k
    rank = int(rng.integers(0, r))
    y = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, r))
    y[rng.random(m) < 0.2] = 0.0
    return y, int(rng.integers(1, min(m, r) + 1))


class TestSuccessiveProjection:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["cloud", "graded", "simplex", "rank-deficient"]))
    def test_matches_the_norm_call_formulation(self, seed, kind):
        # one row-norm pass per pick gives the same picks and early stops
        # as a separate Frobenius norm per step; an early stop shows only
        # as a short result, with no warning
        y, k = point_cloud(np.random.default_rng(seed), kind)
        expected = norm_call_successive_projection(y, k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            picked = successive_projection(y, k)
        assert picked.tolist() == expected
        assert caught == []

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

    def test_early_termination_returns_short(self):
        y = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # rank 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            picked = successive_projection(y, 2)
        assert picked.tolist() == [2]

    def test_zero_matrix_terminates_immediately(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


@pytest.mark.parametrize("seed", range(40))
def test_many_identical_components(seed):
    # dstemr refuses ranges that cut these clusters (seed 5 at every k)
    m = shuffled_copies(seed)
    # magnitudes: where x and -x are both eigenvalues, which comes first
    # is up to rounding; the residuals check the signs
    want = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    radius = float(want[0])
    widest = top_k_eigen(m, 16)
    for k in (1, 2, 6, 16):
        got = top_k_eigen(m, k) if k < 16 else widest
        v = got.vectors
        assert np.abs(np.abs(got.values) - want[:k]).max() <= 1e-12 * radius
        assert np.linalg.norm(m @ v - v * got.values, axis=0).max() <= 1e-12 * radius
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12
        assert got.values.tobytes() == widest.values[:k].tobytes()
        assert np.ascontiguousarray(v).tobytes() == np.ascontiguousarray(widest.vectors[:, :k]).tobytes()
