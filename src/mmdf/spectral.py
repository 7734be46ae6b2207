"""Symmetric eigendecomposition truncated to the top K eigenpairs by
magnitude, and greedy vertex hunting by successive projection.

Both are pure functions over immutable inputs. Which solver top_k_eigen
runs depends on the matrix order n and the numpy build, never on k:

- below n = 128, or when numpy's LAPACK does not export the routines
  below, a full np.linalg.eigh, truncated;
- otherwise a partial solve in numpy's own LAPACK (the scipy-openblas64
  library that np.linalg already loaded, called through ctypes): one
  reduction to tridiagonal form (dsytrd), then MRRR eigenpairs (dstemr,
  Dhillon, Parlett & Voemel 2006) with their back-transform (dormtr)
  only for the chunks of the spectrum that hold the selected pairs.
  Chunks of 4 indices open from the two ends of the spectrum, as many as
  the k + 1 largest magnitudes need. Each chunk's dstemr call is one
  index wider toward the middle; its values are the only eigenvalues the
  solve reads, and the extra one settles the chunk's inner boundary and
  bounds the unopened middle. Only where a chunk would end inside a
  cluster of eigenvalues, or dstemr refuses a range, does a pass over
  the full spectrum run: one divide-and-conquer call (dstedc, Gu &
  Eisenstat 1995) gives every eigenpair of the tridiagonal form, whole
  and orthogonal within each cluster. At n = 800 on 2 cores the solve
  takes 31-44 ms (medians for k from 3 to 16) where eigh takes 90 ms.

The ordering and sign convention of top_k_eigen do not depend on k, so
on either path top_k_eigen(m, k) is bitwise the first k pairs of
top_k_eigen(m, K) for any K >= k. (The partial solve's eigenpairs
depend on the call that computes them and on the column count given to
dormtr, so each chunk's source and the slices it is back-transformed
in depend on the matrix alone.) Callers that fit several
community counts to one graph decompose once at the largest count and
take prefixes with TopKEigen.head.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graph import WeightedGraph

# relative symmetry tolerance for eigensolver input
_SYMMETRY_TOL = 1e-9
# successive projection stops once the residual's squared Frobenius norm
# falls below this fraction of its initial value (a norm ratio of 1e-12)
_SP_RESIDUAL_TOL = 1e-24
# smallest matrix order decomposed by the partial solve. On 2 cores the
# crossover lies between n = 112 (partial solve x1.14 of eigh's time)
# and n = 160 (x0.83); below n = 96 eigh is clearly faster
_PARTIAL_MIN_N = 128
# the partial solve computes eigenvectors in chunks of this many indices,
# counted from each end of the ascending spectrum. A dstemr call costs
# about linearly in the pairs it computes; on 2 cores, 4 gave the lowest
# or equal-lowest median solve time at every n in {200, 800, 1600} and
# k in {3, 6, 10, 16}, against 6 and 8
_CHUNK = 4
# a chunk boundary never separates two eigenvalues closer than this
# fraction of the spectral radius; it moves toward the middle instead.
# Chunks stop opening once the wanted magnitudes exceed the unopened
# ones by as much, far above the rounding of dstedc and dstemr
_CLUSTER_TOL = 1e-6
# LAPACK's safe range for a matrix's largest |entry| (dsyevd's RMIN and
# RMAX); outside it the partial solve rescales by a power of two
_SAFE_PEAK = (2.0**-485, 2.0**485)


@dataclass(frozen=True)
class TopKEigen:
    """Top-k eigenpairs of a symmetric matrix, ordered by |eigenvalue|.

    vectors: (n, k) with orthonormal columns; each column's sign is
        fixed so that its largest-magnitude entry is positive.
    values: (k,) eigenvalues, |values[0]| >= ... >= |values[k-1]|.
    next_magnitude: |eigenvalue| of the first pair left out (the
        (k+1)-th by magnitude), or 0.0 when k = n. It tells whether k
        cuts through eigenvalues of equal magnitude.
    """

    vectors: np.ndarray
    values: np.ndarray
    next_magnitude: float

    def head(self, k: int) -> "TopKEigen":
        """The first k pairs, as views into this spectrum's arrays (read-only
        when the spectrum came from top_k_eigen)."""
        if not 1 <= k <= len(self.values):
            raise ValueError(f"k={k} out of range for a spectrum of {len(self.values)} pairs")
        nxt = float(abs(self.values[k])) if k < len(self.values) else self.next_magnitude
        return TopKEigen(vectors=self.vectors[:, :k], values=self.values[:k], next_magnitude=nxt)


def top_k_eigen(m: np.ndarray | WeightedGraph, k: int) -> TopKEigen:
    """Eigenpairs of a symmetric matrix with the k largest |eigenvalues|.

    Arguments:
        m: (n, n) real matrix, symmetric within 1e-9 relative tolerance,
            or a WeightedGraph, whose weights are decomposed without
            testing again what its construction checked. An exactly
            symmetric matrix is decomposed as given; an inexactly
            symmetric one within the tolerance is replaced by its
            average 0.5 * m + 0.5 * m.T first.
        k: number of eigenpairs, 1 <= k <= n.

    For n < 128, or when numpy's LAPACK lacks dsytrd, dstemr, dstedc and
    dormtr, this is a full np.linalg.eigh; otherwise a partial solve in
    that LAPACK that computes eigenpairs only in chunks at the ends of
    the spectrum that reach the selected pairs (see the module
    docstring). The decomposition is deterministic on both paths:
    eigenvalues are sorted by decreasing magnitude (stable for ties, so
    -x precedes x) and each eigenvector's sign is fixed by its
    largest-magnitude entry, so the result for k is bitwise the first k
    pairs of the result for any larger k. A graph and its weights give
    bitwise the same result. Raises ValueError when the
    matrix has a non-finite entry or is not symmetric within tolerance,
    or when the solver fails or returns a non-finite eigenvalue or
    eigenvector (weights near the float64 limit).
    """
    validated = isinstance(m, WeightedGraph)
    peak = m.peak if validated else None
    m = m.weights if validated else np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    # a graph brings its peak; an array's, after any averaging, proves it finite
    if not validated:
        if not np.array_equal(m, m.T):
            _check_finite(m)
            with np.errstate(over="ignore"):  # a difference beyond float64 is asymmetric
                if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * float(np.abs(m).max()):
                    raise ValueError("matrix is not symmetric within tolerance")
            m = 0.5 * m + 0.5 * m.T  # m + m.T may overflow where this does not
        peak = max(float(m.max()), -float(m.min()))
        _check_finite(peak)

    lapack = _lapack() if n >= _PARTIAL_MIN_N else None
    if lapack is None:
        vals, full = np.linalg.eigh(m)

        def vectors_at(indices):
            return full[:, indices]
    else:
        vals, vectors_at = _partial_eigh(m, lapack, k, peak)
    order = np.argsort(-np.abs(vals), kind="stable")
    vecs = vectors_at(order[:k])
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise ValueError("eigendecomposition returned non-finite eigenpairs")
    nxt = float(abs(vals[order[k]])) if k < n else 0.0
    vals = vals[order[:k]]
    # flip each column whose largest-magnitude entry (the first, on ties)
    # is negative; multiplying by -1 or 1 is exact
    lead = np.abs(vecs).argmax(axis=0)
    vecs *= np.where(vecs[lead, np.arange(k)] < 0, -1.0, 1.0)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return TopKEigen(vectors=vecs, values=vals, next_magnitude=nxt)


def _check_finite(m: np.ndarray | float) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")


@cache
def _library() -> ctypes.CDLL | None:
    """numpy's linalg extension as a library handle, or None where it
    cannot be opened. The handle also finds the symbols of the OpenBLAS
    the extension links, so no second BLAS is loaded."""
    try:
        from numpy.linalg import _umath_linalg

        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


@cache
def _lapack() -> dict | None:
    """dsytrd, dstemr, dstedc and dormtr from numpy's own LAPACK,
    resolved once on first use; None when numpy's linalg extension does
    not export them (any build other than scipy-openblas64)."""
    ptr, s = ctypes.c_void_p, ctypes.c_char_p
    # Fortran calling convention: every argument by reference, with one
    # hidden size_t length per character argument after the others
    signatures = {
        "dsytrd": [s] + [ptr] * 9 + [ctypes.c_size_t],
        "dstemr": [s, s] + [ptr] * 19 + [ctypes.c_size_t] * 2,
        "dstedc": [s] + [ptr] * 10 + [ctypes.c_size_t],
        "dormtr": [s, s, s] + [ptr] * 10 + [ctypes.c_size_t] * 3,
    }
    try:
        routines = {name: getattr(_library(), f"scipy_{name}_64_") for name in signatures}
    except AttributeError:
        return None
    for name, routine in routines.items():
        routine.argtypes = signatures[name]
        routine.restype = None
    return routines


def _int(value: int):
    """A 64-bit LAPACK integer argument, passed by reference."""
    return ctypes.byref(ctypes.c_int64(value))


def _check(routine, info: ctypes.c_int64) -> None:
    if info.value != 0:
        raise ValueError(f"eigendecomposition failed: LAPACK {routine.__name__} returned info={info.value}")


def _with_workspace(routine, args: tuple, info: ctypes.c_int64, lengths: tuple) -> None:
    """Call routine(*args, work, lwork, info, *lengths) with the workspace
    length its own query (lwork = -1) asks for."""
    query = np.empty(1)
    routine(*args, query.ctypes.data, _int(-1), ctypes.byref(info), *lengths)
    _check(routine, info)
    work = np.empty(max(1, int(query[0])))
    routine(*args, work.ctypes.data, _int(len(work)), ctypes.byref(info), *lengths)
    _check(routine, info)


def _partial_eigh(m: np.ndarray, lapack: dict, k: int, peak: float):
    """Eigenvalues of the exactly symmetric m (ascending) that include
    the k + 1 of largest magnitude, and a function from indices into
    them to the (n, len(indices)) eigenvectors at those indices. peak is
    m's largest |entry|, which is finite.

    Chunks open in _chunk_order until the k + 1 largest magnitudes among
    their values exceed every magnitude the unopened middle can hold.
    Each chunk's values and eigenvectors come from its own dstemr call,
    or from the one dstedc call that decomposes the whole tridiagonal
    form. Its eigenvectors are back-transformed in slices of _CHUNK from
    its start, and only the slices that hold a requested index. Chunks,
    their calls and the order they open in depend on m alone, so the
    columns returned for an index do not depend on k or on which other
    indices are requested.
    """
    n = m.shape[0]
    # C order read as Fortran order is m.T, which is m; LAPACK overwrites it
    a = np.array(m, order="C")
    shift = 0
    if not _SAFE_PEAK[0] <= peak <= _SAFE_PEAK[1] and peak > 0.0:
        # exact: a power of two puts the largest |entry| in [1, 2)
        shift = 1 - int(np.frexp(peak)[1])
        np.ldexp(a, shift, out=a)

    d, e, tau = np.empty(n), np.empty(n), np.empty(max(n - 1, 1))
    info = ctypes.c_int64()
    _with_workspace(lapack["dsytrd"], (b"L", _int(n), a.ctypes.data, _int(n), d.ctypes.data,
                                       e.ctypes.data, tau.ctypes.data), info, (1,))
    if not (np.isfinite(d).all() and np.isfinite(e[: n - 1]).all()):
        raise ValueError("eigendecomposition returned non-finite eigenpairs")

    @cache
    def call(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Eigenvalues lo..hi-1 (ascending) and their eigenvectors of the
        tridiagonal form, as the rows of a (hi - lo, n) array: from one
        dstedc call for the whole spectrum, otherwise from one dstemr
        call, or None when dstemr refuses the range."""
        cols = hi - lo
        dd, ee = d.copy(), e.copy()  # both routines overwrite both
        z = np.empty((cols, n))  # C-order rows are Fortran columns
        if cols == n:
            work, iwork = np.empty(1 + 4 * n + n * n), np.empty(3 + 5 * n, dtype=np.int64)
            lapack["dstedc"](b"I", _int(n), dd.ctypes.data, ee.ctypes.data, z.ctypes.data, _int(n),
                             work.ctypes.data, _int(len(work)), iwork.ctypes.data, _int(len(iwork)),
                             ctypes.byref(info), 1)
            _check(lapack["dstedc"], info)
            return dd, z
        vals, isuppz = np.empty(n), np.empty(2 * cols, dtype=np.int64)
        tryrac = ctypes.c_int64(1)  # as dsyevr: keep high relative accuracy where T allows it
        work, iwork = np.empty(18 * n), np.empty(10 * n, dtype=np.int64)
        found = ctypes.c_int64()
        vbound = ctypes.c_double()
        lapack["dstemr"](b"V", b"I", _int(n), dd.ctypes.data, ee.ctypes.data,
                         ctypes.byref(vbound), ctypes.byref(vbound), _int(lo + 1), _int(hi),
                         ctypes.byref(found), vals.ctypes.data, z.ctypes.data, _int(n), _int(cols),
                         isuppz.ctypes.data, ctypes.byref(tryrac), work.ctypes.data, _int(len(work)),
                         iwork.ctypes.data, _int(len(iwork)), ctypes.byref(info), 1, 1)
        if info.value != 0:
            return None
        if found.value != cols:
            raise ValueError(f"eigendecomposition failed: dstemr found {found.value} of {cols} eigenvectors")
        return vals[:cols], z

    def values(lo: int, hi: int) -> np.ndarray | None:
        got = call(lo, hi)
        return None if got is None else got[0]

    def owned(chunk: tuple[int, int, int, int]) -> np.ndarray:
        lo, hi, clo, chi = chunk
        return call(clo, chi)[0][lo - clo:hi - clo]

    opened = []
    for new, ceiling in _chunk_order(n, values, lambda: call(0, n)[0]):
        opened += new
        mags = np.sort(np.abs(np.concatenate([owned(c) for c in opened])))[::-1]
        if len(mags) > k and mags[k] > ceiling:
            break
    opened.sort()
    vals = np.concatenate([owned(c) for c in opened])
    starts = np.cumsum([0] + [hi - lo for lo, hi, _, _ in opened])

    def vectors_at(indices: np.ndarray) -> np.ndarray:
        vecs = np.empty((n, len(indices)))
        which = np.searchsorted(starts, indices, side="right") - 1
        for c in sorted(set(which.tolist())):  # np.unique would import numpy.ma
            lo, hi, clo, chi = opened[c]
            z = call(clo, chi)[1][lo - clo:hi - clo]
            picked = which == c
            rows = indices[picked] - starts[c]
            # at most _CHUNK columns per call: dormtr's own workspace query
            # is too small for its blocked path, and its unblocked path is
            # slow on wide calls, while slices give the wide call's bits
            for s in sorted(set((rows - rows % _CHUNK).tolist())):
                part = z[s:s + _CHUNK]
                _with_workspace(lapack["dormtr"], (b"L", b"L", b"N", _int(n), _int(len(part)), a.ctypes.data,
                                                   _int(n), tau.ctypes.data, part.ctypes.data, _int(n)),
                                info, (1, 1, 1))
            vecs[:, picked] = z[rows].T
        return vecs

    with np.errstate(over="ignore"):  # an infinite eigenvalue is rejected by the caller
        return np.ldexp(vals, -shift), vectors_at


def _chunk_order(n: int, values, spectrum):
    """The eigenvector chunks of an ascending spectrum of n eigenvalues,
    in the order the partial solve opens them.

    values(lo, hi) gives eigenvalues lo..hi-1 from one dstemr call on
    that index range, or None when dstemr refuses the range;
    spectrum() gives all n eigenvalues from the full decomposition,
    which only the fallback below asks for.

    Yields (chunks, ceiling) per step: the two end chunks at the first
    step, then one chunk per step from whichever end of the unopened
    middle holds the larger |eigenvalue|. A chunk (lo, hi, clo, chi)
    holds indices lo..hi-1, whose pairs come from the call on clo..chi-1:
    the full decomposition when that range is 0..n-1, otherwise dstemr.
    ceiling exceeds by tol every |eigenvalue| the middle still holds
    (-inf once it is empty).

    A chunk takes _CHUNK indices from its end of the middle and is called
    one index wider, toward the middle: the extra eigenvalue tells
    whether the chunk's inner boundary separates two eigenvalues within
    tol, and bounds the middle. tol is _CLUSTER_TOL of the spectral
    radius, which the two end calls give, or spectrum() where dstemr
    refuses one. When the extra value lies within tol of the chunk's
    innermost one, or dstemr refuses the range (as it can when the range
    cuts a tight cluster), the boundary moves toward the middle, as read
    off spectrum(), until it separates no such pair, and the chunk takes
    its pairs from the full decomposition; so does a chunk that takes the
    rest of the middle when dstemr refuses exactly that range. So a
    cluster's eigenvectors come from one call and stay orthogonal.
    """
    lo, hi = 0, n
    below = above = 0.0  # eigenvalues lo and hi - 1, the ends of the middle
    whole = (0, n)

    def ceiling() -> float:
        return max(abs(below), abs(above)) + tol if lo < hi else -np.inf

    def cut(step: int) -> tuple[int, int, int, int]:
        """The next chunk from the low (step 1) or high (step -1) end of the middle."""
        nonlocal lo, hi, below, above
        b = min(lo + _CHUNK, hi) if step > 0 else max(hi - _CHUNK, lo)
        edge = 0.0
        if lo < b < hi:
            call = (lo, b + 1) if step > 0 else (b - 1, hi)
            got = values(*call)
            if got is not None and (got[-1] - got[-2] if step > 0 else got[1] - got[0]) > tol:
                edge = float(got[-1] if step > 0 else got[0])
            else:
                vals, call = spectrum(), whole
                while lo < b < hi and vals[b] - vals[b - 1] <= tol:
                    b += step
                if lo < b < hi:
                    edge = float(vals[b if step > 0 else b - 1])
        else:
            call = (lo, b) if step > 0 else (b, hi)
            if values(*call) is None:
                call = whole
        if step > 0:
            chunk, lo, below = (lo, b, *call), b, edge
        else:
            chunk, hi, above = (b, hi, *call), b, edge
        return chunk

    if n < 2 * _CHUNK + 2:  # the two end calls would overlap: one call
        yield [(0, n, *whole)], -np.inf
        return
    low, high = values(0, _CHUNK + 1), values(n - _CHUNK - 1, n)
    tol = _CLUSTER_TOL * max(-(spectrum()[0] if low is None else float(low[0])),
                             spectrum()[-1] if high is None else float(high[-1]))
    ends = [cut(1)]
    if lo < hi:
        ends.append(cut(-1))
    yield ends, ceiling()
    while lo < hi:
        yield [cut(1 if abs(below) >= abs(above) else -1)], ceiling()


def successive_projection(y: np.ndarray, k: int) -> np.ndarray:
    """Select k extreme rows of a point cloud by successive projection.

    Greedily picks the row of maximum Euclidean norm, then projects all
    rows onto the orthogonal complement of the picked row, and repeats.
    Ties break toward the smallest row index. If the residual becomes
    numerically zero (Frobenius norm <= 1e-12 of its initial value)
    before k rows are found, the selection stops early and returns fewer
    than k indices.

    Returns the selected row indices in pick order.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected 2-d row-point array, got shape {y.shape}")
    m, r = y.shape
    if not 1 <= k <= min(m, r):
        raise ValueError(f"k={k} out of range for {m}x{r} input")

    residual = y.copy()
    picked: list[int] = []
    for step in range(k):
        # one pass gives both the pick and the stop rule
        norms = np.einsum("ij,ij->i", residual, residual)
        idx = int(norms.argmax())
        if step == 0:
            floor = _SP_RESIDUAL_TOL * float(norms.sum())
        # a sum of nonnegative terms is at least its largest one, so the
        # sum is formed only when that term alone does not clear the floor
        if norms[idx] <= floor and float(norms.sum()) <= floor:
            break
        if idx in picked:
            # residual is pure noise; nothing extreme left to find
            break
        picked.append(idx)
        # the right-hand side is formed before the update, so u may be a view
        u = residual[idx]
        residual -= (residual @ u)[:, None] * (u / float(u @ u))
    return np.array(picked, dtype=int)
