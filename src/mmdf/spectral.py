"""Symmetric eigendecomposition truncated to the top K eigenpairs by
magnitude, and greedy vertex hunting by successive projection.

Both are pure functions over immutable inputs. Which solver top_k_eigen
runs depends on the matrix order n and the numpy build, never on k:

- below n = 128, or when numpy's LAPACK does not export the routines
  below, a full np.linalg.eigh, truncated;
- otherwise a partial solve in numpy's own LAPACK (the scipy-openblas64
  library that np.linalg already loaded, called through ctypes): one
  reduction to tridiagonal form (dsytrd), then MRRR eigenvectors (dstemr,
  Dhillon, Parlett & Voemel 2006) with their back-transform (dormtr)
  only for the chunks of the spectrum that hold the selected pairs.
  Below n = 320 every eigenvalue comes from one pass (dsterf). From
  n = 320 no pass over the full spectrum runs: chunks open from the two
  ends of the spectrum, as many as the k + 1 largest magnitudes need,
  each giving its eigenvalues with its eigenvectors, and chunk
  boundaries are settled by Sturm-sequence bisection of the eigenvalues
  on either side of them (dstebz, Kahan 1966). At n = 800 on 2 cores it
  takes 43-49 ms where eigh takes 106-109 ms.

The ordering and sign convention of top_k_eigen do not depend on k, so
on either path top_k_eigen(m, k) is bitwise the first k pairs of
top_k_eigen(m, K) for any K >= k. (The partial solve's eigenpairs
depend on the index range requested from dstemr and on the column count
given to dormtr, so it always computes whole chunks, whose boundaries
and opening order depend on the matrix alone.) Callers that fit several
community counts to one graph decompose once at the largest count and
take prefixes with TopKEigen.head.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache

import numpy as np

from .graph import WeightedGraph

__all__ = [
    "TopKEigen",
    "top_k_eigen",
    "successive_projection",
]

# relative symmetry tolerance for eigensolver input
_SYMMETRY_TOL = 1e-9
# successive projection stops once the residual's squared Frobenius norm
# falls below this fraction of its initial value (a norm ratio of 1e-12)
_SP_RESIDUAL_TOL = 1e-24
# smallest matrix order decomposed by the partial solve. On 2 cores the
# crossover lies between n = 112 (partial solve x1.14 of eigh's time)
# and n = 160 (x0.83); below n = 96 eigh is clearly faster
_PARTIAL_MIN_N = 128
# smallest order at which the partial solve bisects the few eigenvalues
# it needs instead of computing all n (dsterf, O(n^2)). On 2 cores, on
# nonnegative draws at k = 3, whose (k+1)-th magnitude sits at the other
# end, bisection costs x1.16 of dsterf's time at n = 192, x1.00 at 320
# and x0.92 at 384; on signed draws at k = 6 it gains from n = 192
_BISECT_MIN_N = 320
# the partial solve computes eigenvectors in chunks of this many indices,
# counted from each end of the ascending spectrum
_CHUNK = 8
# a chunk boundary never separates two eigenvalues closer than this
# fraction of the spectral radius; it moves toward the middle instead.
# Chunks stop opening once the wanted magnitudes exceed the unopened
# ones by as much, far above the rounding of bisection and dstemr
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
            average 0.5 * (m + m.T) first.
        k: number of eigenpairs, 1 <= k <= n.

    For n < 128, or when numpy's LAPACK lacks dsytrd, dsterf, dstebz,
    dstemr and dormtr, this is a full np.linalg.eigh; otherwise a partial
    solve in that LAPACK that computes eigenvectors only near the
    selected pairs and, from n = 320, eigenvalues only near the ends of
    the spectrum (see the module docstring). The decomposition is deterministic on both paths:
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
    m = m.weights if validated else np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    # non-finite entries are caught with no new pass over an exactly
    # symmetric m from n = 128: a NaN fails the exact symmetry test and the
    # partial solve reads the peak anyway; below, eigh dwarfs the check
    if not validated and not np.array_equal(m, m.T):
        _check_finite(m)
        if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * float(np.abs(m).max()):
            raise ValueError("matrix is not symmetric within tolerance")
        m = 0.5 * (m + m.T)

    lapack = _lapack() if n >= _PARTIAL_MIN_N else None
    if lapack is None:
        _check_finite(m)
        vals, full = np.linalg.eigh(m)

        def vectors_at(indices):
            return full[:, indices]
    else:
        vals, vectors_at = _partial_eigh(m, lapack, k)
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
def _lapack() -> dict | None:
    """dsytrd, dsterf, dstebz, dstemr and dormtr from numpy's own LAPACK,
    resolved once on first use; None when numpy's linalg extension does
    not export them (any build other than scipy-openblas64)."""
    ptr, s = ctypes.c_void_p, ctypes.c_char_p
    # Fortran calling convention: every argument by reference, with one
    # hidden size_t length per character argument after the others
    signatures = {
        "dsytrd": [s] + [ptr] * 9 + [ctypes.c_size_t],
        "dsterf": [ptr] * 4,
        "dstebz": [s, s] + [ptr] * 16 + [ctypes.c_size_t] * 2,
        "dstemr": [s, s] + [ptr] * 19 + [ctypes.c_size_t] * 2,
        "dormtr": [s, s, s] + [ptr] * 10 + [ctypes.c_size_t] * 3,
    }
    try:
        from numpy.linalg import _umath_linalg

        # the extension's own handle also finds the symbols of the
        # OpenBLAS it links, so no second BLAS is loaded
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in signatures}
    except (ImportError, OSError, AttributeError):
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


def _partial_eigh(m: np.ndarray, lapack: dict, k: int):
    """Eigenvalues of the exactly symmetric m (ascending) that include
    the k + 1 of largest magnitude, and a function from indices into
    them to the (n, len(indices)) eigenvectors at those indices.

    Below _BISECT_MIN_N the values are all n, from dsterf. From it, chunks
    open in _chunk_order until the k + 1 largest magnitudes among their
    values exceed every magnitude the unopened middle can hold, and the
    values are those of the open chunks, each from its own chunk's
    dstemr call. Eigenvectors come per chunk and are back-transformed
    only for the chunks that hold a requested index. Chunks, and the
    order they open in, depend on m alone, so the columns returned for
    an index do not depend on k or on which other indices are requested.
    """
    n = m.shape[0]
    # C order read as Fortran order is m.T, which is m; LAPACK overwrites it
    a = np.array(m, order="C")
    peak = max(float(a.max()), -float(a.min()))
    _check_finite(peak)
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
    def chunk(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues lo..hi-1 (ascending) and their eigenvectors of the
        tridiagonal form, as the rows of a (hi - lo, n) array."""
        cols = hi - lo
        dd, ee = d.copy(), e.copy()  # dstemr overwrites both
        vals, z = np.empty(n), np.empty((cols, n))  # C-order rows are Fortran columns
        isuppz = np.empty(2 * cols, dtype=np.int64)
        tryrac = ctypes.c_int64(1)  # as dsyevr: keep high relative accuracy where T allows it
        work, iwork = np.empty(18 * n), np.empty(10 * n, dtype=np.int64)
        found = ctypes.c_int64()
        vbound = ctypes.c_double()
        lapack["dstemr"](b"V", b"I", _int(n), dd.ctypes.data, ee.ctypes.data,
                         ctypes.byref(vbound), ctypes.byref(vbound), _int(lo + 1), _int(hi),
                         ctypes.byref(found), vals.ctypes.data, z.ctypes.data, _int(n), _int(cols),
                         isuppz.ctypes.data, ctypes.byref(tryrac), work.ctypes.data, _int(len(work)),
                         iwork.ctypes.data, _int(len(iwork)), ctypes.byref(info), 1, 1)
        _check(lapack["dstemr"], info)
        if found.value != cols:
            raise ValueError(f"eigendecomposition failed: dstemr found {found.value} of {cols} eigenvectors")
        return vals[:cols], z

    if n < _BISECT_MIN_N:
        every, scratch = d.copy(), e.copy()
        lapack["dsterf"](_int(n), every.ctypes.data, scratch.ctypes.data, ctypes.byref(info))
        _check(lapack["dsterf"], info)

        def eigenvalue(i: int) -> float:
            return float(every[i])

        def values(lo: int, hi: int) -> np.ndarray:
            return every[lo:hi]
    else:
        # dstebz's outputs and workspace, shared by every bisection
        w, iblock, isplit = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        rwork, riwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)

        @cache
        def eigenvalue(i: int) -> float:
            """The i-th ascending eigenvalue, by Sturm-sequence bisection."""
            found, nsplit = ctypes.c_int64(), ctypes.c_int64()
            vbound, abstol = ctypes.c_double(), ctypes.c_double(0.0)  # 0: dstebz's default accuracy
            lapack["dstebz"](b"I", b"E", _int(n), ctypes.byref(vbound), ctypes.byref(vbound),
                             _int(i + 1), _int(i + 1), ctypes.byref(abstol), d.ctypes.data,
                             e.ctypes.data, ctypes.byref(found), ctypes.byref(nsplit), w.ctypes.data,
                             iblock.ctypes.data, isplit.ctypes.data, rwork.ctypes.data,
                             riwork.ctypes.data, ctypes.byref(info), 1, 1)
            _check(lapack["dstebz"], info)
            if found.value != 1:
                raise ValueError(f"eigendecomposition failed: dstebz found {found.value} eigenvalues at index {i}")
            return float(w[0])

        def values(lo: int, hi: int) -> np.ndarray:
            return chunk(lo, hi)[0]

    # the radius comes from the eigenvalue source, not from the end chunks:
    # a dstemr call whose index range cuts a tight cluster can fail (DLARRF
    # finds no representation for the part of the cluster inside the range)
    tol = _CLUSTER_TOL * max(-eigenvalue(0), eigenvalue(n - 1))
    opened = []
    for new, bound in _chunk_order(n, tol, eigenvalue):
        opened += new
        mags = np.sort(np.abs(np.concatenate([values(*c) for c in opened])))[::-1]
        if len(mags) > k and mags[k] > bound + tol:
            break
    opened.sort()
    vals = np.concatenate([values(*c) for c in opened])
    starts = np.cumsum([0] + [hi - lo for lo, hi in opened])

    def vectors_at(indices: np.ndarray) -> np.ndarray:
        vecs = np.empty((n, len(indices)))
        which = np.searchsorted(starts, indices, side="right") - 1
        for c in sorted(set(which.tolist())):  # np.unique would import numpy.ma
            z = chunk(*opened[c])[1]
            _with_workspace(lapack["dormtr"], (b"L", b"L", b"N", _int(n), _int(len(z)), a.ctypes.data,
                                               _int(n), tau.ctypes.data, z.ctypes.data, _int(n)),
                            info, (1, 1, 1))
            picked = which == c
            vecs[:, picked] = z[indices[picked] - starts[c]].T
        return vecs

    with np.errstate(over="ignore"):  # an infinite eigenvalue is rejected by the caller
        return np.ldexp(vals, -shift), vectors_at


def _chunk_order(n: int, tol: float, eigenvalue):
    """The eigenvector chunks [lo, hi) of an ascending spectrum of n
    eigenvalues, in the order the partial solve opens them.

    Yields (chunks, bound) per step: the two end chunks at the first
    step, then one chunk per step from whichever end of the unopened
    middle holds the larger |eigenvalue|, each with the largest
    |eigenvalue| the middle still holds (-inf once it is empty).
    eigenvalue(i) is the i-th ascending eigenvalue; it is asked only
    for the two eigenvalues on either side of each boundary tried.

    A chunk takes _CHUNK indices from its end of the middle; a boundary
    that would separate two eigenvalues within tol moves toward the
    middle until it does not, so a cluster's eigenvectors come from one
    dstemr call and stay orthogonal.
    """
    lo, hi = 0, n

    def settle(b: int, step: int) -> int:
        while lo < b < hi and eigenvalue(b) - eigenvalue(b - 1) <= tol:
            b += step
        return min(max(b, lo), hi)

    def bound() -> float:
        return max(abs(eigenvalue(lo)), abs(eigenvalue(hi - 1))) if lo < hi else -np.inf

    lo = settle(_CHUNK, 1)
    ends = [(0, lo)]
    if lo < hi:
        hi = settle(n - _CHUNK, -1)
        ends.append((hi, n))
    yield ends, bound()
    while lo < hi:
        if abs(eigenvalue(lo)) >= abs(eigenvalue(hi - 1)):
            b = settle(lo + _CHUNK, 1)
            new, lo = (lo, b), b
        else:
            b = settle(hi - _CHUNK, -1)
            new, hi = (b, hi), b
        yield [new], bound()


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
