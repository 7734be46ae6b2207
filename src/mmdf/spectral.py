"""Symmetric eigendecomposition truncated to the top K eigenpairs by
magnitude, and greedy vertex hunting by successive projection.

Both are pure functions over immutable inputs. Which solver top_k_eigen
runs depends on the matrix order n and the numpy build, never on k:

- below n = 128, or when numpy's LAPACK does not export the routines
  below, a full np.linalg.eigh, truncated;
- otherwise a partial solve in numpy's own LAPACK (the scipy-openblas64
  library that np.linalg already loaded, called through ctypes): one
  reduction to tridiagonal form (dsytrd), every eigenvalue from it
  (dsterf), and MRRR eigenvectors (dstemr, Dhillon, Parlett & Voemel
  2006) with their back-transform (dormtr) only for the few chunks of
  the spectrum that hold the selected pairs. At n = 800 on 2 cores it
  takes 62-66 ms where eigh takes 106-109 ms.

The ordering and sign convention of top_k_eigen do not depend on k, so
on either path top_k_eigen(m, k) is bitwise the first k pairs of
top_k_eigen(m, K) for any K >= k. (The partial solve's eigenvectors
depend on the index range requested from dstemr and on the column count
given to dormtr, so it always computes whole chunks whose boundaries
depend on the spectrum alone.) Callers that fit several community
counts to one graph decompose once at the largest count and take
prefixes with TopKEigen.head.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "TopKEigen",
    "top_k_eigen",
    "successive_projection",
    "EarlyStopWarning",
]

# relative symmetry tolerance for eigensolver input
_SYMMETRY_TOL = 1e-9
# successive projection stops once the residual falls below this
# fraction of its initial Frobenius norm
_SP_RESIDUAL_TOL = 1e-12
# smallest matrix order decomposed by the partial solve. On 2 cores the
# crossover lies between n = 112 (partial solve x1.14 of eigh's time)
# and n = 160 (x0.83); below n = 96 eigh is clearly faster
_PARTIAL_MIN_N = 128
# the partial solve computes eigenvectors in chunks of this many indices,
# counted from each end of the ascending spectrum
_CHUNK = 8
# a chunk boundary never separates two eigenvalues closer than this
# fraction of the spectral radius; it moves toward the middle instead
_CLUSTER_TOL = 1e-6
# LAPACK's safe range for a matrix's largest |entry| (dsyevd's RMIN and
# RMAX); outside it the partial solve rescales by a power of two
_SAFE_PEAK = (2.0**-485, 2.0**485)


class EarlyStopWarning(UserWarning):
    """Successive projection ran out of residual mass before finding
    the requested number of vertices."""


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


def top_k_eigen(m: np.ndarray, k: int) -> TopKEigen:
    """Eigenpairs of a symmetric matrix with the k largest |eigenvalues|.

    Arguments:
        m: (n, n) real matrix, symmetric within 1e-9 relative tolerance.
            An exactly symmetric matrix (every WeightedGraph) is
            decomposed as given; an inexactly symmetric one within the
            tolerance is replaced by its average 0.5 * (m + m.T) first.
        k: number of eigenpairs, 1 <= k <= n.

    For n < 128, or when numpy's LAPACK lacks dsytrd, dsterf, dstemr and
    dormtr, this is a full np.linalg.eigh; otherwise a partial solve in
    that LAPACK that computes every eigenvalue but only the eigenvectors
    near the selected ones (see the module docstring). The decomposition
    is deterministic on both paths: eigenvalues are sorted by decreasing
    magnitude (stable for ties, so -x precedes x) and each
    eigenvector's sign is fixed by its largest-magnitude entry, so the
    result for k is bitwise the first k pairs of the result for any
    larger k. Raises ValueError when the matrix is not symmetric within
    tolerance, or when the solver fails or returns a non-finite
    eigenvalue or eigenvector (weights near the float64 limit).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if not np.array_equal(m, m.T):
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        m = 0.5 * (m + m.T)

    lapack = _lapack() if n >= _PARTIAL_MIN_N else None
    if lapack is None:
        vals, full = np.linalg.eigh(m)

        def vectors_at(indices):
            return full[:, indices]
    else:
        vals, vectors_at = _partial_eigh(m, lapack)
    order = np.argsort(-np.abs(vals), kind="stable")
    vecs = vectors_at(order[:k])
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise ValueError("eigendecomposition returned non-finite eigenpairs")
    nxt = float(abs(vals[order[k]])) if k < n else 0.0
    vals = vals[order[:k]]
    for c in range(k):
        lead = np.argmax(np.abs(vecs[:, c]))
        if vecs[lead, c] < 0:
            vecs[:, c] = -vecs[:, c]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return TopKEigen(vectors=vecs, values=vals, next_magnitude=nxt)


@cache
def _lapack() -> dict | None:
    """dsytrd, dsterf, dstemr and dormtr from numpy's own LAPACK, resolved
    once on first use; None when numpy's linalg extension does not export
    them (any build other than scipy-openblas64)."""
    ptr, s = ctypes.c_void_p, ctypes.c_char_p
    # Fortran calling convention: every argument by reference, with one
    # hidden size_t length per character argument after the others
    signatures = {
        "dsytrd": [s] + [ptr] * 9 + [ctypes.c_size_t],
        "dsterf": [ptr] * 4,
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


def _partial_eigh(m: np.ndarray, lapack: dict):
    """Every eigenvalue of the exactly symmetric m (ascending), and a
    function from ascending-order indices to the (n, len(indices))
    eigenvectors at those indices.

    The eigenvectors are computed per chunk (_chunk_bounds) and only for
    the chunks that hold a requested index, so the columns returned for
    an index do not depend on which other indices are requested.
    """
    n = m.shape[0]
    # C order read as Fortran order is m.T, which is m; LAPACK overwrites it
    a = np.array(m, order="C")
    peak = max(float(a.max()), -float(a.min()))
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

    vals, scratch = d.copy(), e.copy()
    lapack["dsterf"](_int(n), vals.ctypes.data, scratch.ctypes.data, ctypes.byref(info))
    _check(lapack["dsterf"], info)
    bounds = _chunk_bounds(vals)

    def chunk_vectors(lo: int, hi: int) -> np.ndarray:
        """Eigenvectors lo..hi-1 (ascending) as the rows of a (hi - lo, n) array."""
        cols = hi - lo
        dd, ee = d.copy(), e.copy()  # dstemr overwrites both
        w, z = np.empty(n), np.empty((cols, n))  # C-order rows are Fortran columns
        isuppz = np.empty(2 * cols, dtype=np.int64)
        tryrac = ctypes.c_int64(1)  # as dsyevr: keep high relative accuracy where T allows it
        work, iwork = np.empty(18 * n), np.empty(10 * n, dtype=np.int64)
        found = ctypes.c_int64()
        vbound = ctypes.c_double()
        lapack["dstemr"](b"V", b"I", _int(n), dd.ctypes.data, ee.ctypes.data,
                         ctypes.byref(vbound), ctypes.byref(vbound), _int(lo + 1), _int(hi),
                         ctypes.byref(found), w.ctypes.data, z.ctypes.data, _int(n), _int(cols),
                         isuppz.ctypes.data, ctypes.byref(tryrac), work.ctypes.data, _int(len(work)),
                         iwork.ctypes.data, _int(len(iwork)), ctypes.byref(info), 1, 1)
        _check(lapack["dstemr"], info)
        if found.value != cols:
            raise ValueError(f"eigendecomposition failed: dstemr found {found.value} of {cols} eigenvectors")
        _with_workspace(lapack["dormtr"], (b"L", b"L", b"N", _int(n), _int(cols), a.ctypes.data,
                                           _int(n), tau.ctypes.data, z.ctypes.data, _int(n)),
                        info, (1, 1, 1))
        return z

    def vectors_at(indices: np.ndarray) -> np.ndarray:
        vecs = np.empty((n, len(indices)))
        chunk = np.searchsorted(bounds, indices, side="right") - 1
        for c in sorted(set(chunk.tolist())):  # np.unique would import numpy.ma
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            picked = chunk == c
            vecs[:, picked] = chunk_vectors(lo, hi)[indices[picked] - lo].T
        return vecs

    with np.errstate(over="ignore"):  # an infinite eigenvalue is rejected by the caller
        return np.ldexp(vals, -shift), vectors_at


def _chunk_bounds(vals: np.ndarray) -> np.ndarray:
    """Boundaries 0 = b_0 < b_1 < ... = n of the eigenvector chunks for
    the ascending eigenvalues vals.

    Chunks hold _CHUNK indices counted from each end of the spectrum and
    meet near the middle; a boundary that would separate two eigenvalues
    within _CLUSTER_TOL of the spectral radius moves toward the middle
    until it does not, so a cluster's eigenvectors come from one dstemr
    call and stay orthogonal.
    """
    n = len(vals)
    tol = _CLUSTER_TOL * max(-float(vals[0]), float(vals[-1]))

    def settle(b: int, step: int) -> int:
        b = min(max(b, 0), n)
        while 0 < b < n and vals[b] - vals[b - 1] <= tol:
            b += step
        return b

    lower = [0]
    while lower[-1] < n // 2:
        lower.append(settle(lower[-1] + _CHUNK, 1))
    upper = [n]
    while (b := settle(upper[-1] - _CHUNK, -1)) > lower[-1]:
        upper.append(b)
    return np.array(lower + upper[::-1] if lower[-1] < n else lower)


def successive_projection(y: np.ndarray, k: int) -> np.ndarray:
    """Select k extreme rows of a point cloud by successive projection.

    Greedily picks the row of maximum Euclidean norm, then projects all
    rows onto the orthogonal complement of the picked row, and repeats.
    Ties break toward the smallest row index. If the residual becomes
    numerically zero (Frobenius norm <= 1e-12 of its initial value)
    before k rows are found, the selection stops early: the returned
    index array is shorter than k and an EarlyStopWarning is issued.

    Returns the selected row indices in pick order.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"expected 2-d row-point array, got shape {y.shape}")
    m, r = y.shape
    if not 1 <= k <= min(m, r):
        raise ValueError(f"k={k} out of range for {m}x{r} input")

    residual = y.copy()
    initial_norm = float(np.linalg.norm(residual))
    picked: list[int] = []
    for _ in range(k):
        if float(np.linalg.norm(residual)) <= _SP_RESIDUAL_TOL * initial_norm:
            break
        idx = int(np.argmax(np.einsum("ij,ij->i", residual, residual)))
        if idx in picked:
            # residual is pure noise; nothing extreme left to find
            break
        picked.append(idx)
        u = residual[idx].copy()
        residual -= np.outer(residual @ u, u / float(u @ u))
    if len(picked) < k:
        warnings.warn(
            f"successive projection found {len(picked)} of {k} requested "
            "vertices before the residual vanished",
            EarlyStopWarning,
            stacklevel=2,
        )
    return np.array(picked, dtype=int)
