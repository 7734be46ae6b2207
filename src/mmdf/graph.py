"""Core graph data model: symmetric weighted adjacency, edge-list I/O,
and positive/negative decomposition for signed networks.

Graphs are dense and immutable. Weights may be any finite real number;
self-edges are not represented (the diagonal is always zero).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "WeightedGraph",
    "SignSplit",
    "GroundTruth",
    "ParseError",
    "load_edge_list",
    "write_edge_list",
    "sign_split",
]


class ParseError(ValueError):
    """Malformed edge-list record; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted network as a dense symmetric matrix.

    Attributes:
        weights: (n, n) float array, exactly symmetric, zero diagonal,
            all entries finite. Any sign is allowed.
        node_labels: optional display names, one per node.
        peak: the largest |weight| (0.0 without edges), found while
            validating, so that no later stage scans W for it again.

    len(graph) is the node count n.
    """

    weights: np.ndarray
    node_labels: tuple[str, ...] | None = None
    _: KW_ONLY
    # for the sampler alone, whose matrices are exactly symmetric by
    # construction: skips that one test and keeps every other check
    _exact_symmetric: InitVar[bool] = False
    peak: float = field(init=False, repr=False)

    def __post_init__(self, _exact_symmetric: bool):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {w.shape}")
        # a NaN makes both extremes NaN, and an infinity one of them
        high, low = float(w.max(initial=0.0)), float(w.min(initial=0.0))
        if not (math.isfinite(high) and math.isfinite(low)):
            raise ValueError("adjacency contains non-finite entries")
        if not _exact_symmetric and not np.array_equal(w, w.T):
            raise ValueError("adjacency must be exactly symmetric")
        if np.diagonal(w).any():
            raise ValueError("adjacency diagonal must be zero (no self-edges)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "peak", max(high, -low))
        if self.node_labels is not None:
            labels = tuple(map(str, self.node_labels))
            if len(labels) != w.shape[0]:
                raise ValueError(
                    f"{len(labels)} labels for {w.shape[0]} nodes"
                )
            object.__setattr__(self, "node_labels", labels)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __len__(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def _split(self) -> "SignSplit":
        # computed once per graph: scoring every k of a community-count
        # scan reuses it
        return sign_split(self)


@dataclass(frozen=True)
class SignSplit:
    """Degrees and masses of the two nonnegative parts of a signed
    adjacency W, max(0, W) and max(0, -W), both scaled by 2**shift:
    degrees is a read-only (2, n) array, one row per part, and masses
    the pair of their total edge masses, in the same order.

    shift brings the graph's peak into [1, 2) with no pass over W. The
    scaling is exact (short of weights that underflow), so scale-free
    scores are unchanged by it, and it keeps their squared degree sums
    finite for any finite weights. The parts themselves are not kept: products with them are
    computed from row blocks of W.
    """

    degrees: np.ndarray
    masses: tuple[float, float]
    shift: int


# rows of W per block when streaming over the sign split. On 2 cores at
# n = 800, blocks of 32 to 64 rows scored fastest: both parts' blocks
# (800 KB at 64 rows) stay in the 2 MB L2 cache; 96 rows and more were
# slower
_BLOCK_ROWS = 64
# entries of W per block on small graphs: blocks grow past _BLOCK_ROWS
# rows up to this size, so a graph of up to 128 nodes is one block (each
# block pays a fixed cost in numpy calls) while from n = 256 blocks keep
# _BLOCK_ROWS rows
_BLOCK_ENTRIES = 2**14


def _sign_blocks(w: np.ndarray, shift: int):
    """Yield (rows, parts) over row blocks of w: the row slice and a
    (2, rows, n) array holding that block of 2**shift * max(0, w) and of
    2**shift * max(0, -w). The array is overwritten by the next block.
    Blocks hold max(_BLOCK_ROWS, _BLOCK_ENTRIES // n) rows, the last
    one fewer.

    Both parts are exact entrywise: neg = pos - w is -w where w < 0 and
    w - w = 0 elsewhere.
    """
    n = w.shape[0]
    height = max(_BLOCK_ROWS, _BLOCK_ENTRIES // max(n, 1))
    buffer = np.empty((2, min(height, n), n))
    for start in range(0, n, height):
        rows = slice(start, start + height)
        parts = buffer[:, : min(height, n - start)]
        pos, neg = parts
        np.ldexp(w[rows], shift, out=neg)
        np.maximum(neg, 0.0, out=pos)
        np.subtract(pos, neg, out=neg)
        yield rows, parts


def sign_split(g: WeightedGraph) -> SignSplit:
    """Split a graph into its positive and negative parts.

    Returns the degree vectors of max(0, W) and max(0, -W) and their
    total edge masses (half the degree sums, so each unordered pair
    counts once), all scaled by 2**shift as SignSplit describes. Works
    over row blocks of W: no n x n array is allocated.
    """
    shift = 1 - int(np.frexp(g.peak)[1])
    degrees = np.empty((2, g.n))
    for rows, parts in _sign_blocks(g.weights, shift):
        parts.sum(axis=2, out=degrees[:, rows])
    degrees.setflags(write=False)
    return SignSplit(degrees, tuple(float(d.sum() / 2.0) for d in degrees), shift)


@dataclass(frozen=True)
class GroundTruth:
    """Known community structure for a graph, when available.

    labels: hard community index per node (0-based), or None.
    memberships: (n, K) row-stochastic soft assignment, or None.
    Either may be given without the other; dfsp.harden turns
    memberships into labels.
    """

    labels: np.ndarray | None = None
    memberships: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype in (("labels", int), ("memberships", float)):
            if getattr(self, name) is not None:
                value = np.asarray(getattr(self, name), dtype=dtype)
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    @property
    def k(self) -> int | None:
        if self.memberships is not None:
            return self.memberships.shape[1]
        if self.labels is not None:
            return int(self.labels.max()) + 1
        return None


def load_edge_list(
    path: str | Path,
    labels_path: str | Path | None = None,
) -> WeightedGraph:
    """Read a whitespace- or comma-separated edge list into a graph.

    Each record is ``src dst [weight]``; a missing weight defaults to 1.
    Lines starting with ``#`` are comments. A first line with three
    fields whose last is not numeric is treated as a header and skipped.
    Node identifiers may be names or integers; node order is
    first-appearance order unless labels_path supplies an explicit node
    roster (one label per line), in which case identifiers must match a
    label or be a 1-based index into the roster.

    Duplicate (i, j) records are summed. Self-edge records are dropped;
    their node identifiers are still registered. Raises ParseError with
    the offending line number on malformed input.
    """
    path = Path(path)
    roster: list[str] | None = None
    if labels_path is not None:
        roster = [
            name
            for ln in Path(labels_path).read_text().splitlines()
            if (name := ln.strip()) and not ln.startswith("#")
        ]

    index: dict[str, int] = {}
    if roster is not None:
        for i, name in enumerate(roster):
            if name in index:
                raise ValueError(f"duplicate node label {name!r}")
            index[name] = i
    # tokens already known to name a node: without a roster, those seen so
    # far; with one, every label and every plain 1-based index no label shadows
    known = index if roster is None else {str(i + 1): i for i in range(len(roster))} | index

    def resolve(token: str, line_no: int) -> int:
        """The node of a token that is not in known."""
        if roster is None:
            index[token] = len(index)
            return index[token]
        try:
            i = int(token)
        except ValueError:
            raise ParseError(line_no, f"unknown node {token!r}") from None
        if not 1 <= i <= len(roster):
            raise ParseError(line_no, f"node index {i} outside roster")
        return i - 1

    accum: dict[tuple[int, int], float] = {}
    first_data_line = True

    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if "," in line:
                tokens = [t for t in map(str.strip, line.split(",")) if t]
            else:
                tokens = line.split()
            if first_data_line and len(tokens) >= 2:
                # header detection: last column not numeric
                try:
                    float(tokens[-1])
                except ValueError:
                    if len(tokens) >= 3:
                        first_data_line = False
                        continue
            first_data_line = False
            if len(tokens) == 3:
                try:
                    w = float(tokens[2])
                except ValueError:
                    raise ParseError(line_no, f"bad weight {tokens[2]!r}") from None
                if not math.isfinite(w):
                    raise ParseError(line_no, f"non-finite weight {tokens[2]!r}")
            elif len(tokens) == 2:
                w = 1.0
            else:
                raise ParseError(line_no, f"expected 2 or 3 fields, got {len(tokens)}")
            i = known.get(tokens[0])
            if i is None:
                i = resolve(tokens[0], line_no)
            j = known.get(tokens[1])
            if j is None:
                j = resolve(tokens[1], line_no)
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            if key in accum:
                accum[key] += w
            else:
                accum[key] = w

    n = len(roster) if roster is not None else len(index)
    weights = np.zeros((n, n))
    i, j = np.fromiter(chain.from_iterable(accum), dtype=np.intp, count=2 * len(accum)).reshape(-1, 2).T
    w = np.fromiter(accum.values(), dtype=float, count=len(accum))
    weights[np.concatenate([i, j]), np.concatenate([j, i])] = np.concatenate([w, w])
    # without a roster, index holds the names in first-appearance order
    labels = tuple(roster if roster is not None else index)
    return WeightedGraph(weights, labels if labels else None)


def write_edge_list(g: WeightedGraph, path: str | Path, labels_path: str | Path | None = None) -> None:
    """Write the nonzero upper triangle as ``src dst weight`` records.

    Node identifiers are the graph's labels when present, else 1-based
    indices. Weights use repr so reloading reproduces the matrix exactly.
    Raises ValueError naming the label, before any file is written, when
    a label is empty, repeated, or contains whitespace, ``#``, ``,`` or
    a lone surrogate: load_edge_list could not read it back (a surrogate
    cannot even be encoded).
    """
    path = Path(path)
    names = g.node_labels or tuple(str(i + 1) for i in range(g.n))
    seen: set[str] = set()
    for name in names:
        if not name or any(c.isspace() or c in "#," or "\ud800" <= c <= "\udfff" for c in name):
            raise ValueError(f"node label {name!r} cannot be read back from an edge list")
        if name in seen:
            raise ValueError(f"node label {name!r} is repeated")
        seen.add(name)
    lines = []
    iu, ju = np.triu_indices(g.n, k=1)
    for i, j in zip(iu, ju):
        w = float(g.weights[i, j])
        if w != 0.0:
            lines.append(f"{names[i]} {names[j]} {w!r}")
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    if labels_path is not None:
        Path(labels_path).write_text("\n".join(names) + "\n")
