"""Core graph data model: symmetric weighted adjacency, edge-list I/O,
and positive/negative decomposition for signed networks.

Graphs are dense and immutable. Weights may be any finite real number;
self-edges are not represented (the diagonal is always zero).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import KW_ONLY, InitVar, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Malformed record of an input file; names the file and carries the
    1-based line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}, line {line_no}: {message}")
        self.line_no = line_no


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, a leading byte-order mark skipped and
    line ends read as text mode reads them ("\r\n" and "\r" become
    "\n"). Bytes that are not UTF-8 raise ParseError naming the file
    and the line that holds them."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the text before the bad byte is UTF-8; a byte-order mark holds no line end
        head = exc.object[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(path, line_no, f"not UTF-8: byte {exc.object[exc.start]:#04x}: {exc.reason}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _equal_by_value(self, other) -> bool:
    """Dataclass equality that compares ndarray fields by value (the
    generated __eq__ compares them with ==, which cannot be a bool), NaN
    equal to NaN so that it is reflexive. A class declared with eq=False
    and this __eq__ is unhashable."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
               else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted network as a dense symmetric matrix.

    Attributes:
        weights: (n, n) float array, exactly symmetric, zero diagonal,
            all entries finite. Any sign is allowed. A read-only copy
            of the array given.
        node_labels: optional display names, one per node.
        peak: the largest |weight| (0.0 without edges), found while
            validating, so that no later stage scans W for it again.

    len(graph) is the node count n.
    """

    weights: np.ndarray
    node_labels: tuple[str, ...] | None = None
    _: KW_ONLY
    # for the sampler alone, whose matrices are exactly symmetric by
    # construction and held by nobody else: skips that one test and the
    # copy, and keeps every other check
    _exact_symmetric: InitVar[bool] = False
    peak: float = field(init=False, repr=False)

    __eq__ = _equal_by_value

    def __post_init__(self, _exact_symmetric: bool):
        w = (np.asarray if _exact_symmetric else np.array)(self.weights, dtype=float)
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


# rows of W per block of the sign split. On 2 cores at n = 800, blocks
# of 32 to 64 rows scored fastest: both parts' blocks (800 KB at 64
# rows) stay in the 2 MB L2 cache; 96 rows and more were slower
_BLOCK_ROWS = 64
# entries of W per block on small graphs: blocks grow past _BLOCK_ROWS
# rows up to this size, so a graph of up to 128 nodes is one block (each
# block pays a fixed cost in numpy calls) while from n = 256 blocks keep
# _BLOCK_ROWS rows
_BLOCK_ENTRIES = 2**14


def sign_split(g: WeightedGraph, ms: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, list[np.ndarray]]:
    """Degrees of, and products with, the positive and negative parts
    max(0, W) and max(0, -W), in one pass over row blocks of W.

    Returns the (2, n) degrees, one row per part, and for each (n, k)
    matrix m of ms the (2, n, k) products pos @ m and neg @ m. Both parts
    are scaled by the power of two that brings the graph's peak into
    [1, 2): exact short of underflow, so scale-free scores are unchanged,
    and their squared degree sums stay finite for any finite weights.
    No n x n array is allocated; neg = pos - w is exactly -w where w < 0
    and 0 elsewhere.
    """
    n, w = g.n, g.weights
    shift = 1 - int(np.frexp(g.peak)[1])
    height = max(_BLOCK_ROWS, _BLOCK_ENTRIES // max(n, 1))
    buffer = np.empty((2, min(height, n), n))
    degrees = np.empty((2, n))
    products = [np.empty((2, n, m.shape[1])) for m in ms]
    for start in range(0, n, height):
        rows = slice(start, start + height)
        parts = buffer[:, : min(height, n - start)]
        pos, neg = parts
        np.ldexp(w[rows], shift, out=neg)
        np.maximum(neg, 0.0, out=pos)
        np.subtract(pos, neg, out=neg)
        parts.sum(axis=2, out=degrees[:, rows])
        for m, out in zip(ms, products):
            np.matmul(parts, m, out=out[:, rows])
    return degrees, products


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
    label or be a 1-based index into the roster. Both files are read as
    UTF-8, a leading byte-order mark skipped.

    Duplicate (i, j) records are summed. Self-edge records are dropped;
    their node identifiers are still registered. Raises ParseError naming
    the file and the offending line on malformed input, a repeated roster
    label and duplicates whose sum is not finite included.
    """
    path = Path(path)
    # the node names in node order: the roster's, or else each name as it
    # first appears in the edge list
    index: dict[str, int] = {}
    rostered = labels_path is not None
    if rostered:
        for line_no, ln in enumerate(read_text(labels_path).splitlines(), start=1):
            if (name := ln.strip()) and not ln.startswith("#"):
                if name in index:
                    raise ParseError(labels_path, line_no, f"duplicate node label {name!r}")
                index[name] = len(index)
    # tokens already known to name a node: without a roster, those seen so
    # far; with one, every label and every plain 1-based index no label shadows
    known = {str(i + 1): i for i in range(len(index))} | index if rostered else index

    def resolve(token: str, line_no: int) -> int:
        """The node of a token that is not in known."""
        if not rostered:
            index[token] = len(index)
            return index[token]
        try:
            i = int(token)
        except ValueError:
            raise ParseError(path, line_no, f"unknown node {token!r}") from None
        if not 1 <= i <= len(index):
            raise ParseError(path, line_no, f"node index {i} outside roster")
        return i - 1

    accum: dict[tuple[int, int], float] = {}
    first_data_line = True

    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "," in line:
            tokens = [t for t in map(str.strip, line.split(",")) if t]
        else:
            tokens = line.split()
        if first_data_line and len(tokens) == 3:
            # header detection: last column not numeric
            try:
                float(tokens[-1])
            except ValueError:
                first_data_line = False
                continue
        first_data_line = False
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise ParseError(path, line_no, f"bad weight {tokens[2]!r}") from None
            if not math.isfinite(w):
                raise ParseError(path, line_no, f"non-finite weight {tokens[2]!r}")
        elif len(tokens) == 2:
            w = 1.0
        else:
            raise ParseError(path, line_no, f"expected 2 or 3 fields, got {len(tokens)}")
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
            if not math.isfinite(accum[key]):
                raise ParseError(path, line_no, f"weights of {tokens[0]} {tokens[1]} sum to {accum[key]!r}")
        else:
            accum[key] = w

    weights = np.zeros((len(index), len(index)))
    i, j = np.fromiter(chain.from_iterable(accum), dtype=np.intp, count=2 * len(accum)).reshape(-1, 2).T
    w = np.fromiter(accum.values(), dtype=float, count=len(accum))
    weights[np.concatenate([i, j]), np.concatenate([j, i])] = np.concatenate([w, w])
    return WeightedGraph(weights, tuple(index) or None)


def write_edge_list(g: WeightedGraph, path: str | Path, labels_path: str | Path | None = None) -> None:
    """Write the nonzero upper triangle as ``src dst weight`` records.

    Node identifiers are the graph's labels when present, else 1-based
    indices. Weights use repr so reloading reproduces the matrix exactly
    when labels_path writes the node roster too. Without the roster, a
    node no record names is lost (a 4-node graph whose last two nodes
    are isolated reloads with 2) and nodes reload in first-appearance
    order.
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
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    if labels_path is not None:
        Path(labels_path).write_text("\n".join(names) + "\n", encoding="utf-8")
