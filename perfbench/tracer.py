"""Span tracer that wraps mmdf's public functions from outside.

Each traced function is replaced, at every module global of the mmdf
package that binds it, by a wrapper that records one span per call:
(name, start, end, parent span, op id, note). Spans stay in memory
until the run ends. The note carries what the correctness check and
the per-layer counts need: the failing stage of an EstimationError,
the matrix size of an eigendecomposition and the count chosen by a
community-count scan.

Installing is all or nothing: a traced name that no module binds
raises TraceError, so a refactor that moves a function cannot silently
zero its layer.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from time import perf_counter

# span name -> (defining module, attribute). graph.WeightedGraph is the
# dataclass validation hook, which the generated __init__ looks up on the
# class at call time.
TRACED: dict[str, tuple[str, str]] = {
    "generator.sample_adjacency": ("mmdf.generator", "sample_adjacency"),
    "graph.WeightedGraph": ("mmdf.graph", "WeightedGraph.__post_init__"),
    "graph.sign_split": ("mmdf.graph", "sign_split"),
    "graph.load_edge_list": ("mmdf.graph", "load_edge_list"),
    "spectral.top_k_eigen": ("mmdf.spectral", "top_k_eigen"),
    "spectral.successive_projection": ("mmdf.spectral", "successive_projection"),
    "dfsp.dfsp": ("mmdf.dfsp", "dfsp"),
    "dfsp.memberships_from_vectors": ("mmdf.dfsp", "memberships_from_vectors"),
    "modularity.estimate_k": ("mmdf.modularity", "estimate_k"),
    "modularity.fuzzy_weighted_modularity": ("mmdf.modularity", "fuzzy_weighted_modularity"),
    "metrics.membership_errors": ("mmdf.metrics", "membership_errors"),
    "metrics.mislabel_count": ("mmdf.metrics", "mislabel_count"),
    "harness.run_simulation": ("mmdf.harness", "run_simulation"),
    "harness.detect_graph": ("mmdf.harness", "detect_graph"),
    "harness.run_dataset_suite": ("mmdf.harness", "run_dataset_suite"),
    "datasets.load_dataset": ("mmdf.datasets", "load_dataset"),
    "cli.main": ("mmdf.cli", "main"),
}

# what a span's note holds on success, by span name
_NOTE_ON_CALL = {
    "spectral.top_k_eigen": lambda args, kwargs: len(args[0] if args else kwargs["m"]),
}
_NOTE_ON_RESULT = {
    "modularity.estimate_k": lambda result: result.best_k,
}


class TraceError(RuntimeError):
    """The tracer could not cover a layer it is meant to cover."""


# parent is the index of the enclosing span, or -1
Span = namedtuple("Span", "name start end parent op note")


def _mmdf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmdf" or name.startswith("mmdf."))]


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}

    def install(self) -> None:
        if self._patches:
            raise TraceError("tracer already installed")
        modules = _mmdf_modules()
        for name, (module_name, attr) in TRACED.items():
            module = sys.modules.get(module_name)
            if module is None:
                self.uninstall()
                raise TraceError(f"{name}: module {module_name} is not imported")
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                target = getattr(owner, leaf, None) if owner is not None else None
                sites = [(owner, leaf, f"{module_name}.{attr}")] if target is not None else []
            else:
                target = getattr(module, leaf, None)
                sites = [(m, key, f"{m.__name__}.{key}")
                         for m in modules for key, value in vars(m).items()
                         if target is not None and value is target]
            if not sites:
                self.uninstall()
                raise TraceError(f"{name}: no mmdf module binds {module_name}.{attr}")
            wrapper = self._wrap(name, target)
            for owner, key, label in sites:
                self._patches.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapper)
            self.bindings[name] = [label for *_, label in sites]

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _wrap(self, name, target):
        spans, stack = self.spans, self._stack
        note_on_call = _NOTE_ON_CALL.get(name)
        note_on_result = _NOTE_ON_RESULT.get(name)

        def traced(*args, **kwargs):
            note = note_on_call(args, kwargs) if note_on_call else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                stage = getattr(exc, "stage", None)
                spans[index] = Span(name, start, end, parent, self.op,
                                    f"raised:{stage or type(exc).__name__}")
                raise
            end = perf_counter()
            stack.pop()
            if note_on_result:
                note = note_on_result(result)
            spans[index] = Span(name, start, end, parent, self.op, note)
            return result

        traced.__wrapped__ = target
        return traced

    def finished(self) -> list[Span]:
        """Completed spans; raises if a span is still open."""
        if self._stack or any(s is None for s in self.spans):
            raise TraceError("a traced call is still open")
        return self.spans


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its child spans cover (seconds).

    Calls are single-threaded, so children of one span never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
