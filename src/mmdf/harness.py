"""Monte Carlo experiment harness and report emission.

run_simulation drives the full synthetic protocol: from the generator
spec at each sweep value (which ExperimentConfig validates once), sample
replicate networks, estimate memberships, score errors against the
generating truth, optionally scan for the community count, and
aggregate per sweep value. Replicate RNG streams are spawned from one
root seed so any replicate is reproducible in isolation and results do
not depend on scheduling order.

run_dataset_suite scans each registered real network from one
decomposition and adds the mislabel count of the fit at the curated
community count, where curated labels exist.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .datasets import DATASETS, DatasetMissing, load_dataset
from .dfsp import EstimationError, dfsp, harden
from .generator import GeneratorSpec, as_kind, read_key, sample_adjacency
from .graph import ParseError, WeightedGraph, read_text
from .metrics import ErrorPair, accuracy_rate, membership_errors, mislabel_count, mixedness_indices
from .modularity import KScanPoint, KScanResult, estimate_k, fuzzy_weighted_modularity
from .spectral import blas_threads, set_blas_threads, top_k_eigen

PROFILES = {"paper": 100, "ci": 25}
# the JSON kind of each config key but the generator, in field order
_KEYS = {"sweep_parameter": "str", "sweep_values": "numbers", "replications": "int",
         "estimate_counts": "bool", "k_scan_max": "int", "seed": "int", "profile": "str"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation sweep description.

    sweep_parameter currently supports "rho" and "sparsity"; values are
    validated against the weight family before any sampling happens.
    profile names a replication budget of PROFILES, which replications
    takes when it is None. estimate_counts toggles the community-count
    scan per replicate; k_scan_max bounds that scan and must lie in 1..n
    when it is on. Every field but generator and sweep_values is taken
    as_kind of its key, so from_dict reads back what to_dict writes.
    """

    generator: GeneratorSpec
    sweep_parameter: str = "rho"
    sweep_values: tuple[float, ...] = ()
    replications: int | None = None
    estimate_counts: bool = True
    k_scan_max: int = 6
    seed: int = 0
    profile: str = "paper"
    # the validated spec at each sweep value, built once by __post_init__
    specs: tuple[GeneratorSpec, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for key, kind in _KEYS.items():
            if key != "sweep_values":
                object.__setattr__(self, key, as_kind(key, getattr(self, key), kind, optional=key == "replications"))
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.replications is None:
            object.__setattr__(self, "replications", PROFILES[self.profile])
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in self.sweep_values))
        if self.sweep_parameter not in ("rho", "sparsity"):
            raise ValueError(f"unsupported sweep parameter {self.sweep_parameter!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.estimate_counts and not 1 <= self.k_scan_max <= self.generator.n:
            raise ValueError(
                f"k_scan_max={self.k_scan_max} out of range for n={self.generator.n}"
            )
        # raises on inadmissible values
        specs = tuple(replace(self.generator, **{self.sweep_parameter: v}) for v in self.sweep_values)
        object.__setattr__(self, "specs", specs)

    def to_dict(self) -> dict:
        return {**{key: getattr(self, key) for key in _KEYS},
                "generator": self.generator.to_dict(), "sweep_values": list(self.sweep_values)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Read a parsed JSON config; a value of the wrong JSON type
        raises ValueError naming its key, an absent key takes its field's
        default, and unknown keys are ignored."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        return cls(GeneratorSpec.from_dict(read_key(d, "generator", "object")),
                   **{key: read_key(d, key, kind) for key, kind in _KEYS.items() if key in d})

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        """Read a UTF-8 JSON config file as from_dict reads its object; a
        file that is not UTF-8 or not JSON raises ParseError naming it and
        the line."""
        text = read_text(path)
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"{exc.msg} (column {exc.colno})") from None
        return cls.from_dict(d)


@dataclass(frozen=True)
class SweepCell:
    """Aggregates for one sweep value over its replicates' records.

    failure_stages counts the failed fits at the true k by the stage that
    failed. k_hat_counts counts the records' k_hat over the successful
    fits, keyed by str(k), with scans that failed at every k under
    "failed"; it is empty when the sweep does not scan.
    """

    value: float
    mean_hamming: float
    mean_relative: float
    accuracy: float | None
    failures: int
    successes: int
    failure_stages: dict[str, int] = field(default_factory=dict)
    k_hat_counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepReport:
    """The cells of a sweep, its config, and the BLAS thread count each
    process fitted on (None where numpy's BLAS does not report one),
    which the last digits of the fits can depend on. Reports compare by
    config and cells."""

    cells: tuple[SweepCell, ...]
    config: dict
    blas_threads: int | None = field(default=None, compare=False)

    def write_csv(self, path: str | Path) -> None:
        # the first six fields; the stage and k-hat counts go to the JSON only
        write_csv(path, (astuple(c)[:6] for c in self.cells),
                  header=("value", "mean_hamming", "mean_relative", "accuracy_rate", "failures", "successes"))

    def write_json(self, path: str | Path) -> None:
        cells = [asdict(c) for c in self.cells]
        for c in cells:
            c["accuracy_rate"] = c.pop("accuracy")
        write_json(path, {"config": self.config, "cells": cells, "blas_threads": self.blas_threads})


@dataclass(frozen=True)
class _Replicate:
    """A replicate's outcome, kept small for the process pool: the errors
    at the true k, or None and the stage where that fit failed; and the k
    the scan selected, "failed" if it failed at every k, or None unscanned."""

    errors: ErrorPair | None
    failed_stage: str | None
    k_hat: int | str | None


def _run_replicate(spec: GeneratorSpec, estimate_counts: bool, k_scan_max: int, seed_words) -> _Replicate:
    """One replicate of spec, on the RNG stream of seed_words, as its _Replicate record.

    One eigendecomposition serves the scan and the fit at the true k, which
    a scanning replicate reads off the scan instead of fitting it again. It
    reduces the sampled weights in place, which no other code holds, so a
    replicate never holds a second n x n matrix.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_words))
    graph = sample_adjacency(spec, rng=rng)
    spectrum = top_k_eigen(graph, max(spec.k, k_scan_max) if estimate_counts else spec.k, in_place=True)
    scan = k_hat = None
    if estimate_counts:
        try:
            scan = estimate_k(graph, k_max=k_scan_max, eigen=spectrum)
            k_hat = scan.best_k
        except EstimationError:
            k_hat = "failed"
    try:
        report = scan.fit(spec.k) if scan is not None else dfsp(spectrum, spec.k)
    except EstimationError as exc:
        return _Replicate(None, exc.stage, k_hat)
    return _Replicate(membership_errors(report.memberships, spec.memberships), None, k_hat)


def _sweep_cell(value: float, true_k: int, records: list[_Replicate]) -> SweepCell:
    """One sweep value's SweepCell from its replicates' records, in replicate order."""
    ok = [r for r in records if r.errors is not None]
    scans = [r.k_hat for r in ok if r.k_hat is not None]
    k_hats = [k for k in scans if k != "failed"]
    return SweepCell(
        value=float(value),
        mean_hamming=float(np.mean([r.errors.hamming for r in ok])) if ok else float("nan"),
        mean_relative=float(np.mean([r.errors.relative for r in ok])) if ok else float("nan"),
        accuracy=accuracy_rate(k_hats, true_k) if k_hats else None,
        failures=len(records) - len(ok),
        successes=len(ok),
        failure_stages=dict(sorted(Counter(r.failed_stage for r in records if r.errors is None).items())),
        k_hat_counts=dict(sorted(Counter(map(str, scans)).items())),
    )


def run_simulation(config: ExperimentConfig, workers: int = 1) -> SweepReport:
    """Execute the sweep protocol; _sweep_cell aggregates each value's records.

    Deterministic given the config (including its seed) and the BLAS
    thread count per process: every replicate's RNG stream is derived
    from (config.seed, value index, replicate index). With workers > 1,
    each pool process runs max(1, cores // workers) BLAS threads, cores
    being those this process may use, or os.cpu_count() where the
    platform has no os.sched_getaffinity; workers == 1 runs here, with
    the BLAS as it is. The report records the thread count either way.
    Raises ValueError, before any sampling, unless workers >= 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = []
    threads = blas_threads()
    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            pinned = max(1, cores // workers)
            threads = None if threads is None else pinned
            run = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=set_blas_threads, initargs=(pinned,))).map
        for vi, (value, spec) in enumerate(zip(config.sweep_values, config.specs)):
            replicate = partial(_run_replicate, spec, config.estimate_counts, config.k_scan_max)
            seeds = [(config.seed, vi, r) for r in range(config.replications)]
            cells.append(_sweep_cell(value, spec.k, list(run(replicate, seeds))))
    return SweepReport(cells=tuple(cells), config=config.to_dict(), blas_threads=threads)


@dataclass(frozen=True)
class DatasetRow:
    """One dataset's worth of suite output (blank fields were not
    computable: no curated truth, or the notice says why)."""

    name: str
    n: int | None
    best_k: int | None = None
    q_best: float | None = None
    eta_mixed: float | None = None
    eta_pure: float | None = None
    mislabels: int | None = None
    notice: str | None = None


def run_dataset_suite(
    names: list[str] | None = None,
    k_max: int = 8,
    cache_dir: Path | str | None = None,
) -> list[DatasetRow]:
    """Evaluate the estimator across registered real networks: names, in
    first-appearance order and once each, or else every registered one.

    Each network is decomposed once, at max(K, curated k) pairs for
    K = min(k_max, n - 1). A row is the best point of the scan up to K,
    plus the mislabel count of the scan's fit at the curated count where
    curated labels exist. A network that is missing (unfetched), or that
    loads but cannot be fitted, gets a row with a notice; a malformed
    file raises ValueError naming it. Raises ValueError, before loading
    anything, for an unknown name or k_max < 1.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    names = list(dict.fromkeys(names or DATASETS))
    for name in names:
        if name not in DATASETS:
            raise ValueError(f"unknown dataset {name!r}; known: {', '.join(DATASETS)}")
    rows = []
    for name in names:
        try:
            ds = load_dataset(name, cache_dir=cache_dir)
        except DatasetMissing as exc:
            rows.append(DatasetRow(name, None, notice=str(exc)))
            continue
        graph, true_k = ds.graph, ds.info.true_k if ds.truth is not None else None
        if graph.n < 2:
            rows.append(DatasetRow(name, graph.n, notice=f"a scan needs two nodes; the graph has {graph.n}"))
            continue
        scan_k = min(k_max, graph.n - 1)
        try:
            scan = estimate_k(graph, k_max=scan_k, eigen=top_k_eigen(graph, max(scan_k, true_k or 1)))
        except (EstimationError, ValueError) as exc:  # ValueError: no finite spectrum
            rows.append(DatasetRow(name, graph.n, notice=str(exc)))
            continue
        mislabels = notice = None
        if true_k:
            try:
                mislabels = mislabel_count(harden(scan.fit(true_k).memberships), ds.truth)
            except EstimationError as exc:
                notice = f"no fit at the curated k={true_k}: {exc.stage}: {exc}"
        best = scan.point(scan.best_k)
        eta = mixedness_indices(best.report.memberships)
        rows.append(DatasetRow(name, graph.n, best.k, best.modularity.q, eta.eta_mixed,
                               eta.eta_pure, mislabels, notice))
    return rows


def write_dataset_csv(rows: list[DatasetRow], path: str | Path) -> None:
    """One row per dataset; a comma in the notice becomes ";"."""
    write_csv(path, ((*astuple(r)[:-1], r.notice and r.notice.replace(",", ";")) for r in rows),
              header=("dataset", "n", "best_k", "q", "eta_mixed", "eta_pure", "mislabels", "notice"))


def detect_graph(
    graph: WeightedGraph, k: int | None = None, k_max: int | None = None
) -> tuple[KScanPoint, KScanResult | None]:
    """Fit and score one graph, scanning for k when not given.

    Without k this is the best point of estimate_k(graph, k_max=k_max)
    and that scan; with k, k_max is ignored and the point is the one fit
    dfsp(top_k_eigen(graph, k), k), scored, with no scan. Either way the
    point's report is the fit that was scored, with its spectrum. Raises
    ValueError, before any decomposition, unless k or k_max lies in 1..n.
    """
    if k is None:
        scan = estimate_k(graph, k_max=k_max)
        return scan.point(scan.best_k), scan
    fit = dfsp(top_k_eigen(graph, k), k)
    return KScanPoint(k, fuzzy_weighted_modularity(graph, fit.memberships), report=fit), None


def _cell(x) -> str:
    return "" if x is None else repr(float(x)) if isinstance(x, float) else str(x)


def write_csv(path: str | Path, rows, header=None) -> None:
    """Every CSV output: one line per row, after the header if given. A
    None cell is blank, a float is repr(float(x)) (full precision, and
    nan for NaN), anything else is str(x)."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: str | Path, payload: dict) -> None:
    """Every JSON output: indented, keys sorted, and strict JSON, so a
    non-finite float (which JSON cannot hold) is written as null."""
    # keys are sorted in the first pass, where int keys sort as numbers;
    # parsing it back turns NaN and Infinity into None and keeps the order
    plain = json.loads(json.dumps(payload, sort_keys=True), parse_constant=lambda _: None)
    Path(path).write_text(json.dumps(plain, indent=2, allow_nan=False) + "\n", encoding="utf-8")
