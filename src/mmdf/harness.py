"""Monte Carlo experiment harness and report emission.

run_simulation drives the full synthetic protocol: from the generator
spec at each sweep value (which ExperimentConfig validates once), sample
replicate networks, estimate memberships, score errors against the
generating truth, optionally scan for the community count, and
aggregate per sweep value. Replicate RNG streams are spawned from one
root seed so any replicate is reproducible in isolation and results do
not depend on scheduling order.

run_dataset_suite evaluates the estimator on registered real networks:
community-count scan, modularity at the selected count, purity indices,
and mislabel counts where curated truth exists.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .datasets import DATASETS, DatasetMissing, load_dataset
from .dfsp import DfspReport, EstimationError, dfsp, harden
from .generator import GeneratorSpec, read_key, sample_adjacency
from .graph import WeightedGraph
from .metrics import ErrorPair, accuracy_rate, membership_errors, mislabel_count, mixedness_indices
from .modularity import DEFAULT_K_MAX, KScanResult, estimate_k, fuzzy_weighted_modularity
from .spectral import top_k_eigen

__all__ = [
    "ExperimentConfig",
    "SweepCell",
    "SweepReport",
    "DatasetRow",
    "DetectReport",
    "run_simulation",
    "run_dataset_suite",
    "detect_graph",
    "write_csv",
    "write_json",
]

PROFILES = {"paper": 100, "ci": 25}


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation sweep description.

    sweep_parameter currently supports "rho" and "sparsity"; values are
    validated against the weight family before any sampling happens.
    estimate_counts toggles the community-count scan per replicate;
    k_scan_max bounds that scan and must lie in 1..n when it is on.
    """

    generator: GeneratorSpec
    sweep_parameter: str = "rho"
    sweep_values: tuple[float, ...] = ()
    replications: int = 100
    estimate_counts: bool = True
    k_scan_max: int = 6
    seed: int = 0
    profile: str = "paper"
    # the validated spec at each sweep value, built once by __post_init__
    specs: tuple[GeneratorSpec, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
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
        specs = tuple(replace(self.generator, **{self.sweep_parameter: float(v)})
                      for v in self.sweep_values)
        object.__setattr__(self, "specs", specs)

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.to_dict(),
            "sweep_parameter": self.sweep_parameter,
            "sweep_values": list(self.sweep_values),
            "replications": self.replications,
            "estimate_counts": self.estimate_counts,
            "k_scan_max": self.k_scan_max,
            "seed": self.seed,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Read a parsed JSON config; a value of the wrong JSON type
        raises ValueError naming its key, and unknown keys are ignored."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        profile = read_key(d, "profile", "str", "paper")
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        return cls(
            generator=GeneratorSpec.from_dict(read_key(d, "generator", "object")),
            sweep_parameter=read_key(d, "sweep_parameter", "str", "rho"),
            sweep_values=tuple(float(v) for v in read_key(d, "sweep_values", "numbers")),
            replications=read_key(d, "replications", "int", PROFILES[profile]),
            estimate_counts=read_key(d, "estimate_counts", "bool", True),
            k_scan_max=read_key(d, "k_scan_max", "int", 6),
            seed=read_key(d, "seed", "int", 0),
            profile=profile,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class SweepCell:
    """Aggregates for one sweep value over its replicates.

    failure_stages counts the failed fits at the true k by the stage that
    failed. k_hat_counts counts the k the scan selected over the
    successful fits, keyed by str(k), with scans that failed at every k
    under "failed"; it is empty when the sweep does not scan.
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
    cells: tuple[SweepCell, ...]
    config: dict

    def write_csv(self, path: str | Path) -> None:
        # the first six fields; the stage and k-hat counts go to the JSON only
        write_csv(path, (astuple(c)[:6] for c in self.cells),
                  header=("value", "mean_hamming", "mean_relative", "accuracy_rate", "failures", "successes"))

    def write_json(self, path: str | Path) -> None:
        cells = [asdict(c) for c in self.cells]
        for c in cells:
            c["accuracy_rate"] = c.pop("accuracy")
        write_json(path, {"config": self.config, "cells": cells})


def _run_replicate(args) -> tuple[ErrorPair | None, str | None]:
    """One protocol replicate; returns (errors, outcome). When the fit at
    the true k fails, errors is None and outcome the failing stage;
    otherwise outcome is the k the scan selected as a str, "failed" when
    the scan failed at every k, or None when the sweep does not scan.

    One eigendecomposition serves both the fit at the true k and the scan.
    """
    spec, seed_words, estimate_counts, k_scan_max = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_words))
    graph, truth = sample_adjacency(spec, rng=rng)
    spectrum = top_k_eigen(graph, max(spec.k, k_scan_max) if estimate_counts else spec.k)
    try:
        report = dfsp(spectrum, spec.k)
    except EstimationError as exc:
        return None, exc.stage
    errors = membership_errors(report.memberships, truth.memberships)
    if not estimate_counts:
        return errors, None
    try:
        return errors, str(estimate_k(graph, k_max=k_scan_max, eigen=spectrum).best_k)
    except EstimationError:
        return errors, "failed"


def run_simulation(config: ExperimentConfig, workers: int = 1) -> SweepReport:
    """Execute the sweep protocol and aggregate per sweep value.

    Deterministic given the config (including its seed), regardless of
    worker count: every replicate's RNG stream is derived from
    (config.seed, value index, replicate index). Raises ValueError,
    before any sampling, unless workers >= 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = []
    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for vi, (value, spec) in enumerate(zip(config.sweep_values, config.specs)):
            tasks = [
                (spec, (config.seed, vi, r), config.estimate_counts, config.k_scan_max)
                for r in range(config.replications)
            ]
            results = list(run(_run_replicate, tasks))
            ok = [errors for errors, _ in results if errors is not None]
            stages = Counter(outcome for errors, outcome in results if errors is None)
            scans = [outcome for errors, outcome in results if errors is not None and outcome is not None]
            k_hats = [int(k) for k in scans if k != "failed"]
            cells.append(
                SweepCell(
                    value=float(value),
                    mean_hamming=float(np.mean([e.hamming for e in ok])) if ok else float("nan"),
                    mean_relative=float(np.mean([e.relative for e in ok])) if ok else float("nan"),
                    accuracy=accuracy_rate(k_hats, spec.k) if k_hats else None,
                    failures=len(results) - len(ok),
                    successes=len(ok),
                    failure_stages=dict(sorted(stages.items())),
                    k_hat_counts=dict(sorted(Counter(scans).items())),
                )
            )
    return SweepReport(cells=tuple(cells), config=config.to_dict())


@dataclass(frozen=True)
class DatasetRow:
    """One dataset's worth of suite output (blank fields were not
    computable: no curated truth, or the notice says why)."""

    name: str
    n: int | None
    best_k: int | None
    q_best: float | None
    eta_mixed: float | None
    eta_pure: float | None
    mislabels: int | None
    notice: str | None = None


def run_dataset_suite(
    names: list[str] | None = None,
    k_max: int = 8,
    cache_dir: Path | str | None = None,
) -> list[DatasetRow]:
    """Evaluate the estimator across registered real networks.

    Missing (unfetched) datasets produce a row with a notice instead of
    failing the suite. Each graph is decomposed once and each count is
    fitted once: the selected count's fit and score, and the curated
    count's fit when the scan reached it, are read off the scan; only a
    curated count the scan did not reach is fitted from the spectrum.
    """
    rows = []
    for name in names or list(DATASETS):
        try:
            ds = load_dataset(name, cache_dir=cache_dir)
        except DatasetMissing as exc:
            rows.append(DatasetRow(name, None, None, None, None, None, None, notice=str(exc)))
            continue
        scan_max = min(k_max, ds.graph.n - 1)
        true_k = None
        if ds.truth is not None and ds.truth.labels is not None and ds.info.true_k:
            true_k = ds.info.true_k
        spectrum = top_k_eigen(ds.graph, max(scan_max, true_k or 0))
        try:
            scan = estimate_k(ds.graph, k_max=scan_max, eigen=spectrum)
        except EstimationError as exc:
            rows.append(DatasetRow(name, ds.graph.n, None, None, None, None, None, notice=str(exc)))
            continue
        best = scan.point(scan.best_k)
        eta = mixedness_indices(best.report.memberships)
        mislabels = notice = None
        if true_k is not None:
            at_true = scan.point(true_k)
            if at_true is not None:
                report, failure = at_true.report, at_true.failure
            else:
                try:
                    report, failure = dfsp(spectrum, true_k), None
                except EstimationError as exc:
                    report, failure = None, f"{exc.stage}: {exc}"
            if report is None:
                notice = f"no fit at the curated k={true_k}: {failure}"
            else:
                mislabels = mislabel_count(harden(report.memberships), ds.truth.labels)
        rows.append(
            DatasetRow(
                name=name,
                n=ds.graph.n,
                best_k=scan.best_k,
                q_best=best.modularity.q,
                eta_mixed=eta.eta_mixed,
                eta_pure=eta.eta_pure,
                mislabels=mislabels,
                notice=notice,
            )
        )
    return rows


def write_dataset_csv(rows: list[DatasetRow], path: str | Path) -> None:
    """One row per dataset; a comma in the notice becomes ";"."""
    write_csv(path, ((*astuple(r)[:-1], r.notice and r.notice.replace(",", ";")) for r in rows),
              header=("dataset", "n", "best_k", "q", "eta_mixed", "eta_pure", "mislabels", "notice"))


@dataclass(frozen=True)
class DetectReport:
    """Single-network detection output; fit is the report of the fit at
    best_k, with its corners and clipping counts."""

    memberships: np.ndarray
    labels: np.ndarray
    best_k: int
    q: float
    eta_mixed: float
    eta_pure: float
    eigenvalue_magnitudes: tuple[float, ...]  # top k+1, for the spectral gap
    spectral_gap: float
    fit: DfspReport
    scan: KScanResult | None = None


def detect_graph(graph: WeightedGraph, k: int | None = None, k_max: int | None = None) -> DetectReport:
    """Estimate memberships for one graph, scanning for k when not given.

    k_max is ignored when k is given; otherwise it defaults to
    min(DEFAULT_K_MAX, n - 1). One eigendecomposition of min(c + 1, n)
    pairs, where c is k or k_max, serves the scan, the fit and the k+1
    magnitudes of the spectral gap; a scan's fit and score at the
    selected k are reused, not recomputed. Raises ValueError, before any
    decomposition, unless c lies in 1..n.
    """
    if k is None and k_max is None:
        k_max = min(DEFAULT_K_MAX, graph.n - 1)
    name, ceiling = ("k", k) if k is not None else ("k_max", k_max)
    if not 1 <= ceiling <= graph.n:
        raise ValueError(f"{name}={ceiling} out of range for n={graph.n}")
    spectrum = top_k_eigen(graph, min(ceiling + 1, graph.n))
    scan = None
    if k is None:
        scan = estimate_k(graph, k_max=k_max, eigen=spectrum)
        best = scan.point(scan.best_k)
        k, report, q = best.k, best.report, best.modularity
    else:
        report = dfsp(spectrum, k)
        q = fuzzy_weighted_modularity(graph, report.memberships)
    eta = mixedness_indices(report.memberships)
    mags = tuple(float(abs(v)) for v in spectrum.values[: k + 1])
    gap = mags[k - 1] - (mags[k] if len(mags) > k else 0.0)
    return DetectReport(
        memberships=report.memberships,
        labels=harden(report.memberships),
        best_k=k,
        q=q.q,
        eta_mixed=eta.eta_mixed,
        eta_pure=eta.eta_pure,
        eigenvalue_magnitudes=mags,
        spectral_gap=gap,
        fit=report,
        scan=scan,
    )


def _cell(x) -> str:
    return "" if x is None else repr(float(x)) if isinstance(x, float) else str(x)


def write_csv(path: str | Path, rows, header=None) -> None:
    """Every CSV output: one line per row, after the header if given. A
    None cell is blank, a float is repr(float(x)) (full precision, and
    nan for NaN), anything else is str(x)."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    """Every JSON output: indented, keys sorted, and strict JSON, so a
    non-finite float (which JSON cannot hold) is written as null."""
    # keys are sorted in the first pass, where int keys sort as numbers;
    # parsing it back turns NaN and Infinity into None and keeps the order
    plain = json.loads(json.dumps(payload, sort_keys=True), parse_constant=lambda _: None)
    Path(path).write_text(json.dumps(plain, indent=2, allow_nan=False) + "\n")
