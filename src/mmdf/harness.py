"""Monte Carlo experiment harness and report emission.

run_simulation drives the full synthetic protocol: build the expected
adjacency for each sweep value, sample replicate networks, estimate
memberships, score errors against the generating truth, optionally scan
for the community count, and aggregate per sweep value. Replicate RNG
streams are spawned from one root seed so any replicate is reproducible
in isolation and results do not depend on scheduling order.

run_dataset_suite evaluates the estimator on registered real networks:
community-count scan, modularity at the selected count, purity indices,
and mislabel counts where curated truth exists.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datasets import DATASETS, DatasetMissing, load_dataset
from .dfsp import DfspReport, EstimationError, dfsp, harden
from .generator import GeneratorSpec, sample_adjacency
from .graph import WeightedGraph
from .metrics import accuracy_rate, membership_errors, mislabel_count, mixedness_indices
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
    "write_membership_csv",
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
        profile = d.get("profile", "paper")
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        return cls(
            generator=GeneratorSpec.from_dict(d["generator"]),
            sweep_parameter=d.get("sweep_parameter", "rho"),
            sweep_values=tuple(float(v) for v in d["sweep_values"]),
            replications=int(d.get("replications", PROFILES[profile])),
            estimate_counts=bool(d.get("estimate_counts", True)),
            k_scan_max=int(d.get("k_scan_max", 6)),
            seed=int(d.get("seed", 0)),
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
        lines = ["value,mean_hamming,mean_relative,accuracy_rate,failures,successes"]
        for c in self.cells:
            acc = "" if c.accuracy is None else repr(c.accuracy)
            lines.append(
                f"{c.value!r},{c.mean_hamming!r},{c.mean_relative!r},{acc},{c.failures},{c.successes}"
            )
        Path(path).write_text("\n".join(lines) + "\n")

    def write_json(self, path: str | Path) -> None:
        payload = {
            "config": self.config,
            "cells": [
                {
                    "value": c.value,
                    "mean_hamming": c.mean_hamming,
                    "mean_relative": c.mean_relative,
                    "accuracy_rate": c.accuracy,
                    "failures": c.failures,
                    "successes": c.successes,
                    "failure_stages": c.failure_stages,
                    "k_hat_counts": c.k_hat_counts,
                }
                for c in self.cells
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_replicate(args) -> tuple[float, float, int | None, str | None, bool]:
    """One protocol replicate; returns (hamming, relative, k_hat, stage,
    scan_failed): stage names the failing stage of the fit at the true k
    (None when it succeeded), and the scan runs only after a successful fit.

    One eigendecomposition serves both the fit at the true k and the scan.
    """
    spec, seed_words, estimate_counts, k_scan_max = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_words))
    graph, truth = sample_adjacency(spec, rng=rng)
    spectrum = top_k_eigen(graph, max(spec.k, k_scan_max) if estimate_counts else spec.k)
    try:
        report = dfsp(spectrum, spec.k)
    except EstimationError as exc:
        return (np.nan, np.nan, None, exc.stage, False)
    errors = membership_errors(report.memberships, truth.memberships)
    k_hat = None
    if estimate_counts:
        try:
            k_hat = estimate_k(graph, k_max=k_scan_max, eigen=spectrum).best_k
        except EstimationError:
            return (errors.hamming, errors.relative, None, None, True)
    return (errors.hamming, errors.relative, k_hat, None, False)


def run_simulation(config: ExperimentConfig, workers: int = 1) -> SweepReport:
    """Execute the sweep protocol and aggregate per sweep value.

    Deterministic given the config (including its seed), regardless of
    worker count: every replicate's RNG stream is derived from
    (config.seed, value index, replicate index).
    """
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
            ok = [res for res in results if res[3] is None]
            k_hats = [k for _, _, k, _, _ in ok if k is not None]
            accuracy = None
            if config.estimate_counts and k_hats:
                accuracy = accuracy_rate(k_hats, spec.k)
            stages = Counter(stage for *_, stage, _ in results if stage is not None)
            scans = Counter("failed" if failed else str(k) for _, _, k, _, failed in ok if failed or k is not None)
            cells.append(
                SweepCell(
                    value=float(value),
                    mean_hamming=float(np.mean([h for h, *_ in ok])) if ok else float("nan"),
                    mean_relative=float(np.mean([r for _, r, *_ in ok])) if ok else float("nan"),
                    accuracy=accuracy,
                    failures=len(results) - len(ok),
                    successes=len(ok),
                    failure_stages=dict(sorted(stages.items())),
                    k_hat_counts=dict(sorted(scans.items())),
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
    lines = ["dataset,n,best_k,q,eta_mixed,eta_pure,mislabels,notice"]
    for r in rows:
        fields = [
            r.name,
            "" if r.n is None else str(r.n),
            "" if r.best_k is None else str(r.best_k),
            "" if r.q_best is None else repr(r.q_best),
            "" if r.eta_mixed is None else repr(r.eta_mixed),
            "" if r.eta_pure is None else repr(r.eta_pure),
            "" if r.mislabels is None else str(r.mislabels),
            (r.notice or "").replace(",", ";"),
        ]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


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


def write_membership_csv(memberships: np.ndarray, path: str | Path) -> None:
    """One row per node, full decimal precision."""
    lines = [",".join(repr(float(x)) for x in row) for row in np.asarray(memberships)]
    Path(path).write_text("\n".join(lines) + "\n")
