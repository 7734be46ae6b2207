"""Byte-level format of every output file.

Each expected file is rendered here from the in-memory result, with the
per-file rule the outputs have always followed, and compared with the
file that the CLI or SweepReport wrote. The rules are spelled out per
file on purpose: they are the reference the shared writers must match.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from mmdf.cli import main
from mmdf.datasets import _fixture_path
from mmdf.dfsp import harden
from mmdf.generator import EdgeDistribution, Family, GeneratorSpec, check_connectivity
from mmdf.graph import load_edge_list
from mmdf.harness import ExperimentConfig, detect_graph, run_dataset_suite, run_simulation
from mmdf.metrics import mixedness_indices
from mmdf.modularity import estimate_k

from conftest import standard_spec


def text(lines):
    return "\n".join(lines) + "\n"


def blank_or(x, render=repr):
    return "" if x is None else render(x)


def dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sweep_csv(report):
    return text(["value,mean_hamming,mean_relative,accuracy_rate,failures,successes"] + [
        f"{c.value!r},{c.mean_hamming!r},{c.mean_relative!r},{blank_or(c.accuracy)},{c.failures},{c.successes}"
        for c in report.cells
    ])


def sweep_json(report):
    return dumps({"config": report.config, "blas_threads": report.blas_threads, "cells": [
        {"value": c.value, "mean_hamming": c.mean_hamming, "mean_relative": c.mean_relative,
         "accuracy_rate": c.accuracy, "failures": c.failures, "successes": c.successes,
         "failure_stages": c.failure_stages, "k_hat_counts": c.k_hat_counts}
        for c in report.cells
    ]})


def detect_files(best, n):
    fit = best.report
    eta = mixedness_indices(fit.memberships)
    # the fit's k magnitudes and, below k = n, the next one
    mags = [float(abs(v)) for v in fit.eigen.values] + ([fit.eigen.next_magnitude] if best.k < n else [])
    return {
        "memberships.csv": text([",".join(repr(float(x)) for x in row) for row in fit.memberships]),
        "labels.csv": text([str(int(x)) for x in harden(fit.memberships)]),
        "detect.json": dumps({
            "k": best.k, "q": best.modularity.q, "eta_mixed": eta.eta_mixed, "eta_pure": eta.eta_pure,
            "eigenvalue_magnitudes": mags, "spectral_gap": mags[best.k - 1] - fit.eigen.next_magnitude,
            "vertex_indices": fit.vertex_indices.tolist(), "clipped_rows": fit.clipped_rows,
            "degenerate_rows": fit.degenerate_rows, "corner_condition": fit.corner_condition,
        }),
    }


def scan_files(scan):
    return {
        "scan.csv": text(["k,q"] + [f"{p.k},{repr(p.modularity.q) if p.ok else ''}" for p in scan.curve]),
        "scan.json": dumps({"best_k": scan.best_k, "k_max": len(scan.curve),
                            "failures": {p.k: p.failure for p in scan.curve if not p.ok}}),
    }


def datasets_csv(rows):
    return text(["dataset,n,best_k,q,eta_mixed,eta_pure,mislabels,notice"] + [
        ",".join([r.name, blank_or(r.n, str), blank_or(r.best_k, str), blank_or(r.q_best),
                  blank_or(r.eta_mixed), blank_or(r.eta_pure), blank_or(r.mislabels, str),
                  (r.notice or "").replace(",", ";")])
        for r in rows
    ])


def assert_bytes(path, content):
    assert path.read_bytes() == content.encode(), path.name


def invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def tied_config():
    # three pairs of pure nodes and no edges between pairs: k = 3 cuts
    # through tied magnitudes, so every fit fails and the means are NaN
    dist = EdgeDistribution(Family.POINT_MASS)
    tied = GeneratorSpec(memberships=np.kron(np.eye(3), np.ones((2, 1))),
                         connectivity=check_connectivity(np.eye(3), dist), rho=1.0, distribution=dist)
    return ExperimentConfig(generator=tied, sweep_values=(1.0, 2.0), replications=2,
                            estimate_counts=True, k_scan_max=3, profile="ci")


def scanning_config(estimate_counts=True):
    spec = standard_spec(Family.NORMAL, rho=1.0, n=30, pure=6, sigma2=2.0)
    return ExperimentConfig(generator=spec, sweep_values=(5.0, 50.0), replications=3,
                            estimate_counts=estimate_counts, k_scan_max=4, seed=3, profile="ci")


@pytest.mark.parametrize("config", [tied_config, scanning_config, lambda: scanning_config(False)],
                         ids=["all-failed", "scanning", "no-scan"])
def test_sweep_csv(tmp_path, config):
    report = run_simulation(config())
    report.write_csv(tmp_path / "sweep.csv")
    assert_bytes(tmp_path / "sweep.csv", sweep_csv(report))


@pytest.mark.parametrize("estimate_counts", [True, False], ids=["scanning", "no-scan"])
def test_sweep_json(tmp_path, estimate_counts):
    report = run_simulation(scanning_config(estimate_counts))
    assert all(np.isfinite(c.mean_hamming) for c in report.cells)
    report.write_json(tmp_path / "sweep.json")
    assert_bytes(tmp_path / "sweep.json", sweep_json(report))


@pytest.mark.parametrize("args, k, k_max", [
    (["--k-max", "8"], None, 8),
    (["--k", "2"], 2, None),
    ([], None, None),
], ids=["auto-k-max", "fixed-k", "auto"])
def test_detect_files(tmp_path, args, k, k_max):
    edges, labels = _fixture_path("karate.edges"), _fixture_path("karate.labels")
    invoke(["detect", str(edges), "--labels", str(labels), "--out", str(tmp_path), *args])
    graph = load_edge_list(edges, labels_path=labels)
    best, _ = detect_graph(graph, k=k, k_max=k_max)
    expected = detect_files(best, graph.n)
    for name, content in expected.items():
        assert_bytes(tmp_path / name, content)


@pytest.mark.parametrize("network", ["two-8-cycles", "gahuku-gama"])
def test_scan_files(tmp_path, network):
    if network == "gahuku-gama":
        edges, labels = _fixture_path("gahuku_gama.edges"), _fixture_path("gahuku_gama.labels")
    else:
        # |λ| = 2 (x4), √2 (x8), 0 (x4): most k cut through a tie and fail,
        # with one- and two-digit k among the failures
        edges, labels = tmp_path / "g.edges", None
        edges.write_text("".join(f"{c + i + 1} {c + (i + 1) % 8 + 1}\n" for c in (0, 8) for i in range(8)))
    args = ["scan-k", str(edges), "--out", str(tmp_path / "out")]
    invoke(args + (["--labels", str(labels)] if labels else []))
    scan = estimate_k(load_edge_list(edges, labels_path=labels))
    if network == "two-8-cycles":
        assert [p.k for p in scan.curve if not p.ok] == [2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15]
    for name, content in scan_files(scan).items():
        assert_bytes(tmp_path / "out" / name, content)


def test_datasets_csv(tmp_path):
    # a cache path with a comma puts one in the missing dataset's notice
    cache = tmp_path / "a,b"
    cache.mkdir()
    # three disjoint triangles: the curated k = 2 cuts through |λ| = 2, 2, 2
    (cache / "polblogs.edges").write_text(
        "".join(f"{3 * t + a} {3 * t + b}\n" for t in range(3) for a, b in ((1, 2), (2, 3), (3, 1)))
    )
    (cache / "polblogs.truth").write_text("0\n" * 3 + "1\n" * 6)
    names = ["karate", "train-bombing", "polblogs", "slovene-parties"]
    invoke(["datasets", *(a for name in names for a in ("--only", name)), "--cache", str(cache),
            "--out", str(tmp_path / "out")])
    rows = run_dataset_suite(names, k_max=8, cache_dir=cache)
    assert rows[1].best_k is None and "," in rows[1].notice
    assert rows[2].mislabels is None and rows[2].notice
    assert_bytes(tmp_path / "out" / "datasets.csv", datasets_csv(rows))


def test_sweep_json_is_strict_json_and_csv_keeps_nan(tmp_path):
    # every replicate fails, so both means are NaN: JSON cannot hold a
    # NaN, so the JSON writes null, while the CSV keeps nan
    report = run_simulation(tied_config())
    report.write_json(tmp_path / "sweep.json")
    report.write_csv(tmp_path / "sweep.csv")

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    cells = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=refuse)["cells"]
    assert [(c["mean_hamming"], c["mean_relative"]) for c in cells] == [(None, None)] * 2
    nulled = replace(report, cells=tuple(replace(c, mean_hamming=None, mean_relative=None) for c in report.cells))
    assert_bytes(tmp_path / "sweep.json", sweep_json(nulled))
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == ["1.0,nan,nan,,2,0", "2.0,nan,nan,,2,0"]
