"""One eigendecomposition, one sign split and one fit per graph and k.

Every entry point that fits or scores several community counts on one
graph shares a single top-k spectrum, fits each count once, and scores
every fit of a scan in one batch: one sign split, the one pass over W
that scoring makes. A fit at a known k where the graph is also scanned
(a replicate's true k, a dataset's curated k) is read off the scan with
KScanResult.fit. A datasets row is the best point of one scan plus the
mislabel count at the curated k, both from one decomposition at the
larger of the two counts. These tests count the calls at every
mmdf binding of top_k_eigen, sign_split, dfsp and
fuzzy_weighted_modularity, so a code path that decomposes, fits or
scores again, under any import name, is caught.
"""

import sys
from collections import defaultdict

import numpy as np
import pytest

import mmdf.graph
import mmdf.modularity
import mmdf.spectral
from mmdf.dfsp import EstimationError
from mmdf.generator import Family, sample_adjacency
from mmdf.graph import WeightedGraph
from mmdf.harness import _run_replicate, detect_graph, run_dataset_suite
from mmdf.modularity import estimate_k

from conftest import standard_spec


def _record_calls(monkeypatch, originals):
    """Argument records of calls to originals, by name, at every mmdf binding."""
    record = defaultdict(list)
    for name, original in originals.items():
        def counting(*args, _name=name, _original=original, **kwargs):
            record[_name].append(args)
            return _original(*args, **kwargs)

        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "mmdf" or module_name.startswith("mmdf.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
                    bound += 1
        assert bound, f"no mmdf module binds {name}"
    return record


@pytest.fixture
def calls(monkeypatch):
    """Argument records of top_k_eigen and sign_split calls, by name."""
    return _record_calls(monkeypatch, {
        "top_k_eigen": mmdf.spectral.top_k_eigen,
        "sign_split": mmdf.graph.sign_split,
    })


@pytest.fixture
def fits(monkeypatch):
    """Argument records of dfsp and fuzzy_weighted_modularity calls, by name."""
    return _record_calls(monkeypatch, {
        "dfsp": sys.modules["mmdf.dfsp"].dfsp,
        "fuzzy_weighted_modularity": mmdf.modularity.fuzzy_weighted_modularity,
    })


def decomposed_sizes(calls):
    return [(len(m), k) for m, k in calls["top_k_eigen"]]


@pytest.fixture
def graph():
    # sampled per test; a graph caches nothing
    g = sample_adjacency(standard_spec(Family.BERNOULLI, rho=0.9, n=60, pure=12, seed=3))
    return g


def test_estimate_k_decomposes_once_at_k_max(calls, graph):
    scan = estimate_k(graph, k_max=5)
    assert len(scan.curve) == 5
    assert decomposed_sizes(calls) == [(60, 5)]
    assert len(calls["sign_split"]) == 1


def test_estimate_k_reuses_a_passed_spectrum(calls, graph):
    spectrum = mmdf.spectral.top_k_eigen(graph.weights, 7)
    shared = estimate_k(graph, k_max=5, eigen=spectrum)
    assert decomposed_sizes(calls) == [(60, 7)]
    assert shared == estimate_k(graph, k_max=5)


def test_estimate_k_rejects_short_spectrum(graph):
    with pytest.raises(ValueError, match="out of range for a spectrum of 4 pairs"):
        estimate_k(graph, k_max=5, eigen=mmdf.spectral.top_k_eigen(graph.weights, 4))


def test_detect_auto_k_shares_one_spectrum(calls, graph):
    best, scan = detect_graph(graph, k_max=5)
    assert decomposed_sizes(calls) == [(60, 5)]
    assert len(calls["sign_split"]) == 1
    # the best fit's k pairs and |lambda_{k+1}| are the scan's spectrum
    assert best.k < 5
    assert np.array_equal(best.report.eigen.values, scan.eigen.values[:best.k])
    assert best.report.eigen.next_magnitude == abs(scan.eigen.values[best.k])


def test_detect_fixed_k_shares_one_spectrum(calls, graph):
    best, scan = detect_graph(graph, k=3)
    assert scan is None and best.k == 3 and best.ok
    assert decomposed_sizes(calls) == [(60, 3)]
    assert len(calls["sign_split"]) == 1
    assert len(best.report.eigen.values) == 3 and best.report.eigen.next_magnitude > 0


def test_detect_gap_matches_a_separate_probe(graph):
    best, _ = detect_graph(graph, k_max=5)
    spectrum = best.report.eigen
    probe = mmdf.spectral.top_k_eigen(graph.weights, best.k + 1)
    magnitudes = [float(abs(v)) for v in spectrum.values] + [spectrum.next_magnitude]
    assert magnitudes == [float(abs(v)) for v in probe.values]


def test_detect_rejects_counts_before_decomposing(monkeypatch, graph):
    def no_solver(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(np.linalg, "eigh", no_solver)
    monkeypatch.setattr(mmdf.spectral, "_partial_eigh", no_solver)
    for kwargs in ({"k": 0}, {"k": 61}, {"k_max": 0}, {"k_max": 61}):
        with pytest.raises(ValueError, match="out of range for n=60"):
            detect_graph(graph, **kwargs)


@pytest.mark.parametrize("estimate_counts,expected", [(True, [(60, 5)]), (False, [(60, 3)])])
def test_replicate_decomposes_once(calls, estimate_counts, expected):
    spec = standard_spec(Family.BERNOULLI, rho=0.9, n=60, pure=12)
    record = _run_replicate(spec, estimate_counts, 5, (1, 0, 0))
    # a fit, and with the scan its selected k
    assert record.errors is not None and record.failed_stage is None
    assert isinstance(record.k_hat, int) == estimate_counts
    assert decomposed_sizes(calls) == expected
    assert len(calls["sign_split"]) == (1 if estimate_counts else 0)


def test_dataset_suite_decomposes_once_per_graph(calls):
    rows = run_dataset_suite(["karate", "gahuku-gama", "slovene-parties"], k_max=12)
    assert [r.notice for r in rows] == [None, None, None]
    # each curated count lies inside the scan, so a graph is decomposed
    # only at the k_max pairs its scan fits; slovene-parties (n=10) scans
    # only up to n - 1
    assert decomposed_sizes(calls) == [(34, 12), (16, 12), (10, 9)]
    assert len(calls["sign_split"]) == 3


def fit_counts(fits):
    return len(fits["dfsp"]), len(fits["fuzzy_weighted_modularity"])


def scored_counts(fits):
    """The column count of every matrix scored, over all scoring calls
    (a batch is a list of matrices)."""
    return [m.shape[1] for _, ms in fits["fuzzy_weighted_modularity"]
            for m in (ms if isinstance(ms, list) else [ms])]


def test_detect_auto_k_fits_each_count_once(fits, graph):
    best, scan = detect_graph(graph, k_max=5)
    # five fits, scored in one call
    assert fit_counts(fits) == (5, 1)
    assert scored_counts(fits) == [1, 2, 3, 4, 5]
    # the scan's own point and report object, not a refit
    assert best is scan.point(scan.best_k)
    assert scan.fit(best.k) is best.report


def test_detect_fixed_k_fits_once(fits, graph):
    detect_graph(graph, k=3)
    assert fit_counts(fits) == (1, 1)


@pytest.mark.parametrize("estimate_counts,expected", [(True, 5), (False, 1)])
def test_replicate_fits_each_count_once(fits, estimate_counts, expected):
    # the true k (3) lies inside a k_max=5 scan, so its fit is the scan's
    spec = standard_spec(Family.BERNOULLI, rho=0.9, n=60, pure=12)
    assert _run_replicate(spec, estimate_counts, 5, (1, 0, 0)).errors is not None
    assert len(fits["dfsp"]) == expected
    assert [k for _, k in fits["dfsp"]].count(3) == 1


def test_scan_fit_reads_the_scan_or_its_spectrum(graph):
    spectrum = mmdf.spectral.top_k_eigen(graph.weights, 7)
    scan = estimate_k(graph, k_max=5, eigen=spectrum)
    assert scan.eigen is spectrum
    # a scanned k: the point's own report object
    assert scan.fit(3) is scan.point(3).report
    # beyond k_max, inside the spectrum: the fit dfsp makes from it
    beyond = scan.fit(6)
    direct = sys.modules["mmdf.dfsp"].dfsp(spectrum, 6)
    assert np.array_equal(beyond.memberships, direct.memberships)
    assert np.array_equal(beyond.vertex_indices, direct.vertex_indices)


def test_scan_fit_raises_where_the_scan_failed():
    # a path on four nodes has eigenvalues +-a, +-b, so k=3 cuts a tie
    w = np.zeros((4, 4))
    for i in range(3):
        w[i, i + 1] = w[i + 1, i] = 1.0
    scan = estimate_k(WeightedGraph(w), k_max=3)
    failed = scan.point(3)
    assert not failed.ok
    with pytest.raises(EstimationError) as exc:
        scan.fit(3)
    assert failed.failure.startswith(f"{exc.value.stage}: ")
    assert failed.failure == f"{exc.value.stage}: {exc.value}"


def test_dataset_suite_fits_each_count_once(fits):
    # karate's curated count (2) lies inside the scan, so nothing is refitted
    rows = run_dataset_suite(["karate"], k_max=8)
    assert rows[0].notice is None and rows[0].mislabels is not None
    assert fit_counts(fits) == (8, 1)
    assert scored_counts(fits) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_dataset_suite_fits_a_curated_count_beyond_the_scan(fits, calls):
    # gahuku-gama's curated count (3) lies beyond a k_max=2 scan, so the
    # one decomposition reaches it
    rows = run_dataset_suite(["gahuku-gama"], k_max=2)
    assert rows[0].mislabels is not None
    assert decomposed_sizes(calls) == [(16, 3)]
    assert [k for _, k in fits["dfsp"]] == [1, 2, 3]
    # the scan's two fits are scored in one call; the curated fit is not scored
    assert len(fits["fuzzy_weighted_modularity"]) == 1
    assert scored_counts(fits) == [1, 2]


def test_scan_point_keeps_its_fit_out_of_equality(graph):
    scan = estimate_k(graph, k_max=3)
    assert [scan.point(k).k for k in (1, 2, 3)] == [1, 2, 3]
    assert scan.point(0) is None and scan.point(4) is None
    assert scan.point(2).report.memberships.shape == (60, 2)
    assert "report" not in repr(scan)
