"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria:
  1. exact membership recovery from noise-free expected adjacencies
  2. hard-label recovery on the real networks with curated truth
  3. community-count selection across the real networks
  4. modularity regression values + reduction to the classical
     hard-partition modularity
  5. purity/mixedness index regression values
  6. Monte Carlo trend behavior per weight family
  7. core invariant bundle (contracts, invariances, determinism)

Non-bundled datasets participate only when their cache files exist;
missing ones are reported as SKIP lines, never silent.
"""

import json
import time
from itertools import permutations

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import spearmanr

from mmdf import (
    WeightedGraph,
    dfsp,
    fuzzy_weighted_modularity,
    harden,
    membership_errors,
    mislabel_count,
    mixedness_indices,
)
from mmdf.cli import main as cli_main
from mmdf.datasets import DatasetMissing, load_dataset
from mmdf.generator import (
    EdgeDistribution,
    Family,
    GeneratorSpec,
    check_connectivity,
    population_adjacency,
    sample_adjacency,
)
from mmdf.harness import ExperimentConfig, run_simulation
from mmdf.metrics import accuracy_rate
from mmdf.modularity import estimate_k
from mmdf.spectral import successive_projection

from conftest import random_valid_spec, standard_spec


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def max_row_l1_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    k = truth.shape[1]
    return min(
        float(np.abs(estimate - truth[:, perm]).sum(axis=1).max())
        for perm in permutations(range(k))
    )


def test_criterion_1_ideal_exactness():
    rng = np.random.default_rng(20240001)
    start = time.time()
    worst = 0.0
    for trial in range(50):
        k = 2 + trial % 4
        n = int(rng.integers(30, 301))
        signed = trial % 2 == 0
        rows, p = random_valid_spec(rng, k, n, signed=signed)
        dist = EdgeDistribution(Family.NORMAL, sigma2=1.0)
        spec = GeneratorSpec(
            memberships=rows,
            connectivity=check_connectivity(p, dist),
            rho=float(rng.uniform(0.3, 20.0)),
            distribution=dist,
        )
        omega = population_adjacency(spec)
        estimate = dfsp(omega, k).memberships
        worst = max(worst, max_row_l1_error(estimate, rows))
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(1, ok, f"50 noise-free recoveries, max row-l1 error {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_2_real_data_recovery():
    start = time.time()
    details = []
    ok = True

    gahuku = load_dataset("gahuku-gama")
    wrong = mislabel_count(harden(dfsp(gahuku.graph.weights, 3).memberships), gahuku.truth)
    details.append(f"gahuku-gama {wrong}/16")
    ok &= wrong == 0

    karate = load_dataset("karate")
    wrong = mislabel_count(harden(dfsp(karate.graph.weights, 2).memberships), karate.truth)
    details.append(f"karate {wrong}/34")
    ok &= wrong == 0

    try:
        blogs = load_dataset("polblogs")
        wrong = mislabel_count(harden(dfsp(blogs.graph.weights, 2).memberships), blogs.truth)
        details.append(f"polblogs {wrong}/1222 (<= 69 required)")
        ok &= wrong <= 69
    except DatasetMissing:
        details.append("polblogs SKIP (not cached; see scripts/fetch_datasets.py)")

    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report(2, ok, ", ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_3_community_count_selection():
    expected = {
        "gahuku-gama": 3,
        "karate": 2,
        "slovene-parties": 2,
        "train-bombing": 2,
        "les-miserables": 2,
        "polblogs": 2,
    }
    mandatory = {"gahuku-gama", "karate", "slovene-parties"}
    details = []
    ok = True
    for name, true_k in expected.items():
        try:
            ds = load_dataset(name)
        except DatasetMissing:
            assert name not in mandatory
            details.append(f"{name} SKIP (not cached)")
            continue
        best_k = estimate_k(ds.graph, k_max=min(8, ds.graph.n - 1)).best_k
        details.append(f"{name} k={best_k} (want {true_k})")
        ok &= best_k == true_k
    report(3, ok, ", ".join(details))
    assert ok


def newman_girvan_oracle(weights: np.ndarray, labels: np.ndarray) -> float:
    n = weights.shape[0]
    degrees = weights.sum(axis=1)
    two_m = degrees.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += weights[i, j] - degrees[i] * degrees[j] / two_m
    return q / two_m


def test_criterion_4_modularity_regression():
    targets = {"gahuku-gama": 0.4000, "karate": 0.3734, "slovene-parties": 0.4492}
    details = []
    ok = True
    for name, target in targets.items():
        ds = load_dataset(name)
        scan = estimate_k(ds.graph, k_max=8)
        q = fuzzy_weighted_modularity(ds.graph, dfsp(ds.graph.weights, scan.best_k).memberships).q
        details.append(f"{name} q={q:.4f} (want {target:.4f} +- 0.02)")
        ok &= abs(q - target) <= 0.02

    rng = np.random.default_rng(20240004)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 16))
        w = np.abs(np.round(rng.normal(size=(n, n)), 3))
        w = w + w.T
        np.fill_diagonal(w, 0.0)
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        k = int(labels.max()) + 1
        m = np.zeros((n, k))
        m[np.arange(n), labels] = 1.0
        q_soft = fuzzy_weighted_modularity(WeightedGraph(w), m).q
        worst = max(worst, abs(q_soft - newman_girvan_oracle(w, labels)))
    details.append(f"hard-partition reduction max gap {worst:.2e}")
    ok &= worst <= 1e-12
    report(4, ok, ", ".join(details))
    assert ok


def test_criterion_5_purity_indices():
    targets = {
        "gahuku-gama": (0.0625, 0.8750),
        "karate": (0.0588, 0.7941),
        "slovene-parties": (0.0, 0.9),
    }
    details = []
    ok = True
    for name, (want_mixed, want_pure) in targets.items():
        ds = load_dataset(name)
        k = ds.info.true_k
        eta = mixedness_indices(dfsp(ds.graph.weights, k).memberships)
        tol = 1.0 / ds.graph.n + 1e-9
        details.append(
            f"{name} eta=({eta.eta_mixed:.4f},{eta.eta_pure:.4f}) want ({want_mixed},{want_pure})"
        )
        ok &= abs(eta.eta_mixed - want_mixed) <= tol
        ok &= abs(eta.eta_pure - want_pure) <= tol
    report(5, ok, ", ".join(details))
    assert ok


def test_criterion_6_simulation_trends():
    start = time.time()
    reps = 25
    details = []
    ok = True

    designs = {
        "normal": (Family.NORMAL, [5.0 * i for i in range(1, 21)], 200, 40),
        "bernoulli": (Family.BERNOULLI, [0.05 * i for i in range(1, 21)], 200, 40),
        "poisson": (Family.POISSON, [0.2 * i for i in range(1, 21)], 200, 40),
        "uniform": (Family.UNIFORM, [float(i) for i in range(1, 21)], 200, 40),
    }
    for name, (family, values, n, pure) in designs.items():
        config = ExperimentConfig(
            generator=standard_spec(
                family, rho=values[0], n=n, pure=pure,
                sigma2=2.0 if family is Family.NORMAL else None,
            ),
            sweep_values=tuple(values),
            replications=reps,
            estimate_counts=False,
            seed=2024,
            profile="ci",
        )
        cells = run_simulation(config).cells
        corr = float(spearmanr(values, [c.mean_hamming for c in cells]).statistic)
        if name == "uniform":
            details.append(f"uniform |spearman|={abs(corr):.3f} (<= 0.5)")
            ok &= abs(corr) <= 0.5
        else:
            details.append(f"{name} spearman={corr:.3f} (<= -0.9)")
            ok &= corr <= -0.9

    # signed design: larger network, fewer pure nodes per community, and
    # the community-count scan on every replicate; the admissible scale
    # range is open at 1, so the sweep stops at 0.9
    signed_values = [round(0.1 * i, 1) for i in range(1, 10)]
    config = ExperimentConfig(
        generator=standard_spec(Family.SIGNED, rho=0.5, n=800, pure=200, seed=0),
        sweep_values=tuple(signed_values),
        replications=reps,
        estimate_counts=True,
        k_scan_max=5,
        seed=2024,
        profile="ci",
    )
    cells = run_simulation(config).cells
    corr = float(spearmanr(signed_values, [c.mean_hamming for c in cells]).statistic)
    accs = [c.accuracy for c in cells]
    nondecreasing = all(accs[i + 1] >= accs[i] - 1e-12 for i in range(len(accs) - 1))
    details.append(f"signed spearman={corr:.3f} (<= -0.9)")
    details.append(f"signed count-accuracy {accs} non-decreasing={nondecreasing}")
    ok &= corr <= -0.9
    ok &= nondecreasing

    elapsed = time.time() - start
    ok &= elapsed < 600.0
    report(6, ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


def test_criterion_7_property_bundle(tmp_path):
    details = []
    ok = True

    # membership rows are probability vectors for arbitrary inputs
    rng = np.random.default_rng(20240007)
    pmf_ok = True
    for _ in range(25):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(1, min(5, n) + 1))
        a = rng.normal(size=(n, n))
        a = a + a.T
        np.fill_diagonal(a, 0.0)
        try:
            m = dfsp(a, k).memberships
        except Exception:
            continue
        pmf_ok &= bool(np.all(m >= 0) and np.allclose(m.sum(axis=1), 1.0, atol=1e-10))
    details.append(f"membership PMF contract: {pmf_ok}")
    ok &= pmf_ok

    # vertex hunting is invariant to column signs and positive scaling
    sp_ok = True
    for _ in range(10):
        y = rng.normal(size=(14, 3))
        base = successive_projection(y, 3).tolist()
        signs = np.where(rng.random(3) < 0.5, -1.0, 1.0)
        sp_ok &= successive_projection(y * signs, 3).tolist() == base
        sp_ok &= successive_projection(float(rng.uniform(0.01, 50)) * y, 3).tolist() == base
    details.append(f"vertex-hunt sign/scale invariance: {sp_ok}")
    ok &= sp_ok

    # single-community score is exactly zero; powers-of-two rescaling is
    # exactly lossless
    g = load_dataset("gahuku-gama").graph
    q1 = fuzzy_weighted_modularity(g, np.ones((g.n, 1))).q
    m3 = dfsp(g.weights, 3).memberships
    q3 = fuzzy_weighted_modularity(g, m3).q
    q3_scaled = fuzzy_weighted_modularity(WeightedGraph(4.0 * g.weights), m3).q
    exact_ok = q1 == 0.0 and q3_scaled == q3
    details.append(f"q(k=1)=0 and binary-power scale exactness: {exact_ok}")
    ok &= exact_ok

    # the assignment solver's errors equal a search over all k!
    # column permutations up to k=6
    match_ok = True
    for k in range(2, 7):
        est = rng.dirichlet(np.ones(k), size=12)
        tru = rng.dirichlet(np.ones(k), size=12)
        assigned = membership_errors(est, tru)
        diffs = [est - tru[:, perm] for perm in permutations(range(k))]
        hamming = min(np.abs(d).sum() for d in diffs) / 12
        relative = min(np.linalg.norm(d) for d in diffs) / np.linalg.norm(tru)
        match_ok &= abs(assigned.hamming - hamming) < 1e-12
        match_ok &= abs(assigned.relative - relative) < 1e-12
    details.append(f"assignment==exhaustive (k<=6): {match_ok}")
    ok &= match_ok

    # sampler means track the expected adjacency for every family
    sample_ok = True
    for family, rho in [
        (Family.NORMAL, 10.0),
        (Family.BERNOULLI, 0.8),
        (Family.POISSON, 3.0),
        (Family.UNIFORM, 5.0),
        (Family.SIGNED, 0.8),
    ]:
        spec = standard_spec(family, rho=rho, n=40, pure=8, seed=5)
        omega = population_adjacency(spec)
        stream = np.random.default_rng(99)
        acc = np.zeros_like(omega)
        reps = 200
        for _ in range(reps):
            acc += sample_adjacency(spec, rng=stream).weights
        mean = acc / reps
        if family is Family.NORMAL:
            var = np.full_like(omega, 2.0)
        elif family is Family.BERNOULLI:
            var = omega * (1 - omega)
        elif family is Family.POISSON:
            var = omega.copy()
        elif family is Family.UNIFORM:
            var = omega**2 / 3.0
        else:
            var = 1 - omega**2
        iu = np.triu_indices(40, 1)
        se = np.sqrt(np.maximum(var[iu], 1e-12) / reps)
        sample_ok &= bool(np.all(np.abs(mean[iu] - omega[iu]) <= 5.0 * se + 1e-9))
    details.append(f"sampler mean checks per family: {sample_ok}")
    ok &= sample_ok

    # byte-identical rerun of a seeded end-to-end experiment
    config = ExperimentConfig(
        generator=standard_spec(Family.NORMAL, rho=5.0, n=30, pure=6),
        sweep_values=(5.0, 10.0),
        replications=3,
        estimate_counts=False,
        seed=77,
        profile="ci",
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    runner = CliRunner()
    outs = []
    for sub in ("r1", "r2"):
        res = runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / sub)])
        assert res.exit_code == 0, res.output
        outs.append((tmp_path / sub / "sweep.csv").read_bytes() + (tmp_path / sub / "sweep.json").read_bytes())
    rerun_ok = outs[0] == outs[1]
    details.append(f"byte-identical rerun: {rerun_ok}")
    ok &= rerun_ok

    report(7, ok, "; ".join(details))
    assert ok
