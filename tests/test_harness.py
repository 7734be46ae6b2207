import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings, strategies as st

import mmdf
from mmdf.cli import main
from mmdf.datasets import DATASETS, load_dataset
from mmdf.generator import EdgeDistribution, Family, GeneratorSpec, build_membership, check_connectivity
from mmdf.harness import PROFILES, ExperimentConfig, SweepCell, _Replicate, _sweep_cell, run_simulation
from mmdf.metrics import ErrorPair, accuracy_rate
from mmdf.spectral import set_blas_threads

from conftest import shuffled_copies, standard_spec


# the BLAS threads each process of a two-worker pool gets
TWO_WORKER_THREADS = max(1, len(os.sched_getaffinity(0)) // 2)


def blas_threads(_=None) -> int | None:
    """The thread count of the scipy-openblas64 library numpy loaded, or
    None on a build that does not export it."""
    import ctypes

    from numpy.linalg import _umath_linalg

    getter = getattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_openblas_get_num_threads64_", None)
    return None if getter is None else getter()


def small_config(family=Family.POINT_MASS, values=(2.0, 5.0), reps=3, **kw):
    return ExperimentConfig(
        generator=standard_spec(family, rho=1.0, n=30, pure=6,
                                sigma2=2.0 if family is Family.NORMAL else None),
        sweep_parameter="rho",
        sweep_values=tuple(values),
        replications=reps,
        estimate_counts=kw.pop("estimate_counts", False),
        k_scan_max=kw.pop("k_scan_max", 4),
        seed=kw.pop("seed", 1),
        profile="ci",
    )


class TestRunSimulation:
    def test_point_mass_error_is_only_the_zeroed_diagonal(self):
        # the deterministic family reproduces the expected adjacency
        # except for its zeroed diagonal, whose effect decays like 1/n
        # (measured: 7.9e-3 at n=30, 1.1e-3 at n=200) and is identical
        # across replicates and sweep values
        report = run_simulation(small_config())
        for cell in report.cells:
            assert cell.mean_hamming <= 1e-2
            assert cell.mean_hamming == pytest.approx(report.cells[0].mean_hamming, rel=1e-9)
            assert cell.failures == 0
            assert cell.successes == 3

    def test_deterministic_across_runs_and_workers(self):
        config = small_config(Family.NORMAL, values=(5.0, 20.0), reps=4)
        a = run_simulation(config)
        b = run_simulation(config)
        assert a == b
        c = run_simulation(config, workers=2)
        assert a == c

    def test_success_plus_failure_equals_replications(self):
        config = small_config(Family.NORMAL, values=(5.0,), reps=5)
        report = run_simulation(config)
        for cell in report.cells:
            assert cell.successes + cell.failures == 5

    def test_accuracy_populated_when_scanning(self):
        config = small_config(Family.NORMAL, values=(50.0,), reps=3, estimate_counts=True)
        report = run_simulation(config)
        assert report.cells[0].accuracy is not None
        assert 0.0 <= report.cells[0].accuracy <= 1.0

    @pytest.mark.parametrize("k_scan_max", [0, -1, 31])
    def test_scan_ceiling_outside_one_to_n_rejected_upfront(self, k_scan_max):
        with pytest.raises(ValueError, match="k_scan_max"):
            small_config(estimate_counts=True, k_scan_max=k_scan_max)
        # without the scan the ceiling is unused
        small_config(estimate_counts=False, k_scan_max=k_scan_max)

    def test_inadmissible_sweep_value_rejected_upfront(self):
        with pytest.raises(ValueError, match="admissible"):
            small_config(Family.BERNOULLI, values=(0.5, 2.0))

    def test_sweep_specs_are_validated_once(self, monkeypatch):
        config = small_config(values=(2.0, 5.0))
        assert [spec.rho for spec in config.specs] == [2.0, 5.0]
        # a copy builds its own specs, which take no part in equality
        assert dataclasses.replace(config) == config
        assert "specs" not in repr(config)
        built = []
        original = GeneratorSpec.__post_init__
        monkeypatch.setattr(GeneratorSpec, "__post_init__", lambda spec: built.append(spec) or original(spec))
        run_simulation(config)
        assert built == []

    def test_config_equality_compares_arrays_by_value(self):
        # distinct but equal arrays in the generator spec compare equal
        config = small_config()
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.generator.memberships is not config.generator.memberships
        assert (restored == config) is True
        memberships = config.generator.memberships.copy()
        memberships[-1] = memberships[0]
        assert not np.array_equal(memberships, config.generator.memberships)
        changed = dataclasses.replace(config.generator, memberships=memberships)
        assert changed != config.generator
        assert dataclasses.replace(config, generator=changed) != config

    def test_failures_by_stage_and_k_hat_counts(self, monkeypatch):
        # three pairs of pure nodes with no edges between pairs: the
        # spectrum is 1, 1, 1, -1, -1, -1, so k = 3 cuts through tied
        # magnitudes and every fit fails at the eigendecomposition stage
        dist = EdgeDistribution(Family.POINT_MASS)
        tied = GeneratorSpec(memberships=np.kron(np.eye(3), np.ones((2, 1))),
                             connectivity=check_connectivity(np.eye(3), dist), rho=1.0, distribution=dist)
        config = ExperimentConfig(generator=tied, sweep_values=(1.0, 2.0), replications=3,
                                  estimate_counts=True, k_scan_max=3, profile="ci")
        for cell in run_simulation(config).cells:
            assert cell.failures == 3
            assert cell.failure_stages == {"eigendecomposition": 3}
            assert cell.k_hat_counts == {}
        # a scanning design: one count per successful fit
        config = small_config(Family.NORMAL, values=(50.0,), reps=4, estimate_counts=True)
        [cell] = run_simulation(config).cells
        assert cell.failure_stages == {}
        assert sum(cell.k_hat_counts.values()) == cell.successes == 4
        assert cell.accuracy == cell.k_hat_counts.get("3", 0) / 4
        # a scan that fails at every k has its own key
        import mmdf.harness

        def failing(*args, **kwargs):
            raise mmdf.harness.EstimationError("scan", "estimation failed for every k")

        monkeypatch.setattr(mmdf.harness, "estimate_k", failing)
        [cell] = run_simulation(config).cells
        assert cell.k_hat_counts == {"failed": 4} and cell.successes == 4 and cell.accuracy is None

    def test_one_process_pool_per_run(self, monkeypatch):
        import concurrent.futures

        built = []
        executor = concurrent.futures.ProcessPoolExecutor

        class Counted(executor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        config = small_config(Family.NORMAL, values=(5.0, 20.0, 50.0), reps=3, estimate_counts=True)
        pooled, alone = run_simulation(config, workers=2), run_simulation(config)
        assert pooled == alone
        # one pool, whose processes each get their share of the cores
        assert built == [{"max_workers": 2, "initializer": set_blas_threads,
                          "initargs": (TWO_WORKER_THREADS,)}]
        # and each report says how many threads its fits ran on
        here = blas_threads()
        assert (pooled.blas_threads, alone.blas_threads) == ((None, None) if here is None
                                                             else (TWO_WORKER_THREADS, here))

    def test_each_worker_runs_its_share_of_the_cores(self, monkeypatch):
        import concurrent.futures

        if blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread count")
        seen = []
        executor = concurrent.futures.ProcessPoolExecutor

        class Probed(executor):
            def map(self, fn, *iterables, **kwargs):
                # read the count inside the run's own workers
                seen.extend(super().map(blas_threads, range(4)))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Probed)
        run_simulation(small_config(values=(2.0,), reps=2), workers=2)
        assert set(seen) == {TWO_WORKER_THREADS}

    def test_workers_match_one_process_at_the_same_thread_count(self, tmp_path):
        # n >= 128 takes the partial solver; at n = 320 its bits depend on
        # the BLAS thread count (an unpinned two-thread run differs on two
        # cores), so pin this process as each worker is pinned
        before = blas_threads()
        if before is None:
            pytest.skip("numpy's BLAS exports no thread count")
        spec = standard_spec(Family.SIGNED, rho=0.3, n=320, pure=40)
        config = ExperimentConfig(generator=spec, sweep_values=(0.3, 0.8), replications=3,
                                  estimate_counts=True, k_scan_max=5, seed=4, profile="ci")
        pooled = run_simulation(config, workers=2)
        set_blas_threads(TWO_WORKER_THREADS)
        try:
            alone = run_simulation(config)
        finally:
            set_blas_threads(before)
        assert blas_threads() == before
        for name, report in (("pooled", pooled), ("alone", alone)):
            report.write_csv(tmp_path / f"{name}.csv")
            report.write_json(tmp_path / f"{name}.json")
        for suffix in ("csv", "json"):
            assert (tmp_path / f"pooled.{suffix}").read_bytes() == (tmp_path / f"alone.{suffix}").read_bytes()

    def test_workers_without_sched_getaffinity_share_every_core(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        config = small_config(values=(2.0,), reps=2)
        report = run_simulation(config, workers=2)
        assert report == run_simulation(config)
        shared = max(1, os.cpu_count() // 2)
        assert report.blas_threads == (None if blas_threads() is None else shared)

    def test_csv_and_json_emission(self, tmp_path):
        report = run_simulation(small_config())
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        report.write_csv(csv_path)
        report.write_json(json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("value,mean_hamming")
        assert len(lines) == 3
        payload = json.loads(json_path.read_text())
        assert payload["config"]["seed"] == 1
        assert len(payload["cells"]) == 2
        # the stage and k-hat counts go to the JSON only
        assert payload["cells"][0]["failure_stages"] == {} and payload["cells"][0]["k_hat_counts"] == {}
        assert "stage" not in lines[0] and "k_hat" not in lines[0]


def tuple_decoded_cell(value, true_k, results):
    """Reference: the cell as run_simulation decoded it from (errors,
    outcome) tuples, outcome being the failing stage when errors is None
    and otherwise the scan's str(k), "failed" or None."""
    ok = [errors for errors, _ in results if errors is not None]
    stages = Counter(outcome for errors, outcome in results if errors is None)
    scans = [outcome for errors, outcome in results if errors is not None and outcome is not None]
    k_hats = [int(k) for k in scans if k != "failed"]
    return SweepCell(
        value=float(value),
        mean_hamming=float(np.mean([e.hamming for e in ok])) if ok else float("nan"),
        mean_relative=float(np.mean([e.relative for e in ok])) if ok else float("nan"),
        accuracy=accuracy_rate(k_hats, true_k) if k_hats else None,
        failures=len(results) - len(ok),
        successes=len(ok),
        failure_stages=dict(sorted(stages.items())),
        k_hat_counts=dict(sorted(Counter(scans).items())),
    )


def as_tuple(record):
    if record.errors is None:
        return None, record.failed_stage
    return record.errors, None if record.k_hat is None else str(record.k_hat)


errors_pairs = st.builds(ErrorPair, st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.just((0, 1, 2)))
stages = st.sampled_from(["eigendecomposition", "vertex-hunting", "inversion"]) | st.text(min_size=1)
replicate_records = st.builds(
    lambda fit, k_hat: _Replicate(fit, None, k_hat) if isinstance(fit, ErrorPair) else _Replicate(None, fit, k_hat),
    errors_pairs | stages,
    st.none() | st.just("failed") | st.integers(1, 12),
)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False), st.integers(1, 12), st.lists(replicate_records, max_size=12))
def test_the_cell_builder_matches_the_tuple_decoding(value, true_k, records):
    built = _sweep_cell(value, true_k, records)
    expected = tuple_decoded_cell(value, true_k, [as_tuple(r) for r in records])
    # a cell without a successful fit has NaN means, which compare unequal
    means = ("mean_hamming", "mean_relative")
    for name in means:
        a, b = getattr(built, name), getattr(expected, name)
        assert a == b or math.isnan(a) and math.isnan(b)
    zeroed = dict.fromkeys(means, 0.0)
    assert dataclasses.replace(built, **zeroed) == dataclasses.replace(expected, **zeroed)


STORED_SWEEP = Path(__file__).parent / "data" / "sweep"


def test_a_seeded_sweep_reproduces_its_stored_files(tmp_path):
    # n = 40 takes the full eigh, whose stored output was the same on one
    # BLAS thread and on two; rho = 0.01 fails at every replicate, so that
    # cell counts no scan, and 0.05 at five of six
    config = ExperimentConfig(generator=standard_spec(Family.BERNOULLI, rho=0.5, n=40, pure=8),
                              sweep_values=(0.01, 0.05, 0.15, 0.9), replications=6, estimate_counts=True,
                              k_scan_max=4, seed=0, profile="ci")
    stored = json.loads((STORED_SWEEP / "sweep.json").read_text())
    counts = [(c["failures"], sum(c["k_hat_counts"].values())) for c in stored["cells"]]
    assert counts == [(6, 0), (5, 1), (0, 6), (0, 6)]
    report = run_simulation(config)
    report.write_csv(tmp_path / "sweep.csv")
    report.write_json(tmp_path / "sweep.json")
    assert (tmp_path / "sweep.csv").read_bytes() == (STORED_SWEEP / "sweep.csv").read_bytes()
    # blas_threads records the machine, so only the config and cells are compared
    written = json.loads((tmp_path / "sweep.json").read_text())
    assert (written["config"], written["cells"]) == (stored["config"], stored["cells"])


# writes and reads back non-ASCII text; written in escapes, since an ASCII
# locale cannot decode a command line that holds the characters themselves
ASCII_LOCALE_SCRIPT = """
import sys
import numpy as np
from mmdf import WeightedGraph, load_edge_list, write_edge_list
from mmdf.harness import write_csv

out = sys.argv[1]
graph = WeightedGraph(np.array([[0.0, 1.5], [1.5, 0.0]]), ("\\u00fc", "\\u540d"))
write_edge_list(graph, out + "/g.edges", labels_path=out + "/g.labels")
assert load_edge_list(out + "/g.edges", labels_path=out + "/g.labels") == graph
write_csv(out + "/g.csv", [graph.node_labels])
"""


def test_files_are_utf8_in_an_ascii_locale(tmp_path):
    # the C locale with UTF-8 mode and locale coercion off: open() defaults to ASCII
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(mmdf.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", ASCII_LOCALE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "g.edges").read_bytes() == "\u00fc \u540d 1.5\n".encode("utf-8")
    assert (tmp_path / "g.labels").read_bytes() == "\u00fc\n\u540d\n".encode("utf-8")
    assert (tmp_path / "g.csv").read_bytes() == "\u00fc,\u540d\n".encode("utf-8")


def write_config(tmp_path, family=Family.POINT_MASS, values=(2.0,)):
    config = small_config(family, values=values, reps=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


# random edge-list text: names and weights a parser meets in the wild in
# records split by blanks or commas, with comments, a header and blank
# lines; half the files also hold bad weights and bad field counts
NAMES = ["a", "b", "c", "1", "2", "3", "0", "-1", "ü", "名", "Zoë"]
NODE = st.sampled_from(NAMES)
WEIGHT = st.one_of(
    st.sampled_from(["1", "-1", "0", "0.5", "-2.5", "1e308", "-1e308", "1e-308", "5e-324"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
CLEAN_LINE = st.one_of(
    st.tuples(st.one_of(st.tuples(NODE, NODE), st.tuples(NODE, NODE, WEIGHT)),
              st.sampled_from([" ", ",", "\t", ", "])).map(lambda r: r[1].join(r[0])),
    st.sampled_from(["", "# comment", "src dst weight", "a b # trailing comment"]),
)
ODD_LINE = st.one_of(
    st.tuples(NODE, NODE, st.sampled_from(["nan", "inf", "-inf", "w", "ü", "1e309"])).map(" ".join),
    st.lists(st.one_of(NODE, WEIGHT), max_size=4).map(" ".join),
)
EDGE_LINES = st.lists(CLEAN_LINE, max_size=12) | st.lists(CLEAN_LINE | ODD_LINE, max_size=12)
TRUTH_TOKEN = st.sampled_from(["0", "1", "2", "0 1", "", "# 0", "x", "-1", "1.5", "10000000"])
ROSTER = st.none() | st.lists(NODE, unique=True, max_size=8) | st.lists(
    NODE | st.sampled_from(["", "# roster comment", "x y"]), max_size=8)


def node_count(lines, roster) -> int:
    """The roster's length, or at most the number of names the lines use."""
    used = {t for line in lines for t in line.replace(",", " ").split()} & set(NAMES)
    return len(roster) if roster is not None else len(used)


def draw_truth(data, n: int):
    """No truth file, a valid one for n nodes, or random truth tokens."""
    return data.draw(st.none() | st.lists(st.sampled_from(["0", "1", "2"]), min_size=n, max_size=n)
                     | st.lists(TRUTH_TOKEN, max_size=10), label="truth")


class TestCli:
    def test_version_from_source_tree(self):
        result = CliRunner().invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert mmdf.__version__ in result.output

    def test_simulate_roundtrip_and_rerun_identical(self, tmp_path):
        runner = CliRunner()
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = runner.invoke(main, ["simulate", "--config", str(config), "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()

    def test_simulate_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sweep_values": [1.0]}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2

    def test_simulate_bad_scan_ceiling_exits_2(self, tmp_path):
        payload = small_config().to_dict()
        payload.update(estimate_counts=True, k_scan_max=40)  # n=30
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "error: bad config: k_scan_max=40" in result.output

    @pytest.mark.parametrize("args", [
        ["detect", "--k", "0"],
        ["detect", "--k", "100"],
        ["detect", "--k-max", "0"],
        ["scan-k", "--k-max", "0"],
        ["scan-k", "--k-max", "40"],
    ])
    def test_count_outside_one_to_n_exits_2(self, tmp_path, args):
        from mmdf.datasets import _fixture_path

        command, *options = args
        result = CliRunner().invoke(main, [
            command, str(_fixture_path("karate.edges")), *options, "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert "out of range for n=34" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["detect", "scan-k"])
    @pytest.mark.parametrize("edges, n", [("", 0), ("# no edges\n", 0), ("1 1\n", 1)],
                             ids=["empty", "comment-only", "self-edge"])
    def test_default_scan_on_fewer_than_two_nodes_exits_2(self, tmp_path, command, edges, n):
        (tmp_path / "g.edges").write_text(edges)
        result = CliRunner().invoke(main, [command, str(tmp_path / "g.edges"), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"error: k_max defaults to n - 1, which leaves nothing to scan for n={n}"]
        assert not (tmp_path / "o").exists()

    def test_datasets_zero_k_max_exits_2(self, tmp_path):
        result = CliRunner().invoke(main, ["datasets", "--only", "karate", "--k-max", "0",
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "error: k_max must be >= 1" in result.output

    def test_simulate_weights_near_the_float64_limit_exit_cleanly(self, tmp_path):
        # normal means at rho = 1e308 are finite; a draw that no solver can
        # decompose ends with an error line, not a traceback
        dist = EdgeDistribution(Family.NORMAL, sigma2=1.0)
        spec = GeneratorSpec(
            memberships=build_membership(8, 2, 3, [(np.array([0.5, 0.5]), 2)]),
            connectivity=check_connectivity(np.array([[1.0, 0.2], [0.2, 0.8]]), dist),
            rho=1.0,
            distribution=dist,
        )
        config = ExperimentConfig(generator=spec, sweep_values=(1e308,), replications=2,
                                  estimate_counts=True, k_scan_max=3, profile="ci")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code in (0, 2), result.output
        assert result.exit_code == 0 or "error: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_simulate_workers_below_one_exits_2_before_sampling(self, tmp_path, monkeypatch, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr("mmdf.harness.sample_adjacency", refuse)
        result = CliRunner().invoke(main, ["simulate", "--config", str(write_config(tmp_path)),
                                           "--workers", workers, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [f"error: bad config: workers must be >= 1, got {workers}"]
        assert not (tmp_path / "o").exists()

    def test_simulate_missing_config_exits_3(self, tmp_path):
        result = CliRunner().invoke(main, ["simulate", "--config", str(tmp_path / "none.json")])
        assert result.exit_code == 3

    def test_detect_fixed_k_membership_rows_are_pmfs(self, tmp_path):
        from mmdf.datasets import _fixture_path

        runner = CliRunner()
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "detect", str(_fixture_path("karate.edges")),
            "--labels", str(_fixture_path("karate.labels")),
            "--k", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = [
            [float(x) for x in line.split(",")]
            for line in (out / "memberships.csv").read_text().splitlines()
        ]
        assert len(rows) == 34
        for row in rows:
            assert len(row) == 2
            assert all(x >= 0 for x in row)
            assert sum(row) == pytest.approx(1.0, abs=1e-10)

    def test_detect_auto_selects_two_on_karate(self, tmp_path):
        from mmdf.datasets import _fixture_path

        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "detect", str(_fixture_path("karate.edges")),
            "--labels", str(_fixture_path("karate.labels")),
            "--k-max", "8", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "detect.json").read_text())
        assert summary["k"] == 2
        assert len(summary["eigenvalue_magnitudes"]) == 3
        assert summary["spectral_gap"] > 0

    def test_detect_empty_graph_exits_4(self, tmp_path):
        graph = tmp_path / "empty.edges"
        graph.write_text("1 2 0.0\n")  # a recorded pair with zero weight
        result = CliRunner().invoke(main, ["detect", str(graph), "--k", "2", "--out", str(tmp_path / "o")])
        assert result.exit_code == 4
        assert "eigendecomposition" in result.output or "estimation" in result.output

    @pytest.mark.parametrize("edges, k", [
        ("a b\nc d\n", 2),  # two disjoint edges: |λ| = 1, 1, 1, 1
        ("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)), 3),  # 8-cycle: 2, 2, √2 x 4, 0, 0
    ], ids=["two-edges", "8-cycle"])
    def test_detect_k_cutting_through_tied_magnitudes_exits_4(self, tmp_path, edges, k):
        graph = tmp_path / "tied.edges"
        graph.write_text(edges)
        result = CliRunner().invoke(main, ["detect", str(graph), "--k", str(k), "--out", str(tmp_path / "o")])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert "'eigendecomposition'" in result.output
        assert "equal magnitude" in result.output
        assert not (tmp_path / "o").exists()

    def test_detect_four_field_first_record_exits_2(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("a b c d\n1 2 1\n2 3 1\n")
        result = CliRunner().invoke(main, ["detect", str(graph), "--k", "1", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"error: {graph}, line 1: expected 2 or 3 fields, got 4"]
        assert not (tmp_path / "o").exists()

    def test_detect_non_finite_spectrum_exits_2(self, tmp_path):
        # finite weights whose eigenvalues exceed the float64 range
        graph = tmp_path / "huge.edges"
        graph.write_text("a b 1.5e308\nb c 1.2e308\nc d 1.5e308\nd a -1.0e308\na c 1.6e308\n")
        result = CliRunner().invoke(main, ["detect", str(graph), "--k", "2", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert "non-finite" in result.output
        assert not (tmp_path / "o").exists()

    def test_scan_k_writes_curve(self, tmp_path):
        from mmdf.datasets import _fixture_path

        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "scan-k", str(_fixture_path("gahuku_gama.edges")),
            "--labels", str(_fixture_path("gahuku_gama.labels")),
            "--k-max", "6", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "k,q"
        assert len(lines) == 7
        assert json.loads((out / "scan.json").read_text())["best_k"] == 3

    def test_datasets_subcommand_reports_and_skips(self, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "datasets", "--only", "karate", "--only", "train-bombing",
            "--cache", str(tmp_path / "nocache"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "karate: n=34 best_k=2" in result.output
        assert "train-bombing: skipped" in result.output
        lines = (out / "datasets.csv").read_text().splitlines()
        assert lines[0].startswith("dataset,")
        assert len(lines) == 3

    def test_datasets_negative_curated_label_exits_2(self, tmp_path):
        # two weighted triangles joined by a light edge; a -1 would wrap
        # to the last community and count as no mislabel
        (tmp_path / "polblogs.edges").write_text("1 2 1\n2 3 2\n1 3 1.5\n3 4 0.3\n4 5 2.5\n5 6 1\n4 6 1.2\n")
        (tmp_path / "polblogs.truth").write_text("0\n0\n0\n1\n1\n-1\n")
        result = CliRunner().invoke(main, ["datasets", "--only", "polblogs", "--cache", str(tmp_path),
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        # refused on loading, before the scan, naming the file and line
        assert result.output.splitlines() == [
            f"error: {tmp_path / 'polblogs.truth'}, line 6: '-1' is not a nonnegative community index"]

    @pytest.mark.parametrize("token", ["x", "1.5"])
    def test_datasets_curated_label_that_is_no_int_exits_2(self, tmp_path, token):
        (tmp_path / "polblogs.edges").write_text("1 2\n2 3\n3 4\n4 1\n")
        (tmp_path / "polblogs.truth").write_text(f"0\n1 0\n\n{token}\n")
        result = CliRunner().invoke(main, ["datasets", "--only", "polblogs", "--cache", str(tmp_path),
                                           "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"error: {tmp_path / 'polblogs.truth'}, line 4: {token!r} is not a nonnegative community index"]

    @pytest.mark.parametrize("last", [2, 10**7])
    def test_datasets_curated_label_values_do_not_size_the_count(self, tmp_path, last):
        # only which nodes share a label counts, not its value: a confusion
        # matrix over every label up to 10^7 would not fit in memory
        (tmp_path / "polblogs.edges").write_text("1 2 2\n3 4 2\n2 3 0.5\n")
        (tmp_path / "polblogs.truth").write_text(f"0\n0\n1\n{last}\n")
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["datasets", "--only", "polblogs", "--cache", str(tmp_path),
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "datasets.csv").read_text().splitlines()[1].split(",")[6] == "2"

    @pytest.mark.parametrize("k_max", [8, 1], ids=["scanned", "beyond-scan"])
    def test_datasets_no_fit_at_the_curated_count_is_a_notice(self, tmp_path, k_max):
        # three disjoint triangles: |λ| = 2, 2, 2, so the curated k = 2 is a tie,
        # whether the scan reached it or not
        (tmp_path / "polblogs.edges").write_text(
            "".join(f"{3 * t + a} {3 * t + b}\n" for t in range(3) for a, b in ((1, 2), (2, 3), (3, 1)))
        )
        (tmp_path / "polblogs.truth").write_text("0\n" * 3 + "1\n" * 6)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "datasets", "--only", "polblogs", "--k-max", str(k_max),
            "--cache", str(tmp_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "skipped" not in result.output
        assert "no fit at the curated k=2: eigendecomposition:" in result.output
        row = (out / "datasets.csv").read_text().splitlines()[1].split(",")
        assert row[:3] == ["polblogs", "9", "3" if k_max == 8 else "1"]
        assert row[6] == ""
        assert "equal magnitude" in row[7]

    @pytest.mark.parametrize("edges, truth, message", [
        ("1 2\n2 3\n", "0\n1\n", "has 2 labels for 3 nodes"),
        ("1 2\n2 3 zzz\n", "0\n1\n0\n", "line 2: bad weight"),
    ], ids=["truth-length", "parse-error"])
    def test_datasets_malformed_cache_exits_2(self, tmp_path, edges, truth, message):
        (tmp_path / "polblogs.edges").write_text(edges)
        (tmp_path / "polblogs.truth").write_text(truth)
        result = CliRunner().invoke(main, [
            "datasets", "--only", "polblogs", "--cache", str(tmp_path), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("error: ") == 1
        assert message in result.output

    @pytest.mark.parametrize("edges, n, notice", [
        ("1 1\n", 1, "a scan needs two nodes; the graph has 1"),
        ("", 0, "a scan needs two nodes; the graph has 0"),
        # finite weights whose eigenvalues exceed the float64 range
        ("a b 1.5e308\nb c 1.2e308\nc d 1.5e308\nd a -1.0e308\na c 1.6e308\n", 4,
         "eigendecomposition returned non-finite eigenpairs"),
    ], ids=["one-node", "empty", "huge-spectrum"])
    def test_datasets_network_that_cannot_be_fitted_is_a_notice(self, tmp_path, edges, n, notice):
        # it parses, so it gets a row, and the other networks keep theirs
        (tmp_path / "polblogs.edges").write_text(edges)
        out, alone = tmp_path / "out", tmp_path / "alone"
        result = CliRunner().invoke(main, ["datasets", "--only", "polblogs", "--only", "karate",
                                           "--cache", str(tmp_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        polblogs, karate = (out / "datasets.csv").read_text().splitlines()[1:]
        assert polblogs == f"polblogs,{n},,,,,,{notice}"
        assert CliRunner().invoke(main, ["datasets", "--only", "karate", "--out", str(alone)]).exit_code == 0
        assert karate == (alone / "datasets.csv").read_text().splitlines()[1]

    @pytest.mark.parametrize("name, text, message", [
        ("polblogs.edges", "1 2\n2 3 zzz\n", "line 2: bad weight 'zzz'"),
        ("polblogs.edges", "1 2 1e308\n2 3\n2 1 1e308\n", "line 3: weights of 2 1 sum to inf"),
        ("polblogs.labels", "1\n2\n# 3\n\n1\n3\n", "line 5: duplicate node label '1'"),
    ], ids=["bad-weight", "overflowing-duplicates", "duplicate-label"])
    def test_datasets_parse_error_names_its_file(self, tmp_path, name, text, message):
        (tmp_path / "polblogs.edges").write_text("1 2\n2 3\n")
        (tmp_path / name).write_text(text)
        result = CliRunner().invoke(main, ["datasets", "--only", "karate", "--only", "polblogs",
                                           "--cache", str(tmp_path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {tmp_path / name}, {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, data, line_no", [
        ("g.edges", b"a b 1\r\n# c\r\nc \xff 2\r\n", 3),
        ("g.labels", b"\xef\xbb\xbfa\rb\r\xffc\n", 3),
        ("polblogs.truth", b"0\n1 \xc3\n0\n", 2),
        ("config.json", b'{\n  "seed": 1,\n  "profile": "\xe9"\n}\n', 3),
    ], ids=["edges", "labels", "truth", "config"])
    def test_a_file_that_is_not_utf8_names_its_file_and_line(self, tmp_path, name, data, line_no):
        # line ends count as text mode reads them: "\r\n", "\r" and "\n"
        (tmp_path / "g.edges").write_text("a b\nb c\n")
        (tmp_path / "polblogs.edges").write_text("1 2\n2 3\n3 1\n")
        (tmp_path / name).write_bytes(data)
        out = str(tmp_path / "o")
        args = {"g.edges": ["detect", str(tmp_path / "g.edges"), "--out", out],
                "g.labels": ["detect", str(tmp_path / "g.edges"), "--labels", str(tmp_path / name), "--out", out],
                "polblogs.truth": ["datasets", "--only", "polblogs", "--cache", str(tmp_path), "--out", out],
                "config.json": ["simulate", "--config", str(tmp_path / name), "--out", out]}[name]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        prefix = "bad config: " if name == "config.json" else ""
        [line] = result.output.splitlines()
        assert line.startswith(f"error: {prefix}{tmp_path / name}, line {line_no}: not UTF-8: byte 0x")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, message", [
        (["--only", "karate", "--only", "nope"], "unknown dataset 'nope'; known: " + ", ".join(DATASETS)),
        (["--k-max", "0"], "k_max must be >= 1, got 0"),
        (["--k-max", "-1", "--only", "nope"], "k_max must be >= 1, got -1"),
    ], ids=["unknown-name", "k-max-0", "both"])
    def test_datasets_bad_arguments_exit_2_before_loading(self, tmp_path, monkeypatch, args, message):
        def no_load(*_, **__):
            raise AssertionError("a dataset was loaded")

        monkeypatch.setattr(mmdf.harness, "load_dataset", no_load)
        result = CliRunner().invoke(main, ["datasets", *args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "o").exists()

    def test_simulate_infinite_rho_exits_2(self, tmp_path):
        payload = small_config(Family.UNIFORM).to_dict()
        payload["sweep_values"] = [float("inf")]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))  # writes Infinity
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        # a JSON number must be finite, so the reader refuses it before check_rho
        assert "error: bad config: sweep_values must be a list of finite numbers, got [inf]" in result.output

    def test_simulate_uniform_support_overflow_exits_2(self, tmp_path):
        # a uniform mean above half the float64 limit has an infinite support
        payload = small_config(Family.UNIFORM).to_dict()
        payload["sweep_values"] = [1e308]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("error: ") == 1
        assert "error: bad config: mean" in result.output
        assert "outside the uniform family's domain" in result.output

    def test_detect_reports_the_fit_diagnostics(self, tmp_path):
        from mmdf.datasets import _fixture_path

        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "detect", str(_fixture_path("karate.edges")),
            "--labels", str(_fixture_path("karate.labels")),
            "--k-max", "8", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "detect.json").read_text())
        k = summary["k"]
        corners = summary["vertex_indices"]
        assert len(corners) == k and len(set(corners)) == k
        assert summary["clipped_rows"] >= summary["degenerate_rows"] >= 0
        assert 1.0 <= summary["corner_condition"] <= 1e12
        memberships = np.array([[float(x) for x in line.split(",")]
                                for line in (out / "memberships.csv").read_text().splitlines()])
        # each corner is its own community's pure node
        assert np.abs(memberships[corners] - np.eye(k)).max() <= 1e-9

    def test_datasets_repeated_name_gets_one_row(self, tmp_path):
        # names run once each, in the order they first appear
        once, repeated = tmp_path / "once", tmp_path / "repeated"
        for out, names in ((once, ["karate", "gahuku-gama"]), (repeated, ["karate", "gahuku-gama", "karate"])):
            result = CliRunner().invoke(main, ["datasets", *(a for name in names for a in ("--only", name)),
                                               "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert (repeated / "datasets.csv").read_bytes() == (once / "datasets.csv").read_bytes()
        assert len((once / "datasets.csv").read_text().splitlines()) == 3

    def test_simulate_reads_a_config_saved_with_a_bom(self, tmp_path):
        plain = write_config(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for config, out in ((plain, tmp_path / "plain"), (marked, tmp_path / "marked")):
            result = CliRunner().invoke(main, ["simulate", "--config", str(config), "--out", str(out)])
            assert result.exit_code == 0, result.output
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_datasets_unknown_name_exits_2(self):
        result = CliRunner().invoke(main, ["datasets", "--only", "nope"])
        assert result.exit_code == 2

    def test_simulate_seed_and_profile_overrides(self, tmp_path):
        config = write_config(tmp_path, Family.NORMAL, values=(5.0,))
        out = tmp_path / "o"
        result = CliRunner().invoke(main, [
            "simulate", "--config", str(config), "--seed", "123",
            "--profile", "ci", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["config"]["seed"] == 123
        assert payload["config"]["profile"] == "ci"
        assert payload["config"]["replications"] == 25
        assert payload["cells"][0]["successes"] + payload["cells"][0]["failures"] == 25

    def test_many_identical_components_exit_0(self, tmp_path):
        # 80 shuffled copies of one 8-node graph: dstemr refuses ranges that
        # cut its clusters of 80 equal eigenvalues
        m = shuffled_copies(5)
        rows, cols = np.nonzero(np.triu(m))
        (tmp_path / "g.edges").write_text("".join(f"v{i} v{j}\n" for i, j in zip(rows, cols)))
        (tmp_path / "g.labels").write_text("".join(f"v{i}\n" for i in range(len(m))))
        for command in ("detect", "scan-k"):
            result = CliRunner().invoke(main, [command, str(tmp_path / "g.edges"), "--labels",
                                               str(tmp_path / "g.labels"), "--out", str(tmp_path / command)])
            assert result.exit_code == 0, result.output

    @settings(max_examples=200, deadline=None)
    @given(lines=EDGE_LINES, roster=ROSTER, data=st.data())
    def test_any_edge_list_exits_with_a_documented_code(self, lines, roster, data):
        n = node_count(lines, roster)
        k_max = data.draw(st.none() | st.integers(-2, n + 2), label="k_max")
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp) / "graph.edges"
            graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
            options = ["--out", str(Path(tmp) / "o")] + ([] if k_max is None else ["--k-max", str(k_max)])
            if roster is not None:
                labels = Path(tmp) / "graph.labels"
                labels.write_text("\n".join(roster) + "\n", encoding="utf-8")
                options += ["--labels", str(labels)]
            for command in ("detect", "scan-k"):
                result = CliRunner().invoke(main, [command, str(graph), *options])
                assert result.exit_code in (0, 2, 3, 4), result.output
                assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
                assert "Traceback" not in result.output

    @settings(max_examples=150, deadline=None)
    @given(lines=EDGE_LINES, roster=ROSTER, with_karate=st.booleans(), data=st.data())
    def test_any_cached_network_exits_0_or_2(self, lines, roster, with_karate, data):
        truth = draw_truth(data, node_count(lines, roster))
        names = ["polblogs"] + (["karate"] if with_karate else [])
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp)
            (cache / "polblogs.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")
            for ext, text in (("labels", roster), ("truth", truth)):
                if text is not None:
                    (cache / f"polblogs.{ext}").write_text("\n".join(text) + "\n", encoding="utf-8")
            out = cache / "o"
            result = CliRunner().invoke(main, ["datasets", *(a for name in names for a in ("--only", name)),
                                               "--cache", tmp, "--out", str(out)])
            assert result.exit_code in (0, 2), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
            event(f"exit {result.exit_code}")
            if result.exit_code == 0:
                rows = (out / "datasets.csv").read_text(encoding="utf-8").splitlines()[1:]
                assert [row.split(",")[0] for row in rows] == names
            else:
                # one error line, naming the file at fault
                (line,) = result.output.splitlines()
                assert line.startswith(f"error: {cache / 'polblogs.'}"), line
                assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(lines=EDGE_LINES, roster=ROSTER, marked=st.sets(st.sampled_from(["edges", "labels", "truth"]), min_size=1),
       data=st.data())
def test_a_byte_order_mark_changes_no_input_file(lines, roster, marked, data):
    # an edge list, roster or truth file saved with a UTF-8 BOM loads as
    # the same file without one, or fails with the same error
    truth = draw_truth(data, node_count(lines, roster))

    def load(cache: Path, bom: set[str]):
        for ext, text in (("edges", lines), ("labels", roster), ("truth", truth)):
            if text is not None:
                mark = "\ufeff" if ext in bom else ""
                (cache / f"polblogs.{ext}").write_text(mark + "\n".join(text) + "\n", encoding="utf-8")
        try:
            return load_dataset("polblogs", cache_dir=cache)
        except ValueError as exc:
            return type(exc), str(exc).replace(str(cache), "<cache>")

    with tempfile.TemporaryDirectory() as plain, tempfile.TemporaryDirectory() as bom:
        expected = load(Path(plain), set())
        event("loads" if not isinstance(expected, tuple) else "fails")
        assert load(Path(bom), marked) == expected


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)


def is_matrix(v):
    return isinstance(v, list) and all(isinstance(r, list) and all(map(is_number, r)) for r in v)


# the JSON type the README documents for each config key ("generator.x"
# is key x of the generator object)
DOCUMENTED = {
    "generator": lambda v: isinstance(v, dict),
    "sweep_parameter": lambda v: isinstance(v, str),
    "sweep_values": lambda v: isinstance(v, list) and all(map(is_number, v)),
    "replications": is_int,
    "estimate_counts": lambda v: isinstance(v, bool),
    "k_scan_max": is_int,
    "seed": lambda v: is_int(v) and v >= 0,
    "profile": lambda v: isinstance(v, str),
    "generator.memberships": is_matrix,
    "generator.connectivity": is_matrix,
    "generator.rho": is_number,
    "generator.family": lambda v: isinstance(v, str),
    "generator.sigma2": lambda v: v is None or is_number(v),
    "generator.sparsity": lambda v: v is None or is_number(v),
    "generator.seed": lambda v: is_int(v) and v >= 0,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def simulate_with(key, value, out, *args):
    """Run simulate on the small point-mass config with one key replaced
    and any further arguments."""
    payload = small_config(values=(2.0,), reps=2).to_dict()
    section, _, name = key.rpartition(".")
    (payload[section] if section else payload)[name] = value
    path = Path(out) / "config.json"
    path.write_text(json.dumps(payload))
    return CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(Path(out) / "o"), *args])


class TestConfigReader:
    @pytest.mark.parametrize("key, value", [
        ("sweep_values", 5),
        ("replications", None),
        ("generator.sparsity", "0.5"),
        ("replications", 2.5),
        ("estimate_counts", "no"),
        ("k_scan_max", 1.5),
        ("seed", True),
        ("generator.rho", True),
        pytest.param("generator.rho", 10**400, id="generator.rho-10**400"),
    ])
    def test_wrong_json_type_exits_2_naming_the_key(self, tmp_path, key, value):
        result = simulate_with(key, value, tmp_path)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: bad config: {key.rpartition('.')[2]} must be " in result.output

    @pytest.mark.parametrize("key, value, args, seed", [
        ("seed", -1, (), -1),
        ("generator.seed", -5, (), -5),
        ("seed", 0, ("--seed", "-3"), -3),
    ])
    def test_negative_seed_exits_2_naming_seed(self, tmp_path, key, value, args, seed):
        result = simulate_with(key, value, tmp_path, *args)
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [f"error: bad config: seed must be >= 0, got {seed}"]

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2
        assert "error: bad config: config must be a JSON object" in result.output

    def test_a_file_that_is_not_json_names_its_file_and_line(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{\n  "seed": 1,\n}\n')
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            f"error: bad config: {path}, line 3: Expecting property name enclosed in double quotes (column 1)"]

    def test_n_and_k_round_trip_and_unknown_keys_are_ignored(self):
        config = small_config(values=(2.0,), reps=2)
        payload = config.to_dict()
        assert (payload["generator"]["n"], payload["generator"]["k"]) == (30, 3)
        payload["comment"] = payload["generator"]["comment"] = "ignored"
        assert ExperimentConfig.from_dict(payload) == config

    @settings(max_examples=150, deadline=None)
    @given(key=st.sampled_from(sorted(DOCUMENTED)), value=json_values)
    def test_any_json_value_exits_0_or_2_and_0_only_when_documented(self, key, value):
        with tempfile.TemporaryDirectory() as out:
            result = simulate_with(key, value, out)
        assert result.exit_code in (0, 2), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code == 0:
            assert DOCUMENTED[key](value)


class TestExperimentConfig:
    SPEC = standard_spec(Family.POINT_MASS, rho=1.0, n=30, pure=6)

    def test_unknown_profile_raises_at_construction(self):
        with pytest.raises(ValueError, match="unknown profile 'bogus'"):
            ExperimentConfig(generator=self.SPEC, sweep_values=(2.0,), profile="bogus")

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_no_replications_takes_the_profile_budget_as_json_does(self, profile):
        config = ExperimentConfig(generator=self.SPEC, sweep_values=(2.0,), profile=profile)
        assert config.replications == PROFILES[profile]
        payload = {"generator": self.SPEC.to_dict(), "sweep_values": [2.0], "profile": profile}
        assert ExperimentConfig.from_dict(payload) == config

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("replications", [None, 3])
    def test_to_dict_round_trips_through_json(self, profile, replications):
        config = dataclasses.replace(small_config(), profile=profile, replications=replications)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_an_absent_key_takes_its_field_default(self):
        config = small_config(values=(2.0,), reps=2)
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.init}
        for key in config.to_dict().keys() - {"generator", "sweep_values"}:
            payload = config.to_dict()
            del payload[key]
            assert ExperimentConfig.from_dict(payload) == dataclasses.replace(config, **{key: defaults[key]}), key

    def test_no_sweep_values_exits_2_as_empty(self, tmp_path):
        payload = small_config(values=(2.0,), reps=2).to_dict()
        del payload["sweep_values"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.splitlines() == ["error: bad config: sweep_values must be non-empty"]

    @pytest.mark.parametrize("key, value, what", [
        ("seed", True, "an integer"),
        ("replications", True, "an integer"),
        ("k_scan_max", True, "an integer"),
        ("estimate_counts", 1, "true or false"),
        ("profile", None, "a string"),
    ])
    def test_values_from_dict_refuses_are_refused(self, key, value, what):
        # the message from_dict gives for the same value in JSON
        message = f"{key} must be {what}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(small_config(), **{key: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict({**small_config().to_dict(), key: value})

    def test_numpy_seeds_reach_the_sweep_json(self, tmp_path):
        generator = dataclasses.replace(self.SPEC, seed=np.int64(3), rho=np.float32(0.5))
        config = ExperimentConfig(generator=generator, sweep_values=(np.float32(2.0),), replications=np.int64(1),
                                  estimate_counts=np.bool_(False), seed=np.uint32(2), profile="ci")
        run_simulation(config).write_json(tmp_path / "sweep.json")
        written = json.loads((tmp_path / "sweep.json").read_text())["config"]
        assert (written["seed"], written["replications"], written["estimate_counts"]) == (2, 1, False)
        assert (written["generator"]["seed"], written["generator"]["rho"]) == (3, 0.5)
        assert ExperimentConfig.from_dict(written) == config


def json_int(low, high):
    """A Python or numpy integer in [low, high], or a bool, which every
    constructor refuses for an int field."""
    numpy_int = st.builds(lambda cast, v: cast(v), st.sampled_from((np.int64, np.uint32, np.int8)),
                          st.integers(low, min(high, 127)))
    return st.integers(low, high) | numpy_int | st.booleans()


@st.composite
def spec_arguments(draw):
    """GeneratorSpec keyword arguments over every family: n <= 12, k <= 3,
    Dirichlet rows, and a symmetric P scaled to largest |entry| 1 (of full
    rank but for a rare draw), nonnegative where the family's means start
    at 0; rho in the family's range, as a Python or numpy float."""
    family = draw(st.sampled_from(list(Family)))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nonnegative = family in (Family.BERNOULLI, Family.POISSON, Family.UNIFORM)
    p = rng.uniform(0.0 if nonnegative else -1.0, 1.0, (k, k))
    p += p.T
    p /= np.abs(p).max()
    top = {Family.BERNOULLI: 1.0, Family.SIGNED: float(np.nextafter(1.0, 0.0))}.get(family, 1e300)
    cast = draw(st.sampled_from((float, np.float64, np.float32)))
    rho = draw(st.floats(5e-324, min(top, 1e38) if cast is np.float32 else top))
    return {
        "memberships": rng.dirichlet(np.ones(k), size=n),
        "connectivity": p,
        "rho": cast(rho),
        "distribution": EdgeDistribution(family, sigma2=draw(st.floats(1e-3, 1e3)) if family is Family.NORMAL else None),
        "sparsity": draw(st.none() | st.floats(0.0, 1.0)),
        "seed": draw(json_int(0, 2**63 - 1)),
    }


def round_trip(x):
    return type(x).from_dict(json.loads(json.dumps(x.to_dict(), allow_nan=False)))


@settings(max_examples=200, deadline=None)
@given(spec_arguments(), st.data())
def test_every_spec_and_config_that_constructs_round_trips_through_json(arguments, data):
    if isinstance(arguments["seed"], bool):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            GeneratorSpec(**arguments)
        return
    try:
        spec = GeneratorSpec(**arguments)
    except ValueError:
        event("spec refused")
        return
    before = round_trip(spec)
    assert before == spec
    arguments["memberships"][...] = 0.5
    arguments["connectivity"][...] = 0.5
    assert spec == before
    parameter = data.draw(st.sampled_from(["rho", "sparsity"]))
    values = (spec.rho,) if parameter == "rho" else data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    config = dict(generator=spec, sweep_parameter=parameter, sweep_values=tuple(values),
                  replications=data.draw(st.none() | json_int(1, 100)),
                  estimate_counts=data.draw(st.sampled_from((True, False, np.True_, np.False_))),
                  k_scan_max=data.draw(json_int(1, spec.n)), seed=data.draw(json_int(0, 2**63 - 1)),
                  profile=data.draw(st.sampled_from(sorted(PROFILES))))
    if any(isinstance(config[key], bool) for key in ("replications", "k_scan_max", "seed")):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentConfig(**config)
        return
    config = ExperimentConfig(**config)
    assert round_trip(config) == config
