"""The benchmark's tracer must still bind every function it traces.

perfbench/tracer.py wraps named mmdf functions at every module global
that binds them and raises TraceError when one is unbound. Installing
it here makes a refactor that moves or renames a traced function fail
the test suite, not only a traced benchmark run. The tracer file is
imported as it is and never changed.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import mmdf.cli  # noqa: F401  imports every mmdf module the tracer patches
from mmdf.generator import Family
from mmdf.harness import ExperimentConfig

from conftest import standard_spec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KARATE = Path(mmdf.__file__).resolve().parent / "data" / "karate"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    module = importlib.import_module("tracer")
    monkeypatch.delitem(sys.modules, "tracer")
    return module


def test_tracer_binds_every_traced_function(tracer):
    spectral = sys.modules["mmdf.spectral"]
    original = spectral.top_k_eigen
    t = tracer.Tracer()
    try:
        t.install()  # raises TraceError on a traced name no module binds
        assert set(t.bindings) == set(tracer.TRACED)
        assert spectral.top_k_eigen is not original
    finally:
        t.uninstall()
    assert spectral.top_k_eigen is original


def test_traced_ops_call_every_layer_the_reference_calls(tracer, tmp_path):
    # what run.py's check_calls asks of a traced benchmark run: every
    # layer that signed-scan or real-detect calls in the stored
    # reference records at least one span
    expected = set()
    for workload in ("signed-scan", "real-detect"):
        reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
        expected |= {name for counts in reference["calls_per_op"].values()
                     for name, count in counts.items() if count > 0}
    config = ExperimentConfig(
        generator=standard_spec(Family.SIGNED, rho=0.5, n=60, pure=12),
        sweep_values=(0.5,), replications=1, estimate_counts=True, k_scan_max=4, profile="ci",
    )
    edges, labels = str(KARATE.with_suffix(".edges")), str(KARATE.with_suffix(".labels"))
    t = tracer.Tracer()
    t.install()
    try:
        sys.modules["mmdf.harness"].run_simulation(config)
        cli = sys.modules["mmdf.cli"]
        cli.main(["detect", edges, "--labels", labels, "--k-max", "8", "--out", str(tmp_path / "detect")],
                 standalone_mode=False)
        cli.main(["datasets", "--only", "karate", "--k-max", "8", "--out", str(tmp_path / "datasets")],
                 standalone_mode=False)
    finally:
        t.uninstall()
    seen = {span.name for span in t.finished()}
    assert expected - seen == set()
