"""The benchmark's tracer must still bind every function it traces.

perfbench/tracer.py wraps named mmdf functions at every module global
that binds them and raises TraceError when one is unbound. Installing
it here makes a refactor that moves or renames a traced function fail
the test suite, not only a traced benchmark run. The tracer file is
imported as it is and never changed.
"""

import importlib
import sys
from pathlib import Path

import mmdf.cli  # noqa: F401  imports every mmdf module the tracer patches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    monkeypatch.delitem(sys.modules, "tracer")
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
