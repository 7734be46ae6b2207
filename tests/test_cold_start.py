"""Cold start: importing mmdf and running it loads no scipy.

scipy is a test-only dependency, and importing it costs more than every
CLI command on the bundled networks; numpy.ma (which np.unique imports)
costs about 20 ms and 0.5 MB. A fresh interpreter imports the package
and the CLI, runs detect, scan-k and datasets, a simulation with the
count scan at n = 160 (so the partial LAPACK eigensolver runs),
sparsity-thinned sampling (disconnected and not) and the error metrics
at k=9, and then lists the heavy modules that were loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, warnings
import numpy as np
import mmdf, mmdf.cli
from mmdf.cli import main
from mmdf.generator import DisconnectedSampleWarning, Family, sample_adjacency
from mmdf.harness import ExperimentConfig, run_simulation
from conftest import standard_spec

out, data = sys.argv[1], sys.argv[2]
edges, labels = data + "/karate.edges", data + "/karate.labels"
for args in (
    ["detect", edges, "--labels", labels, "--out", out + "/detect"],
    ["scan-k", edges, "--labels", labels, "--k-max", "5", "--out", out + "/scan"],
    ["datasets", "--only", "karate", "--out", out + "/datasets"],
):
    main(args, standalone_mode=False)
config = ExperimentConfig(
    generator=standard_spec(Family.BERNOULLI, rho=0.5, n=160, pure=32),
    sweep_values=(0.5,),
    replications=1,
    estimate_counts=True,
    k_scan_max=4,
)
run_simulation(config)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for sparsity in (0.0, 0.5):
        sample_adjacency(standard_spec(Family.NORMAL, rho=5.0, n=40, pure=8, sparsity=sparsity))
assert [w.category for w in caught] == [DisconnectedSampleWarning]
rng = np.random.default_rng(0)
mmdf.membership_errors(rng.dirichlet(np.ones(9), size=30), rng.dirichlet(np.ones(9), size=30))
mmdf.mislabel_count(rng.integers(0, 9, size=30), rng.integers(0, 9, size=30))
heavy = [m for m in sys.modules if m.startswith("scipy") or m in ("concurrent.futures.process", "numpy.ma")]
print(json.dumps(sorted(heavy)))
"""


def test_common_paths_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT / "src" / "mmdf" / "data")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "detect" / "detect.json").exists()
    assert (tmp_path / "scan" / "scan.csv").exists()
    assert (tmp_path / "datasets" / "datasets.csv").exists()
    assert json.loads(done.stdout.splitlines()[-1]) == []
