"""The benchmark's three workloads: inputs, one op, and its outputs.

Every workload draws its ops from a fixed pool whose outputs were
stored in reference/<name>.json at the commit that defined the
benchmark. The workload seed permutes the pool, so the same seed gives
the same ops in the same order. Ops rotate over the workload's kinds
(the rho values, the weight families or the CLI commands) so that any
window of consecutive ops holds an even mix of them.

Importing this module imports mmdf; run.py puts the checkout's src/
on sys.path first.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mmdf
import mmdf.cli
import mmdf.harness
from mmdf.generator import EdgeDistribution, Family, GeneratorSpec, build_membership, check_connectivity

# simulation design constants, as in the acceptance suite's conftest
P_SIGNED = np.array([
    [1.0, -0.2, -0.3],
    [-0.2, 0.9, 0.3],
    [-0.3, 0.3, 0.9],
])
P_NONNEG = np.array([
    [1.0, 0.2, 0.3],
    [0.2, 0.9, 0.3],
    [0.3, 0.3, 0.9],
])
MIXED_PROFILES = [
    np.array([0.4, 0.4, 0.2]),
    np.array([0.4, 0.2, 0.4]),
    np.array([0.2, 0.4, 0.4]),
    np.array([1 / 3, 1 / 3, 1 / 3]),
]

TOLERANCE = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def design_spec(family: Family, rho: float, n: int, pure: int) -> GeneratorSpec:
    """Three communities, `pure` pure nodes each, the rest split evenly
    over the four mixed profiles; the signed P only for the normal family."""
    mixed = (n - 3 * pure) // 4
    dist = EdgeDistribution(family, sigma2=2.0 if family is Family.NORMAL else None)
    p = P_SIGNED if family is Family.NORMAL else P_NONNEG
    return GeneratorSpec(
        memberships=build_membership(n, 3, pure, [(m, mixed) for m in MIXED_PROFILES]),
        connectivity=check_connectivity(p, dist),
        rho=rho,
        distribution=dist,
    )


def matches(expected, actual) -> bool:
    """Exact for ints, strings, None and list shapes; floats within TOLERANCE."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return abs(expected - actual) <= TOLERANCE
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(map(matches, expected, actual))
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(matches(expected[k], actual[k]) for k in expected)
    return type(expected) is type(actual) and expected == actual


@dataclass
class Op:
    index: int          # position in the reference pool
    kind: str
    call: tuple         # positional arguments of the program call


class Workload:
    """A pool of ops with stored outputs, drawn in a seed-given order."""

    name: str
    warmup_ops: int
    n: str
    k: str
    families: list[str]

    def __init__(self, seed: int, reference: dict | None):
        self.reference = reference
        self.pool = self.pool_inputs()
        self.kinds = list(dict.fromkeys(entry["kind"] for entry in self.pool))
        rng = np.random.default_rng(seed)
        self.kind_order = [self.kinds[i] for i in rng.permutation(len(self.kinds))]
        self.members = {}
        for kind in self.kinds:
            indices = [i for i, entry in enumerate(self.pool) if entry["kind"] == kind]
            self.members[kind] = [indices[j] for j in rng.permutation(len(indices))]

    @classmethod
    def load(cls, seed: int) -> "Workload":
        path = REFERENCE_DIR / f"{cls.name}.json"
        return cls(seed, json.loads(path.read_text()))

    def op(self, i: int) -> Op:
        """The i-th op of the run, with its program inputs built."""
        kind = self.kind_order[i % len(self.kinds)]
        members = self.members[kind]
        index = members[(i // len(self.kinds)) % len(members)]
        return Op(index, kind, self.prepare(self.pool[index]))

    def check(self, op: Op, output: dict) -> bool:
        stored = self.reference["ops"][op.index]
        if stored["input"] != self.pool[op.index]:
            return False
        expected = stored["output"]
        if not output.keys() <= expected.keys():
            return False
        return matches({k: expected[k] for k in output}, output)

    def close(self) -> None:
        pass


class Replicates(Workload):
    """One op is one Monte Carlo replicate through harness.run_simulation."""

    estimate_counts: bool
    k_scan_max = 5
    per_kind: int
    designs: dict[str, tuple[Family, float, int, int]]  # kind -> (family, rho, n, pure)

    def __init__(self, seed, reference):
        self.specs = {kind: design_spec(*design) for kind, design in self.designs.items()}
        super().__init__(seed, reference)

    def pool_inputs(self):
        return [
            {"kind": kind, "rho": self.designs[kind][1], "seed": 100_000 + 1000 * ki + j}
            for ki, kind in enumerate(self.designs)
            for j in range(self.per_kind)
        ]

    def prepare(self, entry):
        config = mmdf.harness.ExperimentConfig(
            generator=self.specs[entry["kind"]],
            sweep_values=(entry["rho"],),
            replications=1,
            estimate_counts=self.estimate_counts,
            k_scan_max=self.k_scan_max,
            seed=entry["seed"],
            profile="ci",
        )
        return (config,)

    @staticmethod
    def run(config):
        return sys.modules["mmdf.harness"].run_simulation(config)

    def outputs(self, op: Op, report, spans=None) -> dict:
        """Aggregates of the one-replicate sweep; with the op's spans, also
        the chosen community count and the failing stage of the fit."""
        cell = report.cells[0]
        out = {
            "hamming": cell.mean_hamming,
            "relative": cell.mean_relative,
            "accuracy": cell.accuracy,
            "failures": cell.failures,
        }
        if spans is not None:
            roots = [i for i, s in spans if s.parent < 0 and s.name == "harness.run_simulation"]
            if len(roots) != 1:
                raise ValueError(f"expected one run_simulation span, got {len(roots)}")
            children = [s for _, s in spans if s.parent == roots[0]]
            scans = [s.note for s in children if s.name == "modularity.estimate_k"]
            fails = [s.note for s in children if s.name == "dfsp.dfsp" and str(s.note).startswith("raised:")]
            out["k_hat"] = scans[0] if scans and isinstance(scans[0], int) else None
            out["stage"] = fails[0].removeprefix("raised:") if fails else None
        return out


class SignedScan(Replicates):
    name = "signed-scan"
    warmup_ops = 1
    estimate_counts = True
    per_kind = 40
    designs = {f"rho={rho}": (Family.SIGNED, rho, 800, 200) for rho in (0.2, 0.5, 0.8)}
    n, k, families = "800", "3", ["signed"]


class DenseFit(Replicates):
    name = "dense-fit"
    warmup_ops = 4
    estimate_counts = False
    per_kind = 256
    # mid-range rho of each family's acceptance sweep
    designs = {
        "normal": (Family.NORMAL, 50.0, 200, 40),
        "bernoulli": (Family.BERNOULLI, 0.5, 200, 40),
        "poisson": (Family.POISSON, 2.0, 200, 40),
        "uniform": (Family.UNIFORM, 10.0, 200, 40),
    }
    n, k, families = "200", "3", list(designs)


class RealDetect(Workload):
    """One op is one CLI command, run in process with stdout captured."""

    name = "real-detect"
    warmup_ops = 12
    k, families = "2-8 (scanned up to 8)", ["real"]
    commands = ("detect", "scan-k", "datasets")

    def __init__(self, seed, reference):
        root = Path(mmdf.__file__).resolve().parents[2]
        fixtures = Path(mmdf.__file__).resolve().parent / "data"
        self.cache = root / "data"
        self.networks = {
            "karate": fixtures / "karate",
            "gahuku-gama": fixtures / "gahuku_gama",
            "slovene-parties": fixtures / "slovene_parties",
            "les-miserables": self.cache / "les_miserables",
        }
        for stem in self.networks.values():
            for suffix in (".edges", ".labels"):
                if not stem.with_suffix(suffix).is_file():
                    raise FileNotFoundError(f"missing network file {stem.with_suffix(suffix)}")
        self.work_dir = Path(__file__).resolve().parent / "results" / f"cli-out-{os.getpid()}"
        self.n = ", ".join(f"{name}={_node_count(stem)}" for name, stem in self.networks.items())
        super().__init__(seed, reference)

    def pool_inputs(self):
        return [
            {"kind": f"{command}:{network}", "command": command, "network": network}
            for network in self.networks
            for command in self.commands
        ]

    def prepare(self, entry):
        out = self.work_dir / entry["kind"].replace(":", "-")
        if out.exists():
            shutil.rmtree(out)
        command, network = entry["command"], entry["network"]
        stem = self.networks[network]
        if command == "datasets":
            argv = ["datasets", "--only", network, "--cache", str(self.cache)]
        else:
            argv = [command, str(stem.with_suffix(".edges")), "--labels", str(stem.with_suffix(".labels"))]
        return (argv + ["--k-max", "8", "--out", str(out)],)

    @staticmethod
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return sys.modules["mmdf.cli"].main(argv, standalone_mode=False)

    def outputs(self, op: Op, result, spans=None) -> dict:
        out = Path(op.call[0][-1])
        command = self.pool[op.index]["command"]
        if command == "detect":
            summary = json.loads((out / "detect.json").read_text())
            return {
                "k": summary["k"],
                "q": summary["q"],
                "labels": [int(x) for x in (out / "labels.csv").read_text().split()],
                "memberships": [[float(x) for x in line.split(",")]
                                for line in (out / "memberships.csv").read_text().splitlines()],
            }
        if command == "scan-k":
            rows = list(csv.DictReader((out / "scan.csv").read_text().splitlines()))
            return {
                "k": json.loads((out / "scan.json").read_text())["best_k"],
                "curve": [[int(r["k"]), float(r["q"]) if r["q"] else None] for r in rows],
            }
        (row,) = csv.DictReader((out / "datasets.csv").read_text().splitlines())
        return {
            "n": int(row["n"]),
            "k": int(row["best_k"]),
            "q": float(row["q"]),
            "eta_mixed": float(row["eta_mixed"]),
            "eta_pure": float(row["eta_pure"]),
            "mislabels": int(row["mislabels"]) if row["mislabels"] else None,
            "notice": row["notice"],
        }

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _node_count(stem: Path) -> int:
    return sum(1 for line in stem.with_suffix(".labels").read_text().splitlines()
               if line.strip() and not line.startswith("#"))


WORKLOADS = {cls.name: cls for cls in (SignedScan, DenseFit, RealDetect)}
