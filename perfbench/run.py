"""mmdf benchmark: runs one workload and prints its metrics.

Run one workload for a fixed amount of program time and print its
metrics; the last line of stdout is one JSON object:

    python3 perfbench/run.py --workload signed-scan --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced blocks of ops, prints the
per-layer metrics of the traced blocks, the tracing overhead and the
layer-size profile. Other modes:

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --regen-reference [--workload NAME]
    python3 perfbench/run.py --check-reference [--workload NAME]

Every run appends a stamped record to perfbench/results/results.jsonl
(or --results PATH); traced runs also write their spans next to it.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
NPROC = len(os.sched_getaffinity(0))

# cap BLAS threads at the cores this process may use, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _requested = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_requested), NPROC) if _requested.isdigit() and int(_requested) > 0 else NPROC)
sys.path.insert(0, str(ROOT / "src"))

from tracer import TRACED, TraceError, Tracer, self_times  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
STAGES = ("eigendecomposition", "vertex-hunting", "inversion", "other")
PROFILE_DESIGNS = {200: 40, 800: 200, 1600: 400}  # n -> pure nodes per community
PROFILE_REPLICATES = 3
PROFILED = (
    "generator.sample_adjacency",
    "spectral.top_k_eigen",
    "spectral.successive_projection",
    "dfsp.dfsp",
    "dfsp.memberships_from_vectors",
    "modularity.estimate_k",
    "modularity.fuzzy_weighted_modularity",
)


def import_workloads():
    """Import the program from this checkout's src/, never from elsewhere."""
    import workloads

    import mmdf

    if ROOT / "src" not in Path(mmdf.__file__).resolve().parents:
        raise SystemExit(f"mmdf was imported from {mmdf.__file__}, not from {ROOT / 'src'}")
    return workloads


# ---------------------------------------------------------------- stamp

def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mmdf").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> tuple[str, int | None]:
    """BLAS name and version, and the thread count the library reports."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        loaded = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in loaded:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if threads is None and hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = int(getter())
    return f"{info.get('name')} {info.get('version')}", threads


def stamp(wl) -> dict:
    import numpy as np
    import scipy

    blas, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": NPROC,
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": {"name": wl.name, "n": wl.n, "k": wl.k, "families": wl.families},
    }


# ---------------------------------------------------------------- ops

class Runner:
    """Runs a workload's ops in a closed loop: one client, one op in flight."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer = Tracer()
        self.traced_ops: list[int] = []
        self.kind_of: dict[int, str] = {}
        self.times = {False: [], True: []}  # op wall times, keyed by traced
        self.rates = {False: [], True: []}  # ops/s of each rotation, keyed by traced
        self.attempted = 0
        self.failed = 0
        self.hamming: list[float] = []
        self.k_hits: list[float] = []

    def op(self, i: int, traced: bool) -> float:
        wl = self.wl
        op = wl.op(i)
        self.kind_of[i] = op.kind
        first_span = len(self.tracer.spans)
        self.tracer.op = i
        error = None
        start = perf_counter()
        try:
            result = wl.run(*op.call)
        except (Exception, SystemExit) as exc:  # an op that fails counts, the run goes on
            error = exc
        elapsed = perf_counter() - start
        self.attempted += 1
        ok = False
        if error is None:
            spans = list(enumerate(self.tracer.spans[first_span:], first_span)) if traced else None
            try:
                output = wl.outputs(op, result, spans)
                ok = wl.check(op, output)
            except Exception as exc:  # unreadable outputs are wrong outputs
                error = exc
            else:
                if "hamming" in output and output["failures"] == 0:
                    self.hamming.append(output["hamming"])
                if output.get("accuracy") is not None:
                    self.k_hits.append(output["accuracy"])
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                detail = "".join(traceback.format_exception(error)) if error else "output differs from reference"
                print(f"op {i} ({op.kind}) failed: {detail}", file=sys.stderr)
        if traced:
            self.traced_ops.append(i)
        return elapsed

    def run(self, seconds: float, trace: bool) -> None:
        """Warm up, then run whole rotations until `seconds` of op time.

        With trace, rotations alternate untraced and traced, so that both
        see the same op mix and drift in machine speed hits both alike.
        """
        wl = self.wl
        i = 0
        for _ in range(wl.warmup_ops):
            self.op(i, traced=False)
            i += 1
        busy = 0.0
        block = 0
        while busy < seconds or (trace and not self.times[True]):
            traced = trace and block % 2 == 1
            if traced:
                self.tracer.install()
            rotation = 0.0
            try:
                for _ in range(len(wl.kinds)):
                    elapsed = self.op(i, traced)
                    self.times[traced].append(elapsed)
                    rotation += elapsed
                    i += 1
            finally:
                self.tracer.uninstall()
            self.rates[traced].append(len(wl.kinds) / rotation)
            busy += rotation
            block += 1


# ---------------------------------------------------------------- metrics

def end_to_end(runner: Runner, setup: list[float]) -> dict[str, tuple[float, str]]:
    times = sorted(runner.times[False])
    count = len(times)
    # the highest order statistic with ten samples beyond it, or the
    # maximum when there are too few samples for that
    tail_rank = count - 11 if count > 10 else count - 1
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(runner.rates[False]), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # reported, but too noisy on a shared machine to bound
    extras = {
        "op_tail_ms": (1e3 * times[tail_rank], "ms"),
        "op_tail_pct": (100.0 * (tail_rank + 1) / count, "%"),
        "timed_ops": (float(count), "count"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
    }
    if runner.hamming:
        extras["mean_hamming"] = (statistics.fmean(runner.hamming), "l1")
    if runner.wl.name == "signed-scan":
        extras["k_accuracy"] = (statistics.fmean(runner.k_hits) if runner.k_hits else 0.0, "ratio")
    return metrics, extras


def per_layer(runner: Runner) -> tuple[dict, dict]:
    spans = runner.tracer.finished()
    own = self_times(spans)
    ops = len(runner.traced_ops)
    calls, self_s = Counter(), Counter()
    by_kind = defaultdict(Counter)
    n3 = 0
    fits = fits_ok = 0
    stages = Counter()
    for span, s_own in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += s_own
        by_kind[runner.kind_of[span.op]][span.name] += 1
        if span.name == "spectral.top_k_eigen" and isinstance(span.note, int):
            n3 += span.note ** 3
        if span.name == "dfsp.dfsp":
            fits += 1
            if isinstance(span.note, str) and span.note.startswith("raised:"):
                stage = span.note.removeprefix("raised:")
                stages[stage if stage in STAGES else "other"] += 1
            else:
                fits_ok += 1
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (1e3 * self_s[name] / ops, "ms/op")
    metrics["spectral.top_k_eigen.n3"] = (n3 / ops, "n3/op")
    for stage in STAGES:
        metrics[f"dfsp.dfsp.failures.{stage}"] = (stages[stage] / ops, "count/op")
    metrics["dfsp.dfsp.ok_ratio"] = (fits_ok / fits if fits else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(runner.rates[True]) / statistics.median(runner.rates[False]), "ratio")
    ops_of_kind = Counter(runner.kind_of[i] for i in runner.traced_ops)
    calls_by_kind = {kind: {name: counts[name] / ops_of_kind[kind] for name in TRACED}
                     for kind, counts in sorted(by_kind.items())}
    return metrics, calls_by_kind


def layer_profile(workloads, seed: int) -> dict[str, tuple[float, str]]:
    """Self time per replicate of the fit and scan layers on the signed
    design at several sizes; the median over a few replicates."""
    from mmdf.generator import Family
    from mmdf.harness import ExperimentConfig

    metrics = {}
    for n, pure in PROFILE_DESIGNS.items():
        spec = workloads.design_spec(Family.SIGNED, 0.5, n, pure)
        per_rep = defaultdict(list)
        for r in range(PROFILE_REPLICATES):
            config = ExperimentConfig(generator=spec, sweep_values=(0.5,), replications=1,
                                      estimate_counts=True, k_scan_max=workloads.SignedScan.k_scan_max,
                                      seed=7_000_000 + 1000 * seed + r, profile="ci")
            tracer = Tracer()
            tracer.install()
            try:
                workloads.Replicates.run(config)
            finally:
                tracer.uninstall()
            spans = tracer.finished()
            totals = Counter()
            for span, s_own in zip(spans, self_times(spans)):
                totals[span.name] += s_own
            for name in PROFILED:
                per_rep[name].append(totals[name])
        for name in PROFILED:
            metrics[f"{name}.self_ms.n{n}"] = (1e3 * statistics.median(per_rep[name]), "ms/rep")
    return metrics


def check_calls(runner: Runner) -> None:
    """Fail loudly when a layer the reference run called was never called."""
    baseline = runner.wl.reference["calls_per_op"]
    expected = {name for counts in baseline.values() for name, c in counts.items() if c > 0}
    seen = {span.name for span in runner.tracer.finished()}
    missing = sorted(expected - seen)
    if missing:
        raise TraceError(f"{runner.wl.name}: no calls recorded for {', '.join(missing)}, "
                         "which the reference run calls")


# ---------------------------------------------------------------- modes

def measure_setup(workload: str, seed: int):
    """Import the program, build the workload and load its reference."""
    start = perf_counter()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[workload].load(seed)
    return perf_counter() - start, workloads, wl


def child_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def declared_metrics(key: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]


def report(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:>16.6g} {unit}")


def run_benchmark(args) -> int:
    elapsed, workloads, wl = measure_setup(args.workload, args.seed)
    setup = [elapsed]
    runner = Runner(wl)
    try:
        setup += [child_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        runner.run(args.seconds, bool(args.trace))
    finally:
        wl.close()
    e2e, extras = end_to_end(runner, setup)
    record = {"stamp": stamp(wl), "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": runner.attempted, "failed": runner.failed}
    print(f"workload {wl.name} seed {args.seed}: {runner.attempted} ops attempted, {runner.failed} failed")
    print("end to end (untraced ops):")
    report({**e2e, **extras})
    if args.trace:
        layers, calls_by_kind = per_layer(runner)
        check_calls(runner)
        layers.update(layer_profile(workloads, args.seed))
        print(f"per layer ({len(runner.traced_ops)} traced ops):")
        report(layers)
        print("spectral.top_k_eigen calls per op, by op kind:")
        for kind, counts in calls_by_kind.items():
            print(f"  {kind:52s} {counts['spectral.top_k_eigen']:>16.6g}")
        record.update(calls_by_kind=calls_by_kind, bindings=runner.tracer.bindings)
        printed = layers
        declared = declared_metrics("per_layer")
    else:
        printed = e2e
        declared = declared_metrics("end_to_end")
    if sorted(printed) != sorted(declared):
        raise SystemExit(f"metrics {sorted(set(printed) ^ set(declared))} differ from BENCHMARK.json")
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in {**e2e, **extras, **printed}.items()}
    results = Path(args.results) if args.results else RESULTS_DIR / "results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    if args.trace:
        spans_path = results.parent / f"spans-{wl.name}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        with gzip.open(spans_path, "wt") as f:
            for span in runner.tracer.finished():
                f.write(json.dumps(span._asdict()) + "\n")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": printed[name][0], "unit": printed[name][1]} for name in declared},
    }
    print(json.dumps(result))
    return 0


def generate_reference(workloads, name: str) -> dict:
    """Run every op of the workload's pool once, traced, in pool order."""
    wl = workloads.WORKLOADS[name](0, None)
    tracer = Tracer()
    ops = []
    calls = defaultdict(Counter)
    tracer.install()
    try:
        for index, entry in enumerate(wl.pool):
            op = workloads.Op(index, entry["kind"], wl.prepare(entry))
            first = len(tracer.spans)
            tracer.op = index
            result = wl.run(*op.call)
            spans = list(enumerate(tracer.spans[first:], first))
            ops.append({"input": entry, "output": wl.outputs(op, result, spans)})
            calls[entry["kind"]].update(span.name for _, span in spans)
    finally:
        tracer.uninstall()
        wl.close()
    per_kind = Counter(entry["kind"] for entry in wl.pool)
    return {
        "stamp": stamp(wl),
        "calls_per_op": {kind: {fn: calls[kind][fn] / per_kind[kind] for fn in TRACED} for kind in per_kind},
        "ops": ops,
    }


def reference_modes(args) -> int:
    workloads = import_workloads()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    status = 0
    for name in names:
        fresh = generate_reference(workloads, name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        if args.regen_reference:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
            print(f"{name}: wrote {len(fresh['ops'])} ops to {path.relative_to(ROOT)}")
            continue
        stored = json.loads(path.read_text())
        bad = [i for i, (a, b) in enumerate(zip(stored["ops"], fresh["ops"]))
               if a["input"] != b["input"] or not workloads.matches(a["output"], b["output"])]
        if len(stored["ops"]) != len(fresh["ops"]):
            bad.append("count")
        same_calls = stored["calls_per_op"] == fresh["calls_per_op"]
        print(f"{name}: {len(fresh['ops'])} ops regenerated, {len(bad)} differ from the stored reference; "
              f"call counts {'match' if same_calls else 'DIFFER'}")
        if bad or not same_calls:
            print(f"  differing ops: {bad[:20]}")
            status = 1
    return status


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path: str, new_path: str) -> int:
    """Median and quartiles of each end-to-end metric per workload, and
    the per-layer call and self-time ratios, for two results files."""
    def load(path):
        groups = defaultdict(list)
        for line in Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
        return groups

    old, new = load(old_path), load(new_path)
    e2e_names = declared_metrics("end_to_end")
    for workload in sorted({w for w, _ in old} | {w for w, _ in new}):
        print(f"== {workload}")
        runs_old, runs_new = old.get((workload, 0), []), new.get((workload, 0), [])
        print(f"  end to end: {len(runs_old)} old runs, {len(runs_new)} new runs "
              "(median [q1, q3]; ratio = new median / old median)")
        for name in e2e_names + ["op_tail_ms", "op_tail_pct", "timed_ops", "error_rate", "mean_hamming", "k_accuracy"]:
            cols = []
            for runs in (runs_old, runs_new):
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                cols.append(_quartiles(values) if values else None)
            if cols == [None, None]:
                continue
            text = ["-" if c is None else f"{c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]" for c in cols]
            ratio = f"{cols[1][1] / cols[0][1]:.4f}" if None not in cols and cols[0][1] else "-"
            print(f"    {name:20s} old {text[0]:38s} new {text[1]:38s} ratio {ratio}")
        traced_old, traced_new = old.get((workload, 1), []), new.get((workload, 1), [])
        if not (traced_old and traced_new):
            continue
        print(f"  per layer: {len(traced_old)} old traced runs, {len(traced_new)} new "
              "(medians per op; ratio = new / old)")
        for name in TRACED:
            cells = []
            for field in ("calls", "self_ms"):
                medians = [statistics.median(r["metrics"][f"{name}.{field}"]["value"] for r in runs)
                           for runs in (traced_old, traced_new)]
                ratio = f"{medians[1] / medians[0]:.4f}" if medians[0] else ("-" if not medians[1] else "new")
                cells.append(f"{field} {medians[0]:.6g} -> {medians[1]:.6g} ({ratio})")
            print(f"    {name:38s} {cells[0]:36s} {cells[1]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["signed-scan", "dense-fit", "real-detect"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", help="results file to append to")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--regen-reference", action="store_true")
    parser.add_argument("--check-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.regen_reference or args.check_reference:
        return reference_modes(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(repr(measure_setup(args.workload, args.seed)[0]))
        return 0
    try:
        return run_benchmark(args)
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
