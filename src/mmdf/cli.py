"""Command-line front end.

Subcommands: ``simulate`` (Monte Carlo sweep from a JSON config),
``detect`` (memberships for one graph), ``scan-k`` (modularity curve
over community counts), ``datasets`` (regression suite over registered
real networks). All outputs are CSV/JSON; reruns with identical
arguments and seeds reproduce output files byte for byte.

Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 estimation failure.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .datasets import DATASETS, available_datasets
from .dfsp import EstimationError
from .graph import load_edge_list
from .harness import (
    ExperimentConfig,
    PROFILES,
    detect_graph,
    run_dataset_suite,
    run_simulation,
    write_csv,
    write_dataset_csv,
    write_json,
)
from .modularity import estimate_k

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exit_codes(config_prefix: str = ""):
    """Every command's error policy, applied as a decorator: an OSError
    exits 3, a ValueError or KeyError 2 (its message after
    config_prefix), an EstimationError 4, each with one ``error:`` line
    instead of a traceback."""
    try:
        yield
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except (ValueError, KeyError) as exc:
        _fail(EXIT_CONFIG, f"{config_prefix}{exc}")
    except EstimationError as exc:
        _fail(EXIT_ESTIMATION, f"estimation failed at stage {exc.stage!r}: {exc}")


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Overlapping community detection for weighted and signed networks."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON experiment config.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@click.option("--profile", type=click.Choice(sorted(PROFILES)), default=None,
              help="Set the profile and its replication budget ("
              + ", ".join(f"{p}={n}" for p, n in PROFILES.items()) + ").")
@click.option("--workers", type=int, default=1, show_default=True)
# a ValueError from the run is a draw no solver takes (weights near the float64 limit)
@_exit_codes("bad config: ")
def simulate(config_path: str, seed: int | None, out_dir: str, profile: str | None, workers: int) -> None:
    """Run a Monte Carlo sweep and write sweep.csv / sweep.json."""
    config = ExperimentConfig.from_json(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    if profile is not None:
        config = replace(config, profile=profile, replications=None)
    report = run_simulation(config, workers=workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "sweep.csv")
    report.write_json(out / "sweep.json")
    click.echo(f"wrote {out / 'sweep.csv'} and {out / 'sweep.json'}")


@main.command()
@click.argument("graph_path", type=click.Path())
@click.option("--k", type=int, default=None, help="Community count; omit to select automatically.")
@click.option("--k-max", type=int, default=None, help="Scan ceiling for automatic selection.")
@click.option("--labels", "labels_path", type=click.Path(), default=None, help="Node roster sidecar.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@_exit_codes()
def detect(graph_path: str, k: int | None, k_max: int | None, labels_path: str | None, out_dir: str) -> None:
    """Estimate memberships for one edge-list graph."""
    graph = load_edge_list(graph_path, labels_path=labels_path)
    report = detect_graph(graph, k=k, k_max=k_max)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "memberships.csv", report.memberships.tolist())
    write_csv(out / "labels.csv", report.labels[:, None].tolist())
    write_json(out / "detect.json", {
        "k": report.best_k,
        "q": report.q,
        "eta_mixed": report.eta_mixed,
        "eta_pure": report.eta_pure,
        "eigenvalue_magnitudes": list(report.eigenvalue_magnitudes),
        "spectral_gap": report.spectral_gap,
        "vertex_indices": report.fit.vertex_indices.tolist(),
        "clipped_rows": report.fit.clipped_rows,
        "degenerate_rows": report.fit.degenerate_rows,
        "corner_condition": report.fit.corner_condition,
    })
    click.echo(f"k={report.best_k} q={report.q:.6f} (outputs in {out})")


@main.command(name="scan-k")
@click.argument("graph_path", type=click.Path())
@click.option("--k-max", type=int, default=None)
@click.option("--labels", "labels_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@_exit_codes()
def scan_k(graph_path: str, k_max: int | None, labels_path: str | None, out_dir: str) -> None:
    """Write the modularity-vs-k curve for one graph."""
    graph = load_edge_list(graph_path, labels_path=labels_path)
    scan = estimate_k(graph, k_max=k_max)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "scan.csv", ((p.k, p.modularity.q if p.ok else None) for p in scan.curve), header=("k", "q"))
    failures = {p.k: p.failure for p in scan.curve if not p.ok}
    write_json(out / "scan.json", {"best_k": scan.best_k, "k_max": scan.k_max, "failures": failures})
    click.echo(f"best_k={scan.best_k} (outputs in {out})")


@main.command()
@click.option("--only", "names", multiple=True, help="Restrict to these dataset names.")
@click.option("--k-max", type=int, default=8, show_default=True)
@click.option("--cache", "cache_dir", type=click.Path(), default=None, help="Downloaded-dataset cache directory.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@_exit_codes()
def datasets(names: tuple[str, ...], k_max: int, cache_dir: str | None, out_dir: str) -> None:
    """Run the regression suite over registered real networks."""
    if k_max < 1:
        _fail(EXIT_CONFIG, f"k_max must be >= 1, got {k_max}")
    for name in names:
        if name not in DATASETS:
            _fail(EXIT_CONFIG, f"unknown dataset {name!r}; known: {', '.join(DATASETS)}")
    rows = run_dataset_suite(list(names) or None, k_max=k_max, cache_dir=cache_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(rows, out / "datasets.csv")
    for r in rows:
        if r.best_k is None:
            click.echo(f"{r.name}: skipped ({r.notice})")
        else:
            mis = "" if r.mislabels is None else f" mislabels={r.mislabels}"
            notice = f" ({r.notice})" if r.notice else ""
            click.echo(f"{r.name}: n={r.n} best_k={r.best_k} q={r.q_best:.4f}{mis}{notice}")
    click.echo(f"available: {', '.join(available_datasets(cache_dir))}")


if __name__ == "__main__":
    main()
