"""Real-network registry: bundled fixtures and cached downloads.

Three small classic networks ship inside the package as edge-list
fixtures. Larger ones are fetched by ``scripts/fetch_datasets.py`` into
a cache directory (default ``data/`` next to the repository root, or
``$MMDF_DATA_DIR``) and load the same way once present.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .graph import ParseError, WeightedGraph, load_edge_list, read_text


class DatasetMissing(FileNotFoundError):
    """Requested dataset is not bundled and not present in the cache."""


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    bundled: bool
    true_k: int | None = None  # community count, when the curators give one


DATASETS: dict[str, DatasetInfo] = {
    "gahuku-gama": DatasetInfo("gahuku-gama", bundled=True, true_k=3),
    "karate": DatasetInfo("karate", bundled=True, true_k=2),
    "slovene-parties": DatasetInfo("slovene-parties", bundled=True, true_k=2),
    "train-bombing": DatasetInfo("train-bombing", bundled=False),
    "les-miserables": DatasetInfo("les-miserables", bundled=False),
    "us-top500-airports": DatasetInfo("us-top500-airports", bundled=False),
    "polblogs": DatasetInfo("polblogs", bundled=False, true_k=2),
    "us-airports": DatasetInfo("us-airports", bundled=False),
}


@dataclass(frozen=True)
class Dataset:
    info: DatasetInfo
    graph: WeightedGraph
    truth: tuple[int, ...] | None  # curated community index per node


# resolved once, at import; $MMDF_DATA_DIR is still read at every call
_PACKAGE_DIR = Path(__file__).resolve().parent


def default_cache_dir() -> Path:
    env = os.environ.get("MMDF_DATA_DIR")
    if env:
        return Path(env)
    return _PACKAGE_DIR.parents[1] / "data"


def _fixture_path(filename: str) -> Path:
    return _PACKAGE_DIR / "data" / filename


def _dataset_files(info: DatasetInfo, cache_dir: Path | None) -> tuple[Path, Path, Path]:
    """The edge list, node roster and curated truth paths of a dataset; the
    two sidecars are read only where they exist."""
    stem = info.name.replace("-", "_")
    base = _fixture_path("") if info.bundled else (cache_dir or default_cache_dir())
    return tuple(Path(base) / f"{stem}.{ext}" for ext in ("edges", "labels", "truth"))


def _read_truth(path: Path) -> tuple[int, ...]:
    """The whitespace-separated curated community indices of a .truth
    file; a token that is not a nonnegative int raises ParseError."""
    truth = []
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        for token in line.split():
            try:
                label = int(token)
            except ValueError:
                label = -1
            if label < 0:
                raise ParseError(path, line_no, f"{token!r} is not a nonnegative community index")
            truth.append(label)
    return tuple(truth)


def load_dataset(name: str, cache_dir: Path | str | None = None) -> Dataset:
    """Load a registered dataset by name, with its node roster and
    curated truth where those sidecars exist.

    Raises DatasetMissing when a non-bundled dataset has not been
    fetched into the cache directory yet, KeyError for unknown names,
    and ValueError naming the file for a malformed one.
    """
    info = DATASETS[name]
    cache = Path(cache_dir) if cache_dir is not None else None
    edges_path, labels_path, truth_path = _dataset_files(info, cache)
    if not edges_path.exists():
        raise DatasetMissing(
            f"dataset {name!r} not found at {edges_path}; run "
            "scripts/fetch_datasets.py to download it"
        )
    graph = load_edge_list(edges_path, labels_path=labels_path if labels_path.exists() else None)
    truth = None
    if truth_path.exists():
        truth = _read_truth(truth_path)
        if len(truth) != graph.n:
            raise ValueError(f"{truth_path} has {len(truth)} labels for {graph.n} nodes")
    return Dataset(info=info, graph=graph, truth=truth)


def available_datasets(cache_dir: Path | str | None = None) -> list[str]:
    """Names of datasets loadable right now (bundled or cached)."""
    out = []
    for name, info in DATASETS.items():
        edges_path, _, _ = _dataset_files(info, Path(cache_dir) if cache_dir else None)
        if edges_path.exists():
            out.append(name)
    return out
