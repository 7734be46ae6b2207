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

import numpy as np

from .graph import GroundTruth, WeightedGraph, load_edge_list

__all__ = [
    "DatasetInfo",
    "Dataset",
    "DATASETS",
    "DatasetMissing",
    "load_dataset",
    "available_datasets",
    "default_cache_dir",
]


class DatasetMissing(FileNotFoundError):
    """Requested dataset is not bundled and not present in the cache."""


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    bundled: bool
    true_k: int | None = None  # community count, when the curators give one
    has_labels: bool = False   # per-node ground-truth communities
    named_nodes: bool = False  # ships a node roster sidecar


DATASETS: dict[str, DatasetInfo] = {
    "gahuku-gama": DatasetInfo("gahuku-gama", bundled=True, true_k=3, has_labels=True, named_nodes=True),
    "karate": DatasetInfo("karate", bundled=True, true_k=2, has_labels=True, named_nodes=True),
    "slovene-parties": DatasetInfo("slovene-parties", bundled=True, true_k=2, named_nodes=True),
    "train-bombing": DatasetInfo("train-bombing", bundled=False),
    "les-miserables": DatasetInfo("les-miserables", bundled=False, named_nodes=True),
    "us-top500-airports": DatasetInfo("us-top500-airports", bundled=False, named_nodes=True),
    "polblogs": DatasetInfo("polblogs", bundled=False, true_k=2, has_labels=True),
    "us-airports": DatasetInfo("us-airports", bundled=False, named_nodes=True),
}


@dataclass(frozen=True)
class Dataset:
    info: DatasetInfo
    graph: WeightedGraph
    truth: GroundTruth | None


def default_cache_dir() -> Path:
    env = os.environ.get("MMDF_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "data"


def _fixture_path(filename: str) -> Path:
    return Path(__file__).resolve().parent / "data" / filename


def _dataset_files(info: DatasetInfo, cache_dir: Path | None) -> tuple[Path, Path | None, Path | None]:
    stem = info.name.replace("-", "_")
    base = _fixture_path("") if info.bundled else (cache_dir or default_cache_dir())
    edges = Path(base) / f"{stem}.edges"
    labels = Path(base) / f"{stem}.labels" if info.named_nodes else None
    truth = Path(base) / f"{stem}.truth" if info.has_labels else None
    return edges, labels, truth


def load_dataset(name: str, cache_dir: Path | str | None = None) -> Dataset:
    """Load a registered dataset by name.

    Raises DatasetMissing when a non-bundled dataset has not been
    fetched into the cache directory yet, and KeyError for unknown
    names.
    """
    info = DATASETS[name]
    cache = Path(cache_dir) if cache_dir is not None else None
    edges_path, labels_path, truth_path = _dataset_files(info, cache)
    if not edges_path.exists():
        raise DatasetMissing(
            f"dataset {name!r} not found at {edges_path}; run "
            "scripts/fetch_datasets.py to download it"
        )
    graph = load_edge_list(edges_path, labels_path=labels_path if labels_path and labels_path.exists() else None)
    truth = None
    if truth_path is not None and truth_path.exists():
        labels = np.array(
            [int(ln) for ln in truth_path.read_text().split()], dtype=int
        )
        if len(labels) != graph.n:
            raise ValueError(f"{truth_path} has {len(labels)} labels for {graph.n} nodes")
        truth = GroundTruth(labels=labels)
    return Dataset(info=info, graph=graph, truth=truth)


def available_datasets(cache_dir: Path | str | None = None) -> list[str]:
    """Names of datasets loadable right now (bundled or cached)."""
    out = []
    for name, info in DATASETS.items():
        edges_path, _, _ = _dataset_files(info, Path(cache_dir) if cache_dir else None)
        if edges_path.exists():
            out.append(name)
    return out
