#!/usr/bin/env python3
"""Fetch the non-bundled datasets into the cache directory.

Usage:
    python scripts/fetch_datasets.py [--dest DIR] [--only NAME ...]

Downloads and converts to the package's edge-list format:

    train-bombing        konect.cc moreno_train (contact strengths)
    les-miserables       konect.cc moreno_lesmis (chapter co-occurrence
                         counts; falls back to networkx's bundled copy of
                         the same data when offline)
    us-top500-airports   toreopsahl.com US airport network, seat counts
    polblogs             political-blog hyperlinks; undirected simple
                         graph, largest connected component, with the
                         curated liberal/conservative labels
    us-airports          konect.cc opsahl-usairport flight counts;
                         directed counts are summed into undirected
                         weights here and isolated airports dropped

Each dataset becomes <dest>/<name>.edges (+ .labels / .truth where
applicable). Already-present files are kept unless --force is given.
"""

from __future__ import annotations

import argparse
import io
import sys
import tarfile
import urllib.request
import zipfile
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

KONECT = "http://konect.cc/files/download.tsv.{code}.tar.bz2"
SOURCES = {
    "train-bombing": KONECT.format(code="moreno_train"),
    "les-miserables": KONECT.format(code="moreno_lesmis"),
    "us-airports": KONECT.format(code="opsahl-usairport"),
    "us-top500-airports": "https://toreopsahl.com/datasets/openflights.txt",
    "polblogs": "http://websites.umich.edu/~mejn/netdata/polblogs.zip",
}


def fetch(url: str) -> bytes:
    print(f"  fetching {url}")
    with urllib.request.urlopen(url, timeout=120) as resp:
        return resp.read()


def konect_edges(blob: bytes) -> list[tuple[str, str, float]]:
    """Extract the out.* member of a konect tarball as (u, v, w) records."""
    edges = []
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:bz2") as tar:
        member = next(m for m in tar.getmembers() if "/out." in m.name)
        for raw in tar.extractfile(member).read().decode().splitlines():
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            parts = line.split()
            u, v = parts[0], parts[1]
            w = float(parts[2]) if len(parts) > 2 else 1.0
            edges.append((u, v, w))
    return edges


def write_edges(path: Path, records: list[tuple[str, str, float]], header: str) -> None:
    lines = [f"# {header}"]
    for u, v, w in records:
        w_txt = str(int(w)) if float(w).is_integer() else repr(w)
        lines.append(f"{u} {v} {w_txt}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"  wrote {path} ({len(records)} edges)")


def undirected_sum(edges: list[tuple[str, str, float]]) -> list[tuple[str, str, float]]:
    acc: dict[tuple[str, str], float] = defaultdict(float)
    for u, v, w in edges:
        if u == v:
            continue
        key = (u, v) if u <= v else (v, u)
        acc[key] += w
    return [(u, v, w) for (u, v), w in sorted(acc.items())]


def giant_component(records: list[tuple[str, str, float]]) -> tuple[list[tuple[str, str, float]], list[str]]:
    adj: dict[str, set[str]] = defaultdict(set)
    for u, v, _ in records:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[str] = set()
    best: set[str] = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        if len(comp) > len(best):
            best = comp
    kept = [(u, v, w) for u, v, w in records if u in best]
    return kept, sorted(best)


def do_train_bombing(dest: Path) -> None:
    edges = undirected_sum(konect_edges(fetch(SOURCES["train-bombing"])))
    write_edges(dest / "train_bombing.edges", edges, "train bombing contact network")


def do_les_miserables(dest: Path) -> None:
    try:
        edges = undirected_sum(konect_edges(fetch(SOURCES["les-miserables"])))
        names = None
    except Exception as exc:  # offline fallback: same data ships with networkx
        print(f"  download failed ({exc}); using networkx's bundled copy")
        import networkx as nx

        graph = nx.les_miserables_graph()
        names = sorted(graph.nodes())
        index = {name: i + 1 for i, name in enumerate(names)}
        edges = undirected_sum(
            [(str(index[u]), str(index[v]), float(d["weight"])) for u, v, d in graph.edges(data=True)]
        )
        edges = sorted(edges, key=lambda t: (int(t[0]), int(t[1])))
    write_edges(dest / "les_miserables.edges", edges, "character co-occurrence counts")
    if names:
        (dest / "les_miserables.labels").write_text("\n".join(names) + "\n", encoding="utf-8")


def do_us_top500(dest: Path) -> None:
    blob = fetch(SOURCES["us-top500-airports"]).decode()
    records = []
    for line in blob.splitlines():
        parts = line.replace(",", " ").split()
        if len(parts) >= 3 and parts[0].isdigit():
            records.append((parts[0], parts[1], float(parts[2])))
    edges = undirected_sum(records)
    write_edges(dest / "us_top500_airports.edges", edges, "US top-500 airports, seat capacities")


def do_polblogs(dest: Path) -> None:
    blob = fetch(SOURCES["polblogs"])
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        gml = next(n for n in zf.namelist() if n.endswith(".gml"))
        text = zf.read(gml).decode("latin-1")
    # minimal GML reader: node ids + value attribute, edge source/target
    values: dict[str, int] = {}
    records = []
    current_id = None
    in_node = in_edge = False
    source = target = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("node"):
            in_node, current_id = True, None
        elif line.startswith("edge"):
            in_edge, source, target = True, None, None
        elif in_node and line.startswith("id "):
            current_id = line.split()[1]
        elif in_node and line.startswith("value "):
            values[current_id] = int(line.split()[1])
        elif in_edge and line.startswith("source "):
            source = line.split()[1]
        elif in_edge and line.startswith("target "):
            target = line.split()[1]
        elif line.startswith("]"):
            if in_edge and source is not None and target is not None:
                records.append((source, target, 1.0))
                in_edge = False
            in_node = False
    simple = [(u, v, 1.0) for u, v, _ in undirected_sum(records)]
    kept, nodes = giant_component(simple)
    index = {node: i + 1 for i, node in enumerate(nodes)}
    renumbered = sorted(
        ((index[u], index[v]) if index[u] < index[v] else (index[v], index[u]) for u, v, _ in kept)
    )
    write_edges(
        dest / "polblogs.edges",
        [(str(u), str(v), 1.0) for u, v in renumbered],
        "political blog hyperlinks, undirected giant component",
    )
    (dest / "polblogs.truth").write_text("\n".join(str(values[node]) for node in nodes) + "\n", encoding="utf-8")
    print(f"  giant component: {len(nodes)} nodes")


def do_us_airports(dest: Path) -> None:
    edges = undirected_sum(konect_edges(fetch(SOURCES["us-airports"])))
    write_edges(dest / "us_airports.edges", edges, "US airports, flight counts (directed counts summed)")


HANDLERS = {
    "train-bombing": do_train_bombing,
    "les-miserables": do_les_miserables,
    "us-top500-airports": do_us_top500,
    "polblogs": do_polblogs,
    "us-airports": do_us_airports,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dest", type=Path, default=REPO_ROOT / "data")
    ap.add_argument("--only", action="append", choices=sorted(HANDLERS), default=None)
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()
    args.dest.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in args.only or sorted(HANDLERS):
        stem = name.replace("-", "_")
        if not args.force and (args.dest / f"{stem}.edges").exists():
            print(f"{name}: already cached")
            continue
        print(f"{name}:")
        try:
            HANDLERS[name](args.dest)
        except Exception as exc:
            print(f"  FAILED: {exc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
