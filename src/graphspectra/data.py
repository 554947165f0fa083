"""Bundled datasets: Zachary's karate club network and its faction split."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .clustering import ClusteringResult
from .graphs import Graph, _converters, _parse_endpoint, load_pajek


def karate_net_path() -> Path:
    """Filesystem path of the bundled karate club .net file (34 nodes, 78 edges)."""
    return Path(str(resources.files(__package__) / "data" / "karate.net"))


def karate_factions_path() -> Path:
    """Filesystem path of the bundled faction membership file (1-based ids)."""
    return Path(str(resources.files(__package__) / "data" / "karate_factions.txt"))


def karate_graph() -> Graph:
    """The karate club graph, loaded from the bundled Pajek file."""
    return load_pajek(karate_net_path().read_text())


def load_truth_labels(text: str, n: int, index_base: int = 1) -> ClusteringResult:
    """Parse a ground-truth label file: one ``vertex_id label`` pair per line.

    Vertex ids are numbered from ``index_base``, the graph's own numbering,
    in the file and in its error messages. A leading byte-order mark is
    dropped. Every error is a plain ``ValueError``.
    """
    labels = np.full(n, -1, dtype=int)
    top = int(np.iinfo(labels.dtype).max)
    text = text.removeprefix("\ufeff")
    to_int, _ = _converters(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        where = f"truth file line {lineno}"
        if len(tokens) != 2:
            raise ValueError(f"{where}: expected 'vertex_id label'")
        try:
            v = _parse_endpoint(tokens[0], n, index_base, lineno, to_int)
        except ValueError as exc:  # a GraphFormatError: this is no graph file
            raise ValueError(f"truth file {exc}") from None
        try:
            label = to_int(tokens[1])
        except ValueError:
            raise ValueError(f"{where}: non-numeric label {tokens[1]!r}") from None
        if label < 0:
            raise ValueError(f"{where}: labels must be non-negative")
        if label > top:
            raise ValueError(f"{where}: label {label} exceeds {top}")
        if labels[v] >= 0:
            raise ValueError(f"{where}: duplicate vertex id {v + index_base}")
        labels[v] = label
    if np.any(labels < 0):
        missing = int(np.flatnonzero(labels < 0)[0]) + index_base
        raise ValueError(f"truth file is missing a label for vertex {missing}")
    k = int(labels.max()) + 1
    return ClusteringResult(
        labels=labels, inertia=0.0, kind=None, k=k, empty_clusters=(), index_base=index_base
    )


def karate_factions() -> ClusteringResult:
    """Recorded faction membership of the 34 club members as a labeling."""
    return load_truth_labels(karate_factions_path().read_text(), 34)
