"""Bundled datasets: Zachary's karate club network and its faction split."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .clustering import ClusteringResult
from .graphs import Graph, load_pajek, parse_number


def karate_net_path() -> Path:
    """Filesystem path of the bundled karate club .net file (34 nodes, 78 edges)."""
    return Path(str(resources.files(__package__) / "data" / "karate.net"))


def karate_factions_path() -> Path:
    """Filesystem path of the bundled faction membership file (1-based ids)."""
    return Path(str(resources.files(__package__) / "data" / "karate_factions.txt"))


def karate_graph() -> Graph:
    """The karate club graph, loaded from the bundled Pajek file."""
    return load_pajek(karate_net_path().read_text())


def _parse_truth_int(token: str, what: str, lineno: int) -> int:
    try:
        return parse_number(int, token)
    except ValueError:
        raise ValueError(f"truth file line {lineno}: non-numeric {what} {token!r}") from None


def load_truth_labels(text: str, n: int, index_base: int = 1) -> ClusteringResult:
    """Parse a ground-truth label file: one ``vertex_id label`` pair per line, 1-based.

    ``index_base`` sets the numbering used when the result is compared
    against a clustering (it does not change how the file is read).
    """
    labels = np.full(n, -1, dtype=int)
    top = int(np.iinfo(labels.dtype).max)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"truth file line {lineno}: expected 'vertex_id label'")
        vid = _parse_truth_int(tokens[0], "vertex id", lineno)
        label = _parse_truth_int(tokens[1], "label", lineno)
        if not 1 <= vid <= n:
            raise ValueError(f"truth file line {lineno}: vertex id {vid} out of range")
        if label < 0:
            raise ValueError(f"truth file line {lineno}: labels must be non-negative")
        if label > top:
            raise ValueError(f"truth file line {lineno}: label {label} exceeds {top}")
        if labels[vid - 1] >= 0:
            raise ValueError(f"truth file line {lineno}: duplicate vertex id {vid}")
        labels[vid - 1] = label
    if np.any(labels < 0):
        missing = int(np.flatnonzero(labels < 0)[0]) + 1
        raise ValueError(f"truth file is missing a label for vertex {missing}")
    k = int(labels.max()) + 1
    return ClusteringResult(
        labels=labels, inertia=0.0, kind=None, k=k, empty_clusters=(), index_base=index_base
    )


def karate_factions() -> ClusteringResult:
    """Recorded faction membership of the 34 club members as a labeling."""
    return load_truth_labels(karate_factions_path().read_text(), 34)
