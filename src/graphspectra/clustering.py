"""Spectral clustering on a chosen representation matrix.

The embedding takes the "first k" eigenvectors in each matrix's own
convention: the k largest-eigenvalue vectors of the adjacency matrix,
the k smallest of either Laplacian. Rows of that matrix are clustered
with a deterministic k-means (k-means++ seeding from a seeded PCG64
generator, best of a fixed number of restarts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .graphs import Graph, degree_summary
from .spectra import RepresentationKind, eigensystem

DEFAULT_SEED = 42
DEFAULT_RESTARTS = 50
MAX_LLOYD_ITERATIONS = 300


class KMeansError(RuntimeError):
    """Lloyd's iteration increased the k-means inertia, which exact arithmetic forbids."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """Rows are vertices, columns the selected eigenvectors."""

    points: np.ndarray
    kind: Optional[RepresentationKind]
    index_base: int = 0


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    labels: np.ndarray
    inertia: float
    kind: Optional[RepresentationKind]
    k: int
    empty_clusters: tuple[int, ...]
    index_base: int = 0


@dataclass(frozen=True)
class ClusterComparison:
    """Disagreement between two labelings under the best label matching."""

    misplaced: int
    misplaced_ids: tuple[int, ...]


def spectral_embed(g: Graph, kind: RepresentationKind, k: int) -> Embedding:
    """Embed vertices by the first k eigenvectors of the chosen matrix.

    For the normalised Laplacian the symmetric-surrogate eigenvectors are
    converted to true random-walk eigenvectors via D^{-1/2}; rows are not
    normalised.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in 1..{g.n}, got {k}")
    _, vectors = eigensystem(g, kind)
    points = vectors[:, :k]
    if kind is RepresentationKind.NORMALIZED_LAPLACIAN:
        inv_sqrt = 1.0 / np.sqrt(degree_summary(g).degrees)
        points = points * inv_sqrt[:, None]
    return Embedding(points=points, kind=kind, index_base=g.index_base)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(closest / total), rng.random()))
            idx = min(idx, n - 1)
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    previous_cost = np.inf
    labels = np.zeros(len(points), dtype=int)
    for _ in range(MAX_LLOYD_ITERATIONS):
        distances = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(distances, axis=1)  # ties go to the lowest centre id
        cost = float(distances[np.arange(len(points)), new_labels].sum())
        if np.isfinite(previous_cost) and not cost <= previous_cost + 1e-9 * max(1.0, previous_cost):
            raise KMeansError(
                f"k-means inertia increased across an iteration ({previous_cost!r} -> {cost!r})")
        if np.array_equal(new_labels, labels) and np.isfinite(previous_cost):
            return labels, cost
        labels, previous_cost = new_labels, cost
        for j in range(len(centers)):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            # empty clusters keep their centre
    return labels, previous_cost


def kmeans(
    points: Union[Embedding, np.ndarray],
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ClusteringResult:
    """Deterministic k-means: k-means++ seeding, Lloyd iterations, best restart.

    Each restart r draws from ``numpy.random.default_rng([seed, r])``, so
    results are reproducible and independent of execution order; the
    restart with minimal inertia wins, earliest restart on ties.
    """
    if isinstance(points, Embedding):
        data, kind, index_base = points.points, points.kind, points.index_base
    else:
        data, kind, index_base = np.asarray(points, dtype=float), None, 0
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    best: Optional[tuple[np.ndarray, float]] = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        centers = _kmeanspp_init(data, k, rng)
        labels, inertia = _lloyd(data, centers)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    labels, inertia = best
    empty = tuple(j for j in range(k) if not np.any(labels == j))
    return ClusteringResult(
        labels=labels,
        inertia=inertia,
        kind=kind,
        k=k,
        empty_clusters=empty,
        index_base=index_base,
    )


def cluster(
    g: Graph,
    kind: RepresentationKind,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ClusteringResult:
    """Spectral clustering: k-means over the first-k eigenvector embedding."""
    return kmeans(spectral_embed(g, kind, k), k, restarts=restarts, seed=seed)


def compare_clusterings(a: ClusteringResult, b: ClusteringResult) -> ClusterComparison:
    """Count vertices whose labels disagree under the best one-to-one matching.

    The matching maximises agreement over the confusion matrix (Hungarian
    assignment, exact). Misplaced vertex ids are reported in the results'
    index base.
    """
    # Imported here, not at module level: scipy.optimize costs several times
    # the rest of the package's import, and only this function needs it.
    from scipy.optimize import linear_sum_assignment

    if len(a.labels) != len(b.labels):
        raise ValueError("clusterings cover different numbers of vertices")
    if a.index_base != b.index_base:
        raise ValueError("clusterings use different index bases")
    if len(a.labels) and (a.labels.min() < 0 or b.labels.min() < 0):
        raise ValueError("cluster labels must be non-negative")
    ka = int(a.labels.max()) + 1 if len(a.labels) else 0
    kb = int(b.labels.max()) + 1 if len(b.labels) else 0
    confusion = np.zeros((max(ka, 1), max(kb, 1)), dtype=int)
    np.add.at(confusion, (a.labels, b.labels), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    mapping = {int(r): int(c) for r, c in zip(rows, cols)}
    misplaced_ids = tuple(
        int(v) + a.index_base
        for v in range(len(a.labels))
        if mapping.get(int(a.labels[v])) != int(b.labels[v])
    )
    return ClusterComparison(misplaced=len(misplaced_ids), misplaced_ids=misplaced_ids)
