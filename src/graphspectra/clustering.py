"""Spectral clustering on a chosen representation matrix.

The embedding takes the "first k" eigenvectors in each matrix's own
convention: the k largest-eigenvalue vectors of the adjacency matrix,
the k smallest of either Laplacian. Rows of that matrix are clustered
with a deterministic k-means: k-means++ seeding, Lloyd's iterations,
best of a fixed number of restarts, restart r drawing from its own
generator ``numpy.random.default_rng([seed, r])``.

The restarts run in blocks sized to a fixed working set. Seeding takes
one numpy step per centre for the whole block, and Lloyd's iterations
run the block in lockstep until each restart's labels stop changing.
Every sum is taken in the order numpy takes it for one restart at a
time, so the result is bit-identical to running the restarts one after
another.
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
# Bytes k-means may hold at once: the distances between points, while
# they fit a quarter of it, and a block of restarts, as many as n, k and
# d leave room for. The restart count never sets the block.
KMEANS_WORKING_SET_BYTES = 2 * 1024 * 1024


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


class _Points:
    """The points being clustered, and their squared distances to centres.

    A distance sums its coordinates in the order numpy sums them for one
    restart at a time, which follows the memory layout of the data:
    pairwise along the rows of a row-major array, one coordinate after the
    other for a column-major one (the adjacency embedding is column-major).
    """

    def __init__(self, data: np.ndarray):
        n, d = data.shape
        self.data = data
        self._column_major = n > 1 and d > 1 and abs(data.strides[0]) < abs(data.strides[1])
        self._coordinates = np.ascontiguousarray(data.T if self._column_major else data)
        # k-means++ seeds are points. While the n x n table of distances
        # between points fits a quarter of the budget, each of its rows is
        # computed once, on first use, and shared by all restarts.
        fits = 8 * n * n <= KMEANS_WORKING_SET_BYTES // 4
        self._between = np.empty((n, n)) if fits else None
        self._known = np.zeros(n, dtype=bool)
        self.nbytes = self._coordinates.nbytes + (self._between.nbytes if fits else 0)

    def to_centres(self, centres: np.ndarray) -> np.ndarray:
        """(m, n) squared distances from every point to each of the (m, d) centres."""
        if self._column_major:
            diff = self._coordinates[None] - centres[:, :, None]
            return np.square(diff, out=diff).sum(axis=1)
        diff = self._coordinates[None] - centres[:, None, :]
        return np.square(diff, out=diff).sum(axis=2)

    def to_points(self, picks: np.ndarray) -> np.ndarray:
        """(m, n) squared distances from every point to the points ``picks``."""
        if self._between is None:
            return self.to_centres(self.data[picks])
        unknown = picks[~self._known[picks]]
        if len(unknown):
            fresh = np.unique(unknown)
            self._between[fresh] = self.to_centres(self.data[fresh])
            self._known[fresh] = True
        return self._between[picks]


def _kmeanspp_init(
    points: _Points, k: int, seed: int, block: range
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ centres for each restart in ``block``, one step per centre.

    Returns the (m, k, d) centres and the (m, n, k) squared distances of
    every point to them, which the first Lloyd iteration reuses.
    """
    data = points.data
    n = len(data)
    rngs = [np.random.default_rng([seed, r]) for r in block]
    picks = np.array([rng.integers(n) for rng in rngs])
    # One vector draw yields the same doubles as k - 1 scalar draws.
    uniforms = np.array([rng.random(k - 1) for rng in rngs]).reshape(len(block), k - 1)
    centres = np.empty((len(block), k, data.shape[1]))
    table = np.empty((len(block), n, k))
    centres[:, 0] = data[picks]
    table[:, :, 0] = points.to_points(picks)
    closest = table[:, :, 0].copy()
    replayed: dict[int, np.random.Generator] = {}
    for j in range(1, k):
        total = closest.sum(axis=1)
        # A zero total divides to nan; that row draws an integer below.
        with np.errstate(invalid="ignore"):
            cumulative = np.cumsum(closest / total[:, None], axis=1)
        # On a nondecreasing row, searchsorted(row, u) counts the entries below u.
        picks = np.minimum((cumulative < uniforms[:, j - 1, None]).sum(axis=1), n - 1)
        for i in np.flatnonzero(total <= 0.0):
            # Every point sits on a centre, and stays there: from this step on
            # the restart draws integers(n), after the j - 1 uniforms it used.
            if i not in replayed:
                rng = replayed[i] = np.random.default_rng([seed, block[i]])
                rng.integers(n)
                rng.random(j - 1)
            picks[i] = replayed[i].integers(n)
        centres[:, j] = data[picks]
        table[:, :, j] = points.to_points(picks)
        np.minimum(closest, table[:, :, j], out=closest)
    return centres, table


def _cluster_means(data: np.ndarray, labels: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Each cluster's mean of its members; an empty cluster keeps its centre.

    Members are summed as numpy sums the rows of one cluster: one after
    the other in vertex order, except a single coordinate, which numpy
    sums pairwise.
    """
    m, k, d = centres.shape
    bins = (labels + k * np.arange(m)[:, None]).ravel()
    counts = np.bincount(bins, minlength=m * k)[:, None]
    if d == 1:
        sums = np.array([[data[row == j, 0].sum()] for row in labels for j in range(k)])
    else:
        sums = np.empty((m * k, d))
        for c in range(d):
            sums[:, c] = np.bincount(bins, weights=np.tile(data[:, c], m), minlength=m * k)
    np.copyto(sums, centres.reshape(m * k, d), where=counts == 0)
    np.divide(sums, counts, out=sums, where=counts > 0)
    return sums.reshape(m, k, d)


def _kmeans_block(
    points: _Points, k: int, seed: int, block: range
) -> tuple[np.ndarray, np.ndarray]:
    """Seed, then run Lloyd's iterations on a block of restarts in lockstep.

    Returns each restart's labels (m, n) and inertia (m,). A restart leaves
    the block as soon as its labels stop changing, and only the distances
    to centres that moved are computed again.
    """
    centres, table = _kmeanspp_init(points, k, seed, block)
    m, n = len(block), len(points.data)
    labels_out, inertia_out = np.empty((m, n), dtype=np.intp), np.empty(m)
    active = np.arange(m)
    labels = np.zeros_like(labels_out)
    previous = np.full(m, np.inf)
    for _ in range(MAX_LLOYD_ITERATIONS):
        new_labels = np.argmin(table, axis=2)  # ties go to the lowest centre id
        cost = np.take_along_axis(table, new_labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        seen = np.isfinite(previous)
        increased = seen & ~(cost <= previous + 1e-9 * np.maximum(1.0, previous))
        if increased.any():
            i = int(np.argmax(increased))
            raise KMeansError("k-means inertia increased across an iteration "
                              f"({float(previous[i])!r} -> {float(cost[i])!r})")
        done = seen & (new_labels == labels).all(axis=1)
        labels, previous = new_labels, cost
        if done.any():
            labels_out[active[done]], inertia_out[active[done]] = labels[done], cost[done]
            going = ~done
            active, labels, previous = active[going], labels[going], previous[going]
            if not len(active):
                return labels_out, inertia_out
            table = table[going]
            centres = centres[going]
        means = _cluster_means(points.data, labels, centres)
        # A centre that kept its value keeps its distances, bit for bit.
        rows, cols = np.nonzero((means != centres).any(axis=2))
        for at in range(0, len(rows), len(means)):
            r, c = rows[at : at + len(means)], cols[at : at + len(means)]
            table[r, :, c] = points.to_centres(means[r, c])
        centres = means
    labels_out[active], inertia_out[active] = labels, previous
    return labels_out, inertia_out


def _block_size(points: _Points, k: int) -> int:
    """Restarts per block: as many as fit the working-set budget, at least one."""
    n, d = points.data.shape
    # At most: the distance table (n, k) twice while restarts leave the
    # block, or once beside two sets of centres (k, d) and the differences
    # to one centre (n, d); then a few rows of n and the k uniforms.
    per_restart = 8 * (2 * n * k + n * d + 2 * k * d + 8 * n + k)
    return max(1, (KMEANS_WORKING_SET_BYTES - points.nbytes) // per_restart)


def kmeans(
    points: Union[Embedding, np.ndarray],
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ClusteringResult:
    """Deterministic k-means: k-means++ seeding, Lloyd iterations, best restart.

    Each restart r draws from ``numpy.random.default_rng([seed, r])``, so
    results are reproducible and independent of execution order; the
    restart with minimal inertia wins, earliest restart on ties. Restarts
    run in blocks, with the same arithmetic as one at a time. Points must
    be finite.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if isinstance(points, Embedding):
        data, kind, index_base = points.points, points.kind, points.index_base
    else:
        data, kind, index_base = np.asarray(points, dtype=float), None, 0
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not np.all(np.isfinite(data)):
        raise ValueError("points must be finite (found NaN or inf)")
    points = _Points(data)
    size = _block_size(points, k)
    best: Optional[tuple[np.ndarray, float]] = None
    for start in range(0, restarts, size):
        block = range(start, min(start + size, restarts))
        labels, inertias = _kmeans_block(points, k, seed, block)
        for i, inertia in enumerate(inertias.tolist()):
            if best is None or inertia < best[1]:
                best = (labels[i].copy(), inertia)
    labels, inertia = best
    empty = tuple(np.flatnonzero(np.bincount(labels, minlength=k) == 0).tolist())
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
