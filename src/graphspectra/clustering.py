"""Spectral clustering on a chosen representation matrix.

The embedding takes the "first k" eigenvectors in each matrix's own
convention: the k largest-eigenvalue vectors of the adjacency matrix,
the k smallest of either Laplacian. Rows of that matrix are clustered
with a deterministic k-means: k-means++ seeding, Lloyd's iterations,
best of a fixed number of restarts. One generator,
``numpy.random.default_rng(seed)``, serves every restart of a call:
restart r reads row r of its ``random((restarts, k))``, one uniform per
centre it picks. Seeding blocks draw their rows in restart order.

The restarts run in blocks sized to one fixed working set. Seeding takes
one numpy step per centre for a whole block, and Lloyd's iterations run
a block in lockstep until each restart's labels stop changing. While the
table of squared distances between points fits a quarter of the working
set (n <= 256), one seeding pass runs ahead of Lloyd's iterations, in
blocks sized by seeding's own cost, and keeps only the ids of the points
it picks; each Lloyd block then gathers its first distances from that
table. Without it, each Lloyd block seeds its own restarts and keeps the
distances that seeding computed. A squared distance adds its coordinates
in index order and a cluster mean adds its members in vertex order,
whatever the memory layout of the points, so the result is bit-identical
to running the restarts one after another, on any layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .graphs import Graph
from .spectra import eigensystem
from .vocabulary import DEFAULT_RESTARTS, DEFAULT_SEED, KMeansError, RepresentationKind

MAX_LLOYD_ITERATIONS = 300
# Bytes k-means may hold at once: the distances between points, while
# they fit a quarter of it, and a block of restarts, as many as n, k and
# d leave room for in seeding or in Lloyd's iterations. The restart count
# never sets a block.
KMEANS_WORKING_SET_BYTES = 2 * 1024 * 1024


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


def spectral_embed(g: Graph, kind: RepresentationKind, k: int) -> np.ndarray:
    """The n x k array whose row v embeds vertex v by the first k eigenvectors.

    The columns are the first k of :func:`eigensystem`, random-walk
    eigenvectors for the normalised Laplacian; rows are not normalised.
    The array is a read-only view of the vectors memoised on the graph.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in 1..{g.n}, got {k}")
    _, vectors = eigensystem(g, kind)
    return vectors[:, :k]


class _Points:
    """The points being clustered, and their squared distances to centres.

    A distance adds its coordinates in index order, whatever the memory
    layout of the points: they are held as one contiguous (d, n) array,
    and each distance sums over its first axis.
    """

    def __init__(self, data: np.ndarray):
        n = len(data)
        self.data = data
        self._coordinates = np.ascontiguousarray(data.T)
        # k-means++ seeds are points. While the n x n table of distances
        # between points fits a quarter of the budget, each of its rows is
        # computed once, on first use, and shared by all restarts.
        fits = 8 * n * n <= KMEANS_WORKING_SET_BYTES // 4
        self._between = np.empty((n, n)) if fits else None
        self._known = np.zeros(n, dtype=bool)
        self.nbytes = self._coordinates.nbytes + (self._between.nbytes if fits else 0)

    def to_centres(self, centres: np.ndarray) -> np.ndarray:
        """(m, n) squared distances from every point to each of the (m, d) centres."""
        diff = self._coordinates[None] - centres[:, :, None]
        return np.square(diff, out=diff).sum(axis=1)

    def to_points(self, picks: np.ndarray) -> np.ndarray:
        """(m, n) squared distances from every point to the points ``picks``."""
        if self._between is None:
            return self.to_centres(self.data[picks])
        unknown = picks[~self._known[picks]]
        if len(unknown):
            fresh = np.flatnonzero(np.bincount(unknown))  # sorted distinct ids; np.unique loads numpy.ma
            self._between[fresh] = self.to_centres(self.data[fresh])
            self._known[fresh] = True
        return self._between[picks]


def _kmeanspp(
    points: _Points, uniforms: np.ndarray, table: Optional[np.ndarray] = None
) -> np.ndarray:
    """k-means++ seeds for a block of restarts, one step per centre.

    Restart i reads row i of the (m, k) ``uniforms``, one per pick. Returns
    the (m, k) ids of the points picked as centres. A given (m, n, k)
    ``table`` is filled with the squared distances of every point to them.
    """
    n = len(points.data)
    # Each uniform's own pick, min(floor(u * n), n - 1): the first centre, and
    # every centre picked once all points sit on centres. Later ones are
    # overwritten step by step.
    picks = np.minimum((uniforms * n).astype(np.intp), n - 1)
    closest = points.to_points(picks[:, 0])
    if table is not None:
        table[:, :, 0] = closest
    # A zero total divides to nan; that row keeps its uniform pick.
    with np.errstate(invalid="ignore"):
        for j in range(1, uniforms.shape[1]):
            total = closest.sum(axis=1)
            cumulative = np.cumsum(closest / total[:, None], axis=1)
            # On a nondecreasing row, searchsorted(row, u) counts the entries below u.
            step = np.minimum((cumulative < uniforms[:, j, None]).sum(axis=1), n - 1)
            picks[:, j] = step = np.where(total > 0.0, step, picks[:, j])
            distances = points.to_points(step)
            if table is not None:
                table[:, :, j] = distances
            np.minimum(closest, distances, out=closest)
    return picks


def _kmeanspp_init(points: _Points, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ centres (m, k, d) for a block of restarts drawing the (m, k)
    ``uniforms``, and the (m, n, k) squared distances of every point to them,
    filled while seeding."""
    table = np.empty((len(uniforms), len(points.data), uniforms.shape[1]))
    return points.data[_kmeanspp(points, uniforms, table)], table


def _cluster_means(data: np.ndarray, labels: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Each cluster's mean of its members; an empty cluster keeps its centre.

    A cluster's members are added one after the other in vertex order.
    """
    m, k, d = centres.shape
    bins = (labels + k * np.arange(m)[:, None]).ravel()
    counts = np.bincount(bins, minlength=m * k)[:, None]
    sums = np.empty((m * k, d))
    for c, weights in enumerate(np.tile(data.T, m)):
        sums[:, c] = np.bincount(bins, weights=weights, minlength=m * k)
    np.copyto(sums, centres.reshape(m * k, d), where=counts == 0)
    np.divide(sums, counts, out=sums, where=counts > 0)
    return sums.reshape(m, k, d)


_Start = Callable[[], tuple[np.ndarray, np.ndarray]]


def _kmeans_block(points: _Points, start: _Start) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iterations on a block of restarts in lockstep.

    ``start()`` gives the restarts' (m, k, d) k-means++ centres and the
    (m, n, k) squared distances of every point to them; called here, so the
    block holds the only reference to the table it shrinks. Returns each
    restart's labels (m, n) and inertia (m,). A restart leaves the block as
    soon as its labels stop changing, and only the distances to centres
    that moved are computed again.
    """
    centres, table = start()
    m, n, _ = table.shape
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


def _block_size(points: _Points, k: int, held: int = 0) -> int:
    """Restarts per Lloyd block: as many as fit the working-set budget beside
    ``held`` bytes, at least one."""
    n, d = points.data.shape
    # At most: the distance table (n, k) twice while restarts leave the
    # block, or once beside two sets of centres (k, d) and the differences
    # to one centre (n, d); then a few rows of n and the k seeds.
    per_restart = 8 * (2 * n * k + n * d + 2 * k * d + 8 * n + k)
    return max(1, (KMEANS_WORKING_SET_BYTES - points.nbytes - held) // per_restart)


def _seeding_block_size(points: _Points, k: int) -> int:
    """Restarts per seeding block where the point table exists, at least one."""
    n, d = points.data.shape
    # Per restart: the picks and the uniforms (k each), four rows of n (the
    # closest distances, their shares, the cumulative shares and the
    # distances to the newest pick) and the differences (n, d) that fill a
    # row of the point table.
    per_restart = 8 * (4 * n + 2 * k + n * d)
    return max(1, (KMEANS_WORKING_SET_BYTES - points.nbytes) // per_restart)


def _lloyd_starts(points: _Points, k: int, seed: int, restarts: int) -> Iterator[_Start]:
    """For each Lloyd block, in restart order, the start that :func:`_kmeans_block` calls.

    With the table of distances between points, one pass seeds every
    restart, in blocks sized by seeding's own cost, and keeps only the
    picks; each Lloyd block then gathers its table from the point table.
    Without it, each Lloyd block seeds itself and keeps the distances that
    seeding computed, which costs less than computing them again.
    """
    rng = np.random.default_rng(seed)
    between = points._between
    if between is None:
        size = _block_size(points, k)
        for first in range(0, restarts, size):
            uniforms = rng.random((min(size, restarts - first), k))
            yield lambda uniforms=uniforms: _kmeanspp_init(points, uniforms)
        return
    step = _seeding_block_size(points, k)
    for first in range(0, restarts, step):
        picks = _kmeanspp(points, rng.random((min(step, restarts - first), k)))
        size = _block_size(points, k, held=picks.nbytes)
        for at in range(0, len(picks), size):
            seeds = picks[at : at + size]
            yield lambda seeds=seeds: (points.data[seeds], between[seeds].transpose(0, 2, 1).copy())


def kmeans(
    points: np.ndarray,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ClusteringResult:
    """Deterministic k-means: k-means++ seeding, Lloyd iterations, best restart.

    Clusters the rows of the n x d array ``points``, which must be finite,
    and close enough that n squared distances add up without overflow;
    ``points`` is only read, so it may be a read-only array. Restart r
    seeds from row r of ``numpy.random.default_rng(seed).random((restarts, k))``:
    its first centre is point ``min(floor(u[0] * n), n - 1)``, and centre j
    is drawn with u[j] in proportion to the squared distance to the nearest
    centre so far, or as ``min(floor(u[j] * n), n - 1)`` once every point
    sits on a centre. So a restart's result depends on neither the block
    schedule nor the restart count. The restart with minimal inertia wins,
    earliest restart on ties. Restarts run in blocks, with the same
    arithmetic as one at a time: a squared distance adds its coordinates in
    index order and a cluster mean adds its members in vertex order,
    whatever the memory layout of ``points``. The result has ``kind`` None
    and index base 0.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    data = np.asarray(points, dtype=float)
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not np.all(np.isfinite(data)):
        raise ValueError("points must be finite (found NaN or inf)")
    # A squared distance is at most the squared diagonal of the points'
    # bounding box; an inertia adds n of them and a cluster sum n coordinates.
    with np.errstate(over="ignore"):
        reach = n * max(np.square(np.ptp(data, axis=0)).sum(), np.abs(data).max(initial=0.0))
    if not np.isfinite(reach):
        raise ValueError("points are too far apart: k-means sums of squared distances overflow")
    points = _Points(data)
    best: Optional[tuple[np.ndarray, float]] = None
    for start in _lloyd_starts(points, k, seed, restarts):
        labels, inertias = _kmeans_block(points, start)
        for i, inertia in enumerate(inertias.tolist()):
            if best is None or inertia < best[1]:
                best = (labels[i].copy(), inertia)
    labels, inertia = best
    empty = tuple(np.flatnonzero(np.bincount(labels, minlength=k) == 0).tolist())
    return ClusteringResult(labels=labels, inertia=inertia, kind=None, k=k, empty_clusters=empty)


def cluster(
    g: Graph,
    kind: RepresentationKind,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> ClusteringResult:
    """Spectral clustering: k-means over the first-k eigenvector embedding.

    The result carries ``kind`` and the graph's index base.
    """
    result = kmeans(spectral_embed(g, kind, k), k, restarts=restarts, seed=seed)
    return replace(result, kind=kind, index_base=g.index_base)


def _max_weight_assignment(weights: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows and columns of a maximum-weight assignment, as scipy assigns them.

    Runs the shortest augmenting path algorithm of Crouse (IEEE Trans.
    Aerosp. Electron. Syst. 52(4), 2016) the way
    ``scipy.optimize.linear_sum_assignment(weights, maximize=True)`` runs
    it: on the negated weights, transposed when there are more rows than
    columns, with the columns still to scan listed in reverse order and
    taken out by moving the last one into the gap, and a tie at the
    shortest distance going to a column not yet assigned. The weights are
    a 2-d integer array, so every sum is exact and the result is scipy's,
    ties included: min(rows, cols) pairs, sorted by row.
    """
    transpose = weights.shape[1] < weights.shape[0]
    cost = (-(weights.T if transpose else weights)).tolist()
    nr, nc = len(cost), len(cost[0])
    inf = float("inf")
    u, v = [0] * nr, [0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for current in range(nr):
        shortest = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows, cols = [], []
        min_val, i, sink = 0, current, -1
        while sink < 0:
            rows.append(i)
            base, row = min_val - u[i], cost[i]
            index, lowest = -1, inf
            for at, j in enumerate(remaining):
                s = shortest[j]
                r = base + row[j] - v[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    index, lowest = at, s
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[current] += min_val
        for i in rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    if transpose:
        pairs = sorted((c, r) for r, c in enumerate(col4row))
        return [c for c, _ in pairs], [r for _, r in pairs]
    return list(range(nr)), col4row


def compare_clusterings(a: ClusteringResult, b: ClusteringResult) -> ClusterComparison:
    """Count vertices whose labels disagree under the best one-to-one matching.

    The matching maximises agreement over the confusion matrix, exactly:
    it is the assignment ``scipy.optimize.linear_sum_assignment`` returns
    with ``maximize=True``, found by the same algorithm with the same tie
    rules (see ``_max_weight_assignment``), so tied confusion matrices
    match labels alike. Vertices whose label in ``a`` is left unmatched are
    misplaced. Misplaced vertex ids are reported in the results' index base.

    Each labeling's labels are ranked first, so the confusion matrix has a
    row per label used in ``a`` and a column per label used in ``b``,
    however large the labels are. Ranking keeps the order of the labels.
    """
    if len(a.labels) != len(b.labels):
        raise ValueError("clusterings cover different numbers of vertices")
    if a.index_base != b.index_base:
        raise ValueError("clusterings use different index bases")
    if len(a.labels) and (a.labels.min() < 0 or b.labels.min() < 0):
        raise ValueError("cluster labels must be non-negative")
    used_a, ranks_a = np.unique(a.labels, return_inverse=True)
    used_b, ranks_b = np.unique(b.labels, return_inverse=True)
    confusion = np.zeros((max(len(used_a), 1), max(len(used_b), 1)), dtype=int)
    np.add.at(confusion, (ranks_a, ranks_b), 1)
    rows, cols = _max_weight_assignment(confusion)
    match = np.full(len(confusion), -1)
    match[rows] = cols
    misplaced_ids = tuple((np.flatnonzero(match[ranks_a] != ranks_b) + a.index_base).tolist())
    return ClusterComparison(misplaced=len(misplaced_ids), misplaced_ids=misplaced_ids)
