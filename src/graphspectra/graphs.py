"""Undirected weighted graphs: construction, file ingestion and generators.

Vertices are always 0..n-1 internally; ``Graph.index_base`` records the
numbering convention of the source (0- or 1-based) and is used only when
vertex ids are reported back to the user.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Optional, Union

import numpy as np

# Degrees are floating-point sums; degrees within this of each other are
# treated as equal.
DEGREE_TOL = 1e-12

TextSource = Union[str, IO[str]]


class GraphFormatError(ValueError):
    """An input stream violates the edge-list or Pajek format."""


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph with edge weights in (0, 1].

    A graph is its edge list: row i of ``edges`` is an upper-triangle pair
    u < v, rows in lexicographic order without repeats, and
    ``edge_weights[i]`` its weight. The degree vector and its extremes are
    computed from them once, at construction. ``Graph(n, weights)`` takes a
    dense symmetric matrix and derives the edges from it;
    :meth:`from_edges` takes the edge arrays directly and never builds the
    n x n ``weights`` matrix, which is then assembled on first access.

    ``rescaled`` is set by the loaders when weights above 1 were divided
    by the maximum weight. Instances are immutable; every array is marked
    read-only, and so are the spectra memoised on the instance.
    """

    n: int
    edges: np.ndarray
    edge_weights: np.ndarray
    degrees: np.ndarray
    index_base: int
    rescaled: bool
    _weights: Optional[np.ndarray] = field(repr=False)
    _summary: DegreeSummary = field(repr=False)
    # RepresentationKind -> Spectrum, filled by spectra.spectrum.
    _spectra: dict = field(repr=False)

    def __init__(self, n: int, weights: np.ndarray, index_base: int = 0,
                 rescaled: bool = False) -> None:
        w = np.array(weights, dtype=float)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if w.shape != (n, n):
            raise ValueError(f"weights must be {n}x{n}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be exactly symmetric")
        if n and np.any(np.diag(w) != 0.0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        if n and (w.min() < 0.0 or w.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        u, v = np.nonzero(w)
        upper = u < v
        u, v = u[upper], v[upper]
        self._setup(n, np.stack([u, v], axis=1), w[u, v], index_base, rescaled, w)

    @classmethod
    def from_edges(cls, n: int, edges, edge_weights, index_base: int = 0,
                   rescaled: bool = False) -> Graph:
        """Graph from an m x 2 array of vertex pairs u < v and their m weights.

        The pairs may come in any order; they are sorted. Checks cost
        O(m log m): ids in range, u < v, no repeated pair, weights finite and
        in (0, 1]. Together these make the implied matrix symmetric with a
        zero diagonal.
        """
        e = np.array(edges, dtype=np.intp).reshape(-1, 2)
        w = np.array(edge_weights, dtype=float).reshape(-1)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(w) != len(e):
            raise ValueError(f"{len(e)} edges but {len(w)} edge weights")
        if len(e) and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        if np.any(e[:, 0] >= e[:, 1]):
            raise ValueError("edges must be upper-triangle pairs u < v")
        order = np.lexsort((e[:, 1], e[:, 0]))
        e, w = e[order], w[order]
        if np.any(np.all(e[1:] == e[:-1], axis=1)):
            raise ValueError("edges must not repeat")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.all((w > 0.0) & (w <= 1.0)):
            raise ValueError("edge weights must lie in (0, 1]")
        g = cls.__new__(cls)
        g._setup(n, e, w, index_base, rescaled, None)
        return g

    def _setup(self, n, edges, edge_weights, index_base, rescaled, weights) -> None:
        if index_base not in (0, 1):
            raise ValueError("index_base must be 0 or 1")
        # Edge rows are in lexicographic order, so each vertex sums its
        # weights in order of ascending neighbour id.
        degrees = np.bincount(edges.reshape(-1), weights=np.repeat(edge_weights, 2),
                              minlength=n)
        for a in (edges, edge_weights, degrees, weights):
            if a is not None:
                a.setflags(write=False)
        if n:
            summary = DegreeSummary(degrees, float(degrees.min()), float(degrees.max()))
        else:
            summary = DegreeSummary(degrees, 0.0, 0.0)
        for name, value in (("n", n), ("edges", edges), ("edge_weights", edge_weights),
                            ("degrees", degrees), ("index_base", index_base),
                            ("rescaled", rescaled), ("_weights", weights),
                            ("_summary", summary), ("_spectra", {})):
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> np.ndarray:
        """The symmetric n x n weight matrix, read-only, built on first access."""
        if self._weights is None:
            w = np.zeros((self.n, self.n))
            u, v = self.edges.T
            w[u, v] = w[v, u] = self.edge_weights
            w.setflags(write=False)
            object.__setattr__(self, "_weights", w)
        return self._weights


@dataclass(frozen=True)
class DegreeSummary:
    """Vertex degrees (sums of incident edge weights) and their extremes."""

    degrees: np.ndarray
    d_min: float
    d_max: float


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component ids, contiguous in 0..component_count-1."""

    labels: np.ndarray
    component_count: int


@dataclass(frozen=True)
class ClassTag:
    """Degree-extreme class: all graphs with d_min = j and d_max = k."""

    j: int
    k: int


def _graph_from_edges(
    n: int,
    edges: dict[tuple[int, int], float],
    index_base: int,
) -> Graph:
    weights = np.fromiter(edges.values(), dtype=float, count=len(edges))
    max_weight = weights.max(initial=1.0)
    rescaled = bool(max_weight > 1.0)
    if rescaled:
        weights = weights / max_weight
        if not np.all(weights > 0.0):
            raise GraphFormatError(
                f"a weight underflows to 0 when divided by the maximum weight {max_weight!r}")
    pairs = np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges))
    return Graph.from_edges(n, pairs.reshape(-1, 2), weights, index_base=index_base,
                            rescaled=rescaled)


def _check_vertex_count(n: int, lineno: int) -> None:
    """Reject a declared n whose dense n x n float64 matrix exceeds physical memory.

    Spectra need that matrix, so such a file can never be analysed; saying
    so at the header beats an allocation failure (or the OOM killer) later.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform does not say
        return
    need = 8 * n * n
    if need > memory:
        raise GraphFormatError(
            f"line {lineno}: {n} vertices need a {need / 2**30:,.1f} GiB dense matrix, "
            f"more than the {memory / 2**30:,.1f} GiB of physical memory"
        )


def _lines(source: TextSource) -> list[str]:
    text = source if isinstance(source, str) else source.read()
    return text.splitlines()


def _parse_endpoint(token: str, n: int, base: int, lineno: int) -> int:
    try:
        raw = int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-numeric vertex id {token!r}") from None
    v = raw - base
    if not 0 <= v < n:
        raise GraphFormatError(f"line {lineno}: vertex id {raw} out of range")
    return v


def _parse_weight(token: Optional[str], lineno: int) -> float:
    if token is None:
        return 1.0
    try:
        weight = float(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-numeric weight {token!r}") from None
    if not weight > 0.0 or not np.isfinite(weight):
        raise GraphFormatError(f"line {lineno}: edge weight must be positive and finite")
    return weight


def load_edge_list(source: TextSource) -> Graph:
    """Parse the plain edge-list format.

    Format: '#' starts a comment, a header line ``nodes N [base {0|1}]``
    declares the vertex count and id base (default 0), then one edge per
    line as ``u v [w]`` with the weight defaulting to 1. Duplicate edges
    and self-loops are errors, and so is a vertex count whose dense n x n
    matrix would not fit in physical memory. If any weight exceeds 1 every
    weight is divided by the maximum weight and the graph is flagged
    rescaled. The graph is built from its edges; no n x n matrix is made.
    """
    n: Optional[int] = None
    base = 0
    edges: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0].lower() != "nodes":
                raise GraphFormatError(f"line {lineno}: expected 'nodes N' header")
            if len(tokens) not in (2, 4) or (len(tokens) == 4 and tokens[2].lower() != "base"):
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n = int(tokens[1])
                base = int(tokens[3]) if len(tokens) == 4 else 0
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0 or base not in (0, 1):
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            _check_vertex_count(n, lineno)
            continue
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: malformed edge line {line!r}")
        u = _parse_endpoint(tokens[0], n, base, lineno)
        v = _parse_endpoint(tokens[1], n, base, lineno)
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop on vertex {tokens[0]}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {tokens[0]} {tokens[1]}")
        edges[key] = _parse_weight(tokens[2] if len(tokens) == 3 else None, lineno)
    if n is None:
        raise GraphFormatError("missing 'nodes N' header")
    return _graph_from_edges(n, edges, index_base=base)


def load_pajek(source: TextSource) -> Graph:
    """Parse the Pajek subset used by .net network files.

    Supports ``*Vertices N`` followed by ``*Edges`` and/or ``*Arcs``
    sections with 1-based, whitespace-separated ``u v [w]`` lines.
    Vertex-label lines inside the ``*Vertices`` section are ignored.
    Arcs are symmetrised; an arc and its reverse collapse to one edge
    (conflicting weights are an error). Same size limit and rescaling
    contract as :func:`load_edge_list`.
    """
    n: Optional[int] = None
    section = ""
    edges: dict[tuple[int, int], float] = {}
    arcs: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("*"):
            tokens = line.split()
            marker = tokens[0].lower()
            if marker == "*vertices":
                if len(tokens) < 2:
                    raise GraphFormatError(f"line {lineno}: *Vertices needs a count")
                try:
                    n = int(tokens[1])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: non-numeric vertex count") from None
                if n < 0:
                    raise GraphFormatError(f"line {lineno}: negative vertex count")
                _check_vertex_count(n, lineno)
                section = "vertices"
            elif marker in ("*edges", "*arcs"):
                if n is None:
                    raise GraphFormatError(f"line {lineno}: missing *Vertices header")
                section = marker[1:]
            else:
                raise GraphFormatError(f"line {lineno}: unsupported section {tokens[0]!r}")
            continue
        if section == "vertices":
            continue  # vertex labels; ids are implicit 1..n
        if section not in ("edges", "arcs"):
            raise GraphFormatError(f"line {lineno}: data before any *Edges/*Arcs section")
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: malformed {section} line {line!r}")
        u = _parse_endpoint(tokens[0], n, 1, lineno)
        v = _parse_endpoint(tokens[1], n, 1, lineno)
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop on vertex {tokens[0]}")
        weight = _parse_weight(tokens[2] if len(tokens) == 3 else None, lineno)
        if section == "edges":
            key = (min(u, v), max(u, v))
            if key in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge {tokens[0]} {tokens[1]}")
            edges[key] = weight
        else:
            if (u, v) in arcs:
                raise GraphFormatError(f"line {lineno}: duplicate arc {tokens[0]} {tokens[1]}")
            arcs[(u, v)] = weight
    if n is None:
        raise GraphFormatError("missing *Vertices header")
    for (u, v), weight in arcs.items():
        key = (min(u, v), max(u, v))
        if key in edges and edges[key] != weight:
            raise GraphFormatError(f"conflicting weights for edge {u + 1} {v + 1}")
        edges[key] = weight
    return _graph_from_edges(n, edges, index_base=1)


def degree_summary(g: Graph) -> DegreeSummary:
    """The graph's (read-only) weighted degrees together with d_min and d_max.

    Computed once, when the graph is built, and shared by every call.
    """
    return g._summary


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components by breadth-first traversal.

    Components are numbered in order of their lowest vertex, so labels
    are deterministic and contiguous in 0..c-1. The traversal runs on a
    compressed adjacency built from the edge list, in O(n + m).
    """
    ends = g.edges.reshape(-1)  # u0 v0 u1 v1 ...
    partners = g.edges[:, ::-1].reshape(-1)  # v0 u0 v1 u1 ...
    offsets = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=g.n), out=offsets[1:])
    offsets = offsets.tolist()
    neighbours = partners[np.argsort(ends, kind="stable")].tolist()
    labels = [-1] * g.n
    count = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in neighbours[offsets[u] : offsets[u + 1]]:
                if labels[v] < 0:
                    labels[v] = count
                    queue.append(v)
        count += 1
    return ComponentLabeling(labels=np.array(labels, dtype=int), component_count=count)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Block-diagonal union of two graphs; no cross edges."""
    return Graph.from_edges(
        a.n + b.n,
        np.concatenate([a.edges, b.edges + a.n]),
        np.concatenate([a.edge_weights, b.edge_weights]),
        index_base=a.index_base,
        rescaled=a.rescaled or b.rescaled,
    )


def _unweighted(n: int, edges) -> Graph:
    """A 1-based generated graph with unit weights on the given pairs u < v."""
    return Graph.from_edges(n, edges, np.ones(len(edges)), index_base=1)


def _complete_edges(k: int) -> np.ndarray:
    return np.stack(np.triu_indices(k, 1), axis=1)


def gen_star(n: int) -> Graph:
    """Star on n vertices: vertex 0 is the hub, degrees {n-1, 1 x (n-1)}."""
    if n < 2:
        raise ValueError("star graph needs at least 2 vertices")
    return _unweighted(n, [(0, v) for v in range(1, n)])


def gen_complete(k: int) -> Graph:
    """Complete graph on k vertices; (k-1)-regular."""
    if k < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return _unweighted(k, _complete_edges(k))


def gen_graph_c(k: int) -> Graph:
    """The k-complete component plus nine 2-complete components.

    The complete component occupies vertices 0..k-1 (reported as 1..k),
    followed by the nine pairs, so 1-based reporting matches the node
    numbering used in the clustering figures.
    """
    if k < 2:
        raise ValueError("complete component needs at least 2 vertices")
    pairs = np.arange(k, k + 18).reshape(9, 2)
    return _unweighted(k + 18, np.concatenate([_complete_edges(k), pairs]))


def gen_bipartite_b() -> Graph:
    """Bipartite graph on 34 nodes with degree sequence {1, {16}^16, {17}^17}.

    Parts X = vertices 0..16 and Y = vertices 17..33. Vertex 0 is joined
    only to vertex 17; the other sixteen X vertices are joined to all of
    Y. The wiring is one concrete realisation of the degree sequence.
    """
    return _unweighted(34, [(0, 17)] + [(x, y) for x in range(1, 17) for y in range(17, 34)])


def is_d_regular(g: Graph) -> Optional[float]:
    """The common degree d when all degrees agree within DEGREE_TOL, else None."""
    ds = degree_summary(g)
    if g.n and ds.d_max - ds.d_min <= DEGREE_TOL:
        return ds.d_min
    return None


def class_tag(ds: DegreeSummary) -> ClassTag:
    """Integer degree-extreme class of a graph; extremes must be integral."""
    j, k = round(ds.d_min), round(ds.d_max)
    if abs(ds.d_min - j) > 1e-9 or abs(ds.d_max - k) > 1e-9:
        raise ValueError("degree extremes are not integers; no integer class applies")
    return ClassTag(j=j, k=k)
