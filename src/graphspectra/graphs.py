"""Undirected weighted graphs: construction, file ingestion and generators.

Vertices are always 0..n-1 internally; ``Graph.index_base`` records the
numbering convention of the source (0- or 1-based) and is used only when
vertex ids are reported back to the user.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import IO, Optional, Union

import numpy as np

# Row sums are floating-point; degrees within this of each other (or of zero)
# are treated as equal (resp. zero).
DEGREE_TOL = 1e-12

TextSource = Union[str, IO[str]]


class GraphFormatError(ValueError):
    """An input stream violates the edge-list or Pajek format."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with symmetric edge weights in [0, 1].

    ``rescaled`` is set by the loaders when weights above 1 were divided
    by the maximum weight. Instances are immutable; the weight matrix is
    marked read-only, and so are the spectra memoised on the instance.
    """

    n: int
    weights: np.ndarray
    index_base: int = 0
    rescaled: bool = False
    # RepresentationKind -> Spectrum, filled by spectra.spectrum.
    _spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be exactly symmetric")
        if self.n and np.any(np.diag(w) != 0.0):
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        if self.n and (w.min() < 0.0 or w.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if self.index_base not in (0, 1):
            raise ValueError("index_base must be 0 or 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class DegreeSummary:
    """Vertex degrees (weighted row sums) and their extremes."""

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
    w = np.zeros((n, n))
    max_weight = max(edges.values(), default=1.0)
    rescaled = max_weight > 1.0
    scale = max_weight if rescaled else 1.0
    for (u, v), weight in edges.items():
        w[u, v] = w[v, u] = weight / scale
    return Graph(n=n, weights=w, index_base=index_base, rescaled=rescaled)


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
    and self-loops are errors. If any weight exceeds 1 the whole matrix
    is divided by the maximum weight and the graph is flagged rescaled.
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
    (conflicting weights are an error). Same rescaling contract as
    :func:`load_edge_list`.
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
    """Row sums of the weight matrix together with d_min and d_max."""
    degrees = g.weights.sum(axis=1)
    if g.n == 0:
        return DegreeSummary(degrees=degrees, d_min=0.0, d_max=0.0)
    return DegreeSummary(degrees=degrees, d_min=float(degrees.min()), d_max=float(degrees.max()))


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components by breadth-first traversal.

    Components are numbered in order of their lowest vertex, so labels
    are deterministic and contiguous in 0..c-1.
    """
    labels = np.full(g.n, -1, dtype=int)
    count = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(g.weights[u]):
                if labels[v] < 0:
                    labels[v] = count
                    queue.append(int(v))
        count += 1
    return ComponentLabeling(labels=labels, component_count=count)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Block-diagonal union of two graphs; no cross edges."""
    n = a.n + b.n
    w = np.zeros((n, n))
    w[: a.n, : a.n] = a.weights
    w[a.n :, a.n :] = b.weights
    return Graph(n=n, weights=w, index_base=a.index_base, rescaled=a.rescaled or b.rescaled)


def gen_star(n: int) -> Graph:
    """Star on n vertices: vertex 0 is the hub, degrees {n-1, 1 x (n-1)}."""
    if n < 2:
        raise ValueError("star graph needs at least 2 vertices")
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0
    return Graph(n=n, weights=w, index_base=1)


def gen_complete(k: int) -> Graph:
    """Complete graph on k vertices; (k-1)-regular."""
    if k < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    w = np.ones((k, k)) - np.eye(k)
    return Graph(n=k, weights=w, index_base=1)


def gen_graph_c(k: int) -> Graph:
    """The k-complete component plus nine 2-complete components.

    The complete component occupies vertices 0..k-1 (reported as 1..k),
    followed by the nine pairs, so 1-based reporting matches the node
    numbering used in the clustering figures.
    """
    if k < 2:
        raise ValueError("complete component needs at least 2 vertices")
    g = gen_complete(k)
    for _ in range(9):
        g = disjoint_union(g, gen_complete(2))
    return g


def gen_bipartite_b() -> Graph:
    """Bipartite graph on 34 nodes with degree sequence {1, {16}^16, {17}^17}.

    Parts X = vertices 0..16 and Y = vertices 17..33. Vertex 0 is joined
    only to vertex 17; the other sixteen X vertices are joined to all of
    Y. The wiring is one concrete realisation of the degree sequence.
    """
    n = 34
    w = np.zeros((n, n))
    w[0, 17] = w[17, 0] = 1.0
    for x in range(1, 17):
        w[x, 17:] = w[17:, x] = 1.0
    return Graph(n=n, weights=w, index_base=1)


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
