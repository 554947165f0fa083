"""Undirected weighted graphs: construction, file ingestion and generators.

Vertices are always 0..n-1 internally; ``Graph.index_base`` records the
numbering convention of the source (0- or 1-based) and is used only when
vertex ids are reported back to the user.

The loaders, the degree extremes, the components and the degree-extreme
class and region run in plain Python, so the commands that need only
them (``info``, ``region``) never import numpy; numpy is imported where
an array is first built.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

# Relative distance from an integer within which a degree extreme, a float
# sum of weights, counts as that integer.
CLASS_RTOL = 1e-9


class GraphFormatError(ValueError):
    """A graph file violates the edge-list or Pajek format."""


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

    The loaders build a graph from Python lists and sum its degrees in
    Python, in the order ``np.bincount`` sums them; ``edges``,
    ``edge_weights``, ``degrees`` and ``weights`` are read-only arrays
    derived on first access and kept. ``rescaled`` is set by the loaders
    when weights above 1 were divided by the maximum weight. Instances are
    immutable, and so are the spectra memoised on the instance.
    """

    n: int
    index_base: int
    rescaled: bool
    # A loader's Python lists, or read-only arrays; never changed after construction.
    _edges: object = field(repr=False)
    _edge_weights: object = field(repr=False)
    _degrees: object = field(repr=False)
    _summary: DegreeSummary = field(repr=False)
    # RepresentationKind -> Spectrum, filled by spectra.spectrum.
    _spectra: dict = field(repr=False)

    def __init__(self, n: int, weights: np.ndarray, index_base: int = 0,
                 rescaled: bool = False) -> None:
        import numpy as np

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
        self._setup(n, np.stack([u, v], axis=1), w[u, v], index_base, rescaled)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)  # the cached property's value

    @classmethod
    def from_edges(cls, n: int, edges, edge_weights, index_base: int = 0,
                   rescaled: bool = False) -> Graph:
        """Graph from an m x 2 array of vertex pairs u < v and their m weights.

        The pairs may come in any order; they are sorted. Checks cost
        O(m log m): ids in range, u < v, no repeated pair, weights finite and
        in (0, 1]. Together these make the implied matrix symmetric with a
        zero diagonal.
        """
        import numpy as np

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
        g._setup(n, e, w, index_base, rescaled)
        return g

    def _setup(self, n, edges, edge_weights, index_base, rescaled) -> None:
        import numpy as np

        # Edge rows are in lexicographic order, so each vertex sums its
        # weights in order of ascending neighbour id. bincount counts in
        # int64 when there are no edges; degrees are always float64.
        degrees = np.bincount(edges.reshape(-1), weights=np.repeat(edge_weights, 2),
                              minlength=n).astype(float, copy=False)
        for a in (edges, edge_weights, degrees):
            a.setflags(write=False)
        extremes = (float(degrees.min()), float(degrees.max())) if n else (0.0, 0.0)
        self._bind(n, edges, edge_weights, degrees, *extremes, index_base, rescaled)

    def _bind(self, n, edges, edge_weights, degrees, d_min, d_max, index_base, rescaled) -> None:
        if index_base not in (0, 1):
            raise ValueError("index_base must be 0 or 1")
        for name, value in (("n", n), ("_edges", edges), ("_edge_weights", edge_weights),
                            ("_degrees", degrees), ("index_base", index_base),
                            ("rescaled", rescaled), ("_summary", DegreeSummary(d_min, d_max)),
                            ("_spectra", {})):
            object.__setattr__(self, name, value)

    @cached_property
    def edges(self) -> np.ndarray:
        """The m x 2 intp array of pairs u < v in lexicographic order, read-only."""
        return _read_only(self._edges, "intp", (-1, 2))

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """The m edge weights in the order of ``edges``, read-only."""
        return _read_only(self._edge_weights, "float64", (-1,))

    @cached_property
    def degrees(self) -> np.ndarray:
        """The n weighted degrees, read-only."""
        return _read_only(self._degrees, "float64", (-1,))

    def _pairs(self) -> list:
        """The edge pairs as a list of Python pairs (u, v), in the order of ``edges``."""
        return self._edges if isinstance(self._edges, list) else self._edges.tolist()

    @cached_property
    def weights(self) -> np.ndarray:
        """The symmetric n x n weight matrix, read-only, built from the edges on first access."""
        import numpy as np

        w = np.zeros((self.n, self.n))
        u, v = self.edges.T
        w[u, v] = w[v, u] = self.edge_weights
        w.setflags(write=False)
        return w


def _read_only(values, dtype: str, shape: tuple) -> np.ndarray:
    """``values`` as a read-only array, not copied when it is an array of that dtype."""
    import numpy as np

    a = np.asarray(values, dtype=dtype).reshape(shape)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DegreeSummary:
    """The degree extremes (d_min, d_max) of a graph or of a degree-extreme class.

    The bounds depend on the extremes alone; a graph's degree vector is
    ``Graph.degrees``. Immutable, so the bound sets computed from the
    extremes are memoised on the instance.
    """

    d_min: float
    d_max: float
    # Bound-set name -> value, filled by bounds.eigenvalue_bound_set and gap_bound_set.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Connected-component ids, contiguous in 0..component_count-1."""

    component_count: int
    _labels: list = field(repr=False)

    @cached_property
    def labels(self) -> np.ndarray:
        """Vertex v's component id at index v, an int array built on first access."""
        import numpy as np

        return np.array(self._labels, dtype=int)


@dataclass(frozen=True)
class ClassTag:
    """Degree-extreme class: all graphs with d_min = j and d_max = k."""

    j: int
    k: int


def _graph_from_edges(n: int, edges: dict[tuple[int, int], float], index_base: int) -> Graph:
    """A loader's graph from its edges {(u, v): weight} with u < v, in Python lists."""
    max_weight = max(edges.values(), default=1.0)
    rescaled = max_weight > 1.0
    pairs = sorted(edges)
    weights = [edges[pair] for pair in pairs]
    if rescaled:
        weights = [w / max_weight for w in weights]
        if not all(w > 0.0 for w in weights):
            raise GraphFormatError(
                f"a weight underflows to 0 when divided by the maximum weight {max_weight!r}")
    degrees = [0.0] * n
    for (u, v), w in zip(pairs, weights):  # edge by edge, as np.bincount adds
        degrees[u] += w
        degrees[v] += w
    g = Graph.__new__(Graph)
    g._bind(n, pairs, weights, degrees, min(degrees, default=0.0), max(degrees, default=0.0),
            index_base, rescaled)
    return g


def _check_vertex_count(n: int, lineno: Optional[int] = None) -> None:
    """Reject an n whose dense n x n float64 matrix exceeds physical memory.

    Spectra need that matrix, so such a graph can never be analysed; saying
    so up front beats an allocation failure (or the OOM killer) later.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform does not say
        return
    need = 8 * n * n
    if need > memory:
        message = (f"{n} vertices need a {need / 2**30:,.1f} GiB dense matrix, "
                   f"more than the {memory / 2**30:,.1f} GiB of physical memory")
        if lineno is None:
            raise ValueError(message)
        raise GraphFormatError(f"line {lineno}: {message}")


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
    if not weight > 0.0 or not math.isfinite(weight):
        raise GraphFormatError(f"line {lineno}: edge weight must be positive and finite")
    return weight


def load_edge_list(text: str) -> Graph:
    """Parse ``text``, a whole file in the plain edge-list format.

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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def load_pajek(text: str) -> Graph:
    """Parse ``text``, a whole file in the Pajek subset of .net network files.

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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def load_graph(text: str) -> Graph:
    """Parse a graph file: Pajek if its first line starts with '*', else an edge list.

    Blank lines and lines that start with '%' or '#' are skipped. A valid
    Pajek file opens with ``*Vertices`` and a valid edge list with
    ``nodes``, so no valid file goes to the wrong parser.
    """
    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line[:1] not in ("", "%", "#")), "")
    return load_pajek(text) if first.startswith("*") else load_edge_list(text)


def degree_summary(g: Graph) -> DegreeSummary:
    """The graph's degree extremes d_min and d_max (0 and 0 when n = 0).

    Computed once, when the graph is built, and shared by every call.
    """
    return g._summary


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components by breadth-first traversal.

    Components are numbered in order of their lowest vertex, so labels
    are deterministic and contiguous in 0..c-1. The traversal runs on
    adjacency lists built from the edge list, in O(n + m).
    """
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g._pairs():
        neighbours[u].append(v)
        neighbours[v].append(u)
    labels = [-1] * g.n
    count = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            for v in neighbours[queue.popleft()]:
                if labels[v] < 0:
                    labels[v] = count
                    queue.append(v)
        count += 1
    return ComponentLabeling(component_count=count, _labels=labels)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Block-diagonal union of two graphs; no cross edges."""
    import numpy as np

    return Graph.from_edges(
        a.n + b.n,
        np.concatenate([a.edges, b.edges + a.n]),
        np.concatenate([a.edge_weights, b.edge_weights]),
        index_base=a.index_base,
        rescaled=a.rescaled or b.rescaled,
    )


def _unweighted(n: int, edges) -> Graph:
    """A 1-based generated graph with unit weights on the given pairs u < v."""
    import numpy as np

    return Graph.from_edges(n, edges, np.ones(len(edges)), index_base=1)


def _complete_edges(k: int) -> np.ndarray:
    import numpy as np

    return np.stack(np.triu_indices(k, 1), axis=1)


def gen_star(n: int) -> Graph:
    """Star on n vertices: vertex 0 is the hub, degrees {n-1, 1 x (n-1)}."""
    if n < 2:
        raise ValueError("star graph needs at least 2 vertices")
    _check_vertex_count(n)
    return _unweighted(n, [(0, v) for v in range(1, n)])


def gen_complete(k: int) -> Graph:
    """Complete graph on k vertices; (k-1)-regular."""
    if k < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    _check_vertex_count(k)
    return _unweighted(k, _complete_edges(k))


def gen_graph_c(k: int) -> Graph:
    """The k-complete component plus nine 2-complete components.

    The complete component occupies vertices 0..k-1 (reported as 1..k),
    followed by the nine pairs, so 1-based reporting matches the node
    numbering used in the clustering figures.
    """
    if k < 2:
        raise ValueError("complete component needs at least 2 vertices")
    _check_vertex_count(k + 18)
    import numpy as np

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
    """The common degree d when d_max - d_min is within the degrees' rounding, n*eps*d_max."""
    ds = degree_summary(g)
    if g.n and ds.d_max - ds.d_min <= g.n * sys.float_info.epsilon * ds.d_max:
        return ds.d_min
    return None


def class_tag(ds: DegreeSummary) -> ClassTag:
    """Integer degree-extreme class of a graph; extremes must be integral.

    An extreme belongs to the integer r nearest it when it lies within
    ``CLASS_RTOL * |r|`` of r, so the band scales with the degree and a
    class j = 0 needs d_min = 0 exactly (an isolated vertex), however small
    the weights of the graph are.
    """
    j, k = round(ds.d_min), round(ds.d_max)
    if abs(ds.d_min - j) > CLASS_RTOL * abs(j) or abs(ds.d_max - k) > CLASS_RTOL * abs(k):
        raise ValueError("degree extremes are not integers; no integer class applies")
    return ClassTag(j=j, k=k)


class Region(Enum):
    """The six bound-ordering regions of the degree-extreme plane."""

    REGULAR = "regular"
    BOLD = "bold"
    UNDERLINED = "underlined"
    TELETYPE = "teletype"
    ITALIC = "italic"
    NORMAL = "normal"

    @property
    def ordering(self) -> str:
        """How the region orders e(A,L), e(L,Lrw) and e(A,Lrw)."""
        return _ORDERINGS[self]


_ORDERINGS = {
    Region.REGULAR: "e(A,L) = e(L,Lrw) = e(A,Lrw) = 0",
    Region.BOLD: "e(A,L) < e(L,Lrw) < e(A,Lrw)",
    Region.UNDERLINED: "e(A,L) = e(L,Lrw) < e(A,Lrw)",
    Region.TELETYPE: "e(L,Lrw) < e(A,L) < e(A,Lrw)",
    Region.ITALIC: "e(L,Lrw) < e(A,L) = e(A,Lrw)",
    Region.NORMAL: "e(L,Lrw) < e(A,Lrw) < e(A,L)",
}


def classify_region(ds: DegreeSummary) -> Region:
    """Which of the six bound-ordering regions the degree extremes fall in.

    Regular graphs (d_min = d_max) take precedence; otherwise the region
    is decided by d_min + d_max against the thresholds 4, 5 and 6. There
    is no region for d_min = 0, where the Lrw bounds are undefined.
    """
    tag = class_tag(ds)
    if tag.j == 0:
        raise ValueError("no bound ordering for d_min = 0: e(L,Lrw) and e(A,Lrw) are undefined")
    if tag.j == tag.k:
        return Region.REGULAR
    total = tag.j + tag.k
    if total < 4:
        return Region.BOLD
    if total == 4:
        return Region.UNDERLINED
    if total == 5:
        return Region.TELETYPE
    if total == 6:
        return Region.ITALIC
    return Region.NORMAL
