"""Undirected weighted graphs: construction, file ingestion and generators.

Vertices are always 0..n-1 internally; ``Graph.index_base`` records the
numbering convention of the source (0- or 1-based) and is used only where
vertex ids meet the user: in reports and in a ground-truth label file.

The loaders, generators and edge-list writer, the degree extremes, the
components and the degree-extreme class and region run in plain Python,
so the commands that need only them (``info``, ``region``, ``gen``) never
import numpy; numpy is imported where an array is first built.
"""

from __future__ import annotations

import math
import os
from collections import deque
from enum import Enum
from functools import cached_property, partial
from itertools import chain, combinations
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

# Relative distance from an integer within which a degree extreme, a float
# sum of weights, counts as that integer.
CLASS_RTOL = 1e-9


class GraphFormatError(ValueError):
    """A graph file violates the edge-list or Pajek format."""


class _Frozen:
    """A record set up by its constructor: assigning or deleting an attribute raises, and
    ``repr`` shows the fields named in ``_shown``. Not a dataclass: ``dataclasses`` imports
    ``inspect``, which the commands that need only this module would pay for."""

    _shown: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class _Value(_Frozen):
    """A frozen record equal to another of its own class, and hashed, by its ``_shown`` fields."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class Graph(_Frozen):
    """Simple undirected graph with edge weights in (0, 1].

    A graph is its edge list: row i of ``edges`` is an upper-triangle pair
    u < v, rows in lexicographic order without repeats, and
    ``edge_weights[i]`` its weight. ``Graph(n, weights)`` reads the
    upper-triangle nonzeros of a dense symmetric matrix as the edges and
    keeps neither the matrix nor a copy; :meth:`from_edges` takes the edge
    arrays directly. A graph built from vertex pairs (loaded, generated or
    a disjoint union) keeps Python lists and sums its degrees in Python in
    ``np.bincount``'s order; ``edges``, ``edge_weights`` and ``degrees``
    are read-only arrays derived on first access and kept. ``rescaled`` is
    set by the loaders when weights above 1 were divided by the maximum
    weight. Instances are immutable; facts computed from one are kept in
    its ``_memo`` by :func:`_memoised`.
    """

    n: int
    index_base: int
    rescaled: bool
    # A loader's Python lists, or read-only arrays; never changed after construction.
    _edges: object
    _edge_weights: object
    _degrees: object
    _summary: DegreeSummary
    _memo: dict
    _shown = ("n", "index_base", "rescaled")

    def __init__(self, n: int, weights: np.ndarray, index_base: int = 0) -> None:
        import numpy as np

        w = np.asarray(weights, dtype=float)
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
        self._setup(n, np.stack([u, v], axis=1), w[u, v], index_base)

    @classmethod
    def from_edges(cls, n: int, edges, edge_weights, index_base: int = 0) -> Graph:
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
        g._setup(n, e, w, index_base)
        return g

    def _setup(self, n, edges, edge_weights, index_base) -> None:
        import numpy as np

        # Edge rows are in lexicographic order, so each vertex sums its
        # weights in order of ascending neighbour id. bincount counts in
        # int64 when there are no edges; degrees are always float64.
        degrees = np.bincount(edges.reshape(-1), weights=np.repeat(edge_weights, 2),
                              minlength=n).astype(float, copy=False)
        for a in (edges, edge_weights, degrees):
            a.setflags(write=False)
        extremes = (float(degrees.min()), float(degrees.max())) if n else (0.0, 0.0)
        self._bind(n, edges, edge_weights, degrees, *extremes, index_base, False)

    def _bind(self, n, edges, edge_weights, degrees, d_min, d_max, index_base, rescaled) -> None:
        if index_base not in (0, 1):
            raise ValueError("index_base must be 0 or 1")
        vars(self).update(n=n, _edges=edges, _edge_weights=edge_weights, _degrees=degrees,
                          index_base=index_base, rescaled=rescaled,
                          _summary=DegreeSummary(d_min, d_max), _memo={})

    @cached_property
    def edges(self) -> np.ndarray:
        """The m x 2 intp array of pairs u < v in lexicographic order, read-only."""
        edges = self._edges
        if isinstance(edges, list):  # flattened in one pass: an array of m tuples peaks at 48 bytes an edge
            import numpy as np

            edges = np.fromiter(chain.from_iterable(edges), np.intp, count=2 * len(edges))
        return _read_only(edges, "intp", (-1, 2))

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """The m edge weights in the order of ``edges``, read-only."""
        return _read_only(self._edge_weights, "float64", (-1,))

    @cached_property
    def degrees(self) -> np.ndarray:
        """The n weighted degrees, read-only."""
        return _read_only(self._degrees, "float64", (-1,))

    def _lists(self) -> tuple[list, list]:
        """The edge pairs (u, v) and their weights as Python lists, in the order of ``edges``."""
        if isinstance(self._edges, list):
            return self._edges, self._edge_weights
        return self._edges.tolist(), self._edge_weights.tolist()


def _memoised(g: Graph, build, *args):
    """``build(g, *args)``, computed once per graph, which is immutable, and then returned as is.

    The value is kept in ``g._memo`` under ``(build, *args)``, and only
    when build returns, so a call that raises raises again, with the same
    message, on every call. ``build`` is a module's private function: the
    public ones may be rebound (a tracer wraps them), and a key holding
    the graph would keep it alive in a reference cycle.
    """
    key = (build, *args)
    try:
        return g._memo[key]
    except KeyError:
        pass
    value = g._memo[key] = build(g, *args)
    return value


def _read_only(values, dtype: str, shape: tuple) -> np.ndarray:
    """``values`` as a read-only array, not copied when it is an array of that dtype."""
    import numpy as np

    a = np.asarray(values, dtype=dtype).reshape(shape)
    a.setflags(write=False)
    return a


class DegreeSummary(_Value):
    """The degree extremes (d_min, d_max) of a graph or of a degree-extreme class.

    The bounds depend on the extremes alone; a graph's degree vector is
    ``Graph.degrees``. Fraction and float extremes of equal value compare
    and hash alike.
    """

    _shown = ("d_min", "d_max")

    def __init__(self, d_min: float, d_max: float) -> None:
        vars(self).update(d_min=d_min, d_max=d_max)


class ComponentLabeling(_Frozen):
    """Connected-component ids, contiguous in 0..component_count-1."""

    _shown = ("component_count",)

    def __init__(self, component_count: int, _labels: list) -> None:
        vars(self).update(component_count=component_count, _labels=_labels)

    @cached_property
    def labels(self) -> np.ndarray:
        """Vertex v's component id at index v, an int array built on first access."""
        import numpy as np

        return np.array(self._labels, dtype=int)


class ClassTag(_Value):
    """Degree-extreme class: all graphs with d_min = j and d_max = k."""

    _shown = ("j", "k")

    def __init__(self, j: int, k: int) -> None:
        vars(self).update(j=j, k=k)


def _graph_from_edges(n: int, edges: dict[tuple[int, int], float], index_base: int) -> Graph:
    """The graph of the edges {(u, v): weight} with u < v, built in Python lists."""
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


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _gib(nbytes: int) -> str:
    """nbytes in GiB to one decimal, rounded as '.1f' rounds, exactly: a size may pass the float range."""
    from fractions import Fraction

    tenths = round(Fraction(10 * nbytes, 2**30))
    return f"{tenths // 10:,}.{tenths % 10}"


def _check_memory(need: int, what: str, error: type = ValueError) -> None:
    """Raise error when need bytes exceed physical memory; its message is what, with
    {} filled in as need in GiB, then the memory."""
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise error(what.format(_gib(need)) + f", more than the {_gib(memory)} GiB of physical memory")


def _check_vertex_count(n: int, lineno: Optional[int] = None) -> None:
    """Reject an n whose dense n x n float64 matrix exceeds physical memory.

    Spectra need that matrix, so such a graph can never be analysed; saying
    so up front beats an allocation failure (or the OOM killer) later.
    """
    where = "" if lineno is None else f"line {lineno}: "
    _check_memory(8 * n * n, f"{where}{n} vertices need a {{}} GiB dense matrix",
                  ValueError if lineno is None else GraphFormatError)


# Bytes a generated graph holds per edge at its peak: the pair tuples and
# the sorted pair and weight lists, then the lines of its edge-list text.
# tracemalloc read 151-155 bytes per edge for gen_complete(500..1400) and
# gen_graph_c(1000) followed by _write_edge_list (Python 3.11).
_BYTES_PER_GENERATED_EDGE = 160


def _check_generated_size(n: int, m: int) -> None:
    """Reject a generated graph of n vertices and m edges before any edge is
    built: its dense matrix, or its m edges, would exceed physical memory."""
    _check_vertex_count(n)
    _check_memory(_BYTES_PER_GENERATED_EDGE * m, f"{m} edges need about {{}} GiB to build")


def _check_graph_c_size(k: int) -> None:
    """:func:`_check_generated_size` for C(k): k + 18 vertices, k(k-1)/2 + 9 edges."""
    _check_generated_size(k + 18, k * (k - 1) // 2 + 9)


def parse_number(convert, token: str):
    """``convert(token)``, int or float, but '_' separators and non-ASCII digits raise ValueError."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII number without '_': {token!r}")
    return convert(token)


def _converters(text: str) -> tuple:
    """:func:`parse_number`'s int and float conversions for the tokens of ``text``: the bare
    ``int`` and ``float`` when the whole text is ASCII without '_', so no token can fail."""
    if text.isascii() and "_" not in text:
        return int, float
    return partial(parse_number, int), partial(parse_number, float)


def _parse_endpoint(token: str, n: int, base: int, lineno: int, to_int) -> int:
    """The 0-based vertex of the id ``token`` on line ``lineno``, numbered from ``base``."""
    try:
        raw = to_int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-numeric vertex id {token!r}") from None
    v = raw - base
    if not 0 <= v < n:
        raise GraphFormatError(f"line {lineno}: vertex id {raw} out of range")
    return v


def _parse_edge(tokens: list[str], line: str, what: str, n: int, base: int, lineno: int,
                to_int, to_float) -> tuple[int, int, float]:
    """The 0-based ends and the weight (1 if left out) of ``tokens``, a ``u v [w]`` line of
    kind ``what``; ``line``, the text they were split from, is quoted in an error."""
    if not 2 <= len(tokens) <= 3:
        raise GraphFormatError(f"line {lineno}: malformed {what} line {line.strip()!r}")
    u = _parse_endpoint(tokens[0], n, base, lineno, to_int)
    v = _parse_endpoint(tokens[1], n, base, lineno, to_int)
    if u == v:
        raise GraphFormatError(f"line {lineno}: self-loop on vertex {tokens[0]}")
    if len(tokens) == 2:
        return u, v, 1.0
    try:
        weight = to_float(tokens[2])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-numeric weight {tokens[2]!r}") from None
    if not 0.0 < weight < math.inf:
        raise GraphFormatError(f"line {lineno}: edge weight must be positive and finite")
    return u, v, weight


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
    to_int, to_float = _converters(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        tokens = line.split()
        if not tokens:
            continue
        if n is None:
            if tokens[0].lower() != "nodes":
                raise GraphFormatError(f"line {lineno}: expected 'nodes N' header")
            if len(tokens) not in (2, 4) or (len(tokens) == 4 and tokens[2].lower() != "base"):
                raise GraphFormatError(f"line {lineno}: malformed header {line.strip()!r}")
            try:
                n = to_int(tokens[1])
                base = to_int(tokens[3]) if len(tokens) == 4 else 0
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed header {line.strip()!r}") from None
            if n < 0 or base not in (0, 1):
                raise GraphFormatError(f"line {lineno}: malformed header {line.strip()!r}")
            _check_vertex_count(n, lineno)
            continue
        u, v, weight = _parse_edge(tokens, line, "edge", n, base, lineno, to_int, to_float)
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {tokens[0]} {tokens[1]}")
        edges[key] = weight
    if n is None:
        raise GraphFormatError("missing 'nodes N' header")
    return _graph_from_edges(n, edges, index_base=base)


def _write_edge_list(g: Graph) -> str:
    """The text of ``g`` in the edge-list format that :func:`load_edge_list` reads."""
    base = g.index_base
    lines = [f"nodes {g.n} base {base}"]
    for (u, v), w in zip(*g._lists()):
        suffix = "" if w == 1.0 else f" {w:.17g}"
        lines.append(f"{u + base} {v + base}{suffix}")
    return "\n".join(lines) + "\n"


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
    to_int, to_float = _converters(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "%":
            continue
        if tokens[0][0] == "*":
            marker = tokens[0].lower()
            if marker == "*vertices":
                if len(tokens) < 2:
                    raise GraphFormatError(f"line {lineno}: *Vertices needs a count")
                try:
                    n = to_int(tokens[1])
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
        u, v, weight = _parse_edge(tokens, raw, section, n, 1, lineno, to_int, to_float)
        if section == "edges":
            key = (u, v) if u < v else (v, u)
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
        key = (u, v) if u < v else (v, u)
        if key in edges and edges[key] != weight:
            raise GraphFormatError(f"conflicting weights for edge {u + 1} {v + 1}")
        edges[key] = weight
    return _graph_from_edges(n, edges, index_base=1)


_FIRST_PREFIX = 1024  # characters load_graph looks at first to pick the parser


def load_graph(text: str) -> Graph:
    """Parse a graph file: Pajek if its first line starts with '*', else an edge list.

    A leading byte-order mark is dropped. Blank lines and lines that start
    with '%' or '#' are skipped. A valid Pajek file opens with
    ``*Vertices`` and a valid edge list with ``nodes``, so no valid file
    goes to the wrong parser.
    """
    text = text.removeprefix("\ufeff")
    # The chosen loader splits the whole text, so look only at growing prefixes
    # of it. A line cut off at a prefix's end shows its first character if any.
    size = _FIRST_PREFIX
    while True:
        marks = (line.lstrip()[:1] for line in text[:size].splitlines())
        first = next((mark for mark in marks if mark not in ("", "%", "#")), "")
        if first or size >= len(text):
            return load_pajek(text) if first == "*" else load_edge_list(text)
        size *= 8


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
    for u, v in g._lists()[0]:
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
    edges: dict[tuple[int, int], float] = {}
    for g, shift in ((a, 0), (b, a.n)):
        pairs, weights = g._lists()
        edges.update(((u + shift, v + shift), w) for (u, v), w in zip(pairs, weights))
    return _graph_from_edges(a.n + b.n, edges, index_base=a.index_base)


def _unweighted(n: int, pairs) -> Graph:
    """A 1-based generated graph with unit weights on the given pairs u < v."""
    return _graph_from_edges(n, dict.fromkeys(pairs, 1.0), index_base=1)


def gen_star(n: int) -> Graph:
    """Star on n vertices: vertex 0 is the hub, degrees {n-1, 1 x (n-1)}."""
    if n < 2:
        raise ValueError("star graph needs at least 2 vertices")
    _check_generated_size(n, n - 1)
    return _unweighted(n, [(0, v) for v in range(1, n)])


def gen_complete(k: int) -> Graph:
    """Complete graph on k vertices; (k-1)-regular."""
    if k < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    _check_generated_size(k, k * (k - 1) // 2)
    return _unweighted(k, combinations(range(k), 2))


def gen_graph_c(k: int) -> Graph:
    """The k-complete component plus nine 2-complete components.

    The complete component occupies vertices 0..k-1 (reported as 1..k),
    followed by the nine pairs, so 1-based reporting matches the node
    numbering used in the clustering figures.
    """
    if k < 2:
        raise ValueError("complete component needs at least 2 vertices")
    _check_graph_c_size(k)
    pairs = [(v, v + 1) for v in range(k, k + 18, 2)]
    return _unweighted(k + 18, [*combinations(range(k), 2), *pairs])


def gen_bipartite_b() -> Graph:
    """Bipartite graph on 34 nodes with degree sequence {1, {16}^16, {17}^17}.

    Parts X = vertices 0..16 and Y = vertices 17..33. Vertex 0 is joined
    only to vertex 17; the other sixteen X vertices are joined to all of
    Y. The wiring is one concrete realisation of the degree sequence.
    """
    return _unweighted(34, [(0, 17)] + [(x, y) for x in range(1, 17) for y in range(17, 34)])


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
