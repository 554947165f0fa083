"""Graph construction, ingestion and generators.

Ground truth: degree sequences of the named graphs (star: {n-1, 1 x (n-1)},
complete: regular, karate: d_min 1 / d_max 17) and component counts of
block-diagonal unions.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import (
    Graph,
    GraphFormatError,
    RepresentationKind,
    class_tag,
    connected_components,
    degree_summary,
    disjoint_union,
    gen_bipartite_b,
    gen_complete,
    gen_graph_c,
    gen_star,
    is_d_regular,
    load_edge_list,
    load_graph,
    load_pajek,
    normalized_eigengaps,
    spectrum,
)
from graphspectra.cli import _write_edge_list
from graphspectra.data import karate_net_path
from graphspectra.graphs import ClassTag, DegreeSummary


def path3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return Graph(n=3, weights=w)


class TestGraphInvariants:
    def test_rejects_asymmetric_weights(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            Graph(n=2, weights=w)

    def test_rejects_non_finite_weights(self):
        for bad in (np.nan, np.inf):
            w = np.zeros((2, 2))
            w[0, 1] = w[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                Graph(n=2, weights=w)

    def test_rejects_self_loops(self):
        w = np.eye(2)
        with pytest.raises(ValueError, match="diagonal"):
            Graph(n=2, weights=w)

    def test_rejects_weights_above_one(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Graph(n=2, weights=w)

    def test_weights_are_read_only(self):
        g = gen_complete(3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 0.5

    def test_generated_graphs_symmetric_zero_diagonal(self):
        for g in (gen_star(5), gen_complete(4), gen_graph_c(3), gen_bipartite_b()):
            assert np.array_equal(g.weights, g.weights.T)
            assert not np.any(np.diag(g.weights))


class TestLoadEdgeList:
    def test_smallest_edge(self):
        g = load_edge_list("nodes 2\n0 1\n")
        assert g.n == 2
        assert g.weights[0, 1] == 1.0
        assert not g.rescaled

    def test_path_p3(self):
        g = load_edge_list("nodes 3\n0 1\n1 2\n")
        assert np.array_equal(g.weights, path3().weights)

    def test_weight_above_one_rescaled(self):
        g = load_edge_list("nodes 2\n0 1 4.0\n")
        assert g.weights[0, 1] == 1.0
        assert g.rescaled

    def test_weight_vanishing_under_rescale_rejected(self):
        """The smallest subnormal divided by 10 is 0: the edge would silently disappear."""
        for top, printed in (("10", "10.0"), ("1e308", "1e+308")):
            with pytest.raises(GraphFormatError) as excinfo:
                load_edge_list(f"nodes 3\n0 1 5e-324\n1 2 {top}\n")
            assert str(excinfo.value) == (
                f"a weight underflows to 0 when divided by the maximum weight {printed}")

    def test_rescale_divides_by_maximum(self):
        g = load_edge_list("nodes 3\n0 1 4.0\n1 2 1.0\n")
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 2] == 0.25

    def test_one_based_header(self):
        g = load_edge_list("nodes 2 base 1\n1 2\n")
        assert g.weights[0, 1] == 1.0
        assert g.index_base == 1

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# a comment\n\nnodes 2\n0 1  # trailing\n")
        assert g.weights[0, 1] == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_edge_list("nodes 2\n1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_edge_list("nodes 2\n0 1\n1 0\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_edge_list("nodes 2\n0 2\n")

    def test_zero_is_out_of_range_for_base_one(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_edge_list("nodes 2 base 1\n0 1\n")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="malformed"):
            load_edge_list("nodes 2\n0 1 2 3\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            load_edge_list("0 1\n")


class TestLoadPajek:
    def test_minimal_edges(self):
        g = load_pajek("*Vertices 2\n*Edges\n1 2\n")
        assert g.n == 2
        assert g.weights[0, 1] == 1.0
        assert g.index_base == 1

    def test_karate_file(self, karate):
        """The bundled club network: 34 nodes, 78 edges, degree extremes 1 and 17."""
        assert karate.n == 34
        assert karate.weights.sum() / 2 == 78
        ds = degree_summary(karate)
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)

    def test_arcs_symmetrised_and_collapsed(self):
        g = load_pajek("*Vertices 3\n*Arcs\n1 2\n2 1\n")
        assert g.weights[0, 1] == 1.0
        assert g.weights.sum() == 2.0

    def test_missing_vertices_header(self):
        with pytest.raises(GraphFormatError, match=r"\*Vertices"):
            load_pajek("*Edges\n1 2\n")

    def test_non_numeric_token(self):
        with pytest.raises(GraphFormatError, match="non-numeric"):
            load_pajek("*Vertices 2\n*Edges\n1 two\n")

    def test_vertex_label_lines_ignored(self):
        g = load_pajek('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2\n')
        assert g.weights[0, 1] == 1.0

    def test_conflicting_arc_weights(self):
        with pytest.raises(GraphFormatError, match="conflicting"):
            load_pajek("*Vertices 2\n*Arcs\n1 2 0.5\n2 1 0.7\n")

    def test_repeated_identical_arc(self):
        with pytest.raises(GraphFormatError, match="duplicate arc"):
            load_pajek("*Vertices 2\n*Arcs\n1 2\n1 2\n")

    def test_rescaling_applies_to_pajek(self):
        g = load_pajek("*Vertices 2\n*Edges\n1 2 5.0\n")
        assert g.rescaled
        assert g.weights[0, 1] == 1.0


PAJEK_WITH_COMMENT = '% made by hand\n\n*Vertices 4\n1 "a"\n*Arcs\n1 2 2.0\n2 3\n*Edges\n3 4 0.5\n'
EDGE_LIST_WITH_COMMENT = "# made by hand\n  # indented\n\nnodes 5 base 1\n1 2\n2 3 3.0\n4 5\n"


class TestLoadGraph:
    """The first line that is not blank or a '%'/'#' comment picks the parser."""

    @pytest.mark.parametrize("text, load", [
        (karate_net_path().read_text(), load_pajek),
        (PAJEK_WITH_COMMENT, load_pajek),
        (EDGE_LIST_WITH_COMMENT, load_edge_list),
        (_write_edge_list(gen_graph_c(18)), load_edge_list),
        ("nodes 4\n0 1 0.5\n1 2 1\n2 3 0.25\n3 0 0.75\n", load_edge_list),
        ("nodes 3\n0 1\n", load_edge_list),
    ])
    def test_same_graph_as_the_matching_loader(self, text, load):
        g, expected = load_graph(text), load(text)
        assert (g.n, g.index_base, g.rescaled) == (expected.n, expected.index_base, expected.rescaled)
        for name in ("edges", "edge_weights", "degrees"):
            assert np.array_equal(getattr(g, name), getattr(expected, name))

    @pytest.mark.parametrize("text, message", [
        ("", "missing 'nodes N' header"),
        ("% only a comment\n", "line 1: expected 'nodes N' header"),
        ("*Edges\n1 2\n", "line 1: missing *Vertices header"),
        ("# a comment\n*Vertices 2\n", "line 1: data before any *Edges/*Arcs section"),
        ("nodes 3\n0 0\n", "line 2: self-loop on vertex 0"),
    ])
    def test_invalid_file_gets_the_error_of_the_parser_its_first_line_names(self, text, message):
        with pytest.raises(GraphFormatError) as excinfo:
            load_graph(text)
        assert str(excinfo.value) == message


class TestDegreeSummary:
    def test_karate_extremes(self, karate):
        ds = degree_summary(karate)
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)

    def test_star18_degree_sequence(self, star18):
        """Star on 18 nodes: one hub of degree 17, seventeen leaves of degree 1."""
        assert sorted(star18.degrees) == [1.0] * 17 + [17.0]

    def test_k3_regular(self):
        ds = degree_summary(gen_complete(3))
        assert ds.d_min == ds.d_max == 2.0


class TestConnectedComponents:
    def test_graph_c18_has_ten(self, graph_c18):
        assert connected_components(graph_c18).component_count == 10

    def test_complete_is_one(self):
        assert connected_components(gen_complete(18)).component_count == 1

    def test_isolated_vertices(self):
        g = Graph(n=5, weights=np.zeros((5, 5)))
        labeling = connected_components(g)
        assert labeling.component_count == 5
        assert sorted(labeling.labels) == list(range(5))

    def test_labels_contiguous_and_path_consistent(self, graph_c18):
        labeling = connected_components(graph_c18)
        assert set(labeling.labels) == set(range(labeling.component_count))
        # vertices in the complete component share label 0
        assert len(set(labeling.labels[:18])) == 1


class TestDisjointUnion:
    def test_two_k2(self):
        g = disjoint_union(gen_complete(2), gen_complete(2))
        assert g.n == 4
        assert connected_components(g).component_count == 2

    def test_nine_pairs_plus_k18_is_graph_c(self, graph_c18):
        g = gen_complete(18)
        for _ in range(9):
            g = disjoint_union(g, gen_complete(2))
        assert np.array_equal(g.weights, graph_c18.weights)

    def test_identity_with_empty_graph(self):
        g = gen_star(4)
        u = disjoint_union(g, Graph(n=0, weights=np.zeros((0, 0))))
        assert np.array_equal(u.weights, g.weights)

    def test_degree_extremes_combine(self):
        gens = [gen_star(5), gen_complete(4), gen_graph_c(3), gen_bipartite_b()]
        for a in gens:
            for b in gens:
                ds = degree_summary(disjoint_union(a, b))
                da, db = degree_summary(a), degree_summary(b)
                assert ds.d_max == max(da.d_max, db.d_max)
                assert ds.d_min == min(da.d_min, db.d_min)

    def test_component_counts_add(self):
        gens = [gen_star(5), gen_complete(4), gen_graph_c(3)]
        for a in gens:
            for b in gens:
                assert (
                    connected_components(disjoint_union(a, b)).component_count
                    == connected_components(a).component_count
                    + connected_components(b).component_count
                )


class TestGenerators:
    def test_star18(self, star18):
        ds = degree_summary(star18)
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)
        assert star18.degrees[0] == 17.0  # hub first

    def test_star2_is_k2(self):
        assert np.array_equal(gen_star(2).weights, gen_complete(2).weights)

    def test_star3_is_p3_up_to_relabel(self):
        assert sorted(gen_star(3).degrees) == [1.0, 1.0, 2.0]

    def test_star_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_star(1)

    def test_complete18_regular(self):
        assert is_d_regular(gen_complete(18)) == 17.0

    def test_complete2_single_edge(self):
        g = gen_complete(2)
        assert g.weights.sum() == 2.0

    def test_complete_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_complete(0)

    def test_graph_c18(self, graph_c18):
        ds = degree_summary(graph_c18)
        assert graph_c18.n == 36
        assert connected_components(graph_c18).component_count == 10
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)

    def test_graph_c3(self):
        g = gen_graph_c(3)
        assert g.n == 21
        assert degree_summary(g).d_max == 2.0

    def test_graph_c2_one_regular(self):
        g = gen_graph_c(2)
        assert g.n == 20
        assert connected_components(g).component_count == 10
        assert is_d_regular(g) == 1.0

    def test_graph_c_rejects_k1(self):
        with pytest.raises(ValueError):
            gen_graph_c(1)

    def test_bipartite_b_degree_sequence(self, bipartite_b):
        """Degree multiset must be exactly {1, {16}^16, {17}^17}."""
        ds = degree_summary(bipartite_b)
        assert bipartite_b.n == 34
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)
        degrees = sorted(bipartite_b.degrees)
        assert degrees == [1.0] + [16.0] * 16 + [17.0] * 17

    def test_bipartite_b_two_colorable(self, bipartite_b):
        """Breadth-first 2-coloring must succeed (bipartiteness oracle)."""
        color = np.full(bipartite_b.n, -1)
        for start in range(bipartite_b.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop(0)
                for v in np.flatnonzero(bipartite_b.weights[u]):
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        queue.append(int(v))
                    else:
                        assert color[v] != color[u], "odd cycle found"


class TestRegularityAndClass:
    def test_k3(self):
        assert is_d_regular(gen_complete(3)) == 2.0

    def test_p3_not_regular(self):
        assert is_d_regular(path3()) is None

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-6, 0.5])
    def test_regularity_is_relative_to_the_degrees(self, scale):
        """An absolute tolerance of 1e-12 would call a path weighted 1e-13 regular;
        circulants whose degrees differ only by rounding are regular at any scale."""
        assert is_d_regular(Graph.from_edges(3, [(0, 1), (1, 2)], [1e-13 * scale] * 2)) is None
        rng = np.random.default_rng(2017)
        for n in (12, 60, 200):
            offsets, weights = range(1, 6), rng.uniform(0.1, 1.0, size=5) * scale
            edges = [sorted((v, (v + s) % n)) for s in offsets for v in range(n)]
            g = Graph.from_edges(n, edges, np.repeat(weights, n))
            assert degree_summary(g).d_min < degree_summary(g).d_max  # rounding differs
            assert is_d_regular(g) == degree_summary(g).d_min

    def test_class_tag_of_graph_c(self):
        for k in range(3, 19):
            tag = class_tag(degree_summary(gen_graph_c(k)))
            assert (tag.j, tag.k) == (1, k - 1)

    def test_class_tag_rejects_fractional_degrees(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 0.5
        with pytest.raises(ValueError, match="integer"):
            class_tag(degree_summary(Graph(n=2, weights=w)))

    def test_class_zero_needs_an_isolated_vertex(self):
        """A path weighted 1e-10 used to be class (0, 0), within 1e-9 of 0."""
        tiny = Graph.from_edges(3, [(0, 1), (1, 2)], [1e-10, 1e-10])
        with pytest.raises(ValueError, match="integer"):
            class_tag(degree_summary(tiny))
        isolated = Graph.from_edges(3, [(0, 1)], [1.0])
        assert class_tag(degree_summary(isolated)) == ClassTag(j=0, k=1)

    @pytest.mark.parametrize("d_min, d_max, tag", [
        (1 - 1e-10, 1e6 * (1 + 1e-10), (1, 10**6)),
        (3 * (1 + 9e-10), 3.0, (3, 3)),
        (0.0, 1e6 * (1 + 2e-9), None),
        (1 - 2e-9, 2.0, None),
        (5e-324, 1.0, None),
    ])
    def test_class_band_is_relative_to_the_integer(self, d_min, d_max, tag):
        ds = DegreeSummary(d_min, d_max)
        if tag is None:
            with pytest.raises(ValueError, match="integer"):
                class_tag(ds)
        else:
            assert class_tag(ds) == ClassTag(*tag)


def _reference_components(weights):
    """Breadth-first labelling over dense rows, numbered by lowest vertex."""
    n = len(weights)
    labels = np.full(n, -1)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in np.flatnonzero(weights[u]):
                if labels[v] < 0:
                    labels[v] = count
                    queue.append(int(v))
        count += 1
    return labels


@st.composite
def weighted_edge_lists(draw):
    """(n, {(u, v): weight}) with u < v; often isolated vertices and several components."""
    n = draw(st.integers(min_value=0, max_value=24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    weight = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=7.0))
    return n, {pair: draw(weight) for pair in chosen}


def _edge_list_text(n, edges, base=0):
    lines = [f"nodes {n} base {base}"]
    lines += [f"{v + base} {u + base} {w!r}" for (u, v), w in edges.items()]  # reversed pairs
    return "\n".join(lines) + "\n"


def _pajek_text(n, edges):
    """Every other edge as an *Arc in reverse, the first arc also forward; the rest as *Edges."""
    items = list(edges.items())
    arcs = [f"{v + 1} {u + 1} {w!r}" for (u, v), w in items[::2]]
    arcs += [f"{u + 1} {v + 1} {w!r}" for (u, v), w in items[:1]]
    lines = [f"*Vertices {n}"] + [f'{v + 1} "v{v + 1}"' for v in range(min(n, 3))]
    lines += ["*Arcs"] + arcs + ["*Edges"] + [f"{u + 1} {v + 1} {w!r}" for (u, v), w in items[1::2]]
    return "\n".join(lines) + "\n"


def _same_array(a, b):
    """Equal bit for bit, of the same dtype and shape, and both read-only."""
    return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            and not a.flags.writeable and not b.flags.writeable)


class TestEdgeListCore:
    """A graph is its edge arrays; the dense matrix is derived from them on demand."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(weighted_edge_lists(), st.sampled_from(["edgelist", "pajek"]))
    def test_loaded_graph_matches_from_edges_bit_for_bit(self, case, fmt):
        """The loaders sum degrees in Python, from_edges by np.bincount: the same bits."""
        n, edges = case
        if fmt == "edgelist":
            loaded = load_edge_list(_edge_list_text(n, edges))
        else:
            loaded = load_pajek(_pajek_text(n, edges))
        pairs = np.array(list(edges), dtype=np.intp).reshape(-1, 2)
        weights = np.array(list(edges.values()))
        if weights.size and weights.max() > 1.0:
            weights = weights / weights.max()
        reference = Graph.from_edges(n, pairs, weights)
        assert loaded.rescaled == bool(weights.size and max(edges.values()) > 1.0)
        for name in ("edges", "edge_weights", "degrees"):
            assert _same_array(getattr(loaded, name), getattr(reference, name)), name
        ds = degree_summary(loaded)
        if n:
            assert (ds.d_min, ds.d_max) == (loaded.degrees.min(), loaded.degrees.max())
        else:
            assert (ds.d_min, ds.d_max) == (0.0, 0.0)
        assert (type(ds.d_min), type(ds.d_max)) == (float, float)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(weighted_edge_lists())
    def test_loaded_and_dense_graphs_agree(self, case):
        n, edges = case
        loaded = load_edge_list(_edge_list_text(n, edges))
        w = np.zeros((n, n))
        for (u, v), weight in edges.items():
            w[u, v] = w[v, u] = weight
        if w.size and w.max() > 1.0:
            w = w / w.max()
        dense = Graph(n=n, weights=w)
        assert np.array_equal(loaded.weights, dense.weights)
        assert np.array_equal(loaded.degrees, dense.degrees)
        assert np.array_equal(loaded.edges, dense.edges)
        assert np.array_equal(loaded.edge_weights, dense.edge_weights)
        # Degrees are summed in another order than a dense row sum: equal up
        # to the rounding of n non-negative terms.
        np.testing.assert_allclose(loaded.degrees, w.sum(axis=1),
                                   rtol=2 * max(n, 1) * np.finfo(float).eps, atol=0)
        reference = _reference_components(w)
        for g in (loaded, dense):
            labeling = connected_components(g)
            assert np.array_equal(labeling.labels, reference)
            assert labeling.component_count == (reference.max() + 1 if n else 0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(weighted_edge_lists(), st.sampled_from([0, 1]))
    def test_written_edge_list_reloads_bit_for_bit(self, case, base):
        n, edges = case
        g = load_edge_list(_edge_list_text(n, edges, base))
        again = load_edge_list(_write_edge_list(g))
        assert (again.n, again.index_base) == (g.n, g.index_base)
        assert np.array_equal(again.edges, g.edges)
        assert np.array_equal(again.edge_weights.view(np.int64), g.edge_weights.view(np.int64))
        assert np.array_equal(again.weights, g.weights)

    def test_rescaled_weights_reload_bit_for_bit(self):
        g = load_edge_list("nodes 4\n0 1 2\n1 2 3\n2 3 5\n3 0 7\n0 2 0.1\n")
        assert g.rescaled
        again = load_edge_list(_write_edge_list(g))
        assert np.array_equal(again.edge_weights.view(np.int64), g.edge_weights.view(np.int64))

    def test_arrays_are_read_only_and_graph_is_frozen(self):
        g = load_edge_list("nodes 3\n0 1\n1 2 0.5\n")
        for a in (g.edges, g.edge_weights, g.degrees, g.weights):
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(AttributeError):
            g.n = 4

    def test_weights_built_once_on_first_access(self):
        g = load_edge_list("nodes 3\n0 1\n1 2 0.5\n")
        assert g.weights is g.weights
        assert g.weights[1, 2] == g.weights[2, 1] == 0.5

    def test_derived_arrays_are_cached_and_the_fields_keep_their_type(self):
        """Reading the arrays of a loaded graph leaves its fields the loader's lists."""
        g = load_edge_list("nodes 4\n0 1\n2 1 0.5\n")
        fields = (g._edges, g._edge_weights, g._degrees)
        assert fields == ([(0, 1), (1, 2)], [1.0, 0.5], [1.0, 1.5, 0.5, 0.0])
        for name in ("edges", "edge_weights", "degrees", "weights"):
            a = getattr(g, name)
            assert getattr(g, name) is a and not a.flags.writeable, name
        assert all(now is then for now, then in zip((g._edges, g._edge_weights, g._degrees),
                                                     fields))
        spec = spectrum(g, RepresentationKind.LAPLACIAN)
        assert normalized_eigengaps(spec) is normalized_eigengaps(spec)

    def test_arrays_of_an_array_built_graph_are_not_copied(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        dense = Graph(2, w)
        assert dense.weights is dense.weights and not np.shares_memory(dense.weights, w)
        for g in (dense, Graph.from_edges(3, [(0, 1)], [1.0])):
            for name in ("edges", "edge_weights", "degrees"):
                a = getattr(g, name)
                assert np.shares_memory(a, getattr(g, "_" + name)), name
                assert a is getattr(g, name) and not a.flags.writeable, name

    @pytest.mark.parametrize("edges, weights, message", [
        ([(0, 3)], [1.0], "0..2"),
        ([(-1, 1)], [1.0], "0..2"),
        ([(1, 0)], [1.0], "u < v"),
        ([(1, 1)], [1.0], "u < v"),
        ([(0, 1), (0, 1)], [1.0, 1.0], "repeat"),
        ([(0, 1)], [np.nan], "finite"),
        ([(0, 1)], [np.inf], "finite"),
        ([(0, 1)], [0.0], r"\(0, 1\]"),
        ([(0, 1)], [1.5], r"\(0, 1\]"),
        ([(0, 1)], [1.0, 1.0], "2 edge weights"),
    ])
    def test_from_edges_rejects(self, edges, weights, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(3, edges, weights)

    def test_from_edges_sorts_pairs(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)], [0.25, 0.5, 1.0])
        assert g.edges.tolist() == [[0, 1], [0, 2], [2, 3]]
        assert g.edge_weights.tolist() == [1.0, 0.5, 0.25]
        assert g.degrees.tolist() == [1.5, 1.0, 0.75, 0.25]


class TestSizeGuard:
    """A declared n whose dense n x n matrix exceeds physical memory is a format error."""

    @pytest.mark.parametrize("load, text", [
        (load_edge_list, "nodes 100000000\n"),
        (load_pajek, "*Vertices 100000000\n*Edges\n1 2\n"),
    ])
    def test_oversized_header_rejected(self, load, text):
        with pytest.raises(GraphFormatError, match=r"line 1: 100000000 vertices need a [\d,.]+ GiB"):
            load(text)

    def test_negative_pajek_vertex_count_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1: negative vertex count"):
            load_pajek("*Vertices -5\n*Edges\n")

    def test_desk_scale_header_accepted(self):
        assert load_edge_list("nodes 3000\n").n == 3000

    @pytest.mark.parametrize("gen, extra", [(gen_star, 0), (gen_complete, 0), (gen_graph_c, 18)])
    @pytest.mark.parametrize("size", [10**8, 10**20])
    def test_oversized_generator_rejected_before_building(self, gen, extra, size):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                gen(size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value).startswith(f"{size + extra} vertices need a ")
        assert peak < 2**16, f"peak {peak} bytes"
