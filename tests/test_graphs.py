"""Graph construction, ingestion and generators.

Ground truth: degree sequences of the named graphs (star: {n-1, 1 x (n-1)},
complete: regular, karate: d_min 1 / d_max 17) and component counts of
block-diagonal unions.
"""

import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import (
    Graph,
    GraphFormatError,
    RepresentationKind,
    build_matrix,
    class_tag,
    connected_components,
    degree_summary,
    disjoint_union,
    gen_bipartite_b,
    gen_complete,
    gen_graph_c,
    gen_star,
    load_edge_list,
    load_graph,
    load_pajek,
    normalized_eigengaps,
    spectrum,
)
from graphspectra import graphs
from graphspectra.data import karate_net_path
from graphspectra.graphs import (
    ClassTag,
    DegreeSummary,
    _check_vertex_count,
    _graph_from_edges,
    _write_edge_list,
    parse_number,
)


def path3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return Graph(n=3, weights=w)


def adjacency(g):
    """The graph's weight matrix, built from its edges."""
    return build_matrix(g, RepresentationKind.ADJACENCY)


def edge_map(g):
    """The graph's edges as {(u, v): weight}, u < v."""
    return dict(zip(map(tuple, g.edges.tolist()), g.edge_weights.tolist()))


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

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(-1, np.zeros((0, 0))), "vertex count must be non-negative"),
        (lambda: Graph.from_edges(-1, [], []), "vertex count must be non-negative"),
        (lambda: Graph(2, np.zeros((3, 3))), "weights must be 2x2, got (3, 3)"),
        (lambda: Graph(2, np.zeros((2, 2)), index_base=2), "index_base must be 0 or 1"),
        (lambda: Graph.from_edges(2, [], [], index_base=2), "index_base must be 0 or 1"),
    ], ids=["n", "from_edges-n", "shape", "index_base", "from_edges-index_base"])
    def test_rejects_bad_arguments(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_generated_graphs_symmetric_zero_diagonal(self):
        for g in (gen_star(5), gen_complete(4), gen_graph_c(3), gen_bipartite_b()):
            a = adjacency(g)
            assert np.array_equal(a, a.T)
            assert not np.any(np.diag(a))


class TestLoadEdgeList:
    def test_smallest_edge(self):
        g = load_edge_list("nodes 2\n0 1\n")
        assert g.n == 2
        assert edge_map(g) == {(0, 1): 1.0}
        assert not g.rescaled

    def test_path_p3(self):
        g = load_edge_list("nodes 3\n0 1\n1 2\n")
        p = path3()
        assert np.array_equal(g.edges, p.edges)
        assert np.array_equal(g.edge_weights, p.edge_weights)

    def test_weight_above_one_rescaled(self):
        g = load_edge_list("nodes 2\n0 1 4.0\n")
        assert edge_map(g) == {(0, 1): 1.0}
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
        assert edge_map(g) == {(0, 1): 1.0, (1, 2): 0.25}

    def test_one_based_header(self):
        g = load_edge_list("nodes 2 base 1\n1 2\n")
        assert edge_map(g) == {(0, 1): 1.0}
        assert g.index_base == 1

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# a comment\n\nnodes 2\n0 1  # trailing\n")
        assert edge_map(g) == {(0, 1): 1.0}

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
        assert edge_map(g) == {(0, 1): 1.0}
        assert g.index_base == 1

    def test_karate_file(self, karate):
        """The bundled club network: 34 nodes, 78 edges, degree extremes 1 and 17."""
        assert karate.n == 34
        assert karate.edge_weights.sum() == 78
        ds = degree_summary(karate)
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)

    def test_arcs_symmetrised_and_collapsed(self):
        g = load_pajek("*Vertices 3\n*Arcs\n1 2\n2 1\n")
        assert edge_map(g) == {(0, 1): 1.0}

    def test_missing_vertices_header(self):
        with pytest.raises(GraphFormatError, match=r"\*Vertices"):
            load_pajek("*Edges\n1 2\n")

    def test_non_numeric_token(self):
        with pytest.raises(GraphFormatError, match="non-numeric"):
            load_pajek("*Vertices 2\n*Edges\n1 two\n")

    def test_comment_only_file_has_no_vertices_header(self):
        with pytest.raises(GraphFormatError) as excinfo:
            load_pajek("% only a comment\n")
        assert str(excinfo.value) == "missing *Vertices header"

    def test_vertex_label_lines_ignored(self):
        g = load_pajek('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2\n')
        assert edge_map(g) == {(0, 1): 1.0}

    def test_conflicting_arc_weights(self):
        with pytest.raises(GraphFormatError, match="conflicting"):
            load_pajek("*Vertices 2\n*Arcs\n1 2 0.5\n2 1 0.7\n")

    def test_repeated_identical_arc(self):
        with pytest.raises(GraphFormatError, match="duplicate arc"):
            load_pajek("*Vertices 2\n*Arcs\n1 2\n1 2\n")

    def test_rescaling_applies_to_pajek(self):
        g = load_pajek("*Vertices 2\n*Edges\n1 2 5.0\n")
        assert g.rescaled
        assert edge_map(g) == {(0, 1): 1.0}


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

    @pytest.mark.parametrize("text", [
        "% comment\n" * 200 + "*Vertices 2\n*Edges\n1 2\n",
        "#" + "x" * 3000 + "\nnodes 2\n0 1\n",
        " " * 1500 + "\n*Vertices 1\n",
        "\n" + "\r\n" * 700 + "\t*Vertices 1\n",
        "\n" * 1023 + " \u2028*Vertices 1\n",
        "% comment\n" * 900,
    ], ids=["comments", "long-comment", "blank", "crlf", "separator", "no-header"])
    def test_first_line_past_the_first_prefix(self, text):
        assert _graph_or_message(load_graph, text) == _graph_or_message(_reference_load_graph, text)

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
        assert np.array_equal(g.edges, graph_c18.edges)
        assert np.array_equal(g.edge_weights, graph_c18.edge_weights)

    def test_identity_with_empty_graph(self):
        g = gen_star(4)
        u = disjoint_union(g, Graph(n=0, weights=np.zeros((0, 0))))
        assert np.array_equal(u.edges, g.edges)
        assert np.array_equal(u.edge_weights, g.edge_weights)

    def test_degree_extremes_combine(self):
        gens = [gen_star(5), gen_complete(4), gen_graph_c(3), gen_bipartite_b()]
        for a in gens:
            for b in gens:
                ds = degree_summary(disjoint_union(a, b))
                da, db = degree_summary(a), degree_summary(b)
                assert ds.d_max == max(da.d_max, db.d_max)
                assert ds.d_min == min(da.d_min, db.d_min)

    @pytest.mark.parametrize("built", [("arrays", "arrays"), ("lists", "lists"),
                                       ("arrays", "lists")], ids=["arrays", "lists", "mixed"])
    def test_same_bits_as_from_edges_on_the_concatenated_pairs(self, built):
        """Random non-dyadic weights: the degree sums show any change of summation order."""
        rng = np.random.default_rng(5)
        graphs = []
        for n, how in zip((7, 6), built):
            w = np.triu(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
            g = Graph(n, w + w.T)
            graphs.append(g if how == "arrays" else load_edge_list(_write_edge_list(g)))
        a, b = graphs
        expected = Graph.from_edges(a.n + b.n, np.concatenate([a.edges, b.edges + a.n]),
                                    np.concatenate([a.edge_weights, b.edge_weights]))
        union = disjoint_union(a, b)
        for name in ("edges", "edge_weights", "degrees"):
            got, want = getattr(union, name), getattr(expected, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

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
        assert edge_map(gen_star(2)) == edge_map(gen_complete(2)) == {(0, 1): 1.0}

    def test_star3_is_p3_up_to_relabel(self):
        assert sorted(gen_star(3).degrees) == [1.0, 1.0, 2.0]

    def test_star_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_star(1)

    def test_complete18_regular(self):
        ds = degree_summary(gen_complete(18))
        assert ds.d_min == ds.d_max == 17.0

    def test_complete2_single_edge(self):
        g = gen_complete(2)
        assert edge_map(g) == {(0, 1): 1.0}

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
        ds = degree_summary(g)
        assert ds.d_min == ds.d_max == 1.0

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
        weights = adjacency(bipartite_b)
        color = np.full(bipartite_b.n, -1)
        for start in range(bipartite_b.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop(0)
                for v in np.flatnonzero(weights[u]):
                    if color[v] < 0:
                        color[v] = 1 - color[u]
                        queue.append(int(v))
                    else:
                        assert color[v] != color[u], "odd cycle found"


class TestRegularityAndClass:
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
        assert np.array_equal(adjacency(loaded), adjacency(dense))
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
        assert np.array_equal(adjacency(again), adjacency(g))

    def test_rescaled_weights_reload_bit_for_bit(self):
        g = load_edge_list("nodes 4\n0 1 2\n1 2 3\n2 3 5\n3 0 7\n0 2 0.1\n")
        assert g.rescaled
        again = load_edge_list(_write_edge_list(g))
        assert np.array_equal(again.edge_weights.view(np.int64), g.edge_weights.view(np.int64))

    def test_arrays_are_read_only_and_graph_is_frozen(self):
        g = load_edge_list("nodes 3\n0 1\n1 2 0.5\n")
        for a in (g.edges, g.edge_weights, g.degrees):
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(AttributeError):
            g.n = 4

    def test_derived_arrays_are_cached_and_the_fields_keep_their_type(self):
        """Reading the arrays of a loaded graph leaves its fields the loader's lists."""
        g = load_edge_list("nodes 4\n0 1\n2 1 0.5\n")
        fields = (g._edges, g._edge_weights, g._degrees)
        assert fields == ([(0, 1), (1, 2)], [1.0, 0.5], [1.0, 1.5, 0.5, 0.0])
        for name in ("edges", "edge_weights", "degrees"):
            a = getattr(g, name)
            assert getattr(g, name) is a and not a.flags.writeable, name
        spec = spectrum(g, RepresentationKind.LAPLACIAN)
        assert spectrum(g, RepresentationKind.LAPLACIAN) is spec
        assert normalized_eigengaps(spec).tobytes() == normalized_eigengaps(spec).tobytes()
        assert all(now is then for now, then in zip((g._edges, g._edge_weights, g._degrees),
                                                     fields))

    def test_arrays_of_an_array_built_graph_are_not_copied(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        dense = Graph(2, w)
        assert w.flags.writeable
        w[0, 1] = w[1, 0] = 0.25
        assert edge_map(dense) == {(0, 1): 0.5}
        assert dense.degrees.tolist() == [0.5, 0.5]
        same = Graph.from_edges(2, [(0, 1)], [0.5])
        for kind in RepresentationKind:
            assert np.array_equal(spectrum(dense, kind).values, spectrum(same, kind).values), kind
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


@st.composite
def graph_files(draw):
    """(text, own comment marker, n, base, {(u, v): weight}) of a valid edge list or Pajek file.

    Weights include the largest double, the smallest subnormal and another
    subnormal, so rescaling can underflow a weight to 0.
    """
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    weight = st.one_of(st.just(1.0), st.sampled_from([1e308, 5e-324, 1e-320]),
                       st.floats(min_value=1e-3, max_value=7.0))
    edges = {pair: draw(weight) for pair in chosen}
    base = draw(st.sampled_from([0, 1, "pajek"]))
    if base == "pajek":
        return _pajek_text(n, edges), "%", n, 1, edges
    return _edge_list_text(n, edges, base), "#", n, base, edges


# Mutations that keep a file valid, and those that may break it. A comment
# with '_' or a non-ASCII letter sends every token of the text through the
# per-token number test; so does an odd token that has either.
HARMLESS = ("blank", "own comment", "odd comment")
DAMAGING = ("other comment", "drop token", "repeat token", "swap tokens", "huge id", "repeat line",
            "odd token", "weighted line")
# How an odd token is made from a token: its digits in another script, a '_'
# after its first character or a '+' before it, which int() and float()
# alone would take at the same value; or a token put in its place.
ODD_FORMS = ("digits", "underscore", "plus", "0x1", "-1", "nan", "inf", "1e400", "-0.5")
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _odd(token, form):
    if form == "digits":
        return token.translate(_ARABIC_INDIC)
    if form == "underscore":
        return token[:1] + "_" + token[1:]
    return "+" + token if form == "plus" else form


@st.composite
def mutated_files(draw, mutations=HARMLESS + DAMAGING):
    """(text, damaged, n, base, edges): a file of :func:`graph_files` after up to three of
    ``mutations``, drawn with repeats."""
    text, own, n, base, edges = draw(graph_files())
    lines = text.splitlines()
    damaged = False
    for mutation in draw(st.lists(st.sampled_from(mutations), max_size=3)):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if mutation == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
        elif mutation.endswith("comment"):
            other = {"#": "%", "%": "#"}[own]
            note = " note_\u00e9" if mutation == "odd comment" else " note"
            lines.insert(i, (other if mutation == "other comment" else own) + note)
        elif mutation == "repeat line":
            lines.insert(i, lines[i])
        elif mutation == "weighted line":  # u v w, often a new edge
            u, v = (draw(st.integers(min_value=base, max_value=n + base)) for _ in range(2))
            weight = _odd("0.5", draw(st.sampled_from(ODD_FORMS + ("2.5", "1e-320"))))
            lines.insert(i, f"{u} {v} {weight}")
        else:  # change one token of line i
            tokens = lines[i].split()
            j = draw(st.integers(min_value=0, max_value=max(len(tokens) - 1, 0)))
            if mutation == "huge id":
                tokens.insert(j, draw(st.sampled_from([str(2**63), "9" * 30, f"-{2**64}"])))
            elif tokens and mutation == "odd token":
                tokens[j] = _odd(tokens[j], draw(st.sampled_from(ODD_FORMS)))
            elif tokens and mutation == "drop token":
                del tokens[j]
            elif tokens and mutation == "repeat token":
                tokens.insert(j, tokens[j])
            elif tokens and mutation == "swap tokens":
                tokens[j], tokens[-1] = tokens[-1], tokens[j]
            lines[i] = " ".join(tokens)
        damaged = damaged or mutation in DAMAGING
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, damaged, n, base, edges


class TestAnyTextLoadsOrIsAFormatError:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutated_files())
    def test_mutated_files(self, case):
        """Every text loads or raises GraphFormatError; a valid one loads to its own edges."""
        text, damaged, n, base, edges = case
        top = max(edges.values(), default=1.0)
        weights = {pair: w / top if top > 1.0 else w for pair, w in edges.items()}
        try:
            g = load_graph(text)
        except GraphFormatError as exc:
            assert damaged or "underflows" in str(exc), str(exc)
            return
        if not damaged:
            assert all(w > 0.0 for w in weights.values())
            assert (g.n, g.index_base) == (n, base)
            assert g.edges.tolist() == [list(pair) for pair in sorted(weights)]
            assert g.edge_weights.tolist() == [weights[pair] for pair in sorted(weights)]


# The loaders as they were before the number test was decided once per text
# and the edge-line routine was shared: the reference for the parity test.
def _reference_parse_endpoint(token, n, base, where):
    try:
        raw = parse_number(int, token)
    except ValueError:
        raise GraphFormatError(f"{where}: non-numeric vertex id {token!r}") from None
    v = raw - base
    if not 0 <= v < n:
        raise GraphFormatError(f"{where}: vertex id {raw} out of range")
    return v


def _reference_parse_edge(tokens, line, what, n, base, lineno):
    if len(tokens) not in (2, 3):
        raise GraphFormatError(f"line {lineno}: malformed {what} line {line!r}")
    where = f"line {lineno}"
    u = _reference_parse_endpoint(tokens[0], n, base, where)
    v = _reference_parse_endpoint(tokens[1], n, base, where)
    if u == v:
        raise GraphFormatError(f"{where}: self-loop on vertex {tokens[0]}")
    if len(tokens) == 2:
        return u, v, 1.0
    try:
        weight = parse_number(float, tokens[2])
    except ValueError:
        raise GraphFormatError(f"{where}: non-numeric weight {tokens[2]!r}") from None
    if not weight > 0.0 or not np.isfinite(weight):
        raise GraphFormatError(f"{where}: edge weight must be positive and finite")
    return u, v, weight


def _reference_load_edge_list(text):
    n = None
    base = 0
    edges = {}
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
                n = parse_number(int, tokens[1])
                base = parse_number(int, tokens[3]) if len(tokens) == 4 else 0
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0 or base not in (0, 1):
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            _check_vertex_count(n, lineno)
            continue
        u, v, weight = _reference_parse_edge(tokens, line, "edge", n, base, lineno)
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {tokens[0]} {tokens[1]}")
        edges[key] = weight
    if n is None:
        raise GraphFormatError("missing 'nodes N' header")
    return _graph_from_edges(n, edges, index_base=base)


def _reference_load_pajek(text):
    n = None
    section = ""
    edges = {}
    arcs = {}
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
                    n = parse_number(int, tokens[1])
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
            continue
        if section not in ("edges", "arcs"):
            raise GraphFormatError(f"line {lineno}: data before any *Edges/*Arcs section")
        tokens = line.split()
        u, v, weight = _reference_parse_edge(tokens, line, section, n, 1, lineno)
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


def _reference_load_graph(text):
    """load_graph as it was: one full split of the text picks the loader."""
    text = text.removeprefix("\ufeff")
    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line[:1] not in ("", "%", "#")), "")
    return (_reference_load_pajek if first.startswith("*") else _reference_load_edge_list)(text)


def _graph_or_message(load, text):
    """The loaded graph's n, base, rescale flag and array bytes, or the GraphFormatError message."""
    try:
        g = load(text)
    except GraphFormatError as exc:
        return str(exc)
    return (g.n, g.index_base, g.rescaled,
            *((a.dtype, a.shape, a.tobytes()) for a in (g.edges, g.edge_weights, g.degrees)))


class TestLoadersMatchTheReference:
    """Every text, valid or not, gives the reference's graph bit for bit or its very message."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mutated_files(HARMLESS + DAMAGING + ("odd comment", "odd token", "weighted line") * 3))
    def test_mutated_files(self, case):
        text = case[0]
        for load, reference in ((load_edge_list, _reference_load_edge_list),
                                (load_pajek, _reference_load_pajek)):
            for t in (text, text.removeprefix("\ufeff")):
                assert _graph_or_message(load, t) == _graph_or_message(reference, t), load

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mutated_files(), st.sampled_from([1, 2, 5, 1024]))
    def test_parser_choice(self, case, prefix):
        """load_graph picks the parser from prefixes of the text; cut anywhere, they pick as
        one full split does."""
        text = case[0]
        with mock.patch.object(graphs, "_FIRST_PREFIX", prefix):
            assert _graph_or_message(load_graph, text) == _graph_or_message(_reference_load_graph, text)

    @pytest.mark.parametrize("text", [
        "nodes 3\n0 1 \u0661\n",
        "nodes 3\n\u0661 2\n",
        "nodes 3\n1_0 2\n",
        "nodes 3\n0 1 1_0\n",
        "nodes 3\n0x1 2\n",
        "nodes 3\n+1 2 +0.5\n",
        "nodes 3\n-1 2\n",
        "nodes 3\n0 1 nan\n",
        "nodes 3\n0 1 1e400\n",
        "nodes 3\n0 1 -0.5\n",
        "nodes 3\n0 1 2 3\n",
        "nodes 3\n 0 1 2 3 # four tokens\n",
        " nodes 3 base 2 # \n",
        "nodes 3 base 1 # \u00e9\n1 2 0.5 # \u00e9\n2 3 3\n",
        "nodes 1_0\n",
        "nodes 3 base \u0661\n",
        "nodes 3 bass 1\n",
        "*Vertices 3\n*Arcs\n1 2 0.5\n2 1 0.25\n",
        "*Vertices 3 % \u00e9\n*Edges\n1 2 0.5\n2 3\n",
        "*Vertices \u0663\n*Edges\n",
        "*Vertices 3\n*Edges\n1 2 0.5 %\n",
        "*Vertices 3\n*Edges\n\t1 2 0.5 x \n",
        "*Vertices 3\n*Edges\n1 \uff12\n",
    ])
    def test_each_number_rule(self, text):
        for load, reference in ((load_edge_list, _reference_load_edge_list),
                                (load_pajek, _reference_load_pajek)):
            assert _graph_or_message(load, text) == _graph_or_message(reference, text), load


class TestRecords:
    """Graph and its records are immutable; the summaries and classes compare as values."""

    def test_fields_refuse_assignment_and_deletion(self):
        g = load_edge_list("nodes 3\n0 1\n")
        for record, name in ((g, "n"), (g, "edges"), (degree_summary(g), "d_min"),
                             (connected_components(g), "labels"), (ClassTag(1, 2), "k")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, "other", 0)
        assert g.n == 3 and degree_summary(g).d_min == 0.0

    def test_reprs(self):
        g = load_edge_list("nodes 3\n0 1\n")
        assert repr(g) == "Graph(n=3, index_base=0, rescaled=False)"
        assert repr(degree_summary(g)) == "DegreeSummary(d_min=0.0, d_max=1.0)"
        assert repr(connected_components(g)) == "ComponentLabeling(component_count=2)"
        assert repr(ClassTag(j=1, k=2)) == "ClassTag(j=1, k=2)"

    def test_summaries_compare_by_the_extremes_alone(self):
        exact, floats = DegreeSummary(Fraction(1), Fraction(3)), DegreeSummary(1.0, 3.0)
        assert vars(exact).keys() == vars(floats).keys() == {"d_min", "d_max"}
        assert exact == floats and hash(exact) == hash(floats)
        assert DegreeSummary(1.0, 3.0) != DegreeSummary(1.0, 4.0)
        assert DegreeSummary(1, 3) != ClassTag(1, 3) and DegreeSummary(1, 3) != (1, 3)
        assert len({exact, floats, DegreeSummary(d_min=1.0, d_max=3.0)}) == 1

    def test_class_tags_compare_by_value(self):
        assert ClassTag(j=1, k=2) == ClassTag(*(1, 2)) and hash(ClassTag(j=1, k=2)) == hash(ClassTag(1, 2))
        assert ClassTag(1, 2) != ClassTag(2, 1)

    def test_graphs_and_labelings_compare_by_identity(self):
        a, b = load_edge_list("nodes 2\n0 1\n"), load_edge_list("nodes 2\n0 1\n")
        assert a != b and a == a and len({a, b}) == 2
        assert connected_components(a) != connected_components(a)


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

    @pytest.mark.parametrize("gen, edges", [(gen_complete, 1124250), (gen_graph_c, 1124259)])
    def test_too_many_edges_rejected_before_building(self, monkeypatch, gen, edges):
        """With 128 MiB of memory, the 18 MB dense matrix of 1500 vertices
        passes, but 1.1 million edges would not fit while they are built."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as excinfo:
                gen(1500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == (f"{edges} edges need about 0.2 GiB to build, "
                                      "more than the 0.1 GiB of physical memory")
        assert peak < 2**16, f"peak {peak} bytes"
