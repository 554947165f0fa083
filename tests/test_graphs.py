"""Graph construction, ingestion and generators.

Ground truth: degree sequences of the named graphs (star: {n-1, 1 x (n-1)},
complete: regular, karate: d_min 1 / d_max 17) and component counts of
block-diagonal unions.
"""

import numpy as np
import pytest

from graphspectra import (
    Graph,
    GraphFormatError,
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
    load_pajek,
)


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


class TestDegreeSummary:
    def test_karate_extremes(self, karate):
        ds = degree_summary(karate)
        assert (ds.d_min, ds.d_max) == (1.0, 17.0)

    def test_star18_degree_sequence(self, star18):
        """Star on 18 nodes: one hub of degree 17, seventeen leaves of degree 1."""
        ds = degree_summary(star18)
        assert sorted(ds.degrees) == [1.0] * 17 + [17.0]

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
        assert ds.degrees[0] == 17.0  # hub first

    def test_star2_is_k2(self):
        assert np.array_equal(gen_star(2).weights, gen_complete(2).weights)

    def test_star3_is_p3_up_to_relabel(self):
        assert sorted(degree_summary(gen_star(3)).degrees) == [1.0, 1.0, 2.0]

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
        degrees = sorted(ds.degrees)
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

    def test_class_tag_of_graph_c(self):
        for k in range(3, 19):
            tag = class_tag(degree_summary(gen_graph_c(k)))
            assert (tag.j, tag.k) == (1, k - 1)

    def test_class_tag_rejects_fractional_degrees(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = 0.5
        with pytest.raises(ValueError, match="integer"):
            class_tag(degree_summary(Graph(n=2, weights=w)))
