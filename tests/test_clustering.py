"""Spectral embedding, deterministic k-means and clustering comparison.

Ground truth:
- C(18) with k = 10 recovers the ten components for every matrix kind;
  the unnormalised Laplacian with k = 19 keeps the complete component
  together and splits the pairs; the normalised Laplacian with k = 27
  does the opposite.
- karate: the adjacency clustering matches the recorded faction split,
  the normalised Laplacian misplaces exactly member 3, and the two
  Laplacian clusterings differ exactly on members 2, 4, 8, 14 and 20.
"""

import numpy as np
import pytest

from graphspectra import (
    ClusteringResult,
    Graph,
    KMeansError,
    RepresentationKind,
    cluster,
    compare_clusterings,
    connected_components,
    gen_complete,
    kmeans,
    spectral_embed,
)

A = RepresentationKind.ADJACENCY
L = RepresentationKind.LAPLACIAN
LRW = RepresentationKind.NORMALIZED_LAPLACIAN


def path3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return Graph(n=3, weights=w)


def cluster_sets(labels):
    groups = {}
    for vertex, label in enumerate(labels):
        groups.setdefault(int(label), set()).add(vertex)
    return sorted(groups.values(), key=lambda s: (len(s), min(s)))


class TestSpectralEmbed:
    def test_k2_laplacian_null_space_is_constant(self):
        emb = spectral_embed(gen_complete(2), L, 1)
        assert emb.points.shape == (2, 1)
        assert abs(emb.points[0, 0] - emb.points[1, 0]) < 1e-8

    def test_p3_laplacian_columns(self):
        """First two L(P3) eigenvectors span the constant and (1, 0, -1)/sqrt(2)."""
        emb = spectral_embed(path3(), L, 2)
        constant = np.full(3, 1 / np.sqrt(3))
        fiedler = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        for column, expected in zip(emb.points.T, (constant, fiedler)):
            overlap = abs(column @ expected)
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_component_indicator_structure(self, graph_c18):
        """With k = 10 rows of vertices in one component coincide, across kinds."""
        labels = connected_components(graph_c18).labels
        for kind in (A, L, LRW):
            points = spectral_embed(graph_c18, kind, 10).points
            for comp in range(10):
                rows = points[labels == comp]
                assert np.abs(rows - rows[0]).max() < 1e-6

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            spectral_embed(path3(), L, 4)
        with pytest.raises(ValueError):
            spectral_embed(path3(), L, 0)


class TestKmeans:
    def test_two_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        result = kmeans(points, 2, restarts=5, seed=1)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]
        assert result.labels[0] != result.labels[2]
        assert result.inertia == pytest.approx(2 * (0.05**2 + 0.05**2))

    def test_identical_points_single_cluster(self):
        points = np.ones((4, 2))
        result = kmeans(points, 1, restarts=3, seed=0)
        assert result.inertia == 0.0
        assert set(result.labels) == {0}

    def test_identical_points_report_empty_cluster(self):
        result = kmeans(np.ones((3, 2)), 2, restarts=2, seed=0)
        assert result.inertia == 0.0
        assert len(result.empty_clusters) == 1

    def test_graph_c18_lrw_27_structure(self, graph_c18):
        result = cluster(graph_c18, LRW, 27)
        sizes = [len(s) for s in cluster_sets(result.labels)]
        assert sizes == [1] * 18 + [2] * 9

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    def test_inertia_increase_raises_named_error(self, monkeypatch):
        """Lloyd steps never raise the inertia; if one does (here forced by
        assigning every point to its farthest centre after the first step),
        the check raises instead of vanishing like an assert under -O."""
        real_argmin = np.argmin
        calls = []

        def farthest_after_first(a, axis=None):
            calls.append(axis)
            return real_argmin(a, axis=axis) if len(calls) == 1 else np.argmax(a, axis=axis)

        monkeypatch.setattr(np, "argmin", farthest_after_first)
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        with pytest.raises(KMeansError, match="inertia increased"):
            kmeans(points, 2, restarts=1)

    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 2, restarts=0)


class TestCluster:
    def test_component_recovery_for_all_kinds(self, graph_c18):
        truth = connected_components(graph_c18).labels
        reference = ClusteringResult(labels=truth, inertia=0.0, kind=None, k=10,
                                     empty_clusters=(), index_base=1)
        for kind in (A, L, LRW):
            result = cluster(graph_c18, kind, 10)
            assert compare_clusterings(result, reference).misplaced == 0

    def test_graph_c18_laplacian_19(self, graph_c18):
        """Complete component as one cluster, each pair vertex a singleton."""
        result = cluster(graph_c18, L, 19)
        groups = cluster_sets(result.labels)
        assert [len(s) for s in groups] == [1] * 18 + [18]
        assert groups[-1] == set(range(18))

    def test_graph_c18_normalized_27(self, graph_c18):
        """Complete component split into singletons, pairs kept whole."""
        result = cluster(graph_c18, LRW, 27)
        groups = cluster_sets(result.labels)
        assert [len(s) for s in groups] == [1] * 18 + [2] * 9
        assert set().union(*groups[:18]) == set(range(18))
        assert all(s == {18 + 2 * i, 19 + 2 * i} for i, s in enumerate(groups[18:]))

    def test_karate_adjacency_matches_split(self, karate, karate_truth):
        result = cluster(karate, A, 2)
        assert compare_clusterings(result, karate_truth).misplaced == 0

    def test_determinism(self, graph_c18):
        first = cluster(graph_c18, L, 19)
        second = cluster(graph_c18, L, 19)
        assert np.array_equal(first.labels, second.labels)
        assert first.inertia == second.inertia

    def test_permutation_equivariance(self, graph_c18):
        """Relabeling vertices permutes cluster labels, up to label renaming."""
        rng = np.random.default_rng(9)
        base = cluster(graph_c18, L, 10)
        for _ in range(3):
            perm = rng.permutation(graph_c18.n)
            permuted_weights = graph_c18.weights[np.ix_(perm, perm)]
            permuted = Graph(n=graph_c18.n, weights=permuted_weights,
                             index_base=graph_c18.index_base)
            result = cluster(permuted, L, 10)
            aligned = ClusteringResult(labels=base.labels[perm], inertia=0.0, kind=None,
                                       k=10, empty_clusters=(), index_base=1)
            assert compare_clusterings(result, aligned).misplaced == 0


class TestCompareClusterings:
    def test_identical(self):
        a = ClusteringResult(labels=np.array([0, 1, 1]), inertia=0.0, kind=None, k=2,
                             empty_clusters=())
        b = ClusteringResult(labels=np.array([1, 0, 0]), inertia=0.0, kind=None, k=2,
                             empty_clusters=())
        comparison = compare_clusterings(a, b)
        assert comparison.misplaced == 0
        assert comparison.misplaced_ids == ()

    def test_karate_lrw_misplaces_member_3(self, karate, karate_truth):
        result = cluster(karate, LRW, 2)
        comparison = compare_clusterings(result, karate_truth)
        assert comparison.misplaced == 1
        assert comparison.misplaced_ids == (3,)

    def test_karate_l_vs_lrw_differ_on_five_members(self, karate):
        lap = cluster(karate, L, 2)
        nlap = cluster(karate, LRW, 2)
        comparison = compare_clusterings(lap, nlap)
        assert comparison.misplaced == 5
        assert comparison.misplaced_ids == (2, 4, 8, 14, 20)

    def test_karate_l_misplaces_six_against_truth(self, karate, karate_truth):
        """Counted against the recorded split, not derived from the five ids above."""
        lap = cluster(karate, L, 2)
        assert compare_clusterings(lap, karate_truth).misplaced == 6

    def test_size_mismatch(self):
        a = ClusteringResult(labels=np.array([0, 1]), inertia=0.0, kind=None, k=2,
                             empty_clusters=())
        b = ClusteringResult(labels=np.array([0, 1, 0]), inertia=0.0, kind=None, k=2,
                             empty_clusters=())
        with pytest.raises(ValueError):
            compare_clusterings(a, b)
