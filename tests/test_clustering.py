"""Spectral embedding, deterministic k-means and clustering comparison.

Ground truth:
- C(18) with k = 10 recovers the ten components for every matrix kind;
  the unnormalised Laplacian with k = 19 keeps the complete component
  together and splits the pairs; the normalised Laplacian with k = 27
  does the opposite.
- karate: the adjacency clustering matches the recorded faction split,
  the normalised Laplacian misplaces exactly member 3, and the two
  Laplacian clusterings differ exactly on members 2, 4, 8, 14 and 20.
- the label matching is scipy's ``linear_sum_assignment`` (test-only
  oracle), array for array, ties included.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphspectra import (
    ClusteringResult,
    Graph,
    KMeansError,
    RepresentationKind,
    cluster,
    clustering,
    compare_clusterings,
    connected_components,
    gen_complete,
    gen_graph_c,
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


def _reference_kmeanspp_init(points, k, rng):
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(closest / total), rng.random()))
            idx = min(idx, n - 1)
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _reference_lloyd(points, centers):
    previous_cost = np.inf
    labels = np.zeros(len(points), dtype=int)
    for _ in range(clustering.MAX_LLOYD_ITERATIONS):
        distances = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(distances, axis=1)
        cost = float(distances[np.arange(len(points)), new_labels].sum())
        if np.array_equal(new_labels, labels) and np.isfinite(previous_cost):
            return labels, cost
        labels, previous_cost = new_labels, cost
        for j in range(len(centers)):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels, previous_cost


def _reference_restarts(points, k, restarts, seed):
    """Each restart's (labels, inertia), one restart at a time."""
    return [_reference_lloyd(points, _reference_kmeanspp_init(points, k, np.random.default_rng([seed, r])))
            for r in range(restarts)]


def _reference_kmeans(points, k, restarts, seed):
    """(labels, inertia, empty clusters) of the least-inertia restart, earliest on ties."""
    best = None
    for labels, inertia in _reference_restarts(points, k, restarts, seed):
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    labels, inertia = best
    return labels, inertia, tuple(j for j in range(k) if not np.any(labels == j))


def _assert_matches_reference(points, k, restarts, seed):
    centres, _ = clustering._kmeanspp_init(clustering._Points(points), k, seed, range(restarts))
    for r in range(restarts):
        expected = _reference_kmeanspp_init(points, k, np.random.default_rng([seed, r]))
        assert np.array_equal(centres[r], expected)
    result = kmeans(points, k, restarts=restarts, seed=seed)
    labels, inertia, empty = _reference_kmeans(points, k, restarts, seed)
    assert result.labels.dtype == labels.dtype
    assert np.array_equal(result.labels, labels)
    assert result.inertia == inertia  # bit for bit
    assert result.empty_clusters == empty


BUDGET = clustering.KMEANS_WORKING_SET_BYTES


@st.composite
def point_sets(draw):
    """(points, k, restarts, seed, budget). Rows repeat a few distinct ones, so
    duplicates are common and seeding often runs out of distinct points; grid
    coordinates also make distances tie. Row- or column-major; the budget is
    the default, a few restarts per block, or one restart per block."""
    n = draw(st.integers(min_value=1, max_value=16))
    d = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    distinct = draw(st.integers(min_value=1, max_value=n))
    if draw(st.booleans()):
        base = rng.integers(-2, 3, size=(distinct, d)) / 2.0
    else:
        base = rng.standard_normal((distinct, d))
    points = base[rng.integers(distinct, size=n)]
    if draw(st.booleans()):
        points = np.asfortranarray(points)
    k = draw(st.integers(min_value=1, max_value=n))
    restarts = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**63))
    budget = draw(st.sampled_from([BUDGET, 20_000, 0]))
    return points, k, restarts, seed, budget


class TestBatchedRestarts:
    """Restarts run in blocks; labels, inertia and empty clusters stay those
    of the one-restart-at-a-time loop kept above as the reference."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point_sets())
    # Three distinct points and k = 5: seeding runs out of distinct points.
    @example((np.repeat(np.eye(3), 3, axis=0), 5, 7, 42, BUDGET))
    # Squared differences underflow to 0, so seeding draws integers while the
    # points it picks still differ.
    @example((np.array([[0.0], [1e-200], [3e-200], [7e-200]]), 4, 5, 42, BUDGET))
    # One coordinate: numpy sums a cluster's members pairwise.
    @example((np.random.default_rng(5).standard_normal((12, 1)), 1, 1, 0, BUDGET))
    # Column-major: numpy sums each distance one coordinate after the other.
    @example((np.asfortranarray(np.random.default_rng(4).standard_normal((20, 9))), 2, 3, 0, BUDGET))
    def test_matches_one_restart_at_a_time(self, case):
        points, k, restarts, seed, budget = case
        with mock.patch.object(clustering, "KMEANS_WORKING_SET_BYTES", budget):
            _assert_matches_reference(points, k, restarts, seed)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(point_sets())
    def test_iteration_cap_ends_like_the_reference(self, cap, case):
        """Restarts still moving at the cap return their last labels and inertia;
        the reference reads the same cap. At cap 1 every restart stops there."""
        points, k, restarts, seed, budget = case
        with mock.patch.object(clustering, "KMEANS_WORKING_SET_BYTES", budget), \
                mock.patch.object(clustering, "MAX_LLOYD_ITERATIONS", cap):
            _assert_matches_reference(points, k, restarts, seed)

    def test_several_blocks(self):
        """n = 68 and k = d = 59, the size of the C(50) Lrw clustering."""
        points = np.random.default_rng(11).standard_normal((68, 59))
        assert clustering._block_size(clustering._Points(points), 59) < 50
        _assert_matches_reference(points, 59, 50, 42)

    @pytest.mark.parametrize("kind, k", [(A, 10), (L, 19), (LRW, 27)])
    def test_embeddings(self, graph_c18, kind, k):
        """The adjacency embedding is column-major, the others row-major."""
        points = spectral_embed(graph_c18, kind, k)
        _assert_matches_reference(points, k, 50, 42)

    def test_tie_goes_to_earliest_restart_across_blocks(self):
        """Every restart finds the same two groups with the same inertia, bit
        for bit, but numbers them by where its seeding started."""
        points = np.array([[0.0, 0.0], [0.3, 0.1], [0.1, 0.4], [9.0, 9.0], [9.2, 8.7]])
        runs = _reference_restarts(points, 2, 6, 3)
        assert len({inertia for _, inertia in runs}) == 1
        assert any(not np.array_equal(labels, runs[0][0]) for labels, _ in runs[1:])
        for budget in (0, BUDGET):  # one restart per block, one block
            with mock.patch.object(clustering, "KMEANS_WORKING_SET_BYTES", budget):
                assert np.array_equal(kmeans(points, 2, restarts=6, seed=3).labels, runs[0][0])

    def test_empty_cluster_keeps_its_centre(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 2.0]])
        centres = np.array([[[0.0, 1.0], [5.0, 5.0], [9.0, 9.0]]])
        means = clustering._cluster_means(points, np.array([[0, 0, 2]]), centres)
        assert np.array_equal(means, [[[0.5, 0.0], [5.0, 5.0], [4.0, 2.0]]])


def _kmeans_peak_bytes(points, k, restarts):
    kmeans(np.eye(3), 2)  # numpy.random loads on first use; keep it out of the peak
    tracemalloc.start()
    try:
        kmeans(points, k, restarts=restarts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKmeansMemory:
    def test_c50_lrw_stays_within_budget(self):
        points = spectral_embed(gen_graph_c(50), LRW, 59)
        assert _kmeans_peak_bytes(points, 59, 50) <= clustering.KMEANS_WORKING_SET_BYTES

    def test_peak_does_not_grow_with_restarts(self):
        points = np.random.default_rng(4).standard_normal((80, 40))
        assert clustering._block_size(clustering._Points(points), 40) < 50
        assert _kmeans_peak_bytes(points, 40, 150) <= 1.1 * _kmeans_peak_bytes(points, 40, 50)


class TestSpectralEmbed:
    def test_k2_laplacian_null_space_is_constant(self):
        points = spectral_embed(gen_complete(2), L, 1)
        assert points.shape == (2, 1)
        assert abs(points[0, 0] - points[1, 0]) < 1e-8

    def test_p3_laplacian_columns(self):
        """First two L(P3) eigenvectors span the constant and (1, 0, -1)/sqrt(2)."""
        points = spectral_embed(path3(), L, 2)
        constant = np.full(3, 1 / np.sqrt(3))
        fiedler = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        for column, expected in zip(points.T, (constant, fiedler)):
            overlap = abs(column @ expected)
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_component_indicator_structure(self, graph_c18):
        """With k = 10 rows of vertices in one component coincide, across kinds."""
        labels = connected_components(graph_c18).labels
        for kind in (A, L, LRW):
            points = spectral_embed(graph_c18, kind, 10)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_named_error(self, monkeypatch, bad):
        """Rejected before any restart runs; NaN used to give labels [0 0 0]
        and inertia nan after 300 Lloyd iterations per restart."""
        def no_work(*args):
            raise AssertionError("k-means ran on non-finite points")

        monkeypatch.setattr(clustering, "_kmeans_block", no_work)
        with pytest.raises(ValueError, match=r"^points must be finite \(found NaN or inf\)$"):
            kmeans(np.array([[bad, 0.0], [1.0, 1.0], [2.0, 2.0]]), 2, restarts=5)

    def test_negative_seed_is_named_error(self):
        """Checked before anything else, here before the out-of-range k."""
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            kmeans(np.zeros((3, 2)), 4, seed=-1)


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

    def test_large_labels_match_like_their_ranks(self, karate, karate_truth):
        """Truth labels 7 and 10**6 compare as 0 and 1 do, without a confusion
        matrix a million columns wide."""
        result = cluster(karate, LRW, 2)
        renamed = replace(karate_truth, labels=np.where(karate_truth.labels == 0, 7, 10**6))
        tracemalloc.start()
        try:
            comparison = compare_clusterings(result, renamed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comparison == compare_clusterings(result, karate_truth)
        assert comparison.misplaced_ids == (3,)
        assert peak < 100_000

    def test_size_mismatch(self):
        a = ClusteringResult(labels=np.array([0, 1]), inertia=0.0, kind=None, k=2,
                             empty_clusters=())
        b = ClusteringResult(labels=np.array([0, 1, 0]), inertia=0.0, kind=None, k=2,
                             empty_clusters=())
        with pytest.raises(ValueError):
            compare_clusterings(a, b)

    @pytest.mark.parametrize("bases, labels, message", [
        ((0, 1), ([0, 1], [0, 1]), "clusterings use different index bases"),
        ((1, 1), ([0, -1], [0, 1]), "cluster labels must be non-negative"),
        ((1, 1), ([0, 1], [-1, 0]), "cluster labels must be non-negative"),
    ])
    def test_guards(self, bases, labels, message):
        a, b = (ClusteringResult(labels=np.array(lab), inertia=0.0, kind=None, k=2,
                                 empty_clusters=(), index_base=base)
                for lab, base in zip(labels, bases))
        with pytest.raises(ValueError) as excinfo:
            compare_clusterings(a, b)
        assert str(excinfo.value) == message


def _reference_compare_clusterings(a, b):
    """compare_clusterings on scipy's assignment, with the per-vertex loop.

    The confusion matrix is over the ranked labels: row i is the i-th
    smallest label used in ``a``, column j the j-th smallest used in ``b``.
    """
    from scipy.optimize import linear_sum_assignment

    rank_a = {label: i for i, label in enumerate(sorted(set(a.labels.tolist())))}
    rank_b = {label: j for j, label in enumerate(sorted(set(b.labels.tolist())))}
    confusion = np.zeros((max(len(rank_a), 1), max(len(rank_b), 1)), dtype=int)
    for la, lb in zip(a.labels.tolist(), b.labels.tolist()):
        confusion[rank_a[la], rank_b[lb]] += 1
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    mapping = {int(r): int(c) for r, c in zip(rows, cols)}
    misplaced_ids = tuple(
        int(v) + a.index_base
        for v in range(len(a.labels))
        if mapping.get(rank_a[int(a.labels[v])]) != rank_b[int(b.labels[v])]
    )
    return misplaced_ids


def _assert_comparison_matches_reference(a, b):
    pytest.importorskip("scipy")
    comparison = compare_clusterings(a, b)
    expected = _reference_compare_clusterings(a, b)
    assert comparison.misplaced_ids == expected
    assert comparison.misplaced == len(expected)


def _labeling(labels, index_base=1):
    labels = np.asarray(labels, dtype=int)
    k = int(labels.max()) + 1 if len(labels) else 0
    return ClusteringResult(labels=labels, inertia=0.0, kind=None, k=k, empty_clusters=(),
                            index_base=index_base)


@st.composite
def weight_matrices(draw):
    """Small integer matrices, tall or wide: a top of 0 gives all zeros, and
    tops of 1 to 3 give many tied assignments."""
    rows = draw(st.integers(min_value=1, max_value=9))
    cols = draw(st.integers(min_value=1, max_value=9))
    top = draw(st.sampled_from([0, 1, 2, 3, 10, 1000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return rng.integers(0, top + 1, size=(rows, cols))


@st.composite
def labeling_pairs(draw):
    """Two labelings of the same vertices, labels drawn below k (some unused)."""
    n = draw(st.integers(min_value=0, max_value=40))
    ka = draw(st.integers(min_value=1, max_value=8))
    kb = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = draw(st.sampled_from([0, 1]))
    return (_labeling(rng.integers(0, ka, size=n), base),
            _labeling(rng.integers(0, kb, size=n), base))


class TestAssignmentMatchesScipy:
    """The label matching is scipy's linear_sum_assignment(..., maximize=True),
    with the same rows and columns, ties included."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weight_matrices())
    @example(np.array([[5]]))  # k = 1
    @example(np.array([[0, 3, 1]]))  # one row
    @example(np.array([[2], [7], [7]]))  # one column
    @example(np.zeros((4, 4), dtype=int))
    @example(np.full((3, 5), 4))
    @example(np.full((6, 2), 1))
    @example(np.eye(7, dtype=int)[::-1] * 3)
    def test_rows_and_columns(self, weights):
        optimize = pytest.importorskip("scipy.optimize")
        rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
        assert clustering._max_weight_assignment(weights) == (rows.tolist(), cols.tolist())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(labeling_pairs())
    @example((_labeling([], 0), _labeling([], 0)))
    @example((_labeling([0, 0, 0, 0]), _labeling([0, 1, 2, 3])))
    @example((_labeling([0, 1, 2, 3]), _labeling([0, 0, 0, 0])))
    @example((_labeling([2, 2, 0, 0, 1, 1]), _labeling([0, 1, 0, 1, 0, 1])))
    def test_random_labelings(self, pair):
        _assert_comparison_matches_reference(*pair)

    @pytest.mark.parametrize("k", [18, 30, 50])
    def test_graph_c_clusterings(self, k):
        """The clusterings of C(k) the cluster_graphc benchmark scores, against
        their expected partitions and against each other."""
        g = gen_graph_c(k)
        complete, pairs = np.zeros(k, dtype=int), np.arange(18) // 2
        truths = {
            10: np.concatenate([complete, 1 + pairs]),  # the components
            19: np.concatenate([complete, 1 + np.arange(18)]),  # pairs split
            k + 9: np.concatenate([np.arange(k), k + pairs]),  # complete split
        }
        results = [cluster(g, kind, clusters) for kind, clusters in
                   ((A, 10), (L, 10), (LRW, 10), (L, 19), (LRW, k + 9))]
        for result in results:
            _assert_comparison_matches_reference(result, _labeling(truths[result.k]))
            for other in results:
                _assert_comparison_matches_reference(result, other)

    def test_karate_clusterings(self, karate, karate_truth):
        results = [cluster(karate, kind, 2, seed=seed) for kind in (A, L, LRW) for seed in (42, 7)]
        for result in results:
            _assert_comparison_matches_reference(result, karate_truth)
            _assert_comparison_matches_reference(karate_truth, result)
            for other in results:
                _assert_comparison_matches_reference(result, other)
