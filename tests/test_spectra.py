"""Representation matrices and their LAPACK eigh spectra.

Ground truth, all derivable by hand:
- A(K3): characteristic polynomial (mu - 2)(mu + 1)^2 -> {2, -1, -1}
- L(P3): {0, 1, 3}; L_sym(P3) entries 1 on the diagonal, -1/sqrt(2) off
- star on n nodes: A -> {sqrt(n-1), 0 x (n-2), -sqrt(n-1)},
  L -> {0, 1 x (n-2), n}, L_rw -> {0, 1 x (n-2), 2}
- disjoint unions: spectrum is the multiset union of component spectra
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import (
    EigensolverError,
    Graph,
    MatrixPair,
    RepresentationKind,
    UndefinedRepresentationError,
    build_matrix,
    connected_components,
    degree_summary,
    disjoint_union,
    eig_sym,
    gap_differences,
    gen_bipartite_b,
    gen_complete,
    gen_graph_c,
    gen_star,
    load_edge_list,
    normalized_eigengaps,
    pair_differences,
    spectral_support,
    spectrum,
    weyl_check,
)
from graphspectra import spectra
from graphspectra.data import karate_graph
from graphspectra.spectra import _validate_pairs

A = RepresentationKind.ADJACENCY
L = RepresentationKind.LAPLACIAN
LRW = RepresentationKind.NORMALIZED_LAPLACIAN

ALL_KINDS = (A, L, LRW)


def path3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    return Graph(n=3, weights=w)


def random_graph(rng, n, p=0.5):
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = 1.0
    return Graph(n=n, weights=w)


def dense_weights(g):
    """The n x n weight matrix assembled from the graph's edges."""
    a = np.zeros((g.n, g.n))
    u, v = g.edges.T
    a[u, v] = a[v, u] = g.edge_weights
    return a


def reference_matrix(a, degrees, kind):
    """The representation matrix formed from the dense weight matrix a, as a
    whole-matrix reference for build_matrix: D - A, then for L_sym the
    power-of-four scaling of D - A by outer sums and products."""
    a = np.array(a)
    if kind is A:
        return a
    lap = np.diag(degrees) - a
    if kind is L:
        return lap
    if len(degrees) == 0 or degrees.min() == 0.0:
        raise UndefinedRepresentationError(
            "normalised Laplacian is undefined for d_min = 0 (isolated vertex)")
    mantissa, binary = np.frexp(degrees)
    e = (binary + 1) // 2
    t = 1.0 / np.sqrt(np.ldexp(mantissa, binary - 2 * e))
    np.ldexp(lap, np.add.outer(-e, -e), out=lap)
    lap *= np.outer(t, t)
    return lap


def matrix_or_message(build, *args):
    """The matrix's shape, dtype and bytes, or the type and message of what was raised."""
    try:
        m = build(*args)
    except UndefinedRepresentationError as exc:
        return type(exc), str(exc)
    return m.shape, m.dtype, m.tobytes()


@st.composite
def routed_graphs(draw):
    """(graph, the dense weights it was built from or implies) for a random
    graph built by the loader, by from_edges or from its dense matrix.

    Weights lie in (0, 1], around 1e-300, or are one of those mixed with the
    subnormal 1e-320; some graphs have isolated vertices.
    """
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    tiny = st.floats(min_value=1e-301, max_value=1e-299)
    weight = draw(st.sampled_from([
        unit, tiny, st.one_of(unit, st.just(1e-320)), st.one_of(tiny, st.just(1e-320))]))
    weights = [draw(weight) for _ in chosen]
    route = draw(st.sampled_from(["load", "from_edges", "dense"]))
    if route == "load":
        lines = "".join(f"{u} {v} {w!r}\n" for (u, v), w in zip(chosen, weights))
        g = load_edge_list(f"nodes {n}\n{lines}")
        assert isinstance(g._edges, list)
        return g, dense_weights(g)
    if route == "from_edges":
        g = Graph.from_edges(n, np.array(chosen, dtype=np.intp).reshape(-1, 2), weights)
        return g, dense_weights(g)
    w = np.zeros((n, n))
    for (u, v), weight in zip(chosen, weights):
        w[u, v] = w[v, u] = weight
    return Graph(n, w), w


class TestBuildMatrix:
    def test_laplacian_of_k3(self):
        m = build_matrix(gen_complete(3), L)
        assert np.array_equal(m, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))

    def test_lsym_of_p3(self):
        m = build_matrix(path3(), LRW)
        r = -1 / np.sqrt(2)
        expected = np.array([[1, r, 0], [r, 1, r], [0, r, 1]])
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_isolated_vertex_rejected(self):
        g = Graph(n=3, weights=np.zeros((3, 3)))
        with pytest.raises(UndefinedRepresentationError):
            build_matrix(g, LRW)

    def test_tiny_degrees_are_not_isolated(self):
        """P3 with both weights 1e-13 has the Lrw spectrum of P3: {0, 1, 2}."""
        g = load_edge_list("nodes 3\n0 1 1e-13\n1 2 1e-13\n")
        np.testing.assert_allclose(spectrum(g, LRW).values, [0.0, 1.0, 2.0], atol=1e-12)

    def test_entries_exactly_symmetric(self, karate):
        for kind in ALL_KINDS:
            m = build_matrix(karate, kind)
            assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("text, values", [
        ("nodes 2\n0 1 1e-320\n", [0.0, 2.0]),
        ("nodes 3\n0 1 1e-320\n1 2 1\n", [0.0, 1.0, 2.0]),
    ], ids=["all", "one"])
    def test_subnormal_degrees(self, text, values):
        """1/sqrt(d_i) * 1/sqrt(d_j) overflows here; L_sym does not."""
        g = load_edge_list(text)
        m = build_matrix(g, LRW)
        assert np.all(np.isfinite(m)) and np.array_equal(m, m.T)
        np.testing.assert_allclose(spectrum(g, LRW).values, values, atol=1e-12)

    def test_lsym_rounds_as_the_direct_product(self, karate):
        """Where every degree is normal, each entry is lap * (1/sqrt(d_i) * 1/sqrt(d_j))."""
        rng = np.random.default_rng(3)
        edges = "".join(f"{i} {j} {10.0 ** rng.uniform(-150, 150)!r}\n"
                        for i in range(40) for j in range(i + 1, 40) if rng.random() < 0.3)
        for g in (karate, load_edge_list("nodes 40\n" + edges)):
            inv_sqrt = 1.0 / np.sqrt(g.degrees)
            direct = build_matrix(g, L) * np.outer(inv_sqrt, inv_sqrt)
            assert build_matrix(g, LRW).tobytes() == direct.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(routed_graphs(), st.sampled_from(ALL_KINDS))
    def test_bit_for_bit_with_the_dense_reference(self, case, kind):
        """Built from the edges, each matrix has the bytes, signed zeros
        included, of the one formed from the dense weights; where that one
        is refused, so is this, with the same message."""
        g, w = case
        assert (matrix_or_message(build_matrix, g, kind)
                == matrix_or_message(reference_matrix, w, g.degrees, kind))

    @pytest.mark.parametrize("name", ["karate", "c18", "bipartiteb", "star18", "n0", "n1",
                                      "isolated", "subnormal"])
    def test_named_graphs_bit_for_bit_with_the_dense_reference(self, name):
        g = {"karate": karate_graph, "c18": lambda: gen_graph_c(18),
             "bipartiteb": gen_bipartite_b, "star18": lambda: gen_star(18),
             "n0": lambda: load_edge_list("nodes 0\n"), "n1": lambda: Graph(1, np.zeros((1, 1))),
             "isolated": lambda: load_edge_list("nodes 3\n0 1 0.5\n"),
             "subnormal": lambda: load_edge_list("nodes 3\n0 1 1e-320\n1 2 1\n")}[name]()
        outcomes = {}
        for kind in ALL_KINDS:
            outcomes[kind] = matrix_or_message(reference_matrix, dense_weights(g), g.degrees, kind)
            assert matrix_or_message(build_matrix, g, kind) == outcomes[kind], kind
        refused = outcomes[LRW][0] is UndefinedRepresentationError
        assert refused == (degree_summary(g).d_min == 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_dense_array_at_the_peak(self, kind):
        """The matrix is the only n x n array made: on a graph of mean degree
        20 the peak stays within a quarter of 8 n^2 bytes above the matrix,
        and so do A and L on K200, whose edges fill half the matrix (L peaked
        at 1.51 when it was written from a -w copy of the weights). The
        per-edge temporaries of L_sym on K200 stay within 1.5 times 8 n^2
        bytes (2.01 when each step allocated its own). The edge arrays are
        the graph's, made on first access and kept."""
        n = 200
        for density, bound in ((0.1, 1.25), (1.0, 2.5 if kind is LRW else 1.25)):
            rng = np.random.default_rng(11)
            g = load_edge_list(f"nodes {n}\n" + "".join(
                f"{i} {j} {rng.uniform(0.1, 1.0)!r}\n"
                for i in range(n) for j in range(i + 1, n) if rng.random() < density))
            g.edges, g.edge_weights, g.degrees
            tracemalloc.start()
            try:
                m = build_matrix(g, kind)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert m.shape == (n, n)
            ratio = peak / (8 * n * n)
            assert ratio <= bound, f"density {density}: peak {ratio:.2f} x 8 n^2 bytes"

    @pytest.mark.parametrize("kind, bound", [(A, 2.75), (L, 2.75)])
    def test_first_build_of_a_loaded_graph(self, kind, bound):
        """The first matrix of a loaded K200 also makes its edge arrays: the
        pairs go to an array in one flat pass, 16 bytes an edge, so the A peak
        is 2.51 and the L peak 2.52 times 8 n^2 bytes (3.01 for L when it was
        written from a -w copy of the weights, and 3.99 for both when the
        array was made from the pair tuples, 48 bytes an edge)."""
        n = 200
        g = load_edge_list(f"nodes {n}\n" + "".join(
            f"{i} {j}\n" for i in range(n) for j in range(i + 1, n)))
        tracemalloc.start()
        try:
            build_matrix(g, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / (8 * n * n)
        assert ratio <= bound, f"peak {ratio:.2f} x 8 n^2 bytes"


class TestEigSym:
    def test_identity(self):
        values, _ = eig_sym(np.eye(2))
        np.testing.assert_allclose(values, [1.0, 1.0])

    def test_adjacency_of_k3(self):
        values, _ = eig_sym(build_matrix(gen_complete(3), A))
        np.testing.assert_allclose(values, [-1.0, -1.0, 2.0], atol=1e-10)

    def test_laplacian_of_p3(self):
        values, _ = eig_sym(build_matrix(path3(), L))
        np.testing.assert_allclose(values, [0.0, 1.0, 3.0], atol=1e-10)

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 9, 20):
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            values, _ = eig_sym(m)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(m), atol=1e-9)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(12, 12))
        m = (m + m.T) / 2
        values, vectors = eig_sym(m)
        residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
        assert np.all(residuals <= 1e-8 * np.maximum(1.0, np.abs(values)))
        assert np.abs(vectors.T @ vectors - np.eye(12)).max() <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8))
        m = (m + m.T) / 2
        first = eig_sym(m)
        second = eig_sym(m)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite_before_symmetry(self):
        for m in ([[1.0, np.inf], [np.inf, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="testmat: matrix has non-finite entries"):
                eig_sym(np.array(m), label="testmat")

    def test_validation_fails_closed_on_nan(self):
        with pytest.raises(EigensolverError, match="residual"):
            _validate_pairs(np.eye(2), np.array([np.nan, 1.0]), np.eye(2), "testmat")

    def test_label_in_error(self):
        with pytest.raises(ValueError, match="testmat"):
            eig_sym(np.zeros((2, 3)), label="testmat")


class TestSolverHealthChecks:
    """A faulty solver result ends in EigensolverError, never in a spectrum."""

    def test_lapack_failure(self, monkeypatch):
        def failing_eigh(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(EigensolverError) as info:
            eig_sym(np.eye(2), label="testmat")
        assert str(info.value) == "testmat: LAPACK eigh failed (Eigenvalues did not converge)"

    def test_vectors_not_orthonormal(self, monkeypatch):
        """Vectors 1% too long still pass the residual check; their Gram defect is 2.01e-2."""
        eigh = np.linalg.eigh

        def stretched_eigh(m):
            values, vectors = eigh(m)
            return values, vectors * 1.01

        monkeypatch.setattr(np.linalg, "eigh", stretched_eigh)
        with pytest.raises(EigensolverError) as info:
            eig_sym(build_matrix(path3(), L), label="testmat")
        assert str(info.value) == "testmat: eigenvectors not orthonormal (defect 2.010e-02)"

    def test_values_escaping_the_support(self, monkeypatch):
        """L(P3) = {0, 1, 3} does not fit a support narrowed to [0, 1]."""
        monkeypatch.setattr(spectra, "spectral_support", lambda kind, d_max: (0.0, 1.0))
        with pytest.raises(EigensolverError) as info:
            spectrum(path3(), L)
        assert str(info.value) == "L eigenvalues escape the Gershgorin support [0.0, 1.0]"

    @pytest.mark.parametrize("kind", [A, L])
    def test_values_escaping_a_tiny_support(self, monkeypatch, kind):
        """With weights 1e-12 the support is a few 1e-12 long: an eigenvalue
        1e-15 past it is caught, although an absolute slack of 1e-9 would
        let it through."""
        g = Graph(n=3, weights=build_matrix(path3(), A) * 1e-12)
        hi = spectral_support(kind, float(g.degrees.max()))[1]
        solve = spectra.eig_sym

        def shifted_eig_sym(m, label):
            values, vectors = solve(m, label=label)
            values[-1] = hi + 1e-15
            return values, vectors

        monkeypatch.setattr(spectra, "eig_sym", shifted_eig_sym)
        with pytest.raises(EigensolverError, match="eigenvalues escape the Gershgorin support"):
            spectrum(g, kind)


class TestSpectrum:
    def test_star18_adjacency(self, star18):
        s = spectrum(star18, A)
        expected = np.array([np.sqrt(17)] + [0.0] * 16 + [-np.sqrt(17)])
        np.testing.assert_allclose(s.values, expected, atol=1e-8)

    def test_graph_c18_laplacian(self, graph_c18):
        s = spectrum(graph_c18, L)
        expected = np.array([0.0] * 10 + [2.0] * 9 + [18.0] * 17)
        np.testing.assert_allclose(s.values, expected, atol=1e-8)

    def test_k3_normalized(self):
        s = spectrum(gen_complete(3), LRW)
        np.testing.assert_allclose(s.values, [0.0, 1.5, 1.5], atol=1e-8)

    def test_ordering_conventions(self, karate):
        mu = spectrum(karate, A).values
        assert np.all(mu[:-1] >= mu[1:]), "adjacency values must be descending"
        for kind in (L, LRW):
            vals = spectrum(karate, kind).values
            assert np.all(vals[:-1] <= vals[1:]), f"{kind} values must be ascending"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_eigensystem_vectors_are_the_kinds_own(self, karate, kind):
        """Column i solves M v = lambda_i v for the kind's own M: D^{-1}(D - A) for Lrw."""
        spec, vectors = spectra.eigensystem(karate, kind)
        a = dense_weights(karate)
        lap = np.diag(karate.degrees) - a
        m = {A: a, L: lap, LRW: lap / karate.degrees[:, None]}[kind]
        assert np.abs(m @ vectors - vectors * spec.values).max() < 1e-10

    def test_memoised_on_the_graph_and_read_only(self):
        g = path3()
        for kind in ALL_KINDS:
            s = spectrum(g, kind)
            assert spectrum(g, kind) is s
            with pytest.raises(ValueError, match="read-only"):
                s.values[0] = 1.0
        assert spectrum(path3(), A) is not spectrum(g, A)

    def test_values_inside_support(self, karate, star18, bipartite_b, graph_c18):
        for g in (karate, star18, bipartite_b, graph_c18):
            for kind in ALL_KINDS:
                s = spectrum(g, kind)
                lo, hi = s.support
                assert s.values.min() >= lo - 1e-9
                assert s.values.max() <= hi + 1e-9


class TestEigensystemMemo:
    """A graph's eigensystem of each kind is solved once and shared, read-only;
    ``spectrum`` alone keeps no vectors."""

    @staticmethod
    def _counting():
        return mock.patch.object(spectra, "eig_sym", wraps=spectra.eig_sym)

    @staticmethod
    def _kinds_kept(g, build):
        """The kinds whose ``build`` value the graph's memo holds."""
        return {key[1] for key in g._memo if key[0] is build}

    def test_solved_once_per_kind(self):
        g = karate_graph()
        with self._counting() as solve:
            first = {kind: spectra.eigensystem(g, kind) for kind in ALL_KINDS}
            for kind in ALL_KINDS:
                spec, vectors = spectra.eigensystem(g, kind)
                assert spec is first[kind][0] and vectors is first[kind][1]
                assert spectrum(g, kind) is spec
        assert solve.call_count == 3

    def test_vectors_and_values_are_read_only(self):
        spec, vectors = spectra.eigensystem(path3(), L)
        with pytest.raises(ValueError, match="read-only"):
            vectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.values[0] = 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_after_spectrum_returns_the_memoised_spectrum(self, kind):
        g = karate_graph()
        s = spectrum(g, kind)
        spec, vectors = spectra.eigensystem(g, kind)
        assert spec is s
        fresh, fresh_vectors = spectra.eigensystem(karate_graph(), kind)
        assert fresh.values.tobytes() == s.values.tobytes()
        assert fresh_vectors.tobytes() == vectors.tobytes()

    def test_spectrum_only_analysis_keeps_no_vectors(self):
        """The bound checks read spectra alone: no graph keeps an n x n array
        for them, and a later eigensystem solves again."""
        g = karate_graph()
        weyl_check(g)
        for pair in MatrixPair:
            pair_differences(pair, g)
            gap_differences(pair, g)
        assert self._kinds_kept(g, spectra._values) == set(ALL_KINDS)
        assert self._kinds_kept(g, spectra._vectors) == set()
        with self._counting() as solve:
            spectra.eigensystem(g, A)
        assert solve.call_count == 1

    def test_failures_are_not_memoised(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = Graph(n=3, weights=w)  # vertex 2 is isolated
        for _ in range(2):
            with pytest.raises(UndefinedRepresentationError):
                spectra.eigensystem(g, LRW)
        assert LRW not in self._kinds_kept(g, spectra._values)
        assert self._kinds_kept(g, spectra._vectors) == set()


class TestSpectralSupport:
    def test_adjacency(self):
        assert spectral_support(A, 17.0) == (-17.0, 17.0)

    def test_laplacian(self):
        assert spectral_support(L, 2.0) == (0.0, 4.0)

    def test_normalized_is_fixed(self):
        assert spectral_support(LRW, 5.0) == (0.0, 2.0)
        assert spectral_support(LRW, 100.0) == (0.0, 2.0)

    def test_negative_d_max_rejected(self):
        with pytest.raises(ValueError, match="^d_max must be non-negative$"):
            spectral_support(A, -1.0)


class TestNormalizedEigengaps:
    def test_graph_c18_adjacency_first_gap(self, graph_c18):
        """A(C18) = {17, 1 x 9, -1 x 26}: first gap (17-1)/34 = 8/17."""
        gaps = normalized_eigengaps(spectrum(graph_c18, A))
        assert abs(gaps[0] - 16 / 34) < 1e-8

    def test_graph_c18_laplacian_19th_gap(self, graph_c18):
        """L(C18) = {0 x 10, 2 x 9, 18 x 17}: gap 19 is (18-2)/34."""
        gaps = normalized_eigengaps(spectrum(graph_c18, L))
        assert abs(gaps[18] - 16 / 34) < 1e-8

    def test_k3_gap_pattern(self):
        gaps = normalized_eigengaps(spectrum(gen_complete(3), A))
        np.testing.assert_allclose(sorted(gaps), [0.0, 3 / 4], atol=1e-8)

    def test_gaps_non_negative(self, karate):
        for kind in ALL_KINDS:
            assert normalized_eigengaps(spectrum(karate, kind)).min() >= 0.0

    def test_zero_support_gives_zero_gaps(self):
        """An edgeless graph's adjacency support [-0, 0] has length 0: no division."""
        gaps = normalized_eigengaps(spectrum(load_edge_list("nodes 3\n"), A))
        assert gaps.tolist() == [0.0, 0.0]


class TestSpectralProperties:
    def test_disjoint_union_spectra_are_multiset_unions(self):
        parts = [gen_star(5), gen_complete(4), gen_graph_c(3)]
        for a in parts:
            for b in parts:
                u = disjoint_union(a, b)
                for kind in ALL_KINDS:
                    merged = np.sort(np.concatenate([
                        spectrum(a, kind).values, spectrum(b, kind).values]))
                    union = np.sort(spectrum(u, kind).values)
                    np.testing.assert_allclose(union, merged, atol=1e-8)

    def test_zero_laplacian_eigenvalues_count_components(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 10)), p=0.35)
            lam = spectrum(g, L).values
            zeros = int((np.abs(lam) < 1e-8).sum())
            assert zeros == connected_components(g).component_count

    def test_random_spectra_inside_gershgorin_support(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 10)))
            for kind in (A, L):
                s = spectrum(g, kind)
                assert s.values.min() >= s.support[0] - 1e-9
                assert s.values.max() <= s.support[1] + 1e-9
