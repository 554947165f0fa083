"""Representation matrices and their LAPACK eigh spectra.

Ground truth, all derivable by hand:
- A(K3): characteristic polynomial (mu - 2)(mu + 1)^2 -> {2, -1, -1}
- L(P3): {0, 1, 3}; L_sym(P3) entries 1 on the diagonal, -1/sqrt(2) off
- star on n nodes: A -> {sqrt(n-1), 0 x (n-2), -sqrt(n-1)},
  L -> {0, 1 x (n-2), n}, L_rw -> {0, 1 x (n-2), 2}
- disjoint unions: spectrum is the multiset union of component spectra
- d-regular graphs: lambda = d - mu, eta = lambda/d exactly
"""

import numpy as np
import pytest

from graphspectra import (
    EigensolverError,
    Graph,
    RepresentationKind,
    UndefinedRepresentationError,
    build_matrix,
    connected_components,
    disjoint_union,
    eig_sym,
    gen_complete,
    gen_graph_c,
    gen_star,
    is_d_regular,
    load_edge_list,
    normalized_eigengaps,
    spectral_support,
    spectrum,
)
from graphspectra import spectra
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


class TestSpectralSupport:
    def test_adjacency(self):
        assert spectral_support(A, 17.0) == (-17.0, 17.0)

    def test_laplacian(self):
        assert spectral_support(L, 2.0) == (0.0, 4.0)

    def test_normalized_is_fixed(self):
        assert spectral_support(LRW, 5.0) == (0.0, 2.0)
        assert spectral_support(LRW, 100.0) == (0.0, 2.0)


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

    def test_d_regular_exact_relations(self):
        for g in (gen_complete(2), gen_complete(3), gen_complete(18), gen_graph_c(2)):
            d = is_d_regular(g)
            assert d is not None
            mu = spectrum(g, A).values
            lam = spectrum(g, L).values
            eta = spectrum(g, LRW).values
            assert np.abs(lam - (d - mu)).max() <= 1e-8
            assert np.abs(eta - lam / d).max() <= 1e-8
            assert np.abs(eta - (1 - mu / d)).max() <= 1e-8

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
