"""Affine transforms, closed-form bounds, crossovers and the polynomial map.

Ground truth used below:
- class (1, 17): e(A,L) = 8, e(L,Lrw) = 16/9, e(A,Lrw) = 8/3, e' = 2;
  g(A,L) = 8/17, g(L,Lrw) = 32/17, g(A,Lrw) = 40/17
- star on 18 nodes: A/L spectra give |delta| = 8 on the 16 middle indices
  and |sqrt(17) - 9| at the ends
- P3 with d1 = 1.5: |delta| = {1.5 - sqrt(2), 0.5, 1.5 - sqrt(2)}
- C(18) A/L differences: +8, -8 x 18, +8 x 17 -> crossovers at 1 and 19
"""

import dataclasses
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphspectra import (
    Graph,
    MatrixPair,
    Region,
    RepresentationKind,
    Transform,
    UndefinedRepresentationError,
    apply_transform,
    classify_region,
    degree_summary,
    detect_maximal_crossover,
    eigenvalue_bound_set,
    gap_bound_set,
    gap_differences,
    gen_complete,
    gen_graph_c,
    gen_star,
    load_edge_list,
    mapped_support,
    normalized_eigengaps,
    pair_differences,
    polynomial_spectrum_map,
    spectrum,
    transform_params,
    weyl_check,
)
from graphspectra import bounds
from graphspectra.bounds import DEFAULT_MERGE_TOL, PolyMapReport, newton_eval
from graphspectra.graphs import DegreeSummary
from graphspectra.spectra import Spectrum

A = RepresentationKind.ADJACENCY
L = RepresentationKind.LAPLACIAN
LRW = RepresentationKind.NORMALIZED_LAPLACIAN


def summary(d_min, d_max):
    return DegreeSummary(degrees=np.array([float(d_min), float(d_max)]),
                         d_min=float(d_min), d_max=float(d_max))


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


class TestTransformParams:
    def test_karate_class(self):
        p = transform_params(summary(1, 17))
        assert p.d1 == p.d2 == 9.0
        assert p.c1 == p.c2 == pytest.approx(1 / 9)

    def test_regular(self):
        p = transform_params(summary(2, 2))
        assert (p.d1, p.c1) == (2.0, 0.5)

    def test_path_class(self):
        p = transform_params(summary(1, 2))
        assert p.d1 == 1.5
        assert p.c1 == pytest.approx(2 / 3)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            transform_params(summary(0, 0))


class TestApplyTransform:
    def test_f1_on_k3_recovers_laplacian(self):
        g = gen_complete(3)
        mapped = apply_transform(Transform.F1, transform_params(degree_summary(g)), spectrum(g, A))
        np.testing.assert_allclose(mapped, spectrum(g, L).values, atol=1e-8)

    def test_f2_on_p3(self):
        g = path3()
        mapped = apply_transform(Transform.F2, transform_params(degree_summary(g)), spectrum(g, L))
        np.testing.assert_allclose(mapped, [0.0, 2 / 3, 2.0], atol=1e-8)
        eta = spectrum(g, LRW).values
        np.testing.assert_allclose(eta - mapped, [0.0, 1 / 3, 0.0], atol=1e-8)

    def test_f3_on_star_matches_eta_in_the_middle(self, star18):
        mapped = apply_transform(
            Transform.F3, transform_params(degree_summary(star18)), spectrum(star18, A))
        eta = spectrum(star18, LRW).values
        np.testing.assert_allclose(mapped[1:17], np.ones(16), atol=1e-8)
        np.testing.assert_allclose(eta[1:17] - mapped[1:17], np.zeros(16), atol=1e-8)

    def test_kind_mismatch_rejected(self):
        g = gen_complete(3)
        p = transform_params(degree_summary(g))
        with pytest.raises(ValueError, match="adjacency"):
            apply_transform(Transform.F1, p, spectrum(g, L))
        with pytest.raises(ValueError, match="Laplacian"):
            apply_transform(Transform.F2, p, spectrum(g, A))
        with pytest.raises(ValueError, match="adjacency"):
            apply_transform(Transform.F3, p, spectrum(g, LRW))


class TestEigenvalueBoundSet:
    def test_class_1_17(self):
        b = eigenvalue_bound_set(summary(1, 17))
        assert b.e_al == 8.0
        assert b.e_llrw == pytest.approx(16 / 9)
        assert b.e_alrw == pytest.approx(8 / 3)
        assert b.e_prime_alrw == 2.0  # 17 > 5 * 1

    def test_class_2_4(self):
        b = eigenvalue_bound_set(summary(2, 4))
        assert (b.e_al, b.e_alrw) == (1.0, 1.0)
        assert b.e_llrw == pytest.approx(2 / 3)
        assert b.e_prime_alrw == 1.0  # 4 <= 5 * 2

    def test_regular_all_zero(self):
        for d in (1, 3, 7):
            b = eigenvalue_bound_set(summary(d, d))
            assert (b.e_al, b.e_llrw, b.e_alrw, b.e_prime_alrw) == (0.0, 0.0, 0.0, 0.0)

    def test_isolated_vertex_class(self):
        b = eigenvalue_bound_set(summary(0, 3))
        assert b.e_al == 1.5
        assert b.e_llrw is None and b.e_alrw is None and b.e_prime_alrw is None

    def test_isolation_is_exact_on_fractions(self):
        """Only d_min = 0 drops the Lrw bounds, however small d_min is."""
        zero = eigenvalue_bound_set(DegreeSummary(degrees=np.zeros(2), d_min=Fraction(0),
                                                  d_max=Fraction(3)))
        assert zero.e_al == Fraction(3, 2) and zero.e_llrw is None
        tiny = eigenvalue_bound_set(DegreeSummary(degrees=np.zeros(2), d_min=Fraction(1, 10**13),
                                                  d_max=Fraction(2, 10**13)))
        assert (tiny.e_llrw, tiny.e_alrw) == (Fraction(2, 3), Fraction(1))

    def test_ranges(self):
        for j in range(1, 21):
            for k in range(j, 21):
                b = eigenvalue_bound_set(summary(j, k))
                assert 0.0 <= b.e_llrw <= 2.0
                assert 0.0 <= b.e_alrw <= 3.0

    def test_prime_vs_plain(self):
        """e' equals e exactly when d_max <= 5 d_min, otherwise e' = 2 < e."""
        for j in range(1, 21):
            for k in range(j, 21):
                b = eigenvalue_bound_set(summary(j, k))
                assert b.e_prime_alrw <= b.e_alrw + 1e-12
                if k <= 5 * j:
                    assert b.e_prime_alrw == b.e_alrw
                else:
                    assert b.e_prime_alrw == 2.0 < b.e_alrw


class TestGapBoundSet:
    def test_class_1_17(self):
        g = gap_bound_set(summary(1, 17))
        assert g.g_al == pytest.approx(16 / 34)
        assert g.g_llrw == pytest.approx(32 / 17)
        assert g.g_alrw == pytest.approx(40 / 17)
        assert g.g_prime_llrw == pytest.approx(16 / 9)
        assert g.g_prime_alrw == 2.0

    def test_primed_never_larger(self):
        for j in range(1, 21):
            for k in range(j, 21):
                g = gap_bound_set(summary(j, k))
                assert g.g_prime_llrw <= g.g_llrw + 1e-12
                assert g.g_prime_alrw <= g.g_alrw + 1e-12

    def test_regular_all_zero(self):
        g = gap_bound_set(summary(4, 4))
        assert (g.g_al, g.g_llrw, g.g_prime_llrw, g.g_alrw, g.g_prime_alrw) == (0,) * 5


class TestClassifyRegion:
    def test_named_examples(self):
        assert classify_region(summary(1, 2)).region is Region.BOLD
        assert classify_region(summary(1, 3)).region is Region.UNDERLINED
        assert classify_region(summary(2, 3)).region is Region.TELETYPE
        assert classify_region(summary(2, 4)).region is Region.ITALIC
        assert classify_region(summary(1, 17)).region is Region.NORMAL
        assert classify_region(summary(3, 3)).region is Region.REGULAR

    def test_bold_ordering_values(self):
        b = eigenvalue_bound_set(summary(1, 2))
        assert b.e_al < b.e_llrw < b.e_alrw
        assert (b.e_al, b.e_alrw) == (0.5, 1.0)
        assert b.e_llrw == pytest.approx(2 / 3)

    def test_underlined_equality(self):
        b = eigenvalue_bound_set(summary(1, 3))
        assert b.e_al == b.e_llrw == 1.0
        assert b.e_alrw == 1.5

    def test_ordering_matches_computed_bounds(self):
        """The predicted ordering string must hold for the actual bound values."""
        for j in range(1, 21):
            for k in range(j, 21):
                info = classify_region(summary(j, k))
                b = eigenvalue_bound_set(summary(j, k))
                if info.region is Region.REGULAR:
                    assert b.e_al == b.e_llrw == b.e_alrw == 0.0
                elif info.region is Region.BOLD:
                    assert b.e_al < b.e_llrw < b.e_alrw
                elif info.region is Region.UNDERLINED:
                    assert b.e_al == pytest.approx(b.e_llrw) and b.e_llrw < b.e_alrw
                elif info.region is Region.TELETYPE:
                    assert b.e_llrw < b.e_al < b.e_alrw
                elif info.region is Region.ITALIC:
                    assert b.e_llrw < b.e_al and b.e_al == pytest.approx(b.e_alrw)
                else:
                    assert b.e_llrw < b.e_alrw < b.e_al

    def test_table_monotone_in_rows_and_columns(self):
        """Bounds shrink along rows (growing d_min) and grow down columns."""
        for k in range(1, 21):
            for j in range(1, k):
                wide, narrow = eigenvalue_bound_set(summary(j, k)), eigenvalue_bound_set(summary(j + 1, k))
                assert narrow.e_al <= wide.e_al
                assert narrow.e_llrw <= wide.e_llrw + 1e-12
                assert narrow.e_alrw <= wide.e_alrw + 1e-12
        for j in range(1, 20):
            for k in range(j, 20):
                low, high = eigenvalue_bound_set(summary(j, k)), eigenvalue_bound_set(summary(j, k + 1))
                assert low.e_al <= high.e_al
                assert low.e_llrw <= high.e_llrw + 1e-12
                assert low.e_alrw <= high.e_alrw + 1e-12


class TestPairDifferences:
    def test_star_attains_bound_on_middle_indices(self, star18):
        d = pair_differences(MatrixPair.A_L, star18)
        assert d.bound == 8.0
        np.testing.assert_allclose(np.abs(d.deltas[1:17]), np.full(16, 8.0), atol=1e-8)
        np.testing.assert_allclose(np.abs(d.deltas[[0, 17]]), np.full(2, 9 - np.sqrt(17)), atol=1e-8)
        assert d.within_bound

    def test_bipartite_signed_values(self, bipartite_b):
        """Rounded: lambda_1 - f1(mu_1) = 7.49 and lambda_2 - f1(mu_2) = -7.06."""
        d = pair_differences(MatrixPair.A_L, bipartite_b)
        assert d.deltas[0] == pytest.approx(7.49, abs=0.01)
        assert d.deltas[1] == pytest.approx(-7.06, abs=0.01)
        assert d.within_bound

    def test_p3_values(self):
        d = pair_differences(MatrixPair.A_L, path3())
        np.testing.assert_allclose(
            np.abs(d.deltas), [1.5 - np.sqrt(2), 0.5, 1.5 - np.sqrt(2)], atol=1e-8)
        assert d.bound == 0.5
        assert d.within_bound

    def test_lrw_pairs_rejected_for_isolated_vertex(self):
        g = Graph(n=3, weights=np.zeros((3, 3)))
        with pytest.raises(UndefinedRepresentationError):
            pair_differences(MatrixPair.L_LRW, g)

    def test_all_pairs_within_bounds_on_named_graphs(self, karate, star18, bipartite_b, graph_c18):
        for g in (karate, star18, bipartite_b, graph_c18):
            for pair in MatrixPair:
                assert pair_differences(pair, g).within_bound


class TestCrossoverDetection:
    def test_graph_c18(self, graph_c18):
        d = pair_differences(MatrixPair.A_L, graph_c18)
        report = detect_maximal_crossover(d.deltas, d.bound, tol=1e-6)
        assert report.indices == (1, 19)

    def test_regular_graph_reports_nothing(self):
        d = pair_differences(MatrixPair.A_L, gen_complete(3))
        report = detect_maximal_crossover(d.deltas, d.bound)
        assert report.indices == ()
        assert report.bound == 0.0

    def test_bipartite_near_crossover_with_loose_tolerance(self, bipartite_b):
        """7.49 / -7.06 against bound 8: detected once tol covers the 0.94 slack."""
        d = pair_differences(MatrixPair.A_L, bipartite_b)
        assert 1 in detect_maximal_crossover(d.deltas, d.bound, tol=1.0).indices
        assert 1 not in detect_maximal_crossover(d.deltas, d.bound, tol=0.5).indices
        assert 1 not in detect_maximal_crossover(d.deltas, d.bound, tol=1e-6).indices

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, graph_c18, tol):
        d = pair_differences(MatrixPair.A_L, graph_c18)
        with pytest.raises(ValueError, match="finite and positive"):
            detect_maximal_crossover(d.deltas, d.bound, tol=tol)

    def test_requires_opposite_signs(self):
        report = detect_maximal_crossover(np.array([1.0, 1.0, -1.0]), 1.0, tol=1e-9)
        assert report.indices == (2,)


class TestGapDifferences:
    def test_graph_c18_tight_at_first_gap(self, graph_c18):
        gd = gap_differences(MatrixPair.A_L, graph_c18)
        assert gd.diffs[0] == pytest.approx(16 / 34, abs=1e-9)
        assert gd.diffs[0] == pytest.approx(gd.bound, abs=1e-9)

    def test_graph_c18_agrees_at_tenth_gap(self, graph_c18):
        gd = gap_differences(MatrixPair.A_L, graph_c18)
        assert abs(gd.diffs[9]) <= 1e-9
        assert gd.source_gaps[9] == pytest.approx(2 / 34, abs=1e-9)

    def test_k3_all_zero(self):
        for pair in MatrixPair:
            gd = gap_differences(pair, gen_complete(3))
            assert np.abs(gd.diffs).max() <= 1e-9

    def test_primed_only_for_lrw_pairs(self, karate):
        assert gap_differences(MatrixPair.A_L, karate).primed_diffs is None
        for pair in (MatrixPair.L_LRW, MatrixPair.A_LRW):
            gd = gap_differences(pair, karate)
            assert gd.primed_diffs is not None
            assert gd.primed_within

    def test_within_bounds_on_named_graphs(self, karate, star18, bipartite_b, graph_c18):
        for g in (karate, star18, bipartite_b, graph_c18):
            for pair in MatrixPair:
                assert gap_differences(pair, g).within_bound


class TestMappedSupport:
    def test_f1_class_1_17(self):
        assert mapped_support(Transform.F1, summary(1, 17)) == (-8.0, 26.0)

    def test_f2_regular_hits_lrw_support(self):
        assert mapped_support(Transform.F2, summary(3, 3)) == (0.0, 2.0)

    def test_f3_class_1_17(self):
        lo, hi = mapped_support(Transform.F3, summary(1, 17))
        assert lo == pytest.approx(-8 / 9)
        assert hi == pytest.approx(26 / 9)

    def test_edgeless_f1_is_the_origin_f2_f3_undefined(self):
        """f1 needs only the shift d1 = 0; f2 and f3 need the scale 2/(d_max + d_min)."""
        g = load_edge_list("nodes 3\n")
        ds = degree_summary(g)
        assert mapped_support(Transform.F1, ds) == (0.0, 0.0)
        assert np.array_equal(pair_differences(MatrixPair.A_L, g).transformed, np.zeros(3))
        for which in (Transform.F2, Transform.F3):
            with pytest.raises(ValueError, match="d_max \\+ d_min > 0"):
                mapped_support(which, ds)

    def test_transformed_spectra_inside_mapped_support(self, karate):
        ds = degree_summary(karate)
        p = transform_params(ds)
        for which, kind in ((Transform.F1, A), (Transform.F2, L), (Transform.F3, A)):
            mapped = apply_transform(which, p, spectrum(karate, kind))
            lo, hi = mapped_support(which, ds)
            assert mapped.min() >= lo - 1e-9
            assert mapped.max() <= hi + 1e-9


class TestWeylCheck:
    def test_karate(self, karate):
        assert weyl_check(karate).ok

    def test_star_touches_upper_end(self, star18):
        report = weyl_check(star18)
        assert report.ok
        assert (report.lower, report.upper) == (-8.0, 8.0)
        touching = np.isclose(report.differences, report.upper, atol=1e-8)
        assert touching.sum() == 16

    def test_k3_all_zero(self):
        report = weyl_check(gen_complete(3))
        assert report.ok
        np.testing.assert_allclose(report.differences, np.zeros(3), atol=1e-8)

    def test_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            assert weyl_check(random_graph(rng, int(rng.integers(3, 11)))).ok


class TestPolynomialSpectrumMap:
    def test_k3_degree_one_map(self):
        """Regular graph: p(mu) = 2 - mu maps A values onto L values exactly."""
        g = gen_complete(3)
        report = polynomial_spectrum_map(spectrum(g, A), spectrum(g, L), merge_tol=1e-10)
        assert not report.unstable
        assert report.max_residual < 1e-9
        assert len(report.nodes) == 2
        xs = np.array([-3.0, 0.0, 5.0])
        np.testing.assert_allclose(newton_eval(report.nodes, report.coefficients, xs), 2.0 - xs,
                                   atol=1e-9)

    def test_karate_is_unstable(self, karate):
        """Ten near-identical adjacency eigenvalues map onto a wide Laplacian stretch."""
        report = polynomial_spectrum_map(spectrum(karate, A), spectrum(karate, L),
                                         merge_tol=1e-12)
        assert report.unstable
        assert report.min_input_gap < 1e-12
        assert report.output_span_over_degenerate_inputs > 2.0
        assert report.coefficients is None

    def test_identity_map(self):
        s = spectrum(path3(), L)
        report = polynomial_spectrum_map(s, s, merge_tol=1e-10)
        assert not report.unstable
        assert report.max_residual <= 1e-12
        xs = np.array([0.25, 2.0])
        np.testing.assert_allclose(newton_eval(report.nodes, report.coefficients, xs), xs,
                                   atol=1e-12)

    @pytest.mark.parametrize("merge_tol", [float("nan"), float("inf"), -1.0])
    def test_merge_tolerance_must_be_finite_and_non_negative(self, graph_c18, merge_tol):
        with pytest.raises(ValueError, match="finite and non-negative"):
            polynomial_spectrum_map(spectrum(graph_c18, A), spectrum(graph_c18, L),
                                    merge_tol=merge_tol)

    def test_single_value_has_no_input_gap(self):
        s = spectrum(Graph(n=1, weights=np.zeros((1, 1))), L)
        report = polynomial_spectrum_map(s, s)
        assert report.min_input_gap is None
        assert not report.unstable

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            polynomial_spectrum_map(spectrum(path3(), L), spectrum(gen_complete(4), L))


def _spec(values):
    """A Spectrum holding arbitrary values; only ``values`` matters to the map."""
    return Spectrum(kind=L, values=np.asarray(values, dtype=float), support=(0.0, 1.0),
                    support_length=1.0)


def _reference_newton_coefficients(x, y):
    coef = y.astype(float).copy()
    for j in range(1, len(x)):
        coef[j:] = (coef[j:] - coef[j - 1 : -1]) / (x[j:] - x[: -j])
    return coef


def _reference_newton_eval(nodes, coefficients, x):
    x = np.asarray(x, dtype=float)
    acc = np.full_like(x, coefficients[-1])
    for c, node in zip(coefficients[-2::-1], nodes[-2::-1]):
        acc = acc * (x - node) + c
    return acc


def _reference_polymap(src, dst, merge_tol):
    """The map as the textbook loops compute it: merge loop, table by levels, Horner."""
    order = np.argsort(src.values, kind="stable")
    x = src.values[order]
    y = dst.values[order]
    input_gaps = np.diff(x)
    min_input_gap = float(input_gaps.min()) if len(input_gaps) else None
    clusters = []
    start = 0
    for i in range(1, len(x)):
        if x[i] - x[i - 1] > merge_tol:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(x)))
    worst_span = 0.0
    for lo, hi in clusters:
        if hi - lo > 1:
            worst_span = max(worst_span, float(y[lo:hi].max() - y[lo:hi].min()))
    if worst_span > merge_tol:
        return PolyMapReport(True, min_input_gap, worst_span, None, None, None)
    nodes = np.array([x[lo] for lo, _ in clusters])
    targets = np.array([y[lo] for lo, _ in clusters])
    coefficients = _reference_newton_coefficients(nodes, targets)
    residual = float(np.abs(_reference_newton_eval(nodes, coefficients, x) - y).max())
    return PolyMapReport(False, min_input_gap, worst_span, nodes, coefficients, residual)


def _reference_crossover(diffs, bound, tol):
    diffs = np.asarray(diffs, dtype=float)
    indices = []
    if bound > 0.0:
        attains = np.abs(diffs) >= bound - tol
        for i in range(len(diffs) - 1):
            opposite = diffs[i] < 0.0 < diffs[i + 1] or diffs[i + 1] < 0.0 < diffs[i]
            if attains[i] and attains[i + 1] and opposite:
                indices.append(i + 1)
    return tuple(indices)


def _bits(value):
    """Type, dtype, shape and bytes: floats compare bit for bit, NaN by its pattern."""
    if value is None or isinstance(value, bool):
        return value
    a = np.asarray(value)
    return type(value), a.dtype.str, a.shape, a.tobytes()


def _assert_polymap_matches_reference(x, y, merge_tol):
    src, dst = _spec(x), _spec(y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference warns on overflow
        expected = _reference_polymap(src, dst, merge_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the map itself must not warn
        report = polynomial_spectrum_map(src, dst, merge_tol=merge_tol)
    for field in dataclasses.fields(PolyMapReport):
        assert _bits(getattr(report, field.name)) == _bits(getattr(expected, field.name)), field.name


WIDTH = bounds._SCALAR_LEVEL_WIDTH


@st.composite
def spectrum_pairs(draw):
    """(x, y, merge_tol), shuffled. The count runs across the width at which the
    divided differences switch from numpy steps to float arithmetic. Values are
    spread; repeat exactly, so nodes merge, with targets that agree or not; sit
    within a few merge tolerances of each other; or lie so close together under
    alternating targets that the fit overflows to inf and then NaN."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(1, 2 * WIDTH + 9))
    shape = draw(st.sampled_from(["spread", "repeats", "near", "overflow"]))
    if shape == "spread":
        x, y = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
    elif shape == "repeats":
        x = rng.choice(rng.uniform(-3, 3, max(1, n // 3)), n)
        y = x**2 if draw(st.booleans()) else rng.uniform(-3, 3, n)
    elif shape == "near":
        x = np.sort(rng.uniform(-3, 3, n)) + rng.choice([0.0, 1e-13, 5e-13, 2e-12], n)
        y = np.sin(x) + rng.choice([0.0, 1e-13], n)
    else:
        x = np.arange(n) * 10.0 ** -rng.uniform(1, 8)
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0, 300)
    order = rng.permutation(n)
    merge_tol = draw(st.sampled_from([0.0, DEFAULT_MERGE_TOL, 1e-6, 0.5, 1e300]))
    return x[order], y[order], merge_tol


class TestPolymapMatchesReference:
    """The merged nodes, divided differences and Horner evaluation give every
    PolyMapReport field of the textbook loops kept above, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(spectrum_pairs())
    @example((np.array([0.5]), np.array([2.0]), DEFAULT_MERGE_TOL))
    @example((np.array([1.0, 0.0]), np.array([3.0, -1.0]), 0.0))
    # Exact repeats merge at merge_tol 0; a near repeat merges only under a large one.
    @example((np.array([1.0, 1.0, 2.0, 2.0 + 1e-9]), np.array([5.0, 5.0, 7.0, 7.0]), 0.0))
    @example((np.array([1.0, 1.0, 2.0, 2.0 + 1e-9]), np.array([5.0, 6.0, 7.0, 7.0]), 1e300))
    # A NaN target in a merged cluster spans NaN, which counts as no span.
    @example((np.array([1.0, 1.0, 2.0]), np.array([math.nan, 1.0, 3.0]), 0.0))
    # Coefficients overflow to inf, then inf - inf gives NaN.
    @example((np.arange(60) * 1e-8, (-1.0) ** (np.arange(60) // 2), DEFAULT_MERGE_TOL))
    def test_every_field_bit_for_bit(self, case):
        _assert_polymap_matches_reference(*case)

    @pytest.mark.parametrize("n", [WIDTH, WIDTH + 1, WIDTH + 2, 3 * WIDTH])
    def test_widths_around_the_switch(self, n):
        rng = np.random.default_rng(n)
        _assert_polymap_matches_reference(np.sort(rng.uniform(-2, 2, n)), rng.uniform(0, 4, n),
                                          DEFAULT_MERGE_TOL)

    def test_spectra_of_named_graphs(self, karate, star18, bipartite_b, graph_c18):
        for g in (karate, star18, bipartite_b, graph_c18, path3(), gen_complete(5)):
            for source, target, _ in bounds.PAIR_SPECTRA.values():
                for merge_tol in (0.0, DEFAULT_MERGE_TOL, 1e-6):
                    _assert_polymap_matches_reference(spectrum(g, source).values,
                                                      spectrum(g, target).values, merge_tol)

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("m", [1, 2, 9])
    @pytest.mark.parametrize("block", [bounds._FACTOR_BLOCK, 1, 7])
    def test_newton_eval_on_any_shape(self, shape, m, block):
        """One block of factors or several, for x of any shape."""
        rng = np.random.default_rng(m)
        nodes, coefficients = np.sort(rng.uniform(-2, 2, m)), rng.uniform(-1, 1, m)
        x = rng.uniform(-3, 3, shape)
        with mock.patch.object(bounds, "_FACTOR_BLOCK", block):
            got = newton_eval(nodes, coefficients, x)
        expected = _reference_newton_eval(nodes, coefficients, x)
        assert got.shape == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestPolymapOverflow:
    """A fit that overflows is reported in IEEE values, without a numpy warning."""

    def test_coefficients_overflow_to_inf_and_nan(self):
        x = np.arange(60) * 1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = polynomial_spectrum_map(_spec(x), _spec((-1.0) ** (np.arange(60) // 2)))
        assert not report.unstable
        assert np.isposinf(report.coefficients).any() or np.isneginf(report.coefficients).any()
        assert np.isnan(report.coefficients).any()
        assert math.isnan(report.max_residual)

    def test_finite_coefficients_whose_evaluation_overflows(self):
        """Targets near the largest float: the divided differences stay finite,
        Horner's partial sums at the far nodes do not."""
        x = np.arange(12.0)
        y = np.where(np.arange(12) % 2 == 0, 1e306, -1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = polynomial_spectrum_map(_spec(x), _spec(y))
        assert np.all(np.isfinite(report.coefficients))
        assert not math.isfinite(report.max_residual)


class TestCrossoverMatchesReference:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.nan])
                 | st.floats(min_value=-3, max_value=3), max_size=40),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([1e-9, 1e-6, 0.5, 1.0]),
    )
    def test_indices_match_the_pairwise_loop(self, diffs, bound, tol):
        """Zeros are neither sign, and NaN attains nothing."""
        report = detect_maximal_crossover(np.array(diffs), bound, tol=tol)
        assert report.indices == _reference_crossover(diffs, bound, tol)


class TestTransformProperties:
    def test_order_preservation(self, karate, star18, bipartite_b, graph_c18):
        """f1/f3 turn descending adjacency values ascending; f2 keeps ascending."""
        for g in (karate, star18, bipartite_b, graph_c18):
            p = transform_params(degree_summary(g))
            f1 = apply_transform(Transform.F1, p, spectrum(g, A))
            f3 = apply_transform(Transform.F3, p, spectrum(g, A))
            f2 = apply_transform(Transform.F2, p, spectrum(g, L))
            for mapped in (f1, f2, f3):
                assert np.all(mapped[1:] >= mapped[:-1] - 1e-12)

    def test_normalized_eigengap_preservation(self, karate, bipartite_b):
        """Gaps over the mapped support equal gaps over the source support to 1e-12."""
        for g in (karate, bipartite_b):
            ds = degree_summary(g)
            p = transform_params(ds)
            for which, kind in ((Transform.F1, A), (Transform.F2, L), (Transform.F3, A)):
                spec = spectrum(g, kind)
                mapped = apply_transform(which, p, spec)
                lo, hi = mapped_support(which, ds)
                mapped_gaps = (mapped[1:] - mapped[:-1]) / (hi - lo)
                source_gaps = normalized_eigengaps(spec)
                assert np.abs(mapped_gaps - source_gaps).max() <= 1e-12

    def test_bounds_hold_on_generator_family(self):
        graphs = [gen_star(n) for n in (2, 5, 18)]
        graphs += [gen_complete(k) for k in (2, 3, 7, 18)]
        graphs += [gen_graph_c(k) for k in (2, 3, 10, 18)]
        for g in graphs:
            for pair in MatrixPair:
                assert pair_differences(pair, g).within_bound
                gd = gap_differences(pair, g)
                assert gd.within_bound
                assert gd.primed_within in (None, True)

    def test_bounds_hold_on_random_graphs(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 40:
            g = random_graph(rng, int(rng.integers(4, 13)), p=rng.uniform(0.3, 0.9))
            if degree_summary(g).d_min <= 0:
                continue
            checked += 1
            for pair in MatrixPair:
                assert pair_differences(pair, g).within_bound
                gd = gap_differences(pair, g)
                assert gd.within_bound
                assert gd.primed_within in (None, True)
