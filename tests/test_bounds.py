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
import inspect
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphspectra import (
    Graph,
    MatrixPair,
    Region,
    RepresentationKind,
    UndefinedRepresentationError,
    apply_transform,
    classify_region,
    degree_summary,
    detect_maximal_crossover,
    gap_differences,
    gen_bipartite_b,
    gen_complete,
    gen_graph_c,
    gen_star,
    load_edge_list,
    normalized_eigengaps,
    pair_bounds,
    pair_differences,
    polynomial_spectrum_map,
    spectrum,
    weyl_check,
)
from graphspectra import bounds, spectra
from graphspectra.bounds import DEFAULT_MERGE_TOL, barycentric_eval
from graphspectra.cli import bound_table_cell
from graphspectra.data import karate_graph
from graphspectra.graphs import DegreeSummary
from graphspectra.spectra import Spectrum

A = RepresentationKind.ADJACENCY
L = RepresentationKind.LAPLACIAN
LRW = RepresentationKind.NORMALIZED_LAPLACIAN
AL, LLRW, ALRW = MatrixPair


def summary(d_min, d_max):
    return DegreeSummary(float(d_min), float(d_max))


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


def generator_family():
    graphs = [gen_star(n) for n in (2, 5, 18)]
    graphs += [gen_complete(k) for k in (2, 3, 7, 18)]
    return graphs + [gen_graph_c(k) for k in (2, 3, 10, 18)]


class TestTransformParams:
    """The shift d = (d_max + d_min)/2 and the scale c = 2/(d_max + d_min), bit for bit."""

    def test_karate_class(self, karate):
        ds = degree_summary(karate)
        mu, lam = spectrum(karate, A), spectrum(karate, L)
        assert np.all(apply_transform(MatrixPair.A_L, ds, mu) + mu.values == 9.0)
        f2 = apply_transform(MatrixPair.L_LRW, ds, lam)
        assert f2.tobytes() == ((2 / 18) * lam.values).tobytes()

    def test_regular(self):
        g = gen_complete(3)
        ds = degree_summary(g)
        mu, lam = spectrum(g, A), spectrum(g, L)
        assert apply_transform(MatrixPair.A_L, ds, mu).tobytes() == (2.0 - mu.values).tobytes()
        assert apply_transform(MatrixPair.L_LRW, ds, lam).tobytes() == (0.5 * lam.values).tobytes()

    def test_path_class(self):
        g = path3()
        ds = degree_summary(g)
        mu, lam = spectrum(g, A), spectrum(g, L)
        assert apply_transform(MatrixPair.A_L, ds, mu).tobytes() == (1.5 - mu.values).tobytes()
        f3 = apply_transform(MatrixPair.A_LRW, ds, mu)
        assert f3.tobytes() == (1.0 - (2 / 3) * mu.values).tobytes()

    def test_degenerate_rejected(self):
        """An edgeless graph has the shift d = 0 but no scale."""
        g = load_edge_list("nodes 3\n")
        ds = degree_summary(g)
        assert np.array_equal(apply_transform(MatrixPair.A_L, ds, spectrum(g, A)), np.zeros(3))
        for pair, kind in ((MatrixPair.L_LRW, L), (MatrixPair.A_LRW, A)):
            with pytest.raises(ValueError, match="d_max \\+ d_min > 0"):
                apply_transform(pair, ds, spectrum(g, kind))

    def test_scale_overflow_rejected(self):
        """Every degree subnormal: 2/(d_max + d_min) overflows, so f2 and f3
        raise rather than map to NaN and inf."""
        g = load_edge_list("nodes 2\n0 1 1e-320\n")
        ds = degree_summary(g)
        for pair, kind in ((MatrixPair.L_LRW, L), (MatrixPair.A_LRW, A)):
            with pytest.raises(ValueError, match="overflows"):
                apply_transform(pair, ds, spectrum(g, kind))


def random_weighted_graph(rng, n, p):
    w = np.zeros((n, n))
    upper = np.triu(rng.random((n, n)) < p, k=1)
    w[upper] = rng.uniform(0.01, 1.0, size=int(upper.sum()))
    return Graph(n=n, weights=w + w.T)


class TestAffineMapsMatchTheirClosedForms:
    """Each map x -> a + b*x gives the bits of d - x, c*x and 1 - c*x, and the
    Weyl report those of its own interval check, on random weighted graphs."""

    def test_random_weighted_graphs(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 200:
            g = random_weighted_graph(rng, int(rng.integers(2, 13)), rng.uniform(0.2, 1.0))
            ds = degree_summary(g)
            if ds.d_max <= 0:
                continue
            checked += 1
            d, c = (ds.d_max + ds.d_min) / 2.0, 2.0 / (ds.d_max + ds.d_min)
            mu, lam = spectrum(g, A), spectrum(g, L)
            for pair, source, expected in ((MatrixPair.A_L, mu, d - mu.values),
                                           (MatrixPair.L_LRW, lam, c * lam.values),
                                           (MatrixPair.A_LRW, mu, 1.0 - c * mu.values)):
                assert apply_transform(pair, ds, source).tobytes() == expected.tobytes()
            differences = (d - mu.values) - lam.values
            lower, upper = d - ds.d_max, d - ds.d_min
            ok = bool(np.all(differences >= lower - bounds.BOUND_SLACK)
                      and np.all(differences <= upper + bounds.BOUND_SLACK))
            report = weyl_check(g)
            assert (_bits(report.lower), _bits(report.upper)) == (_bits(lower), _bits(upper))
            assert report.differences.tobytes() == differences.tobytes()
            assert report.ok == ok
            if ds.d_min > 0:
                for pair in (MatrixPair.L_LRW, MatrixPair.A_LRW):
                    gd = gap_differences(pair, g)
                    source, target = (spectrum(g, kind) for kind in bounds.PAIR_KINDS[pair])
                    raw_source = gd.source_gaps * source.support_length
                    raw_target = gd.target_gaps * target.support_length
                    primed = 0.5 * np.abs(c * raw_source - raw_target)
                    assert gd.primed_diffs.tobytes() == primed.tobytes()


class TestApplyTransform:
    def test_f1_on_k3_recovers_laplacian(self):
        g = gen_complete(3)
        mapped = apply_transform(MatrixPair.A_L, degree_summary(g), spectrum(g, A))
        np.testing.assert_allclose(mapped, spectrum(g, L).values, atol=1e-8)

    def test_f2_on_p3(self):
        g = path3()
        mapped = apply_transform(MatrixPair.L_LRW, degree_summary(g), spectrum(g, L))
        np.testing.assert_allclose(mapped, [0.0, 2 / 3, 2.0], atol=1e-8)
        eta = spectrum(g, LRW).values
        np.testing.assert_allclose(eta - mapped, [0.0, 1 / 3, 0.0], atol=1e-8)

    def test_f3_on_star_matches_eta_in_the_middle(self, star18):
        mapped = apply_transform(MatrixPair.A_LRW, degree_summary(star18), spectrum(star18, A))
        eta = spectrum(star18, LRW).values
        np.testing.assert_allclose(mapped[1:17], np.ones(16), atol=1e-8)
        np.testing.assert_allclose(eta[1:17] - mapped[1:17], np.zeros(16), atol=1e-8)

    def test_kind_mismatch_rejected(self):
        """Each pair rejects every kind but its source kind."""
        g = gen_complete(3)
        ds = degree_summary(g)
        for pair, (source, _) in bounds.PAIR_KINDS.items():
            for kind in set(RepresentationKind) - {source}:
                message = f"pair {pair.value} maps the {source.value} spectrum, got {kind.value}$"
                with pytest.raises(ValueError, match=message):
                    apply_transform(pair, ds, spectrum(g, kind))


class TestEigenvalueBoundSet:
    def test_class_1_17(self):
        b = pair_bounds(summary(1, 17))
        assert b[AL].eigenvalue == 8.0
        assert b[LLRW].eigenvalue == pytest.approx(16 / 9)
        assert b[ALRW].eigenvalue == pytest.approx(8 / 3)
        assert b[ALRW].primed == 2.0  # 17 > 5 * 1

    def test_class_2_4(self):
        b = pair_bounds(summary(2, 4))
        assert (b[AL].eigenvalue, b[ALRW].eigenvalue) == (1.0, 1.0)
        assert b[LLRW].eigenvalue == pytest.approx(2 / 3)
        assert b[ALRW].primed == 1.0  # 4 <= 5 * 2

    def test_regular_all_zero(self):
        for d in (1, 3, 7):
            b = pair_bounds(summary(d, d))
            assert (b[AL].eigenvalue, b[LLRW].eigenvalue, b[ALRW].eigenvalue,
                    b[ALRW].primed) == (0.0, 0.0, 0.0, 0.0)

    def test_isolated_vertex_class(self):
        b = pair_bounds(summary(0, 3))
        assert b[AL].eigenvalue == 1.5
        assert b[LLRW] is None and b[ALRW] is None

    def test_isolation_is_exact_on_fractions(self):
        """Only d_min = 0 drops the Lrw bounds, however small d_min is."""
        zero = pair_bounds(DegreeSummary(Fraction(0), Fraction(3)))
        assert zero[AL].eigenvalue == Fraction(3, 2) and zero[LLRW] is None
        tiny = pair_bounds(DegreeSummary(Fraction(1, 10**13), Fraction(2, 10**13)))
        assert (tiny[LLRW].eigenvalue, tiny[ALRW].eigenvalue) == (Fraction(2, 3), Fraction(1))

    def test_ranges(self):
        for j in range(1, 21):
            for k in range(j, 21):
                b = pair_bounds(summary(j, k))
                assert 0.0 <= b[LLRW].eigenvalue <= 2.0
                assert 0.0 <= b[ALRW].eigenvalue <= 3.0

    def test_prime_vs_plain(self):
        """e' equals e exactly when d_max <= 5 d_min, otherwise e' = 2 < e."""
        for j in range(1, 21):
            for k in range(j, 21):
                b = pair_bounds(summary(j, k))
                assert b[ALRW].primed <= b[ALRW].eigenvalue + 1e-12
                if k <= 5 * j:
                    assert b[ALRW].primed == b[ALRW].eigenvalue
                else:
                    assert b[ALRW].primed == 2.0 < b[ALRW].eigenvalue


class TestGapBoundSet:
    def test_class_1_17(self):
        g = pair_bounds(summary(1, 17))
        assert g[AL].gap == pytest.approx(16 / 34)
        assert g[LLRW].gap == pytest.approx(32 / 17)
        assert g[ALRW].gap == pytest.approx(40 / 17)
        assert g[LLRW].primed == pytest.approx(16 / 9)
        assert g[ALRW].primed == 2.0

    def test_primed_never_larger(self):
        for j in range(1, 21):
            for k in range(j, 21):
                g = pair_bounds(summary(j, k))
                assert g[LLRW].primed <= g[LLRW].gap + 1e-12
                assert g[ALRW].primed <= g[ALRW].gap + 1e-12

    def test_regular_all_zero(self):
        g = pair_bounds(summary(4, 4))
        assert (g[AL].gap, g[LLRW].gap, g[LLRW].primed, g[ALRW].gap, g[ALRW].primed) == (0,) * 5


def _closed_forms(d_min, d_max):
    """Each pair's (e, g, primed) as the paper writes them; None for an Lrw pair when d_min = 0.

    Fraction(5, 2) times a float is 2.5 times it, so one form serves floats and Fractions.
    """
    diff = d_max - d_min
    forms = {AL: (diff / 2, diff / (2 * d_max) if d_max else None, None), LLRW: None, ALRW: None}
    if d_min:
        e_llrw, e_alrw = 2 * diff / (d_max + d_min), 3 * diff / (d_max + d_min)
        forms[LLRW] = (e_llrw, 2 * diff / d_max, e_llrw)
        forms[ALRW] = (e_alrw, Fraction(5, 2) * diff / d_max, e_alrw if d_max <= 5 * d_min else 2)
    return forms


def _as_tuples(bounds):
    return {pair: None if b is None else (b.eigenvalue, b.gap, b.primed) for pair, b in bounds.items()}


def _float_bits(values):
    """Each float as its hex string, so that equality is bit for bit; None stays None."""
    return None if values is None else tuple(None if v is None else float(v).hex() for v in values)


# Degree extremes: 0, subnormal and normal floats, and exact rationals.
_FLOAT_DEGREES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0**-1022),
                           st.floats(min_value=0.0, max_value=1e300))
_FRACTION_DEGREES = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


class TestPairBoundsClosedForms:
    """pair_bounds equals the paper's closed forms, bit for bit on floats and
    exactly on Fractions, with the None pattern and the primed bounds of the
    paper, and is invariant under scaling the extremes by a power of two."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_FLOAT_DEGREES, min_size=2, max_size=2))
    @example([0.0, 0.0])
    @example([5e-324, 5e-324 * 7])
    @example([1.0000000000000002e-308, 1e-308])
    @example([0.1, 0.5])  # d_max = 5 d_min as floats: e' = e(A,Lrw)
    def test_float_extremes(self, extremes):
        d_min, d_max = sorted(extremes)
        got = _as_tuples(pair_bounds(DegreeSummary(d_min, d_max)))
        want = _closed_forms(d_min, d_max)
        assert {p: _float_bits(v) for p, v in got.items()} == {p: _float_bits(v) for p, v in want.items()}
        self._assert_shape(got, d_min, d_max)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(_FRACTION_DEGREES, min_size=2, max_size=2))
    @example([Fraction(0), Fraction(0)])
    @example([Fraction(5, 7), Fraction(12, 7)])
    def test_fraction_extremes(self, extremes):
        d_min, d_max = sorted(extremes)
        got = _as_tuples(pair_bounds(DegreeSummary(d_min, d_max)))
        assert got == _closed_forms(d_min, d_max)
        for values in got.values():  # exact: no value fell back to a float, but the constant e' = 2
            for v in values or ():
                assert v is None or isinstance(v, Fraction) or v == 2
        self._assert_shape(got, d_min, d_max)

    def test_equal_summaries_keep_their_own_bound_types(self):
        """Float and Fraction summaries of equal extremes compare and hash alike, so
        a cache keyed on the summary would hand float bounds to the exact rendering
        of `bounds` and `table`. Bounds of the float summary, computed first, leave
        the Fraction summary's bounds exact and the rendered cell unchanged."""
        floats, exact = DegreeSummary(1.0, 3.0), DegreeSummary(Fraction(1), Fraction(3))
        assert floats == exact and hash(floats) == hash(exact)
        for b in pair_bounds(floats).values():
            assert all(type(v) is float for v in (b.eigenvalue, b.gap, b.primed) if v is not None)
        for b in pair_bounds(exact).values():
            assert all(type(v) is Fraction for v in (b.eigenvalue, b.gap, b.primed) if v is not None)
        assert _as_tuples(pair_bounds(exact)) == _closed_forms(Fraction(1), Fraction(3))
        assert bound_table_cell(1, 3) == "(1, 1, 1.5)"

    @staticmethod
    def _assert_shape(got, d_min, d_max):
        assert (got[AL][1] is None) == (d_max == 0) and got[AL][2] is None
        assert (got[LLRW] is None) == (got[ALRW] is None) == (d_min == 0)
        if d_min:
            assert got[LLRW][2] is got[LLRW][0]  # g'(L,Lrw) is e(L,Lrw), the same value
            assert got[ALRW][2] == (got[ALRW][0] if d_max <= 5 * d_min else 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=2.0**-900, max_value=1e300)),
                    min_size=2, max_size=2),
           st.integers(min_value=1, max_value=120))
    def test_power_of_two_scaling(self, extremes, k):
        """s = 2^-k scales e(A,L) by s exactly and leaves every ratio and e' bit-identical,
        while every nonzero extreme, difference and half-difference stays normal."""
        d_min, d_max = sorted(extremes)
        scaled = [math.ldexp(d, -k) for d in (d_min, d_max, (d_max - d_min) / 2)]
        assume(all(v == 0.0 or v >= sys.float_info.min for v in scaled))
        before = _as_tuples(pair_bounds(DegreeSummary(d_min, d_max)))
        after = _as_tuples(pair_bounds(DegreeSummary(scaled[0], scaled[1])))
        assert after[AL][0] == math.ldexp(before[AL][0], -k)
        before[AL] = before[AL][1:]
        after[AL] = after[AL][1:]
        assert {p: _float_bits(v) for p, v in after.items()} == {p: _float_bits(v) for p, v in before.items()}


class TestClassifyRegion:
    def test_named_examples(self):
        assert classify_region(summary(1, 2)) is Region.BOLD
        assert classify_region(summary(1, 3)) is Region.UNDERLINED
        assert classify_region(summary(2, 3)) is Region.TELETYPE
        assert classify_region(summary(2, 4)) is Region.ITALIC
        assert classify_region(summary(1, 17)) is Region.NORMAL
        assert classify_region(summary(3, 3)) is Region.REGULAR

    def test_bold_ordering_values(self):
        b = pair_bounds(summary(1, 2))
        assert b[AL].eigenvalue < b[LLRW].eigenvalue < b[ALRW].eigenvalue
        assert (b[AL].eigenvalue, b[ALRW].eigenvalue) == (0.5, 1.0)
        assert b[LLRW].eigenvalue == pytest.approx(2 / 3)

    def test_underlined_equality(self):
        b = pair_bounds(summary(1, 3))
        assert b[AL].eigenvalue == b[LLRW].eigenvalue == 1.0
        assert b[ALRW].eigenvalue == 1.5

    def test_ordering_matches_computed_bounds(self):
        """The predicted ordering string must hold for the actual bound values."""
        for j in range(1, 21):
            for k in range(j, 21):
                region = classify_region(summary(j, k))
                b = pair_bounds(summary(j, k))
                if region is Region.REGULAR:
                    assert b[AL].eigenvalue == b[LLRW].eigenvalue == b[ALRW].eigenvalue == 0.0
                elif region is Region.BOLD:
                    assert b[AL].eigenvalue < b[LLRW].eigenvalue < b[ALRW].eigenvalue
                elif region is Region.UNDERLINED:
                    assert b[AL].eigenvalue == pytest.approx(b[LLRW].eigenvalue)
                    assert b[LLRW].eigenvalue < b[ALRW].eigenvalue
                elif region is Region.TELETYPE:
                    assert b[LLRW].eigenvalue < b[AL].eigenvalue < b[ALRW].eigenvalue
                elif region is Region.ITALIC:
                    assert b[LLRW].eigenvalue < b[AL].eigenvalue
                    assert b[AL].eigenvalue == pytest.approx(b[ALRW].eigenvalue)
                else:
                    assert b[LLRW].eigenvalue < b[ALRW].eigenvalue < b[AL].eigenvalue

    def test_table_monotone_in_rows_and_columns(self):
        """Bounds shrink along rows (growing d_min) and grow down columns."""
        for k in range(1, 21):
            for j in range(1, k):
                wide, narrow = pair_bounds(summary(j, k)), pair_bounds(summary(j + 1, k))
                assert narrow[AL].eigenvalue <= wide[AL].eigenvalue
                assert narrow[LLRW].eigenvalue <= wide[LLRW].eigenvalue + 1e-12
                assert narrow[ALRW].eigenvalue <= wide[ALRW].eigenvalue + 1e-12
        for j in range(1, 20):
            for k in range(j, 20):
                low, high = pair_bounds(summary(j, k)), pair_bounds(summary(j, k + 1))
                assert low[AL].eigenvalue <= high[AL].eigenvalue
                assert low[LLRW].eigenvalue <= high[LLRW].eigenvalue + 1e-12
                assert low[ALRW].eigenvalue <= high[ALRW].eigenvalue + 1e-12


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


class TestFactsComputedOnce:
    """Eigengaps and pair bounds are evaluated only while a graph's pair
    records are first built: once per gap record for each of its two
    spectra, and once per record for the bounds."""

    @staticmethod
    def _analyse(g):
        """The bound checks of the analyze_random benchmark's op."""
        weyl_check(g)
        for pair in MatrixPair:
            d = pair_differences(pair, g)
            detect_maximal_crossover(d.deltas, d.bound)
            gap_differences(pair, g)

    def test_evaluations_per_analysis(self):
        rng = np.random.default_rng(21)
        g, h = random_graph(rng, 32), random_graph(rng, 32)
        assert degree_summary(g).d_min > 0 and degree_summary(h).d_min > 0
        with mock.patch.object(bounds, "normalized_eigengaps", wraps=normalized_eigengaps) as gaps, \
                mock.patch.object(bounds, "pair_bounds", wraps=pair_bounds) as pb:
            self._analyse(g)
            assert (gaps.call_count, pb.call_count) == (6, 6)
            self._analyse(g)  # a second analysis of the same graph evaluates neither again
            assert (gaps.call_count, pb.call_count) == (6, 6)
            self._analyse(h)  # another graph builds its own records
            assert (gaps.call_count, pb.call_count) == (12, 12)

    def test_memoised_gaps_are_the_computed_ones(self, karate):
        """Each gap record keeps, read-only, the gaps its two spectra give; each
        call of normalized_eigengaps computes them anew, into a new array."""
        for pair in MatrixPair:
            gd = gap_differences(pair, karate)
            for kept, kind in zip((gd.source_gaps, gd.target_gaps), bounds.PAIR_KINDS[pair]):
                spec = spectrum(karate, kind)
                gaps = normalized_eigengaps(spec)
                assert gaps is not normalized_eigengaps(spec) and gaps.flags.writeable
                assert kept.tobytes() == gaps.tobytes()
                assert gaps.tobytes() == (np.abs(np.diff(spec.values)) / spec.support_length).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    kept[0] = 1.0


def _record_bits(record):
    """Each field of a pair record, arrays and floats as their bytes."""
    values = (getattr(record, f.name) for f in dataclasses.fields(record))
    return tuple(v if isinstance(v, MatrixPair) else _bits(v) for v in values)


def _record_or_message(build, pair, g):
    try:
        return _record_bits(build(pair, g))
    except ValueError as exc:
        return type(exc), str(exc)


RECORD_BUILDERS = (pair_differences, gap_differences)


def _kept_records(g):
    """The pair records in the graph's memo, by their memo keys."""
    builders = (bounds._pair_differences, bounds._gap_differences)
    return {key: value for key, value in g._memo.items() if key[0] in builders}


NAMED_GRAPHS = {
    "karate": karate_graph,
    "c18": lambda: gen_graph_c(18),
    "star18": lambda: gen_star(18),
    "bipartiteb": gen_bipartite_b,
    "c4w": lambda: load_edge_list("nodes 4\n0 1 0.5\n1 2 1\n2 3 0.25\n3 0 0.75\n"),
}


class TestPairRecordMemo:
    """Each pair's difference and gap records are computed once per graph and
    kept read-only on it; a call that raises keeps nothing."""

    @pytest.mark.parametrize("build", RECORD_BUILDERS)
    def test_repeat_call_returns_the_same_record(self, build):
        g = karate_graph()
        for pair in MatrixPair:
            assert build(pair, g) is build(pair, g)
        assert len(_kept_records(g)) == len(MatrixPair)

    @pytest.mark.parametrize("build", RECORD_BUILDERS)
    def test_arrays_are_read_only(self, build):
        g = karate_graph()
        for pair in MatrixPair:
            record = build(pair, g)
            for f in dataclasses.fields(record):
                value = getattr(record, f.name)
                if isinstance(value, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        value[0] = 1.0

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_memo_hits_match_a_fresh_graph(self, name):
        make = NAMED_GRAPHS[name]
        g = make()
        for build in RECORD_BUILDERS:
            for pair in MatrixPair:
                build(pair, g)
                assert _record_bits(build(pair, g)) == _record_bits(build(pair, make())), (build, pair)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=12),
           st.floats(min_value=0.2, max_value=1.0))
    def test_memo_hits_match_a_fresh_weighted_graph(self, seed, n, p):
        make = lambda: random_weighted_graph(np.random.default_rng(seed), n, p)  # noqa: E731
        g = make()
        for build in RECORD_BUILDERS:
            for pair in MatrixPair:
                first = _record_or_message(build, pair, g)
                assert _record_or_message(build, pair, g) == first
                assert _record_or_message(build, pair, make()) == first

    @pytest.mark.parametrize("text, build, pairs, message", [
        ("nodes 3\n", gap_differences, [AL], "gap bounds need d_max > 0"),
        ("nodes 3\n0 1 0.5\n", pair_differences, [LLRW, ALRW], "undefined for d_min = 0"),
        ("nodes 3\n0 1 0.5\n", gap_differences, [LLRW, ALRW], "undefined for d_min = 0"),
        ("nodes 2\n0 1 1e-320\n", pair_differences, [LLRW, ALRW], "2/\\(d_max \\+ d_min\\) overflows"),
        ("nodes 2\n0 1 1e-320\n", gap_differences, [LLRW, ALRW], "2/\\(d_max \\+ d_min\\) overflows"),
    ], ids=["edgeless-gaps", "isolated", "isolated-gaps", "subnormal", "subnormal-gaps"])
    def test_failures_are_not_memoised(self, text, build, pairs, message):
        g = load_edge_list(text)
        for pair in pairs:
            raised = []
            for _ in range(2):
                with pytest.raises(ValueError, match=message) as excinfo:
                    build(pair, g)
                raised.append((type(excinfo.value), str(excinfo.value)))
            assert raised[0] == raised[1]
        assert _kept_records(g) == {}

    def test_hits_survive_rebinding_the_public_functions(self, monkeypatch):
        """A warm graph still hits its memo after its public functions are
        wrapped wherever they are bound, as a tracer wraps them: no solve runs
        again, no bound is evaluated again, and every record is the object
        computed before the wrapping."""
        g = karate_graph()
        ds = degree_summary(g)
        warm = {(build, pair): build(pair, g) for build in RECORD_BUILDERS for pair in MatrixPair}
        warm_bounds = pair_bounds(ds)
        calls = []

        def wrap(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        originals = {fn: wrap(fn) for fn in (spectra.spectrum, bounds.pair_differences,
                                             bounds.gap_differences, bounds.pair_bounds)}
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "graphspectra"]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    monkeypatch.setattr(module, attr, originals[value])
        with mock.patch.object(spectra, "_solve", wraps=spectra._solve) as solve:
            for (build, pair), record in warm.items():
                assert getattr(bounds, build.__name__)(pair, g) is record, (build, pair)
            for kind in RepresentationKind:
                bounds.spectrum(g, kind)
        assert solve.call_count == 0
        assert set(calls) == {"spectrum", "pair_differences", "gap_differences"}
        assert bounds.pair_bounds(ds) == warm_bounds

    def test_weyl_check_reads_the_memoised_a_l_record(self):
        g = karate_graph()
        a_l = pair_differences(AL, g)
        with mock.patch.object(bounds, "apply_transform", wraps=bounds.apply_transform) as mapped:
            report = weyl_check(g)
        assert mapped.call_count == 0
        assert report.differences.tobytes() == (a_l.transformed - a_l.target).tobytes()


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

    def test_repeats_the_a_l_bound(self, karate):
        """[d - d_max, d - d_min] is [-e(A,L), e(A,L)] and the differences are
        transformed - target of the A_L pair, so ok is that pair's within_bound."""
        for g in generator_family() + [karate]:
            report, d = weyl_check(g), pair_differences(MatrixPair.A_L, g)
            assert (report.lower, report.upper) == (-d.bound, d.bound)
            assert report.differences.tobytes() == (d.transformed - d.target).tobytes()
            assert report.ok == d.within_bound


class TestPolynomialSpectrumMap:
    def test_k3_degree_one_map(self):
        """Regular graph: p(mu) = 2 - mu maps A values onto L values exactly."""
        g = gen_complete(3)
        src, dst = spectrum(g, A), spectrum(g, L)
        report = polynomial_spectrum_map(src, dst, merge_tol=1e-10)
        assert not report.unstable
        assert report.max_residual < 1e-9
        assert len(report.nodes) == 2
        xs = np.array([-3.0, 0.0, 5.0])
        np.testing.assert_allclose(_interpolant(report, src, dst, xs), 2.0 - xs, atol=1e-9)

    def test_karate_is_unstable(self, karate):
        """Ten near-identical adjacency eigenvalues map onto a wide Laplacian stretch."""
        report = polynomial_spectrum_map(spectrum(karate, A), spectrum(karate, L),
                                         merge_tol=1e-12)
        assert report.unstable
        assert report.min_input_gap < 1e-12
        assert report.output_span_over_degenerate_inputs > 2.0
        assert report.nodes is report.weights is report.lebesgue_constant is None

    def test_karate_a_lrw_is_ill_conditioned(self, karate):
        """25 nodes fit without merging trouble, but Lambda * eps * max|y| is far
        above the merge tolerance: the map is unstable with its weights reported."""
        report = polynomial_spectrum_map(spectrum(karate, A), spectrum(karate, LRW))
        assert report.unstable
        assert len(report.nodes) == len(report.weights) == 25
        assert report.lebesgue_constant > 1e13
        assert report.max_residual is None

    def test_identity_map(self):
        s = spectrum(path3(), L)
        report = polynomial_spectrum_map(s, s, merge_tol=1e-10)
        assert not report.unstable
        assert report.max_residual <= 1e-12
        xs = np.array([0.25, 2.0])
        np.testing.assert_allclose(_interpolant(report, s, s, xs), xs, atol=1e-12)

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
        assert report.lebesgue_constant == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            polynomial_spectrum_map(spectrum(path3(), L), spectrum(gen_complete(4), L))


def _spec(values):
    """A Spectrum holding arbitrary values; only ``values`` matters to the map."""
    return Spectrum(kind=L, values=np.asarray(values, dtype=float), support=(0.0, 1.0))


def _interpolant(report, src, dst, t):
    """The fitted map at t: the target value at each node is the first of its cluster."""
    order = np.argsort(src.values, kind="stable")
    x, y = src.values[order], dst.values[order]
    values = y[np.searchsorted(x, report.nodes)]
    return barycentric_eval(report.nodes, report.weights, values, np.asarray(t, dtype=float))


def _lagrange_basis(nodes, t):
    """l_j(t) = prod_{k != j} (t - x_k) / (x_j - x_k), the textbook products."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (t - nodes) / (nodes[:, None] - nodes)
    np.fill_diagonal(ratios, 1.0)
    return ratios.prod(axis=1)


def _reference_newton_eval(nodes, coefficients, t):
    """p(t) = sum_k c_k prod_{i<k} (t - x_i), by Horner's rule one float at a time."""
    t = np.asarray(t, dtype=float)
    out = []
    for ti in t.reshape(-1).tolist():
        acc = float(coefficients[-1])
        for xk, ck in zip(nodes[-2::-1].tolist(), coefficients[-2::-1].tolist()):
            acc = acc * (ti - xk) + ck
        out.append(acc)
    return np.array(out).reshape(t.shape)


def _reference_polymap(src, dst, merge_tol):
    """The map as the textbook loops compute it: merge loop, weights as products
    of signs and fsums of logs, Lagrange basis products at the midpoints for
    Lambda and at every source value for the residual."""
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
    ref = dict(min_input_gap=min_input_gap, output_span_over_degenerate_inputs=worst_span,
               nodes=None, weights=None, lebesgue_constant=None)
    if worst_span > merge_tol:
        return ref
    nodes = np.array([x[lo] for lo, _ in clusters])
    targets = np.array([y[lo] for lo, _ in clusters])
    logs, signs = [], []
    for j, xj in enumerate(nodes.tolist()):
        others = [xj - xk for k, xk in enumerate(nodes.tolist()) if k != j]
        logs.append(-math.fsum(math.log(abs(d)) for d in others))
        signs.append(-1.0 if sum(d < 0 for d in others) % 2 else 1.0)
    weights = np.array(signs) * np.exp(np.array(logs) - max(logs))
    mids = nodes[:-1] + np.diff(nodes) / 2.0
    lebesgue = max([1.0] + [float(np.abs(_lagrange_basis(nodes, t)).sum()) for t in mids])
    residual = max(abs(float(_lagrange_basis(nodes, xi) @ targets) - yi) for xi, yi in zip(x, y))
    ref.update(nodes=nodes, weights=weights, lebesgue_constant=lebesgue, max_residual=residual,
               max_abs_y=float(np.abs(y).max()))
    return ref


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


EPS = np.finfo(float).eps


def _assert_polymap_matches_reference(x, y, merge_tol):
    """The merge fields bit for bit; the fit within the rounding each formula allows.

    Lambda is compared where it is below 1e6, when rounding moves the
    barycentric estimate by about eps * Lambda; above that both are only
    large. The rule Lambda * eps * max|y| > merge_tol must agree unless the
    reference sits within 1% of the threshold. Both residuals carry a
    forward error of at most about (3m + 4) eps Lambda max|y|, which on a
    stable map is (3m + 4) merge_tol.
    """
    src, dst = _spec(x), _spec(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the map itself must not warn
        report = polynomial_spectrum_map(src, dst, merge_tol=merge_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference products may overflow
        ref = _reference_polymap(src, dst, merge_tol)
    for name in ("min_input_gap", "output_span_over_degenerate_inputs", "nodes"):
        assert _bits(getattr(report, name)) == _bits(ref[name]), name
    if ref["nodes"] is None:
        assert report.unstable
        assert report.weights is report.lebesgue_constant is report.max_residual is None
        return
    np.testing.assert_allclose(report.weights, ref["weights"], rtol=1e-9, atol=0.0)
    assert np.abs(report.weights).max() == 1.0
    lam, ref_lam = report.lebesgue_constant, ref["lebesgue_constant"]
    assert lam >= 1.0
    if ref_lam < 1e6:
        assert lam == pytest.approx(ref_lam, rel=1e-6)
        rule = ref_lam * EPS * ref["max_abs_y"]
        if not merge_tol * 0.99 <= rule <= merge_tol * 1.01:
            assert report.unstable == (not rule <= merge_tol)
    else:
        assert lam > 1e5
    if report.unstable:
        assert report.max_residual is None
    else:
        assert math.isfinite(report.max_residual)
        m = len(report.nodes)
        assert abs(report.max_residual - ref["max_residual"]) <= 2 * (3 * m + 4) * merge_tol


@st.composite
def spectrum_pairs(draw):
    """(x, y, merge_tol), shuffled. Values are spread; repeat exactly, so nodes
    merge, with targets that agree or not; sit within a few merge tolerances of
    each other; or lie evenly and close together under alternating targets of
    any size, where divided differences overflow and Lambda is huge."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(1, 49))
    shape = draw(st.sampled_from(["spread", "repeats", "near", "clustered"]))
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
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0, 200)
    order = rng.permutation(n)
    merge_tol = draw(st.sampled_from([0.0, DEFAULT_MERGE_TOL, 1e-6, 0.5, 1e300]))
    return x[order], y[order], merge_tol


# A residual over at most WIDTH source values fits one block of WIDTH**2 table values.
WIDTH = 20


class TestPolymapMatchesReference:
    """The merged nodes match the textbook merge loop bit for bit, and the
    weights, Lambda estimate, stability rule and residual match the textbook
    product formulas kept above within rounding."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(spectrum_pairs())
    @example((np.array([0.5]), np.array([2.0]), DEFAULT_MERGE_TOL))
    @example((np.array([1.0, 0.0]), np.array([3.0, -1.0]), 0.0))
    # Exact repeats merge at merge_tol 0; a near repeat merges only under a large one.
    @example((np.array([1.0, 1.0, 2.0, 2.0 + 1e-9]), np.array([5.0, 5.0, 7.0, 7.0]), 0.0))
    @example((np.array([1.0, 1.0, 2.0, 2.0 + 1e-9]), np.array([5.0, 6.0, 7.0, 7.0]), 1e300))
    # A NaN target in a merged cluster spans NaN, which counts as no span.
    @example((np.array([1.0, 1.0, 2.0]), np.array([math.nan, 1.0, 3.0]), 1e-6))
    # Nodes one float apart: the midpoint rounds onto a node.
    @example((np.array([1.0, np.nextafter(1.0, 2.0), 3.0]), np.array([0.0, 1.0, 2.0]), 0.0))
    # A merged value a subnormal distance from its node: no term overflows.
    @example((np.array([0.0, 5e-324, 1e-310]), np.array([1.0, 1.0, 1.0]), 1e-12))
    # Divided differences overflow here; the weights stay finite and Lambda is huge.
    @example((np.arange(60) * 1e-8, (-1.0) ** (np.arange(60) // 2), DEFAULT_MERGE_TOL))
    def test_every_field_against_the_reference(self, case):
        _assert_polymap_matches_reference(*case)

    @pytest.mark.parametrize("n", [WIDTH, WIDTH + 1, WIDTH + 2, 3 * WIDTH])
    def test_widths_around_the_switch(self, n):
        """With blocks of WIDTH**2 table values the residual takes one block up
        to WIDTH source values and several above. Jittered Chebyshev nodes keep
        Lambda small, so the map is stable and its residual is evaluated: it
        matches the reference, and the one-block residual bit for bit."""
        rng = np.random.default_rng(n)
        x = 2.0 * np.cos(np.pi * (np.arange(n) + rng.uniform(0.3, 0.7, n)) / n)
        y = rng.uniform(0, 4, n)
        with mock.patch.object(bounds, "_EVAL_BLOCK", WIDTH * WIDTH):
            _assert_polymap_matches_reference(x, y, DEFAULT_MERGE_TOL)
            blocked = polynomial_spectrum_map(_spec(x), _spec(y))
        assert not blocked.unstable
        assert blocked.max_residual == polynomial_spectrum_map(_spec(x), _spec(y)).max_residual

    def test_spectra_of_named_graphs(self, karate, star18, bipartite_b, graph_c18):
        for g in (karate, star18, bipartite_b, graph_c18, path3(), gen_complete(5)):
            for source, target in bounds.PAIR_KINDS.values():
                for merge_tol in (0.0, DEFAULT_MERGE_TOL, 1e-6):
                    _assert_polymap_matches_reference(spectrum(g, source).values,
                                                      spectrum(g, target).values, merge_tol)

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("m", [1, 2, 9])
    @pytest.mark.parametrize("block", [bounds._EVAL_BLOCK, 1, 7])
    def test_newton_eval_on_any_shape(self, shape, m, block):
        """barycentric_eval against Horner's rule on the Newton form of the same
        polynomial, at t of any shape, in one block of rows or several. The
        shape is kept, every blocking gives the same bits, a node gives its
        value exactly, and elsewhere the two forms agree within the forward
        error (3m + 4) eps Lambda max|y| of the barycentric formula, doubled."""
        rng = np.random.default_rng(m)
        nodes, coefficients = np.sort(rng.uniform(-2, 2, m)), rng.uniform(-1, 1, m)
        values = _reference_newton_eval(nodes, coefficients, nodes)
        at_node, which = rng.random(shape) < 0.25, rng.integers(m, size=shape)
        t = np.where(at_node, nodes[which], rng.uniform(nodes[0], nodes[-1], shape))
        report = polynomial_spectrum_map(_spec(nodes), _spec(values), merge_tol=0.0)
        with mock.patch.object(bounds, "_EVAL_BLOCK", block):
            got = barycentric_eval(nodes, report.weights, values, t)
        assert got.shape == np.shape(t)
        assert got.tobytes() == barycentric_eval(nodes, report.weights, values, t).tobytes()
        assert np.array_equal(got[at_node], values[which][at_node])
        error = np.abs(got - _reference_newton_eval(nodes, coefficients, t)).max(initial=0.0)
        assert error <= 2 * (3 * m + 4) * EPS * report.lebesgue_constant * np.abs(values).max()


class TestPolymapOverflow:
    """Inputs on which a Newton-form fit overflows: the barycentric fit stays
    finite, warns of nothing and reports the conditioning as unstable."""

    @staticmethod
    def _fit(x, y, merge_tol=DEFAULT_MERGE_TOL):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = polynomial_spectrum_map(_spec(x), _spec(y), merge_tol=merge_tol)
        assert report.unstable
        assert np.all(np.isfinite(report.weights)) and np.abs(report.weights).max() == 1.0
        assert report.max_residual is None
        return report

    def test_clustered_nodes_have_finite_weights(self):
        """60 nodes 1e-8 apart: the divided differences overflow to inf, then NaN."""
        report = self._fit(np.arange(60) * 1e-8, (-1.0) ** (np.arange(60) // 2))
        assert report.lebesgue_constant > 1e12

    def test_targets_near_the_largest_float(self):
        """12 unit-spaced nodes are well conditioned, but eps * max|y| is about 1e290."""
        x = np.arange(12.0)
        report = self._fit(x, np.where(np.arange(12) % 2 == 0, 1e306, -1e306))
        assert 1.0 < report.lebesgue_constant < 1e3

    def test_long_path(self):
        """The 700-vertex path's A -> L map, every eigenvalue a node. Its nodes
        2 cos(k pi / 701) are Chebyshev-like, so Lambda is small: unstable only
        under a zero merge tolerance, and exact at every node under the default."""
        g = load_edge_list("nodes 700\n" + "".join(f"{i} {i + 1}\n" for i in range(699)))
        src, dst = spectrum(g, A), spectrum(g, L)
        report = self._fit(src.values, dst.values, merge_tol=0.0)
        assert len(report.nodes) == 700
        assert 1.0 < report.lebesgue_constant < 1e3
        stable = polynomial_spectrum_map(src, dst)
        assert not stable.unstable and stable.max_residual == 0.0


class TestPolymapPerturbation:
    """The reported fields do not move when the spectra move by rounding."""

    def test_relative_perturbation_of_1e_15(self, karate, graph_c18, bipartite_b, star18):
        """Each spectrum is scaled by (1 + 1e-15 z), z standard normal. A stable
        map's residual is itself rounding, a few eps * max|y|, so its move is
        measured against max|y|."""
        rng = np.random.default_rng(2017)
        for g in (karate, graph_c18, bipartite_b, star18):
            for source, target in bounds.PAIR_KINDS.values():
                src, dst = spectrum(g, source), spectrum(g, target)
                report = polynomial_spectrum_map(src, dst)
                moved = polynomial_spectrum_map(
                    *(_spec(s.values * (1.0 + 1e-15 * rng.standard_normal(s.n))) for s in (src, dst)))
                assert moved.unstable == report.unstable
                if not report.unstable:
                    assert moved.lebesgue_constant == pytest.approx(report.lebesgue_constant,
                                                                    rel=1e-6)
                    scale = np.abs(dst.values).max()
                    assert abs(moved.max_residual - report.max_residual) < 1e-6 * scale


def _distinct(values):
    values = np.sort(values)
    return values[np.concatenate(([True], np.diff(values) > 1e-9))]


class TestBarycentricAgainstScipy:
    """scipy.interpolate.BarycentricInterpolator is the oracle for the weights,
    the interpolant off the nodes and, on a grid, the Lebesgue constant."""

    @pytest.fixture
    def node_sets(self, bipartite_b, graph_c18, star18):
        """The distinct eigenvalues of each kind of three named graphs, and
        random nodes at least 0.5 apart."""
        sets = {f"{name} {kind.value}": _distinct(spectrum(g, kind).values)
                for name, g in (("bipartiteb", bipartite_b), ("C(18)", graph_c18),
                                ("star(18)", star18))
                for kind in RepresentationKind}
        rng = np.random.default_rng(11)
        for m in (4, 9, 16):
            sets[f"random {m}"] = np.cumsum(rng.uniform(0.5, 1.5, m)) - 0.5 * m
        return sets

    def test_weights_and_interpolant(self, node_sets):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(5)
        for name, nodes in node_sets.items():
            values = np.cos(nodes) + rng.uniform(-1, 1, len(nodes))
            report = polynomial_spectrum_map(_spec(nodes), _spec(values), merge_tol=0.0)
            oracle = interpolate.BarycentricInterpolator(nodes, values)
            k = int(np.argmax(np.abs(oracle.wi)))
            np.testing.assert_allclose(report.weights, oracle.wi * (report.weights[k] / oracle.wi[k]),
                                       rtol=1e-12, atol=0.0, err_msg=name)
            t = np.linspace(nodes[0] - 0.5, nodes[-1] + 0.5, 1001)
            t = t[np.abs(t[:, None] - nodes).min(axis=1) > 1e-6]
            np.testing.assert_allclose(barycentric_eval(nodes, report.weights, values, t), oracle(t),
                                       rtol=1e-9, atol=1e-9 * np.abs(values).max(), err_msg=name)

    def test_midpoint_lebesgue_estimate_against_a_grid(self, node_sets):
        """The midpoint estimate is a lower bound of the same kind as a grid
        maximum: at most the grid's (up to the grid missing the midpoints by
        a hair), and within a factor 2 of it while Lambda < 1e6."""
        interpolate = pytest.importorskip("scipy.interpolate")
        for name, nodes in node_sets.items():
            report = polynomial_spectrum_map(_spec(nodes), _spec(np.zeros(len(nodes))))
            grid = np.linspace(nodes[0], nodes[-1], 20001)
            basis = interpolate.BarycentricInterpolator(nodes, np.eye(len(nodes)))
            reference = np.abs(basis(grid)).sum(axis=1).max()
            assert report.lebesgue_constant <= reference * (1 + 1e-6), name
            if reference < 1e6:
                assert report.lebesgue_constant >= reference / 2, name


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
            ds = degree_summary(g)
            for pair, (kind, _) in bounds.PAIR_KINDS.items():
                mapped = apply_transform(pair, ds, spectrum(g, kind))
                assert np.all(mapped[1:] >= mapped[:-1] - 1e-12)

    def test_normalized_eigengap_preservation(self, karate, bipartite_b):
        """Gaps over the mapped support equal gaps over the source support to 1e-12."""
        for g in (karate, bipartite_b):
            ds = degree_summary(g)
            c = 2.0 / (ds.d_max + ds.d_min)
            for pair, (kind, _) in bounds.PAIR_KINDS.items():
                spec = spectrum(g, kind)
                mapped = apply_transform(pair, ds, spec)
                # x -> a + b*x stretches the support by |b|: 1 for f1, c for f2 and f3.
                scale = 1.0 if pair is MatrixPair.A_L else c
                mapped_gaps = (mapped[1:] - mapped[:-1]) / (scale * spec.support_length)
                source_gaps = normalized_eigengaps(spec)
                assert np.abs(mapped_gaps - source_gaps).max() <= 1e-12

    def test_bounds_hold_on_generator_family(self):
        for g in generator_family():
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
