"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from graphspectra import (
    Graph,
    MatrixPair,
    Region,
    RepresentationKind,
    apply_transform,
    build_matrix,
    classify_region,
    cluster,
    compare_clusterings,
    connected_components,
    degree_summary,
    detect_maximal_crossover,
    eigenvalue_bound_set,
    gap_bound_set,
    gap_differences,
    gen_complete,
    gen_graph_c,
    is_d_regular,
    mapped_support,
    normalized_eigengaps,
    pair_differences,
    polynomial_spectrum_map,
    spectrum,
    transform_params,
    weyl_check,
)
from graphspectra.bounds import Transform
from graphspectra.cli import bound_table_cell
from graphspectra.clustering import ClusteringResult
from graphspectra.graphs import DegreeSummary

A = RepresentationKind.ADJACENCY
L = RepresentationKind.LAPLACIAN
LRW = RepresentationKind.NORMALIZED_LAPLACIAN


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            try:
                fn(self, *args, **kwargs)
            except BaseException:
                print(f"criterion {label}: FAIL")
                raise
            print(f"criterion {label}: PASS")

        return run

    return wrap


def summary(d_min, d_max):
    return DegreeSummary(degrees=np.array([float(d_min), float(d_max)]),
                         d_min=float(d_min), d_max=float(d_max))


class TestAcceptance:
    @criterion("01 karate bounds (8.00, 1.78, 2.67), region normal")
    def test_karate_bounds(self, karate):
        ds = degree_summary(karate)
        bounds = eigenvalue_bound_set(ds)
        assert abs(bounds.e_al - 8.00) <= 0.005
        assert abs(bounds.e_llrw - 1.78) <= 0.005
        assert abs(bounds.e_alrw - 2.67) <= 0.005
        assert classify_region(ds).region is Region.NORMAL

    @criterion("02 bound table reproduces every printed cell")
    def test_bound_table(self):
        expected = {
            (0, 1): "(0.5, ·, ·)", (1, 1): "(0, 0, 0)",
            (0, 2): "(1, ·, ·)", (1, 2): "(0.5, 0.67, 1)", (2, 2): "(0, 0, 0)",
            (0, 3): "(1.5, ·, ·)", (1, 3): "(1, 1, 1.5)", (2, 3): "(0.5, 0.4, 0.6)",
            (3, 3): "(0, 0, 0)",
            (0, 4): "(2, ·, ·)", (1, 4): "(1.5, 1.2, 1.8)", (2, 4): "(1, 0.67, 1)",
            (3, 4): "(0.5, 0.29, 0.43)", (4, 4): "(0, 0, 0)",
            (0, 5): "(2.5, ·, ·)", (1, 5): "(2, 1.33, 2)", (2, 5): "(1.5, 0.86, 1.29)",
            (3, 5): "(1, 0.5, 0.75)", (4, 5): "(0.5, 0.22, 0.33)", (5, 5): "(0, 0, 0)",
            (0, 6): "(3, ·, ·)", (1, 6): "(2.5, 1.43, 2.14)", (2, 6): "(2, 1, 1.5)",
            (3, 6): "(1.5, 0.67, 1)", (4, 6): "(1, 0.4, 0.6)", (5, 6): "(0.5, 0.18, 0.27)",
            (0, 7): "(3.5, ·, ·)", (1, 7): "(3, 1.5, 2.25)", (2, 7): "(2.5, 1.11, 1.67)",
            (3, 7): "(2, 0.8, 1.2)", (4, 7): "(1.5, 0.55, 0.82)", (5, 7): "(1, 0.33, 0.5)",
        }
        for k in range(1, 8):
            for j in range(0, 6):
                cell = bound_table_cell(j, k)
                if j > k:
                    assert cell == "*", f"cell ({j},{k})"
                else:
                    assert cell == expected[(j, k)], f"cell ({j},{k})"
        # rendered cells come from the same closed forms as the float bound set
        for k in range(1, 8):
            for j in range(1, min(k, 5) + 1):
                bounds = eigenvalue_bound_set(summary(j, k))
                assert bounds.e_al == float(Fraction(k - j, 2))
                assert bounds.e_llrw == float(Fraction(2 * (k - j), k + j))
                assert bounds.e_alrw == float(Fraction(3 * (k - j), k + j))

    @criterion("03 region transitions and bound orderings up to d_max 20")
    def test_region_transitions(self):
        for k in range(0, 21):
            for j in range(0, k + 1):
                region = classify_region(summary(j, k)).region
                if j == k:
                    assert region is Region.REGULAR
                elif j + k < 4:
                    assert region is Region.BOLD
                elif j + k == 4:
                    assert region is Region.UNDERLINED
                elif j + k == 5:
                    assert region is Region.TELETYPE
                elif j + k == 6:
                    assert region is Region.ITALIC
                else:
                    assert region is Region.NORMAL
                if j == 0:
                    continue
                bounds = eigenvalue_bound_set(summary(j, k))
                triple = (bounds.e_al, bounds.e_llrw, bounds.e_alrw)
                if region is Region.REGULAR:
                    assert triple == (0.0, 0.0, 0.0)
                elif region is Region.BOLD:
                    assert triple[0] < triple[1] < triple[2]
                elif region is Region.UNDERLINED:
                    assert triple[0] == pytest.approx(triple[1]) and triple[1] < triple[2]
                elif region is Region.TELETYPE:
                    assert triple[1] < triple[0] < triple[2]
                elif region is Region.ITALIC:
                    assert triple[1] < triple[0] and triple[0] == pytest.approx(triple[2])
                else:
                    assert triple[1] < triple[2] < triple[0]

    @criterion("04 d-regular graphs satisfy the exact spectral relations")
    def test_d_regular_exactness(self):
        for g in (gen_complete(2), gen_complete(3), gen_complete(18), gen_graph_c(2)):
            d = is_d_regular(g)
            assert d is not None
            mu = spectrum(g, A).values
            lam = spectrum(g, L).values
            eta = spectrum(g, LRW).values
            assert np.abs(lam - (d - mu)).max() <= 1e-8
            assert np.abs(eta - lam / d).max() <= 1e-8
            assert np.abs(eta - (1 - mu / d)).max() <= 1e-8

    @criterion("05 star graph: A/L bound tight on 16 of 18 indices, Weyl holds")
    def test_star_tightness(self, star18):
        diffs = pair_differences(MatrixPair.A_L, star18)
        assert diffs.bound == 8.0
        attained = int((np.abs(diffs.deltas) >= 8.0 - 1e-6).sum())
        assert attained == 16
        assert weyl_check(star18).ok

    @criterion("06 bipartite graph: 7.49 / -7.06 / 1.67 within 0.01")
    def test_bipartite_values(self, bipartite_b):
        al = pair_differences(MatrixPair.A_L, bipartite_b)
        assert al.deltas[0] == pytest.approx(7.49, abs=0.01)
        assert al.deltas[1] == pytest.approx(-7.06, abs=0.01)
        llrw = pair_differences(MatrixPair.L_LRW, bipartite_b)
        # the figure reads f2(lambda_34) - eta_34, the negated delta
        assert -llrw.deltas[-1] == pytest.approx(1.67, abs=0.01)

    @criterion("07 hand-derived oracle spectra match the computed spectra")
    def test_oracle_spectra(self, graph_c18):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
        p3 = Graph(n=3, weights=w)
        np.testing.assert_allclose(
            spectrum(p3, A).values, [np.sqrt(2), 0.0, -np.sqrt(2)], atol=1e-8)
        np.testing.assert_allclose(spectrum(p3, L).values, [0.0, 1.0, 3.0], atol=1e-8)
        np.testing.assert_allclose(spectrum(p3, LRW).values, [0.0, 1.0, 2.0], atol=1e-8)
        np.testing.assert_allclose(
            spectrum(graph_c18, L).values,
            [0.0] * 10 + [2.0] * 9 + [18.0] * 17, atol=1e-8)

    @criterion("08 bound validity on 200 random graphs, order/gap preservation")
    def test_random_graph_property_suite(self):
        rng = np.random.default_rng(12345)
        accepted = 0
        while accepted < 200:
            n = int(rng.integers(4, 13))
            p = rng.uniform(0.25, 0.9)
            w = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        w[i, j] = w[j, i] = 1.0
            keep = np.flatnonzero(w.sum(axis=1) > 0)
            if len(keep) < 4:
                continue
            g = Graph(n=len(keep), weights=w[np.ix_(keep, keep)])
            if connected_components(g).component_count != 1:
                continue
            accepted += 1
            ds = degree_summary(g)
            for pair in MatrixPair:
                diffs = pair_differences(pair, g)
                assert diffs.bound - np.abs(diffs.deltas).max() >= -1e-9
                gaps = gap_differences(pair, g)
                assert gaps.bound - gaps.diffs.max() >= -1e-9
                if gaps.primed_diffs is not None:
                    assert gaps.primed_bound - gaps.primed_diffs.max() >= -1e-9
            params = transform_params(ds)
            for which, kind in ((Transform.F1, A), (Transform.F2, L), (Transform.F3, A)):
                spec = spectrum(g, kind)
                mapped = apply_transform(which, params, spec)
                assert np.all(mapped[1:] >= mapped[:-1] - 1e-12), "order not preserved"
                lo, hi = mapped_support(which, ds)
                mapped_gaps = (mapped[1:] - mapped[:-1]) / (hi - lo)
                assert np.abs(mapped_gaps - normalized_eigengaps(spec)).max() <= 1e-12

    @criterion("09 maximal crossovers of C(k) at indices 1 and 19, gap bound tight")
    def test_crossovers(self):
        for k in (3, 10, 18):
            g = gen_graph_c(k)
            diffs = pair_differences(MatrixPair.A_L, g)
            report = detect_maximal_crossover(diffs.deltas, diffs.bound, tol=1e-6)
            assert report.indices == (1, 19), f"C({k}) crossovers {report.indices}"
            gaps = gap_differences(MatrixPair.A_L, g)
            g_al = gap_bound_set(degree_summary(g)).g_al
            assert abs(gaps.diffs[0] - g_al) <= 1e-9
            assert abs(gaps.diffs[18] - g_al) <= 1e-9

    @criterion("10 C(k) sweep: gap k+9 second largest, gap 10 stays largest")
    def test_sweep_behaviour(self):
        for k in range(3, 19):
            g = gen_graph_c(k)
            gaps = normalized_eigengaps(spectrum(g, LRW))
            brute = np.sort(np.linalg.eigvalsh(build_matrix(g, LRW).entries))
            brute_gaps = (brute[1:] - brute[:-1]) / 2.0
            np.testing.assert_allclose(gaps, brute_gaps, atol=1e-8)
            expected = (2.0 - k / (k - 1)) / 2.0
            assert abs(gaps[k + 8] - expected) <= 1e-8
            order = np.argsort(-gaps)
            assert order[0] == 9, f"C({k}): largest Lrw gap moved off index 10"
            assert order[1] == k + 8, f"C({k}): second gap not at index k+9"
            assert gaps[9] > gaps[k + 8]

    @criterion("11 C(18) clusterings: components, L k=19 and Lrw k=27 structures")
    def test_graph_c_clustering(self, graph_c18):
        components = connected_components(graph_c18).labels
        reference = ClusteringResult(labels=components, inertia=0.0, kind=None,
                                     k=10, empty_clusters=(), index_base=1)
        for kind in (A, L, LRW):
            result = cluster(graph_c18, kind, 10)
            assert compare_clusterings(result, reference).misplaced == 0
        lap = cluster(graph_c18, L, 19)
        lap_groups = {}
        for v, label in enumerate(lap.labels):
            lap_groups.setdefault(int(label), set()).add(v)
        sizes = sorted(len(s) for s in lap_groups.values())
        assert sizes == [1] * 18 + [18]
        assert set(range(18)) in lap_groups.values()
        nlap = cluster(graph_c18, LRW, 27)
        nlap_groups = {}
        for v, label in enumerate(nlap.labels):
            nlap_groups.setdefault(int(label), set()).add(v)
        pair_clusters = [s for s in nlap_groups.values() if len(s) == 2]
        singletons = [s for s in nlap_groups.values() if len(s) == 1]
        assert len(singletons) == 18 and set().union(*singletons) == set(range(18))
        assert sorted(map(sorted, pair_clusters)) == [[18 + 2 * i, 19 + 2 * i] for i in range(9)]
        again = cluster(graph_c18, LRW, 27)
        assert np.array_equal(nlap.labels, again.labels)

    @criterion("12 karate clusterings: truth match, 1 misplaced, {2,4,8,14,20}")
    def test_karate_clustering(self, karate, karate_truth):
        adjacency = cluster(karate, A, 2)
        assert compare_clusterings(adjacency, karate_truth).misplaced == 0
        nlap = cluster(karate, LRW, 2)
        truth_comparison = compare_clusterings(nlap, karate_truth)
        assert truth_comparison.misplaced == 1
        lap = cluster(karate, L, 2)
        between = compare_clusterings(lap, nlap)
        assert between.misplaced_ids == (2, 4, 8, 14, 20)

    @criterion("13 polynomial map: unstable on karate A->L, exact on K3")
    def test_polymap(self, karate):
        report = polynomial_spectrum_map(
            spectrum(karate, A), spectrum(karate, L), merge_tol=1e-12)
        assert report.unstable
        assert report.min_input_gap < 1e-12
        assert report.output_span_over_degenerate_inputs > 2.0
        k3 = gen_complete(3)
        stable = polynomial_spectrum_map(spectrum(k3, A), spectrum(k3, L), merge_tol=1e-10)
        assert not stable.unstable
        assert stable.max_residual < 1e-9
