"""Affine spectral transforms and degree-extreme bounds on spectral differences.

Each matrix pair is lined up for index-wise comparison by one affine map
of its source spectrum:

    A_L    f1(mu)     = d - mu        adjacency -> unnormalised Laplacian scale
    L_Lrw  f2(lambda) = c * lambda    unnormalised -> normalised Laplacian scale
    A_Lrw  f3(mu)     = 1 - c * mu    adjacency -> normalised Laplacian scale

with the one shift d = (d_max + d_min)/2 and the one scale
c = 2/(d_max + d_min) (the paper's d1 = d2 and c1 = c2). The index-wise
eigenvalue differences are then bounded in closed form by the graph's
degree extremes alone, as are the differences of eigengaps normalised by
each matrix's spectral support. ``pair_bounds`` gives each pair its
closed forms in one ``PairBounds`` record: e, g and, for the Lrw pairs,
the primed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import DegreeSummary, Graph, _memoised, degree_summary
from .spectra import Spectrum, normalized_eigengaps, spectrum
from .vocabulary import (
    DEFAULT_CROSSOVER_TOL,
    DEFAULT_MERGE_TOL,
    PAIR_KINDS,
    MatrixPair,
)

# Slack allowed when checking computed differences against a closed-form bound.
BOUND_SLACK = 1e-9
_EPS = float(np.finfo(float).eps)
_EVAL_BLOCK = 1 << 15  # values of the t - node table barycentric_eval holds at once


@dataclass(frozen=True)
class PairBounds:
    """One matrix pair's closed-form bounds in the degree extremes.

    ``eigenvalue`` bounds max |delta| and ``gap`` the support-normalised
    eigengap differences (None when d_max = 0). ``primed`` bounds the
    primed gap differences of the Lrw pairs: g'(L,Lrw) = e(L,Lrw) and
    g'(A,Lrw) = e'(A,Lrw); the A_L pair has none.
    """

    eigenvalue: float
    gap: Optional[float]
    primed: Optional[float]


@dataclass(frozen=True, eq=False)
class PairDifferences:
    """Index-wise signed differences target - transformed(source) for one pair.

    ``max_abs_delta`` is max |deltas| (0 for an empty graph), the value
    ``within_bound`` compares with the bound. The arrays are read-only.
    """

    pair: MatrixPair
    transformed: np.ndarray
    target: np.ndarray
    deltas: np.ndarray
    max_abs_delta: float
    bound: float
    within_bound: bool


@dataclass(frozen=True)
class CrossoverReport:
    """1-based indices i where pairs (i, i+1) form a maximal crossover."""

    indices: tuple[int, ...]
    tolerance: float
    bound: float


@dataclass(frozen=True, eq=False)
class GapDifferences:
    """Normalised-eigengap differences for one pair, plus the primed variant.

    ``diffs`` compares eigengaps each normalised by its own spectral
    support. The primed variant (Lrw pairs only) compares transformed
    eigengaps against Lrw eigengaps, both scaled by half, and is bounded
    by the corresponding eigenvalue bound. ``max_gap_difference`` and
    ``max_primed_difference`` are the largest entries the two verdicts
    compare with their bounds. The arrays are read-only.
    """

    pair: MatrixPair
    source_gaps: np.ndarray
    target_gaps: np.ndarray
    diffs: np.ndarray
    max_gap_difference: float
    bound: float
    within_bound: bool
    primed_diffs: Optional[np.ndarray]
    max_primed_difference: Optional[float]
    primed_bound: Optional[float]
    primed_within: Optional[bool]


@dataclass(frozen=True, eq=False)
class WeylReport:
    """Per-index check that d - mu_i - lambda_i stays in [d - d_max, d - d_min]."""

    ok: bool
    lower: float
    upper: float
    differences: np.ndarray


@dataclass(frozen=True, eq=False)
class PolyMapReport:
    """Outcome of interpolating one spectrum onto another.

    When near-coincident source eigenvalues must map to targets further
    apart than the merge tolerance, the problem is numerically degenerate:
    ``unstable`` is set and nothing is fitted. Otherwise ``nodes`` are the
    merged source values, ascending, and ``weights`` their barycentric
    weights 1/prod_{k != j}(x_j - x_k) over the largest |w_j|; with the
    targets at the nodes they give the interpolant (``barycentric_eval``).
    ``lebesgue_constant`` is the largest Lebesgue function value
    sum_j |w_j/(t - x_j)| / |sum_j w_j/(t - x_j)| over the midpoints t of
    consecutive nodes, a lower bound on Lambda (1 for one node). The fit is
    also ``unstable`` when Lambda * eps * max|y| exceeds the merge
    tolerance, and only a stable fit has ``max_residual``, the largest
    |p(x) - y| over the source values. ``min_input_gap`` is None when the
    spectrum has fewer than two values.
    """

    unstable: bool
    min_input_gap: Optional[float]
    output_span_over_degenerate_inputs: float
    nodes: Optional[np.ndarray]
    weights: Optional[np.ndarray]
    lebesgue_constant: Optional[float]
    max_residual: Optional[float]


def _affine(pair: MatrixPair, ds: DegreeSummary) -> tuple[float, float]:
    """The pair's map x -> a + b*x as (a, b); an edgeless graph has d = 0 but no scale c."""
    total = ds.d_max + ds.d_min
    if pair is MatrixPair.A_L:
        return total / 2.0, -1.0
    if total <= 0:
        raise ValueError("transform parameters need d_max + d_min > 0")
    c = 2.0 / total
    if math.isinf(c):  # every degree below about 1e-308
        raise ValueError("transform scale 2/(d_max + d_min) overflows")
    if pair is MatrixPair.L_LRW:
        return -0.0, c  # -0.0 is the additive identity: -0.0 + c*x is c*x even where that is -0.0
    return 1.0, -c


def _largest(values: np.ndarray) -> float:
    """max |values|, 0 when there are none and NaN when any value is NaN."""
    return float(np.abs(values).max(initial=0.0))


def _within(largest: float, bound: float) -> bool:
    """largest <= bound, allowing BOUND_SLACK for rounding; a NaN value is never within."""
    return largest <= bound + BOUND_SLACK


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def apply_transform(pair: MatrixPair, ds: DegreeSummary, source: Spectrum) -> np.ndarray:
    """Map a pair's source spectrum onto its target's scale, index-aligned.

    A_L applies f1 and A_Lrw applies f3 to an adjacency spectrum
    (descending in, ascending out); L_Lrw applies f2 to an unnormalised
    Laplacian spectrum (ascending preserved). f2 and f3 need the scale,
    so they raise when d_max + d_min = 0.
    """
    kind = PAIR_KINDS[pair][0]
    if source.kind is not kind:
        raise ValueError(f"pair {pair.value} maps the {kind.value} spectrum, got {source.kind.value}")
    a, b = _affine(pair, ds)
    return a + b * source.values


def pair_bounds(ds: DegreeSummary) -> dict[MatrixPair, Optional[PairBounds]]:
    """Every pair's closed-form bounds for one degree-extreme class; the Lrw pairs None when d_min = 0.

    e(A,L)    = (d_max - d_min)/2                   g(A,L)   = (d_max - d_min)/(2 d_max)
    e(L,Lrw)  = 2 (d_max - d_min)/(d_max + d_min)   g(L,Lrw) = 2 (d_max - d_min)/d_max
    e(A,Lrw)  = 3 (d_max - d_min)/(d_max + d_min)   g(A,Lrw) = (5/2)(d_max - d_min)/d_max
    e'(A,Lrw) = e(A,Lrw) when d_max <= 5 d_min, else 2 (degenerate transform).

    Integer coefficients keep every value exact when the extremes are
    Fractions.
    """
    diff = ds.d_max - ds.d_min
    g_al = diff / (2 * ds.d_max) if ds.d_max > 0 else None
    bounds = {MatrixPair.A_L: PairBounds(eigenvalue=diff / 2, gap=g_al, primed=None),
              MatrixPair.L_LRW: None, MatrixPair.A_LRW: None}
    if ds.d_min != 0:  # a sum of positive weights is 0 only for an isolated vertex
        total = ds.d_max + ds.d_min
        e_llrw = 2 * diff / total
        e_alrw = 3 * diff / total
        e_prime = e_alrw if ds.d_max <= 5 * ds.d_min else 2.0
        bounds[MatrixPair.L_LRW] = PairBounds(eigenvalue=e_llrw, gap=2 * diff / ds.d_max, primed=e_llrw)
        # 5*diff/2 rounds as 2.5*diff does, short of overflow, and stays exact on Fractions.
        bounds[MatrixPair.A_LRW] = PairBounds(eigenvalue=e_alrw, gap=5 * diff / 2 / ds.d_max, primed=e_prime)
    return bounds


def _gap_bound(bounds: PairBounds) -> float:
    """The pair's eigengap bound g, which an edgeless graph (d_max = 0) does not have."""
    if bounds.gap is None:
        raise ValueError("gap bounds need d_max > 0")
    return bounds.gap


def pair_differences(pair: MatrixPair, g: Graph) -> PairDifferences:
    """Signed index-wise differences target_i - transformed_i for one pair.

    The sign convention makes e.g. the A_L entries read lambda_i - f1(mu_i).
    ``within_bound`` checks max |delta| against the pair's closed-form bound.
    Memoised on the graph: every call for the same graph and pair returns
    the same record.
    """
    return _memoised(g, _pair_differences, pair)


def _pair_differences(g: Graph, pair: MatrixPair) -> PairDifferences:
    ds = degree_summary(g)
    source, target = (spectrum(g, kind) for kind in PAIR_KINDS[pair])
    transformed = apply_transform(pair, ds, source)
    deltas = target.values - transformed
    _freeze(transformed, deltas)
    largest = _largest(deltas)
    bound = pair_bounds(ds)[pair].eigenvalue
    return PairDifferences(
        pair=pair,
        transformed=transformed,
        target=target.values,
        deltas=deltas,
        max_abs_delta=largest,
        bound=bound,
        within_bound=_within(largest, bound),
    )


def detect_maximal_crossover(
    diffs: np.ndarray, bound: float, tol: float = DEFAULT_CROSSOVER_TOL
) -> CrossoverReport:
    """Find adjacent difference pairs attaining opposite ends of the bound.

    Reports 1-based index i when |diffs[i]| and |diffs[i+1]| both reach
    bound - tol with opposite signs. A zero bound yields an empty report
    (the condition is vacuous for regular graphs).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"crossover tolerance must be finite and positive, got {tol}")
    d = np.asarray(diffs, dtype=float).tolist()
    indices: tuple[int, ...] = ()
    if bound > 0.0:
        # Python floats compare as numpy's float64 do, without a numpy call per pair.
        floor = bound - tol
        indices = tuple(
            i for i, (a, b) in enumerate(zip(d, d[1:]), start=1)
            if (a < 0.0 < b or b < 0.0 < a) and abs(a) >= floor and abs(b) >= floor
        )
    return CrossoverReport(indices=indices, tolerance=tol, bound=bound)


def gap_differences(pair: MatrixPair, g: Graph) -> GapDifferences:
    """Differences of support-normalised eigengaps for one matrix pair.

    For the Lrw pairs the primed quantities are also returned: half the
    absolute difference between the transformed raw eigengap and the Lrw
    eigengap, bounded by e(L,Lrw) resp. e'(A,Lrw). Memoised on the graph:
    every call for the same graph and pair returns the same record.
    """
    return _memoised(g, _gap_differences, pair)


def _gap_differences(g: Graph, pair: MatrixPair) -> GapDifferences:
    ds = degree_summary(g)
    source, target = (spectrum(g, kind) for kind in PAIR_KINDS[pair])
    source_gaps = normalized_eigengaps(source)
    target_gaps = normalized_eigengaps(target)
    diffs = np.abs(source_gaps - target_gaps)
    _freeze(source_gaps, target_gaps, diffs)
    largest = _largest(diffs)
    bounds = pair_bounds(ds)[pair]
    bound, primed_bound = _gap_bound(bounds), bounds.primed
    primed_diffs = primed_largest = primed_within = None
    if primed_bound is not None:
        raw_source = source_gaps * source.support_length
        raw_target = target_gaps * target.support_length
        primed_diffs = 0.5 * np.abs(abs(_affine(pair, ds)[1]) * raw_source - raw_target)
        _freeze(primed_diffs)
        primed_largest = _largest(primed_diffs)
        primed_within = _within(primed_largest, primed_bound)
    return GapDifferences(
        pair=pair,
        source_gaps=source_gaps,
        target_gaps=target_gaps,
        diffs=diffs,
        max_gap_difference=largest,
        bound=bound,
        within_bound=_within(largest, bound),
        primed_diffs=primed_diffs,
        max_primed_difference=primed_largest,
        primed_bound=primed_bound,
        primed_within=primed_within,
    )


def weyl_check(g: Graph) -> WeylReport:
    """The A_L bound restated index by index as Weyl's inequality, not checked anew.

    The shifted adjacency d*I - A perturbs the Laplacian by the diagonal
    d*I - D, so each d - mu_i differs from lambda_i by something in
    [d - d_max, d - d_min] = [-e(A,L), e(A,L)]: the differences are the A_L
    pair's transformed - target, and ``ok`` repeats its ``within_bound``.
    """
    ds = degree_summary(g)
    d, _ = _affine(MatrixPair.A_L, ds)
    a_l = pair_differences(MatrixPair.A_L, g)
    differences = a_l.transformed - a_l.target
    lower, upper = d - ds.d_max, d - ds.d_min
    return WeylReport(ok=a_l.within_bound, lower=lower, upper=upper, differences=differences)


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """w_j = 1 / prod_{k != j} (x_j - x_k) over strictly increasing nodes, over max |w_j|.

    The products are sums of log|x_j - x_k|, so no weight overflows. x_j - x_k
    is negative for the m - 1 - j nodes above x_j, which sets the sign.
    """
    gaps = np.abs(nodes[:, None] - nodes)
    np.fill_diagonal(gaps, 1.0)
    logs = np.log(gaps).sum(axis=1)
    weights = np.exp(logs.min() - logs)
    weights[-2::-2] *= -1.0
    return weights


def barycentric_eval(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray, t) -> np.ndarray:
    """The interpolant through (nodes, values) at t of any shape.

    The second barycentric formula sum_j c_j y_j / sum_j c_j, c_j = w_j/(t - x_j),
    with each row of c times its smallest |t - x_j|: the factor cancels and
    keeps every |c_j| <= |w_j|, so nothing overflows. Where t equals nodes[j]
    the result is values[j] exactly. The t - node table is built _EVAL_BLOCK values at a time.
    """
    t = np.asarray(t, dtype=float)
    result = np.empty(t.size)
    rows = max(1, _EVAL_BLOCK // len(nodes))
    for lo in range(0, t.size, rows):
        d = t.reshape(-1)[lo:lo + rows, None] - nodes
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            terms = weights * (np.abs(d).min(axis=1, keepdims=True) / d)
            result[lo:lo + rows] = (terms * values).sum(axis=1) / terms.sum(axis=1)
        hits, cols = np.nonzero(d == 0.0)
        result[lo + hits] = values[cols]
    return result.reshape(t.shape)


def polynomial_spectrum_map(
    src: Spectrum, dst: Spectrum, merge_tol: float = DEFAULT_MERGE_TOL
) -> PolyMapReport:
    """Try to interpolate dst values as a polynomial in src values.

    Source values within ``merge_tol`` of each other (chained along the
    sorted sequence) are merged into one interpolation node. If a merged
    cluster's target values span more than ``merge_tol`` the map is
    numerically degenerate and reported unstable instead of fitted.

    Otherwise the m merged nodes get barycentric weights and a Lebesgue
    constant estimate (see PolyMapReport). The second barycentric formula
    is forward stable with an error of order Lambda * eps * max|y| (Higham
    2004), so the map is also unstable when that exceeds ``merge_tol``;
    only a stable map is evaluated at every source value for the residual.
    The work is O(n log n) to sort and merge and O(n m) in a few numpy
    calls for the rest; nothing overflows or warns.
    """
    if not (np.isfinite(merge_tol) and merge_tol >= 0):
        raise ValueError(f"merge tolerance must be finite and non-negative, got {merge_tol}")
    if src.n != dst.n:
        raise ValueError("spectra must have equal length")
    if src.n == 0:
        raise ValueError("cannot interpolate empty spectra")
    order = np.argsort(src.values, kind="stable")
    x = src.values[order]
    y = dst.values[order]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        input_gaps = np.diff(x)
        min_input_gap = float(input_gaps.min()) if len(input_gaps) else None
        # A cluster starts wherever the sorted values step by more than merge_tol.
        starts = np.flatnonzero(np.concatenate(([True], input_gaps > merge_tol)))
        worst_span = 0.0
        if len(starts) < len(x):
            spans = np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
            # Only positive spans count: a single value spans 0, and NaN is skipped.
            worst_span = float(spans[spans > 0.0].max(initial=0.0))
        nodes = weights = lebesgue = residual = None
        unstable = worst_span > merge_tol
        if not unstable:
            nodes = x[starts]
            weights = _barycentric_weights(nodes)
            # Row k holds the terms at midpoint k times half its gap, as in barycentric_eval.
            half = (nodes[1:] - nodes[:-1])[:, None] / 2.0
            terms = weights * (half / (nodes[:-1, None] + half - nodes))
            # A midpoint that rounds onto a node gives NaN, which fmax skips; Lambda >= 1.
            lebesgue = float(np.fmax.reduce(
                np.abs(terms).sum(axis=1) / np.abs(terms.sum(axis=1)), initial=1.0))
            # Written so that a NaN target, which no bound covers, counts as unstable.
            unstable = not lebesgue * _EPS * np.abs(y).max() <= merge_tol
    if not unstable:
        residual = float(np.abs(barycentric_eval(nodes, weights, y[starts], x) - y).max())
    return PolyMapReport(
        unstable=unstable,
        min_input_gap=min_input_gap,
        output_span_over_degenerate_inputs=worst_span,
        nodes=nodes,
        weights=weights,
        lebesgue_constant=lebesgue,
        max_residual=residual,
    )
