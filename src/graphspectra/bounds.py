"""Affine spectral transforms and degree-extreme bounds on spectral differences.

Three affine maps line spectra of the representation matrices up for
index-wise comparison:

    f1(mu)     = d1 - mu        adjacency -> unnormalised Laplacian scale
    f2(lambda) = c1 * lambda    unnormalised -> normalised Laplacian scale
    f3(mu)     = 1 - c2 * mu    adjacency -> normalised Laplacian scale

with d1 = d2 = (d_max + d_min)/2 and c1 = c2 = 2/(d_max + d_min). The
index-wise eigenvalue differences are then bounded in closed form by the
graph's degree extremes alone, as are the differences of eigengaps
normalised by each matrix's spectral support.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .graphs import DegreeSummary, Graph, class_tag, degree_summary
from .spectra import (
    RepresentationKind,
    Spectrum,
    UndefinedRepresentationError,
    normalized_eigengaps,
    spectrum,
)

# Slack allowed when checking computed differences against a closed-form bound.
BOUND_SLACK = 1e-9
DEFAULT_CROSSOVER_TOL = 1e-6
DEFAULT_MERGE_TOL = 1e-12
# Divided-difference levels at most this wide run as float arithmetic on
# lists: below it a numpy call per level costs more than the arithmetic.
_SCALAR_LEVEL_WIDTH = 20
# Values of the x - node factor table newton_eval holds at once (256 KiB).
_FACTOR_BLOCK = 1 << 15


class Transform(Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


class MatrixPair(Enum):
    A_L = "A_L"
    L_LRW = "L_Lrw"
    A_LRW = "A_Lrw"


class Region(Enum):
    """The six bound-ordering regions of the degree-extreme plane."""

    REGULAR = "regular"
    BOLD = "bold"
    UNDERLINED = "underlined"
    TELETYPE = "teletype"
    ITALIC = "italic"
    NORMAL = "normal"


_ORDERINGS = {
    Region.REGULAR: "e(A,L) = e(L,Lrw) = e(A,Lrw) = 0",
    Region.BOLD: "e(A,L) < e(L,Lrw) < e(A,Lrw)",
    Region.UNDERLINED: "e(A,L) = e(L,Lrw) < e(A,Lrw)",
    Region.TELETYPE: "e(L,Lrw) < e(A,L) < e(A,Lrw)",
    Region.ITALIC: "e(L,Lrw) < e(A,L) = e(A,Lrw)",
    Region.NORMAL: "e(L,Lrw) < e(A,Lrw) < e(A,L)",
}


@dataclass(frozen=True)
class TransformParams:
    """Shift d1 = d2 and scale c1 = c2; the scale is None when d_max + d_min = 0."""

    d1: float
    d2: float
    c1: Optional[float]
    c2: Optional[float]


@dataclass(frozen=True)
class BoundSet:
    """Closed-form eigenvalue-difference bounds; Lrw entries None when d_min = 0."""

    e_al: float
    e_llrw: Optional[float]
    e_alrw: Optional[float]
    e_prime_alrw: Optional[float]


@dataclass(frozen=True)
class GapBoundSet:
    """Closed-form normalised-eigengap bounds; Lrw entries None when d_min = 0."""

    g_al: float
    g_llrw: Optional[float]
    g_prime_llrw: Optional[float]
    g_alrw: Optional[float]
    g_prime_alrw: Optional[float]


@dataclass(frozen=True)
class RegionInfo:
    region: Region
    ordering: str


@dataclass(frozen=True, eq=False)
class PairDifferences:
    """Index-wise signed differences target - transformed(source) for one pair."""

    pair: MatrixPair
    transformed: np.ndarray
    target: np.ndarray
    deltas: np.ndarray
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
    by the corresponding eigenvalue bound.
    """

    pair: MatrixPair
    source_gaps: np.ndarray
    target_gaps: np.ndarray
    diffs: np.ndarray
    bound: float
    within_bound: bool
    primed_diffs: Optional[np.ndarray]
    primed_bound: Optional[float]
    primed_within: Optional[bool]


@dataclass(frozen=True, eq=False)
class WeylReport:
    """Per-index check that d1 - mu_i - lambda_i stays in [d1-d_max, d1-d_min]."""

    ok: bool
    lower: float
    upper: float
    differences: np.ndarray


@dataclass(frozen=True, eq=False)
class PolyMapReport:
    """Outcome of interpolating one spectrum onto another.

    When near-coincident source eigenvalues must map to targets further
    apart than the merge tolerance, the interpolation problem is
    numerically degenerate: ``unstable`` is set and no coefficients are
    produced. Otherwise ``nodes``/``coefficients`` hold the Newton form
    of the interpolant built on de-duplicated source nodes.
    ``min_input_gap`` is None when the spectrum has fewer than two values.
    """

    unstable: bool
    min_input_gap: Optional[float]
    output_span_over_degenerate_inputs: float
    nodes: Optional[np.ndarray]
    coefficients: Optional[np.ndarray]
    max_residual: Optional[float]


def _params(ds: DegreeSummary) -> TransformParams:
    # An edgeless graph has the shift (d1 = 0) but no scale.
    total = ds.d_max + ds.d_min
    c = 2.0 / total if total > 0 else None
    return TransformParams(d1=total / 2.0, d2=total / 2.0, c1=c, c2=c)


def transform_params(ds: DegreeSummary) -> TransformParams:
    """Shift d1 = d2 and scale c1 = c2 derived from the degree extremes."""
    p = _params(ds)
    _scale(p.c1)  # raises when d_max + d_min = 0
    return p


def _scale(c: Optional[float]) -> float:
    if c is None:
        raise ValueError("transform parameters need d_max + d_min > 0")
    return c


def apply_transform(which: Transform, p: TransformParams, s: Spectrum) -> np.ndarray:
    """Apply one affine transform to a spectrum's values, index-aligned.

    f1 and f3 take an adjacency spectrum (descending in, ascending out);
    f2 takes an unnormalised Laplacian spectrum (ascending preserved).
    """
    if which is Transform.F1:
        if s.kind is not RepresentationKind.ADJACENCY:
            raise ValueError("f1 expects an adjacency spectrum")
        return p.d1 - s.values
    if which is Transform.F2:
        if s.kind is not RepresentationKind.LAPLACIAN:
            raise ValueError("f2 expects an unnormalised Laplacian spectrum")
        return _scale(p.c1) * s.values
    if which is Transform.F3:
        if s.kind is not RepresentationKind.ADJACENCY:
            raise ValueError("f3 expects an adjacency spectrum")
        return 1.0 - _scale(p.c2) * s.values
    raise ValueError(f"unknown transform {which!r}")


def eigenvalue_bound_set(ds: DegreeSummary) -> BoundSet:
    """All closed-form eigenvalue-difference bounds for one degree-extreme class.

    e(A,L)    = (d_max - d_min)/2
    e(L,Lrw)  = 2 (d_max - d_min)/(d_max + d_min)
    e(A,Lrw)  = 3 (d_max - d_min)/(d_max + d_min)
    e'(A,Lrw) = e(A,Lrw) when d_max <= 5 d_min, else 2 (degenerate transform).

    Integer coefficients keep the result exact when the extremes are Fractions.
    """
    diff = ds.d_max - ds.d_min
    e_al = diff / 2
    if ds.d_min == 0:  # a sum of positive weights is 0 only for an isolated vertex
        return BoundSet(e_al=e_al, e_llrw=None, e_alrw=None, e_prime_alrw=None)
    total = ds.d_max + ds.d_min
    e_llrw = 2 * diff / total
    e_alrw = 3 * diff / total
    e_prime = e_alrw if ds.d_max <= 5 * ds.d_min else 2.0
    return BoundSet(e_al=e_al, e_llrw=e_llrw, e_alrw=e_alrw, e_prime_alrw=e_prime)


def gap_bound_set(ds: DegreeSummary) -> GapBoundSet:
    """All closed-form normalised-eigengap bounds for one degree-extreme class.

    g(A,L)   = (d_max - d_min)/(2 d_max)
    g(L,Lrw) = 2 (d_max - d_min)/d_max        g'(L,Lrw) = e(L,Lrw)
    g(A,Lrw) = (5/2)(d_max - d_min)/d_max     g'(A,Lrw) = e'(A,Lrw)
    """
    if ds.d_max <= 0:
        raise ValueError("gap bounds need d_max > 0")
    diff = ds.d_max - ds.d_min
    g_al = diff / (2.0 * ds.d_max)
    bounds = eigenvalue_bound_set(ds)
    if bounds.e_llrw is None:
        return GapBoundSet(g_al=g_al, g_llrw=None, g_prime_llrw=None, g_alrw=None, g_prime_alrw=None)
    return GapBoundSet(
        g_al=g_al,
        g_llrw=2.0 * diff / ds.d_max,
        g_prime_llrw=bounds.e_llrw,
        g_alrw=2.5 * diff / ds.d_max,
        g_prime_alrw=bounds.e_prime_alrw,
    )


def classify_region(ds: DegreeSummary) -> RegionInfo:
    """Which of the six bound-ordering regions the degree extremes fall in.

    Regular graphs (d_min = d_max) take precedence; otherwise the region
    is decided by d_min + d_max against the thresholds 4, 5 and 6.
    """
    tag = class_tag(ds)
    if tag.j == tag.k:
        region = Region.REGULAR
    else:
        total = tag.j + tag.k
        if total < 4:
            region = Region.BOLD
        elif total == 4:
            region = Region.UNDERLINED
        elif total == 5:
            region = Region.TELETYPE
        elif total == 6:
            region = Region.ITALIC
        else:
            region = Region.NORMAL
    return RegionInfo(region=region, ordering=_ORDERINGS[region])


# Each pair's source kind, target kind and the transform aligning source with target.
PAIR_SPECTRA = {
    MatrixPair.A_L: (RepresentationKind.ADJACENCY, RepresentationKind.LAPLACIAN, Transform.F1),
    MatrixPair.L_LRW: (
        RepresentationKind.LAPLACIAN, RepresentationKind.NORMALIZED_LAPLACIAN, Transform.F2),
    MatrixPair.A_LRW: (
        RepresentationKind.ADJACENCY, RepresentationKind.NORMALIZED_LAPLACIAN, Transform.F3),
}


def _pair_spectra(pair: MatrixPair, g: Graph) -> tuple[Spectrum, Spectrum, Transform]:
    source, target, which = PAIR_SPECTRA[pair]
    return spectrum(g, source), spectrum(g, target), which


def pair_bound(pair: MatrixPair, ds: DegreeSummary) -> float:
    """The eigenvalue-difference bound for one matrix pair."""
    bounds = eigenvalue_bound_set(ds)
    if pair is MatrixPair.A_L:
        return bounds.e_al
    value = bounds.e_llrw if pair is MatrixPair.L_LRW else bounds.e_alrw
    if value is None:
        raise UndefinedRepresentationError("Lrw pair bounds are undefined for d_min = 0")
    return value


def pair_differences(pair: MatrixPair, g: Graph) -> PairDifferences:
    """Signed index-wise differences target_i - transformed_i for one pair.

    The sign convention makes e.g. the A_L entries read lambda_i - f1(mu_i).
    ``within_bound`` checks max |delta| against the pair's closed-form bound.
    """
    ds = degree_summary(g)
    source, target, which = _pair_spectra(pair, g)
    transformed = apply_transform(which, _params(ds), source)
    deltas = target.values - transformed
    bound = pair_bound(pair, ds)
    within = bool(np.abs(deltas).max(initial=0.0) <= bound + BOUND_SLACK)
    return PairDifferences(
        pair=pair,
        transformed=transformed,
        target=target.values,
        deltas=deltas,
        bound=bound,
        within_bound=within,
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
    eigengap, bounded by e(L,Lrw) resp. e'(A,Lrw).
    """
    ds = degree_summary(g)
    source, target, which = _pair_spectra(pair, g)
    source_gaps = normalized_eigengaps(source)
    target_gaps = normalized_eigengaps(target)
    diffs = np.abs(source_gaps - target_gaps)
    gap_bounds = gap_bound_set(ds)
    if pair is MatrixPair.A_L:
        bound = gap_bounds.g_al
        primed_diffs: Optional[np.ndarray] = None
        primed_bound: Optional[float] = None
    else:
        params = transform_params(ds)
        raw_source = source_gaps * source.support_length
        raw_target = target_gaps * target.support_length
        scale = params.c1 if pair is MatrixPair.L_LRW else params.c2
        primed_diffs = 0.5 * np.abs(scale * raw_source - raw_target)
        if pair is MatrixPair.L_LRW:
            bound, primed_bound = gap_bounds.g_llrw, gap_bounds.g_prime_llrw
        else:
            bound, primed_bound = gap_bounds.g_alrw, gap_bounds.g_prime_alrw
    within = bool(diffs.max(initial=0.0) <= bound + BOUND_SLACK)
    primed_within = (
        None
        if primed_diffs is None
        else bool(primed_diffs.max(initial=0.0) <= primed_bound + BOUND_SLACK)
    )
    return GapDifferences(
        pair=pair,
        source_gaps=source_gaps,
        target_gaps=target_gaps,
        diffs=diffs,
        bound=bound,
        within_bound=within,
        primed_diffs=primed_diffs,
        primed_bound=primed_bound,
        primed_within=primed_within,
    )


def mapped_support(which: Transform, ds: DegreeSummary) -> tuple[float, float]:
    """Image of the source spectral support under one affine transform.

    f1 needs only the shift, so it is defined on an edgeless graph (image
    (0, 0)); f2 and f3 need the scale 2/(d_max + d_min) and raise there.
    """
    diff = ds.d_max - ds.d_min
    if which is Transform.F1:
        return (-diff / 2.0, (3.0 * ds.d_max + ds.d_min) / 2.0)
    total = ds.d_max + ds.d_min
    if total <= 0:
        raise ValueError("mapped supports of f2 and f3 need d_max + d_min > 0")
    if which is Transform.F2:
        return (0.0, 4.0 * ds.d_max / total)
    if which is Transform.F3:
        return (-diff / total, (3.0 * ds.d_max + ds.d_min) / total)
    raise ValueError(f"unknown transform {which!r}")


def weyl_check(g: Graph) -> WeylReport:
    """Independent interval check on the A_L relation via Weyl's inequality.

    The shifted adjacency d1*I - A perturbs the Laplacian by the diagonal
    d1*I - D, so each shifted eigenvalue d1 - mu_i must differ from
    lambda_i by something in [d1 - d_max, d1 - d_min].
    """
    ds = degree_summary(g)
    params = _params(ds)
    mu = spectrum(g, RepresentationKind.ADJACENCY).values
    lam = spectrum(g, RepresentationKind.LAPLACIAN).values
    differences = (params.d1 - mu) - lam
    lower = params.d1 - ds.d_max
    upper = params.d1 - ds.d_min
    ok = bool(
        np.all(differences >= lower - BOUND_SLACK) and np.all(differences <= upper + BOUND_SLACK)
    )
    return WeylReport(ok=ok, lower=lower, upper=upper, differences=differences)


def _newton_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Divided differences f[x_0..x_j] of y over strictly increasing nodes x.

    Level j of the table is (v[t+1] - v[t]) / (x[t+j] - x[t]) over level
    j - 1, and its first entry is coefficient j. Levels wider than
    ``_SCALAR_LEVEL_WIDTH`` take one numpy step each; the narrower rest do
    the same IEEE operations on Python floats, which beats a numpy call per
    level at those widths. The nodes are distinct, so no divisor is zero.
    """
    m = len(x)
    split = max(1, m - _SCALAR_LEVEL_WIDTH)
    level = np.asarray(y, dtype=float)
    coef = [level[0]]
    for j in range(1, split):
        level = (level[1:] - level[:-1]) / (x[j:] - x[:-j])
        coef.append(level[0])
    level, xs = level.tolist(), x.tolist()
    for j in range(split, m):
        level = [(b - a) / (xi - xk) for a, b, xi, xk in zip(level, level[1:], xs[j:], xs)]
        coef.append(level[0])
    return np.array(coef)


def newton_eval(nodes: np.ndarray, coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a Newton-form polynomial at x of any shape (Horner over the node basis).

    Each step is acc = acc * (x - node) + c, from the last coefficient
    down. The factors x - node of a block of nodes come from one
    subtraction, with at most ``_FACTOR_BLOCK`` values per block, and acc
    is updated in place: two numpy calls per node, whatever the shape of x.
    Overflow follows IEEE arithmetic (inf, then NaN from inf - inf) and
    warns as numpy does.
    """
    x = np.asarray(x, dtype=float)
    acc = np.full_like(x, coefficients[-1])
    rows = max(1, _FACTOR_BLOCK // max(1, x.size))
    column = (-1,) + (1,) * x.ndim
    for top in range(len(nodes) - 1, 0, -rows):
        block = slice(max(0, top - rows), top)
        factors = np.subtract(x, nodes[block][::-1].reshape(column))
        for factor, c in zip(factors, coefficients[block][::-1].tolist()):
            acc *= factor
            acc += c
    return acc


def polynomial_spectrum_map(
    src: Spectrum, dst: Spectrum, merge_tol: float = DEFAULT_MERGE_TOL
) -> PolyMapReport:
    """Try to interpolate dst values as a polynomial in src values.

    Source values within ``merge_tol`` of each other (chained along the
    sorted sequence) are merged into one interpolation node. If a merged
    cluster's target values span more than ``merge_tol`` the map is
    numerically degenerate and reported unstable instead of fitted.

    Otherwise the Newton form is fitted on the merged nodes and evaluated
    at every source value for the residual. For n values and m nodes the
    work is O(n log n) to sort and merge, O(m^2) divided differences and
    O(n m) evaluation. At the n <= 64 of a desk-scale graph the cost is
    numpy call overhead, so the table's narrow levels run as float
    arithmetic and the evaluation takes two numpy calls per node. Every
    field is the same, bit for bit, as evaluating the textbook recurrences
    level by level.

    The fit runs in IEEE arithmetic without warnings: when the divided
    differences or the evaluation overflow, coefficients and residual
    carry inf, and NaN where inf - inf arises, rather than raising.
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
    with np.errstate(over="ignore", invalid="ignore"):
        input_gaps = np.diff(x)
        min_input_gap = float(input_gaps.min()) if len(input_gaps) else None
        # A cluster starts wherever the sorted values step by more than merge_tol.
        starts = np.flatnonzero(np.concatenate(([True], input_gaps > merge_tol)))
        worst_span = 0.0
        if len(starts) < len(x):
            spans = np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
            # Only positive spans count: a single value spans 0, and NaN is skipped.
            worst_span = float(spans[spans > 0.0].max(initial=0.0))
        if worst_span > merge_tol:
            return PolyMapReport(
                unstable=True,
                min_input_gap=min_input_gap,
                output_span_over_degenerate_inputs=worst_span,
                nodes=None,
                coefficients=None,
                max_residual=None,
            )
        nodes = x[starts]
        coefficients = _newton_coefficients(nodes, y[starts])
        residual = float(np.abs(newton_eval(nodes, coefficients, x) - y).max())
    return PolyMapReport(
        unstable=False,
        min_input_gap=min_input_gap,
        output_span_over_degenerate_inputs=worst_span,
        nodes=nodes,
        coefficients=coefficients,
        max_residual=residual,
    )
