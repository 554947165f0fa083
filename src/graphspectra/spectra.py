"""Representation matrices and their ordered eigenvalue spectra.

The three representation matrices of a graph are the adjacency matrix,
the unnormalised Laplacian D - A, and the random-walk normalised
Laplacian D^{-1}(D - A), decomposed through its symmetric form
D^{-1/2}(D - A)D^{-1/2}, which has the same eigenvalues. Every
decomposition is a checked LAPACK ``eigh``. A graph keeps its spectra
and the eigenvectors of each kind whose eigensystem was asked for."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _memoised, degree_summary
from .vocabulary import EigensolverError, RepresentationKind

RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


class UndefinedRepresentationError(ValueError):
    """Normalised Laplacian requested for a graph with an isolated vertex."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in the kind's convention order with their Gershgorin support.

    Adjacency spectra are descending; both Laplacian spectra ascending.
    """

    kind: RepresentationKind
    values: np.ndarray
    support: tuple[float, float]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def support_length(self) -> float:
        return self.support[1] - self.support[0]


def build_matrix(g: Graph, kind: RepresentationKind) -> np.ndarray:
    """The requested representation matrix as a new n x n array, exactly symmetric.

    Built from the graph's edges and degrees straight into one zeroed
    array: each edge's entry goes to (u, v) and (v, u), then the degrees,
    if the kind has them, to the diagonal. For the normalised Laplacian the
    symmetric form L_sym is returned: it has the same eigenvalues as the
    random-walk form, which is not symmetric. Requires d_min > 0 in that case.
    """
    m = np.zeros((g.n, g.n))
    u, v = g.edges.T
    w, d = g.edge_weights, g.degrees
    if kind in (RepresentationKind.ADJACENCY, RepresentationKind.LAPLACIAN):
        m[u, v] = m[v, u] = w
        if kind is RepresentationKind.LAPLACIAN:
            # 0.0 - m, not -m: a zero stays +0.0, where negation would make it -0.0.
            np.subtract(0.0, m, out=m)
            np.fill_diagonal(m, d)
    elif kind is RepresentationKind.NORMALIZED_LAPLACIAN:
        if degree_summary(g).d_min == 0.0:  # degrees sum positive weights: exactly 0 when isolated
            raise UndefinedRepresentationError(
                "normalised Laplacian is undefined for d_min = 0 (isolated vertex)"
            )
        # With d = s * 4**e, s in [1/4, 1) and t = 1/sqrt(s), L / sqrt(d_i d_j)
        # is (L * 2**-(e_i + e_j)) * (t_i * t_j). No step overflows, even on
        # subnormal degrees, and where degrees and entries are normal each
        # step rounds as L * (1/sqrt(d_i) * 1/sqrt(d_j)). The product t_i * t_j
        # commutes, so the matrix is exactly symmetric. Each edge's entry,
        # ldexp(-w, -e_u - e_v) * (t_u * t_v), is formed in reused buffers:
        # about 20 bytes per edge at the peak.
        mantissa, binary = np.frexp(d)
        e = (binary + 1) // 2
        t = 1.0 / np.sqrt(np.ldexp(mantissa, binary - 2 * e))
        scale = t[u]
        scale *= t[v]
        exponent = e[u]
        exponent += e[v]
        np.negative(exponent, out=exponent)
        entry = np.negative(w)
        np.ldexp(entry, exponent, out=entry)
        entry *= scale
        m[u, v] = m[v, u] = entry
        np.fill_diagonal(m, np.ldexp(d, -2 * e) * (t * t))
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    return m


def eig_sym(m: np.ndarray, label: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``(values, vectors)`` of a symmetric matrix via LAPACK ``eigh``.

    Values come back ascending, column i of ``vectors`` paired with
    ``values[i]``. Raises :class:`EigensolverError` if LAPACK fails or the
    residual / orthonormality checks fail.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{label}: expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{label}: matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError(f"{label}: matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"{label}: LAPACK eigh failed ({exc})") from exc
    _validate_pairs(m, values, vectors, label)
    return values, vectors


def _validate_pairs(m: np.ndarray, values: np.ndarray, vectors: np.ndarray, label: str) -> None:
    n = m.shape[0]
    if n == 0:
        return
    residuals = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    allowed = RESIDUAL_TOL * np.maximum(1.0, np.abs(values))
    if not np.all(residuals <= allowed):
        worst = float((residuals - allowed).max())
        raise EigensolverError(f"{label}: eigenpair residual exceeds tolerance by {worst:.3e}")
    gram_defect = float(np.abs(vectors.T @ vectors - np.eye(n)).max())
    if not gram_defect <= ORTHONORMALITY_TOL:
        raise EigensolverError(f"{label}: eigenvectors not orthonormal (defect {gram_defect:.3e})")


def spectral_support(kind: RepresentationKind, d_max: float) -> tuple[float, float]:
    """Gershgorin interval containing all eigenvalues of the given kind."""
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    if kind is RepresentationKind.ADJACENCY:
        return (-d_max, d_max)
    if kind is RepresentationKind.LAPLACIAN:
        return (0.0, 2.0 * d_max)
    return (0.0, 2.0)


def eigensystem(g: Graph, kind: RepresentationKind) -> tuple[Spectrum, np.ndarray]:
    """Spectrum in convention order plus the matching eigenvector columns.

    For the normalised Laplacian the columns are random-walk eigenvectors:
    the symmetric surrogate's orthonormal vectors times D^{-1/2}, not
    normalised.

    Memoised on the graph, which is immutable: the first call for a kind
    solves and checks, and every later call returns the same read-only
    vectors, which the graph keeps (8 n^2 bytes per kind). The Spectrum is
    always the one :func:`spectrum` returns for the graph and kind.
    """
    vectors = _memoised(g, _vectors, kind)
    return spectrum(g, kind), vectors


def spectrum(g: Graph, kind: RepresentationKind) -> Spectrum:
    """Ordered eigenvalues of the chosen representation matrix.

    Memoised on the graph, which is immutable: every call for the same
    graph and kind returns the same Spectrum, whose values are read-only.
    The eigenvectors are not kept; only :func:`eigensystem` keeps them.
    """
    return _memoised(g, _values, kind)


def _values(g: Graph, kind: RepresentationKind) -> Spectrum:
    return _solve(g, kind)[0]


def _vectors(g: Graph, kind: RepresentationKind) -> np.ndarray:
    """The kind's read-only eigenvectors, newly solved; the Spectrum of the same
    solve becomes the kind's spectrum unless the graph has one already."""
    spec, vectors = _solve(g, kind)
    vectors.setflags(write=False)
    g._memo.setdefault((_values, kind), spec)
    return vectors


def _solve(g: Graph, kind: RepresentationKind) -> tuple[Spectrum, np.ndarray]:
    """The kind's checked eigensystem, newly computed; the Spectrum's values read-only."""
    values, vectors = eig_sym(build_matrix(g, kind), label=f"{kind.value} matrix (n={g.n})")
    if kind is RepresentationKind.ADJACENCY:
        order = np.argsort(-values, kind="stable")
        values, vectors = values[order], vectors[:, order]
    elif kind is RepresentationKind.NORMALIZED_LAPLACIAN:
        vectors = vectors * (1.0 / np.sqrt(g.degrees))[:, None]
    lo, hi = spectral_support(kind, degree_summary(g).d_max)
    # The slack shrinks with the support, so tiny weights are still checked.
    slack = 1e-9 * min(1.0, hi - lo)
    if len(values) and (values.min() < lo - slack or values.max() > hi + slack):
        raise EigensolverError(
            f"{kind.value} eigenvalues escape the Gershgorin support [{lo}, {hi}]"
        )
    values.setflags(write=False)
    return Spectrum(kind=kind, values=values, support=(lo, hi)), vectors


def normalized_eigengaps(s: Spectrum) -> np.ndarray:
    """Consecutive eigenvalue gaps divided by the spectral support length, as a new array.

    All entries are non-negative under the spectrum's ordering convention.
    A zero-length support (edgeless graph) means a one-point spectrum, so
    the gaps are zero.
    """
    if s.n < 2:
        raise ValueError("eigengaps need at least two eigenvalues")
    gaps = np.abs(np.diff(s.values))  # sorted, up or down: |diff| is each gap
    if s.support_length == 0.0:
        gaps[:] = 0.0
    else:
        gaps /= s.support_length
    return gaps
