"""Representation matrices and their ordered eigenvalue spectra.

The three representation matrices of a graph are the adjacency matrix,
the unnormalised Laplacian D - A, and the random-walk normalised
Laplacian D^{-1}(D - A). The last shares its eigenvalues with the
symmetric form D^{-1/2}(D - A)D^{-1/2}, which is what we actually
decompose; everything downstream works on eigenvalues, and clustering
recovers the random-walk eigenvectors from the symmetric ones.

Eigendecomposition uses LAPACK ``eigh`` on the exactly symmetric matrix;
every result is checked for residual and orthonormality before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, degree_summary
from .vocabulary import EigensolverError, RepresentationKind

RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


class UndefinedRepresentationError(ValueError):
    """Normalised Laplacian requested for a graph with an isolated vertex."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in the kind's convention order with their Gershgorin support.

    Adjacency spectra are descending; both Laplacian spectra ascending.
    ``support_length`` is ``support[1] - support[0]``, computed on access.
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

    @cached_property
    def _normalized_gaps(self) -> np.ndarray:
        """The read-only normalised eigengaps; see :func:`normalized_eigengaps`."""
        gaps = _eigengaps(self)
        gaps.setflags(write=False)
        return gaps


def build_matrix(g: Graph, kind: RepresentationKind) -> np.ndarray:
    """The requested representation matrix as a new n x n array, exactly symmetric.

    For the normalised Laplacian the symmetric form L_sym is returned: it
    has the same eigenvalues as the random-walk form, which is not
    symmetric. Requires d_min > 0 in that case.
    """
    a = np.array(g.weights)
    if kind is RepresentationKind.ADJACENCY:
        return a
    lap = np.diag(g.degrees) - a
    if kind is RepresentationKind.LAPLACIAN:
        return lap
    if kind is RepresentationKind.NORMALIZED_LAPLACIAN:
        if degree_summary(g).d_min == 0.0:  # degrees sum positive weights: exactly 0 when isolated
            raise UndefinedRepresentationError(
                "normalised Laplacian is undefined for d_min = 0 (isolated vertex)"
            )
        inv_sqrt = 1.0 / np.sqrt(g.degrees)
        # Elementwise scaling keeps the matrix exactly symmetric.
        return lap * np.outer(inv_sqrt, inv_sqrt)
    raise ValueError(f"unknown representation kind {kind!r}")


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

    For the normalised Laplacian the vectors are those of the symmetric
    surrogate; multiply by D^{-1/2} to obtain random-walk eigenvectors.
    """
    values, vectors = eig_sym(build_matrix(g, kind), label=f"{kind.value} matrix (n={g.n})")
    if kind is RepresentationKind.ADJACENCY:
        order = np.argsort(-values, kind="stable")
        values, vectors = values[order], vectors[:, order]
    lo, hi = spectral_support(kind, degree_summary(g).d_max)
    if len(values) and (values.min() < lo - 1e-9 or values.max() > hi + 1e-9):
        raise EigensolverError(
            f"{kind.value} eigenvalues escape the Gershgorin support [{lo}, {hi}]"
        )
    return Spectrum(kind=kind, values=values, support=(lo, hi)), vectors


def spectrum(g: Graph, kind: RepresentationKind) -> Spectrum:
    """Ordered eigenvalues of the chosen representation matrix.

    Memoised on the graph, which is immutable: every call for the same
    graph and kind returns the same Spectrum, whose values are read-only.
    The eigenvectors are not kept; :func:`eigensystem` recomputes them.
    """
    spec = g._spectra.get(kind)
    if spec is None:
        spec, _ = eigensystem(g, kind)
        spec.values.setflags(write=False)
        g._spectra[kind] = spec
    return spec


def normalized_eigengaps(s: Spectrum) -> np.ndarray:
    """Consecutive eigenvalue gaps divided by the spectral support length.

    All entries are non-negative under the spectrum's ordering convention.
    A zero-length support (edgeless graph) means a one-point spectrum, so
    the gaps are zero. Computed once per spectrum, which is immutable: every
    call returns the same read-only array.
    """
    return s._normalized_gaps


def _eigengaps(s: Spectrum) -> np.ndarray:
    if s.n < 2:
        raise ValueError("eigengaps need at least two eigenvalues")
    if s.kind is RepresentationKind.ADJACENCY:
        gaps = s.values[:-1] - s.values[1:]
    else:
        gaps = s.values[1:] - s.values[:-1]
    if s.support_length == 0.0:
        return np.zeros_like(gaps)
    return gaps / s.support_length
