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
from enum import Enum

import numpy as np

from .graphs import Graph, degree_summary

RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


class RepresentationKind(Enum):
    ADJACENCY = "A"
    LAPLACIAN = "L"
    NORMALIZED_LAPLACIAN = "Lrw"


class UndefinedRepresentationError(ValueError):
    """Normalised Laplacian requested for a graph with an isolated vertex."""


class EigensolverError(RuntimeError):
    """LAPACK ``eigh`` failed or produced a decomposition that fails validation."""


@dataclass(frozen=True, eq=False)
class RepMatrix:
    """A representation matrix; ``sym_surrogate`` marks the L_sym stand-in."""

    kind: RepresentationKind
    entries: np.ndarray
    sym_surrogate: bool


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Eigenvalues in ascending order, column i of vectors paired with values[i]."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in the kind's convention order with their Gershgorin support.

    Adjacency spectra are descending; both Laplacian spectra ascending.
    """

    kind: RepresentationKind
    values: np.ndarray
    support: tuple[float, float]
    support_length: float

    @property
    def n(self) -> int:
        return len(self.values)


def build_matrix(g: Graph, kind: RepresentationKind) -> RepMatrix:
    """Assemble the requested representation matrix, exactly symmetric.

    For the normalised Laplacian the symmetric form L_sym is returned
    (it has the same eigenvalues as the random-walk form, which is not
    symmetric); the ``sym_surrogate`` flag records the substitution.
    Requires d_min > 0 in that case.
    """
    ds = degree_summary(g)
    a = np.array(g.weights)
    if kind is RepresentationKind.ADJACENCY:
        return RepMatrix(kind=kind, entries=a, sym_surrogate=False)
    lap = np.diag(ds.degrees) - a
    if kind is RepresentationKind.LAPLACIAN:
        return RepMatrix(kind=kind, entries=lap, sym_surrogate=False)
    if kind is RepresentationKind.NORMALIZED_LAPLACIAN:
        if ds.d_min == 0.0:  # degrees sum positive weights: exactly 0 when isolated
            raise UndefinedRepresentationError(
                "normalised Laplacian is undefined for d_min = 0 (isolated vertex)"
            )
        inv_sqrt = 1.0 / np.sqrt(ds.degrees)
        # Elementwise scaling keeps the matrix exactly symmetric.
        lsym = lap * np.outer(inv_sqrt, inv_sqrt)
        return RepMatrix(kind=kind, entries=lsym, sym_surrogate=True)
    raise ValueError(f"unknown representation kind {kind!r}")


def eig_sym(m: np.ndarray, label: str = "matrix") -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix via LAPACK ``eigh``.

    Values come back ascending. Raises :class:`EigensolverError` if LAPACK
    fails or the residual / orthonormality checks fail.
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
    return EigenPairs(values=values, vectors=vectors)


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
    rep = build_matrix(g, kind)
    pairs = eig_sym(rep.entries, label=f"{kind.value} matrix (n={g.n})")
    if kind is RepresentationKind.ADJACENCY:
        order = np.argsort(-pairs.values, kind="stable")
        values, vectors = pairs.values[order], pairs.vectors[:, order]
    else:
        values, vectors = pairs.values, pairs.vectors
    d_max = degree_summary(g).d_max
    lo, hi = spectral_support(kind, d_max)
    if len(values) and (values.min() < lo - 1e-9 or values.max() > hi + 1e-9):
        raise EigensolverError(
            f"{kind.value} eigenvalues escape the Gershgorin support [{lo}, {hi}]"
        )
    spec = Spectrum(kind=kind, values=values, support=(lo, hi), support_length=hi - lo)
    return spec, vectors


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
    the gaps are zero.
    """
    if s.n < 2:
        raise ValueError("eigengaps need at least two eigenvalues")
    if s.kind is RepresentationKind.ADJACENCY:
        gaps = s.values[:-1] - s.values[1:]
    else:
        gaps = s.values[1:] - s.values[:-1]
    if s.support_length == 0.0:
        return np.zeros_like(gaps)
    return gaps / s.support_length
