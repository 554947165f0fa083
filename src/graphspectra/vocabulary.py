"""The names the command line shares with the numerical layers, without numpy.

Representation kinds, matrix pairs, default tolerances and seeds, and the
errors of the eigensolver and of k-means. The layers re-export each name
where it has always been found (``spectra.RepresentationKind``,
``bounds.MatrixPair``, ``clustering.KMeansError``, ...); keeping them here
lets the parser and the degree-only commands run without importing numpy.
"""

from __future__ import annotations

from enum import Enum

DEFAULT_CROSSOVER_TOL = 1e-6
DEFAULT_MERGE_TOL = 1e-12
DEFAULT_SEED = 42
DEFAULT_RESTARTS = 50


class RepresentationKind(Enum):
    ADJACENCY = "A"
    LAPLACIAN = "L"
    NORMALIZED_LAPLACIAN = "Lrw"

    # Members are singletons compared by identity; Enum's own hash runs in Python.
    __hash__ = object.__hash__


class MatrixPair(Enum):
    A_L = "A_L"
    L_LRW = "L_Lrw"
    A_LRW = "A_Lrw"

    __hash__ = object.__hash__  # as RepresentationKind: identity, not Enum's Python-level hash


# Each pair's source kind and target kind.
PAIR_KINDS = {
    MatrixPair.A_L: (RepresentationKind.ADJACENCY, RepresentationKind.LAPLACIAN),
    MatrixPair.L_LRW: (RepresentationKind.LAPLACIAN, RepresentationKind.NORMALIZED_LAPLACIAN),
    MatrixPair.A_LRW: (RepresentationKind.ADJACENCY, RepresentationKind.NORMALIZED_LAPLACIAN),
}


class EigensolverError(RuntimeError):
    """LAPACK ``eigh`` failed or produced a decomposition that fails validation."""


class KMeansError(RuntimeError):
    """Lloyd's iteration increased the k-means inertia, which exact arithmetic forbids."""
