"""Compare graph spectra across representation matrices.

Builds the adjacency, unnormalised Laplacian and random-walk normalised
Laplacian of a graph, relates their spectra through affine transforms,
evaluates closed-form bounds on eigenvalue and normalised-eigengap
differences driven by the degree extremes, and demonstrates the impact
of the representation choice via spectral clustering.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each layer module and the names the package exports from it. They are
# imported on first use (PEP 562), so `import graphspectra` costs no numpy
# and the degree-only commands of the command line never load it.
_EXPORTS = {
    "bounds": (
        "CrossoverReport",
        "GapDifferences",
        "MatrixPair",
        "PairBounds",
        "PairDifferences",
        "PolyMapReport",
        "WeylReport",
        "apply_transform",
        "detect_maximal_crossover",
        "gap_differences",
        "pair_bounds",
        "pair_differences",
        "polynomial_spectrum_map",
        "weyl_check",
    ),
    "clustering": (
        "ClusterComparison",
        "ClusteringResult",
        "KMeansError",
        "cluster",
        "compare_clusterings",
        "kmeans",
        "spectral_embed",
    ),
    "graphs": (
        "ClassTag",
        "ComponentLabeling",
        "DegreeSummary",
        "Graph",
        "GraphFormatError",
        "Region",
        "class_tag",
        "classify_region",
        "connected_components",
        "degree_summary",
        "disjoint_union",
        "gen_bipartite_b",
        "gen_complete",
        "gen_graph_c",
        "gen_star",
        "load_edge_list",
        "load_graph",
        "load_pajek",
    ),
    "spectra": (
        "EigensolverError",
        "RepresentationKind",
        "Spectrum",
        "UndefinedRepresentationError",
        "build_matrix",
        "eig_sym",
        "eigensystem",
        "normalized_eigengaps",
        "spectral_support",
        "spectrum",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """Import every layer module and bind all exported names on first access to any."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        layer = import_module(f".{module}", __name__)
        globals().update((n, getattr(layer, n)) for n in names)
    return globals()[name]
