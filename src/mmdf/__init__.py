"""Overlapping community detection for weighted and signed networks.

The package bundles a block-mean network generator with configurable
edge-weight families, a spectral membership estimator, fuzzy weighted
modularity with community-count selection, evaluation metrics, and a
Monte Carlo experiment harness with a command-line front end.
"""

from .dfsp import DfspReport, EstimationError, dfsp, harden
from .generator import (
    EdgeDistribution,
    Family,
    GeneratorSpec,
    build_membership,
    check_connectivity,
    population_adjacency,
    sample_adjacency,
)
from .graph import WeightedGraph, load_edge_list, write_edge_list
from .metrics import (
    ErrorPair,
    MixednessIndices,
    accuracy_rate,
    membership_errors,
    mislabel_count,
    mixedness_indices,
)
from .modularity import (
    KScanPoint,
    KScanResult,
    ModularityValue,
    estimate_k,
    fuzzy_weighted_modularity,
)
from .spectral import TopKEigen, successive_projection, top_k_eigen

__version__ = "0.1.0"

__all__ = [
    "DfspReport",
    "EstimationError",
    "dfsp",
    "harden",
    "EdgeDistribution",
    "Family",
    "GeneratorSpec",
    "build_membership",
    "check_connectivity",
    "population_adjacency",
    "sample_adjacency",
    "WeightedGraph",
    "load_edge_list",
    "write_edge_list",
    "ErrorPair",
    "MixednessIndices",
    "accuracy_rate",
    "membership_errors",
    "mislabel_count",
    "mixedness_indices",
    "KScanPoint",
    "KScanResult",
    "ModularityValue",
    "estimate_k",
    "fuzzy_weighted_modularity",
    "TopKEigen",
    "successive_projection",
    "top_k_eigen",
    "__version__",
]
