"""Robust dimensionality reduction with collaborative sample weighting.

The package fits affine subspace models whose training objective couples a
smooth robust loss (the sigma-loss, interpolating between the l2,1 norm and
the squared Frobenius norm) with simplex-constrained sample weights learned
jointly with the subspace.  Classical PCA and an optimal-mean l2,1 baseline
are included for comparison, together with an occlusion benchmark harness.
"""

__version__ = "0.1.0"

from .baselines import fit_classical_pca, fit_pca_om
from .core import DataMatrix, RngHandle, column_centroid, top_eigenpairs
from .corobust import WeightVector, direct_weights, objective_value, solve_weights
from .errors import (
    DegenerateWeightsError,
    DimensionError,
    EpcaError,
    IngestionError,
    InternalInvariantError,
    InvariantError,
    ValidationError,
)
from .evaluation import (
    CorruptionSpec,
    LabelVector,
    clustering_accuracy,
    corrupt,
    kmeans,
    mean_clustering_accuracy,
    reconstruction_error,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    fit_method,
    grid_search_sigma,
    ingest_csv,
    run_experiment,
)
from .sigmaloss import (
    IrlsResult,
    SigmaLossParams,
    irls_coefficient,
    irls_solve,
    sigma_norm_matrix,
    sigma_norm_vector,
)
from .solver import EpcaFitState, SubspaceModel, epca_fit, epca_objective, reconstruct, transform

__all__ = [
    "CorruptionSpec",
    "DataMatrix",
    "DegenerateWeightsError",
    "DimensionError",
    "EpcaError",
    "EpcaFitState",
    "ExperimentConfig",
    "ExperimentReport",
    "IngestionError",
    "InternalInvariantError",
    "InvariantError",
    "IrlsResult",
    "LabelVector",
    "RngHandle",
    "SigmaLossParams",
    "SubspaceModel",
    "ValidationError",
    "WeightVector",
    "clustering_accuracy",
    "column_centroid",
    "corrupt",
    "direct_weights",
    "epca_fit",
    "epca_objective",
    "fit_classical_pca",
    "fit_method",
    "fit_pca_om",
    "grid_search_sigma",
    "ingest_csv",
    "irls_coefficient",
    "irls_solve",
    "kmeans",
    "mean_clustering_accuracy",
    "objective_value",
    "reconstruct",
    "reconstruction_error",
    "run_experiment",
    "solve_weights",
    "top_eigenpairs",
    "transform",
    "__version__",
]
