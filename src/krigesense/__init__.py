"""Kriging weights and variances under the Matern covariance, local
identifiability via collinearity indices, global Sobol sensitivity of the
kriging quantities, and a grid-search latent-GP classifier benchmark."""

from .specfun import bessel_k, bessel_k_log
from .linalg import (NotPositiveDefiniteError, SpdFactor, spd_factor,
                     spd_solve, sym_eigenvalues)
from .kernel import (LocationSet, MaternParams, ReducedParams,
                     kernel_matrix, make_grid, matern_correlation,
                     matern_covariance)
from .kriging import (KrigingSystem, kriging_variance, kriging_weights,
                      log_likelihood, nearest_neighbors, predict_mean)
from .identifiability import (CollinearityCell, UndefinedCollinearityError,
                              band_of, collinearity_index, collinearity_scan,
                              local_sensitivities)
from .sensitivity import (ParamBox, SobolResult, UndefinedSharesError,
                          lhs_sample, response_variance, response_weights,
                          run_study, sobol_total)
from .classifier import (GridSpec, LabeledSet, TrialResult, classify,
                         grid_search, loo_accuracy, run_benchmark,
                         synth_dataset)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "bessel_k", "bessel_k_log",
    "NotPositiveDefiniteError", "SpdFactor", "spd_factor", "spd_solve",
    "sym_eigenvalues",
    "LocationSet", "MaternParams", "ReducedParams", "kernel_matrix",
    "make_grid", "matern_correlation", "matern_covariance",
    "KrigingSystem", "kriging_variance", "kriging_weights",
    "log_likelihood", "nearest_neighbors", "predict_mean",
    "CollinearityCell", "UndefinedCollinearityError", "band_of",
    "collinearity_index", "collinearity_scan", "local_sensitivities",
    "ParamBox", "SobolResult", "UndefinedSharesError",
    "lhs_sample", "response_variance", "response_weights", "run_study",
    "sobol_total",
    "GridSpec", "LabeledSet", "TrialResult", "classify", "grid_search",
    "loo_accuracy", "run_benchmark", "synth_dataset",
]
