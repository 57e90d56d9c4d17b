"""Two-state Markov switching factor models on large panels.

Estimation combines principal components for the equivalent linear factor
representation with an EM algorithm whose E step runs the Hamilton filter
and Kim smoother over regime probabilities; a Monte Carlo driver
reproduces the simulation study at desk scale.
"""

from .em import EmConfig, EmResult, run_em
from .exceptions import MsfactorError
from .filtering import filter_smoother_pass, regime_log_densities
from .metrics import (
    blended_loadings,
    common_component_mse,
    fitted_common_component,
    regime_blend_matrix,
    trace_r2,
)
from .montecarlo import MonteCarloReport, run_montecarlo, run_replication
from .oracle import enumerate_posterior, equivalence_suite
from .pca import demean_panel, estimate_factor_space, select_num_factors_er
from .simulate import SimConfig, SimTruth, simulate_panel
from .types import (
    FactorSpace,
    ModelParams,
    Panel,
    ProbabilityPath,
    RngHandle,
    StateProbabilities,
    TransitionMatrix,
    unconditional_probs,
    validate_panel,
)

__version__ = "0.1.0"

__all__ = [
    "EmConfig",
    "EmResult",
    "FactorSpace",
    "ModelParams",
    "MonteCarloReport",
    "MsfactorError",
    "Panel",
    "ProbabilityPath",
    "RngHandle",
    "SimConfig",
    "SimTruth",
    "StateProbabilities",
    "TransitionMatrix",
    "blended_loadings",
    "common_component_mse",
    "demean_panel",
    "enumerate_posterior",
    "equivalence_suite",
    "estimate_factor_space",
    "filter_smoother_pass",
    "fitted_common_component",
    "regime_blend_matrix",
    "regime_log_densities",
    "run_em",
    "run_montecarlo",
    "run_replication",
    "select_num_factors_er",
    "simulate_panel",
    "trace_r2",
    "unconditional_probs",
    "validate_panel",
]
