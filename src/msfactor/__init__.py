"""Two-state Markov switching factor models on large panels.

Estimation combines principal components for the equivalent linear factor
representation with an EM algorithm whose E step runs the Hamilton filter
and Kim smoother over regime probabilities; a Monte Carlo driver
reproduces the simulation study at desk scale.

Each public name loads its submodule on first use (PEP 562), so
``import msfactor`` loads no numpy. That lets ``python -m msfactor.cli``
choose numpy's BLAS threads before numpy starts (see :mod:`msfactor.cli`).
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(["EmConfig", "EmResult", "run_em"], "em"),
    "MsfactorError": "exceptions",
    **dict.fromkeys(["filter_smoother_pass", "regime_log_densities"], "filtering"),
    **dict.fromkeys(
        ["blended_loadings", "common_component_mse", "fitted_common_component",
         "regime_blend_matrix", "trace_r2"],
        "metrics",
    ),
    **dict.fromkeys(["MonteCarloReport", "run_montecarlo", "run_replication"], "montecarlo"),
    **dict.fromkeys(["enumerate_posterior", "equivalence_suite"], "oracle"),
    **dict.fromkeys(["demean_panel", "estimate_factor_space", "select_num_factors_er"], "pca"),
    **dict.fromkeys(["SimTruth", "simulate_panel"], "simulate"),
    **dict.fromkeys(
        ["FactorSpace", "ModelParams", "Panel", "ProbabilityPath", "RngHandle", "SimConfig",
         "StateProbabilities", "TransitionMatrix", "unconditional_probs", "validate_panel"],
        "types",
    ),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
