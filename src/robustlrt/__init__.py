"""Minimax-robust likelihood ratio tests under alpha-divergence uncertainty.

Build a binary hypothesis test that stays reliable when the true densities
may deviate from the nominal pair by a bounded alpha-divergence: solve for
the least favorable densities and the randomized robust decision rule,
check how large the uncertainty radii are allowed to be, and evaluate
error probabilities by quadrature or Monte Carlo.

The grid kernels that every threshold search integrates with are plain
vectorized numpy (``robustlrt.kernels``), and one Newton search with exact
slopes (``robustlrt.roots``) solves every scalar equation outside the
discrete oracle; numpy is the only run-time dependency.
"""

import importlib.util
import sys

from .density import (
    DensityModel,
    GaussianMixture,
    QuadratureGrid,
    Shifted,
    Tabulated,
    TabulatedFunction,
    evaluate,
    gaussian,
    gaussian_mixture,
    grid_for,
    integrate,
    likelihood_ratio,
    make_grid,
    ratio_values,
    sample,
    shifted,
    tabulated,
    trapezoid_weights,
)
from .divergence import (
    DivergenceSpec,
    alpha_divergence,
    check_alpha,
    moment_integral,
    x_of,
)
from .limits import (
    FeasibilityReport,
    InfeasibleEpsError,
    InfeasiblePairError,
    NoBoundaryPointError,
    eps_surface,
    hellinger_eps_max,
    hellinger_root_a,
    max_eps_general,
    validate_eps,
)
from .roots import NonConvergenceError

# The modules that only some commands run, and the names the package takes
# from each.  Each module is registered in sys.modules at import but runs
# only on the first access to one of its attributes (importlib's
# LazyLoader), so a process compiles the solver, the evaluation and the
# oracle only when it uses them, while code that looks the package's modules
# up in sys.modules still finds every one.  `__getattr__` resolves each name
# on its first access.
_HOMES = {name: module for module, names in (
    ("lfd_solver", ("DegenerateRegionError", "ParametricInfeasibleError", "RobustSolution",
                    "ThresholdPair", "partition", "phi1", "robust_lr", "robust_rule",
                    "solve_symmetric", "solve_thresholds")),
    ("evaluation", ("AlphaRow", "ErrorReport", "SnrRow", "alpha_sweep", "amplitudes_from_snr",
                    "error_probs", "lrt_errors", "lrt_rule", "monte_carlo_errors", "snr_of",
                    "snr_sweep")),
    ("oracle", ("DiscreteProblem", "OracleError", "OscillationError", "alternating_saddle",
                "bayes_error_bins", "best_response_rule", "bin_centers", "discrete_divergence",
                "discretize", "maximize_over_ball", "worst_case_error")),
) for name in names}


def _deferred(module: str):
    """The submodule, registered in sys.modules and run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


lfd_solver, evaluation, oracle = map(_deferred, ("lfd_solver", "evaluation", "oracle"))


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))


__version__ = "0.1.0"

__all__ = [
    "__version__",
    # density
    "DensityModel", "GaussianMixture", "Shifted", "Tabulated", "TabulatedFunction",
    "QuadratureGrid", "gaussian", "gaussian_mixture", "shifted", "tabulated",
    "make_grid", "grid_for", "trapezoid_weights", "evaluate", "integrate",
    "likelihood_ratio", "ratio_values", "sample",
    # divergence
    "DivergenceSpec", "check_alpha", "x_of", "moment_integral",
    "alpha_divergence",
    # lfd_solver
    "ThresholdPair", "RobustSolution",
    "DegenerateRegionError", "ParametricInfeasibleError", "InfeasibleEpsError",
    "NonConvergenceError", "partition", "phi1", "robust_rule", "robust_lr",
    "solve_thresholds", "solve_symmetric",
    # limits
    "FeasibilityReport", "InfeasiblePairError", "NoBoundaryPointError",
    "hellinger_root_a", "hellinger_eps_max", "max_eps_general",
    "eps_surface", "validate_eps",
    # evaluation
    "ErrorReport", "SnrRow", "AlphaRow", "error_probs", "lrt_rule",
    "lrt_errors", "monte_carlo_errors", "amplitudes_from_snr", "snr_of",
    "snr_sweep", "alpha_sweep",
    # oracle
    "DiscreteProblem", "OracleError", "OscillationError", "bin_centers",
    "discretize", "discrete_divergence", "maximize_over_ball",
    "best_response_rule", "bayes_error_bins", "worst_case_error",
    "alternating_saddle",
]
