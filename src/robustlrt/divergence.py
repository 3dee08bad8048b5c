"""Alpha-divergence and related constants.

The divergence used throughout is

    D(g, f; alpha) = (1 - I) / (alpha * (1 - alpha)),   I = integral g^a f^(1-a)

for alpha outside {0, 1}.  alpha = 2 gives the chi-square divergence, alpha =
1/2 is the squared Hellinger distance scaled by 4, and Kullback-Leibler is the
alpha -> 1 limit (approached numerically, never evaluated at 1).  The moment
integral I is computed in log space so that large |alpha| does not overflow:
the solver sweeps alpha up to 100.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import QuadratureGrid, integrate, values_on

# alpha must stay this far from the excluded points {0, 1}
ALPHA_GUARD_BAND = 1e-6


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if abs(alpha) <= ALPHA_GUARD_BAND or abs(alpha - 1.0) <= ALPHA_GUARD_BAND:
        raise ValueError(
            f"alpha={alpha} is inside the guard band around the excluded points 0 and 1"
        )
    return alpha


@dataclass(frozen=True)
class DivergenceSpec:
    """Divergence order alpha, Bayesian threshold rho, and ball radii.

    rho is the prior ratio P(H0)/P(H1) and doubles as the likelihood-ratio
    test threshold.  eps0 and eps1 are the uncertainty radii around the two
    nominal densities, finite and nonnegative; feasibility against the
    admissible-radius boundary is a separate check, not enforced here.
    """

    alpha: float
    rho: float = 1.0
    eps0: float = 0.0
    eps1: float = 0.0

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (0.0 <= self.eps0 < math.inf and 0.0 <= self.eps1 < math.inf):
            raise ValueError(
                f"radii must be finite and nonnegative, got ({self.eps0}, {self.eps1})")


def x_of(alpha: float, eps: float) -> float:
    """Constraint constant 1 - alpha*(1-alpha)*eps."""
    return 1.0 - alpha * (1.0 - alpha) * eps


def moment_integral(g, f, alpha: float, grid: QuadratureGrid) -> float:
    """Quadrature of g^alpha * f^(1-alpha) with zero-density conventions.

    Cells where both densities vanish contribute nothing.  A cell where the
    factor with a negative exponent vanishes makes the integrand infinite;
    that is a support violation (g must stay absolutely continuous with
    respect to f for alpha > 1, and vice versa for alpha < 0).
    """
    alpha = check_alpha(alpha)
    gv = values_on(g, grid)
    fv = values_on(f, grid)
    both = (gv > 0.0) & (fv > 0.0)
    if alpha > 1.0 and np.any((fv == 0.0) & (gv > 0.0)):
        raise ValueError("support violation: g > 0 where f = 0 makes the integrand infinite")
    if alpha < 0.0 and np.any((gv == 0.0) & (fv > 0.0)):
        raise ValueError("support violation: f > 0 where g = 0 makes the integrand infinite")
    term = np.zeros_like(fv)
    term[both] = np.exp(alpha * np.log(gv[both]) + (1.0 - alpha) * np.log(fv[both]))
    return integrate(term, grid)


def alpha_divergence(g, f, alpha: float, grid: QuadratureGrid) -> float:
    """Alpha-divergence D(g, f; alpha) of g from f by grid quadrature.

    Parameters
    ----------
    g, f : DensityModel or ndarray
        Densities (or their values on the grid points).
    alpha : float
        Divergence order, outside the guard band around {0, 1}.
    grid : QuadratureGrid
        Quadrature rule shared by both densities.

    Returns
    -------
    float
        The divergence; nonnegative up to quadrature slack for alpha in
        common ranges.  Negative values (possible for exotic alpha < 0
        inputs) are reported as-is with a warning, as a diagnostic.
    """
    i = moment_integral(g, f, alpha, grid)
    d = (1.0 - i) / (alpha * (1.0 - alpha))
    if d < -1e-10:
        warnings.warn(
            f"alpha-divergence came out negative ({d:.3e}) at alpha={alpha}; "
            "treating as a diagnostic, not an error",
            stacklevel=2,
        )
    return d

