"""Independent cross-check of the threshold solver: the unreduced KKT system.

`solve_raw_kkt` solves the four-constant stationarity system of the least
favorable pair directly with ``scipy.optimize.root``: both densities
normalize and both divergence constraints are active, with the branch
scalings g0 = c1*f0 / phi0-form / c2*f0 and g1 = c3*f1 / phi1-form / c4*f1.
It shares no thresholds, balance factor or normalizer with
`lfd_solver.solve_thresholds`, so agreement of the two is evidence that the
reduced two-threshold system is right.  `raw_phi0`, `raw_phi1` and
`raw_rule` rebuild the interior branches from the unreduced multipliers.
Only tests use this module; scipy is a development dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from robustlrt.density import QuadratureGrid, ratio_values, trapezoid_weights, values_on
from robustlrt.divergence import DivergenceSpec, check_alpha, x_of
from robustlrt.kernels import augment_with_crossings
from robustlrt.lfd_solver import NonConvergenceError


@dataclass(frozen=True)
class KktParams:
    """Unreduced stationarity constants and multipliers."""

    c1: float
    c2: float
    c3: float
    c4: float
    lambda0: float
    lambda1: float
    mu0: float
    mu1: float


def _kkt_multipliers(c, alpha):
    c1, c2, c3, c4 = c
    beta = alpha - 1.0
    d0 = c1 ** beta - c2 ** beta
    d1 = c4 ** beta - c3 ** beta
    if d0 == 0.0 or d1 == 0.0:
        return None
    lam0 = (1.0 - alpha) / d0
    mu0 = (c1 ** beta - 1.0) / d0
    lam1 = (1.0 - alpha) / d1
    mu1 = (c4 ** beta - 1.0) / d1
    if not (lam0 > 0.0 and lam1 > 0.0):
        return None
    return lam0, lam1, mu0, mu1


def _n_const(params: KktParams, alpha: float) -> float:
    lam0, lam1 = params.lambda0, params.lambda1
    mu0, mu1 = params.mu0, params.mu1
    return -1.0 + lam0 + lam1 + mu0 + mu1 - alpha * (-1.0 + mu0 + mu1)


def raw_phi1(l, params: KktParams, alpha: float, rho: float):
    """Interior g1 scale factor built from the unreduced multipliers."""
    beta = alpha - 1.0
    lv = np.asarray(l, dtype=np.float64)
    n = _n_const(params, alpha)
    return (n / (params.lambda1 + params.lambda0 * (lv / rho) ** beta)) ** (1.0 / beta)


def raw_phi0(l, params: KktParams, alpha: float, rho: float):
    """Interior g0 scale factor built from the unreduced multipliers."""
    beta = alpha - 1.0
    lv = np.asarray(l, dtype=np.float64)
    n = _n_const(params, alpha)
    return (n / (params.lambda0 + params.lambda1 * (lv / rho) ** (1.0 - alpha))) ** (1.0 / beta)


def raw_rule(l, params: KktParams, alpha: float, rho: float):
    """Interior randomization built from the unreduced multipliers."""
    lam0, lam1 = params.lambda0, params.lambda1
    mu0, mu1 = params.mu0, params.mu1
    lv = np.asarray(l, dtype=np.float64)
    s = (lv / rho) ** (1.0 - alpha)
    num = lam0 * (-1.0 + alpha + lam1 + mu1 - alpha * mu1) \
        - lam1 * (lam0 + mu0 - alpha * mu0) * s
    return num / ((alpha - 1.0) * (lam0 + lam1 * s))


def solve_raw_kkt(spec: DivergenceSpec, nominals, grid: QuadratureGrid) -> KktParams:
    """Solve the unreduced four-constant stationarity system directly.

    Finds (c1, c2, c3, c4) such that both least favorable densities
    normalize and both divergence constraints are active, using the
    branch scalings g0 = c1*f0 / phi0-form / c2*f0 and g1 = c3*f1 /
    phi1-form / c4*f1 with thresholds l_l = c1/c3 and l_u = c2/c4.  This is
    the cross-validation route for the reduced threshold solver; no values
    from solve_thresholds seed it.
    """
    check_alpha(spec.alpha)
    alpha, rho = spec.alpha, spec.rho
    beta = alpha - 1.0
    f0v, f1v = (values_on(f, grid) for f in nominals)
    l = ratio_values(f0v, f1v)
    x0, x1 = x_of(alpha, spec.eps0), x_of(alpha, spec.eps1)
    points = grid.points
    bad = np.array([1e6, 1e6, 1e6, 1e6])

    def system(logc):
        c = np.exp(logc)
        mult = _kkt_multipliers(c, alpha)
        if mult is None:
            return bad
        lam0, lam1, mu0, mu1 = mult
        ll, lu = c[0] / c[2], c[1] / c[3]
        if not (0.0 < ll <= 1.0 <= lu):
            return bad
        n_const = -1.0 + lam0 + lam1 + mu0 + mu1 - alpha * (-1.0 + mu0 + mu1)
        if n_const <= 0.0:
            return bad
        lo, hi = rho * ll, rho * lu
        y_aug, l_aug, (f0a, f1a) = augment_with_crossings(points, l, [f0v, f1v], lo, hi)
        w = trapezoid_weights(y_aug)
        lab = np.where(l_aug < lo, 1, np.where(l_aug > hi, 3, 2))
        in1, in2, in3 = lab == 1, lab == 2, lab == 3
        g0 = np.empty_like(f0a)
        g1 = np.empty_like(f1a)
        g0[in1], g0[in3] = c[0] * f0a[in1], c[1] * f0a[in3]
        g1[in1], g1[in3] = c[2] * f1a[in1], c[3] * f1a[in3]
        if np.any(in2):
            s = (l_aug[in2] / rho) ** (1.0 - alpha)
            ph0 = (n_const / (lam0 + lam1 * s)) ** (1.0 / beta)
            ph1 = (n_const / (lam1 + lam0 * (l_aug[in2] / rho) ** beta)) ** (1.0 / beta)
            if not (np.all(np.isfinite(ph0)) and np.all(np.isfinite(ph1))):
                return bad
            g0[in2] = ph0 * f0a[in2]
            g1[in2] = ph1 * f1a[in2]
        r1 = float(np.dot(g0, w)) - 1.0
        r2 = float(np.dot(g1, w)) - 1.0
        base0 = np.where(f0a > 0.0, f0a, 1.0)
        base1 = np.where(f1a > 0.0, f1a, 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m0 = np.where(f0a > 0.0, (g0 / base0) ** alpha * f0a, 0.0)
            m1 = np.where(f1a > 0.0, (g1 / base1) ** alpha * f1a, 0.0)
        r3 = float(np.dot(m0, w)) - x0
        r4 = float(np.dot(m1, w)) - x1
        out = np.array([r1, r2, r3, r4])
        if not np.all(np.isfinite(out)):
            return bad
        return out

    scale = max(1.0, abs(x0), abs(x1))
    best = None
    for s in (0.05, 0.15, 0.3, 0.5, 0.02, 0.7):
        for shape in ((1.0 - s, 1.0 + s, 1.0 + s, 1.0 - s),
                      (1.0 - s, 1.0 + s, 1.0, 1.0),
                      (1.0 - 0.5 * s, 1.0 + s, 1.0 + 0.5 * s, 1.0 - 0.25 * s)):
            c0 = np.array(shape)
            if not (0.0 < c0[0] / c0[2] <= 1.0 <= c0[1] / c0[3]):
                continue
            sol = root(system, np.log(c0), method="hybr",
                       options={"xtol": 1e-13, "maxfev": 4000})
            r = system(sol.x)
            nrm = float(np.max(np.abs(r)))
            if best is None or nrm < best[0]:
                best = (nrm, sol.x)
            if nrm < 1e-9 * scale:
                c = np.exp(sol.x)
                lam0, lam1, mu0, mu1 = _kkt_multipliers(c, alpha)
                return KktParams(c1=float(c[0]), c2=float(c[1]), c3=float(c[2]),
                                 c4=float(c[3]), lambda0=lam0, lambda1=lam1,
                                 mu0=mu0, mu1=mu1)
    raise NonConvergenceError(
        "four-constant system did not converge; best residual norm %.3g" % best[0]
    )
