"""Least favorable densities and the minimax-robust randomized test.

Given nominal densities f0, f1, prior odds rho, a divergence order alpha and
ball radii (eps0, eps1), the robust test is characterized by two likelihood
ratio thresholds 0 < l_l <= 1 <= l_u.  They induce three regions

    I1 = {l < rho*l_l},   I2 = {rho*l_l <= l <= rho*l_u},   I3 = {l > rho*l_u}

on which the least favorable pair (g0_hat, g1_hat) is a branch-wise scaling
of the nominals, the randomized rule delta_hat is 0 / interior / 1, and the
robust likelihood ratio l_hat is l/l_l / rho / l/l_u.  The thresholds solve
two moment conditions that activate both divergence constraints.
``solve_thresholds`` finds them along one predictor-corrector continuation
path (Allgower & Georg, *Numerical Continuation Methods*) that grows the
radii from zero at rho = 1 and then moves the prior from 1 to rho.  Its
corrector is damped Newton with the analytic Jacobian of the residual pair:
in the continuum the region boundaries contribute nothing, because the
branches meet continuously there, so the Jacobian is the threshold powers,
the interior integrals' derivatives and dk from the mass balance; on the
grid the crossing cells add the quadrature's share, which keeps the
Jacobian that of the discrete residual.  A Newton step costs one residual
evaluation per line-search trial and none for its Jacobian.  Off the
centre prior a residual evaluation solves the mass balance for k by
`roots.newton` with the exact slope of its interior integral.  A residual
evaluation is None where a region degenerates; the searches take it as a
failed trial, and the zero-radius solve raises DegenerateRegionError.  The
module also offers a one-dimensional fast path for symmetric problems at
rho = 1 (``solve_symmetric``): the same residuals restricted to
l_l = 1/l_u, summed into one scalar equation in log l_u, which
`roots.newton` solves with the slope from the residual pair's Jacobian, so
its thresholds multiply to 1 exactly.  The interior bracket and the rule
come from one kernel helper, ``robust_rule``, ``robust_lr`` and the
materialized tables share one branch form, and ``partition`` takes the
grid kernels' region labels.  Both solvers refuse radii through one
feasibility check, `limits.validate_eps`.

Both solvers return tables on the quadrature grid augmented with the
region crossing points of `kernels.augment_with_crossings`, the one rule
that places table knots, so trapezoid sums over the tables reproduce the
solver's split-cell integrals to machine precision.  The least favorable
densities are `density.tabulated` models, and the rule and the robust
likelihood ratio are `density.TabulatedFunction` tables on those knots.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import limits
from .density import (QuadratureGrid, TabulatedFunction, _pointwise, evaluate, ratio_values,
                      tabulated, trapezoid_weights, values_on)
from .divergence import DivergenceSpec, alpha_divergence, check_alpha, x_of
from .kernels import (GridValues, I2Geometry, _div, _interior_bracket, _labels,
                      augment_with_crossings, grid_values, i2_geometry, i2_power_derivatives,
                      i2_powers, i2_s, region_split, split_masses)
from .roots import newton


class DegenerateRegionError(RuntimeError):
    """A region needed by the parametric solution carries no mass."""


class ParametricInfeasibleError(RuntimeError):
    """The branch form produced a negative base under a fractional power."""


class InfeasibleEpsError(ValueError):
    """The requested radius pair lies on or outside the admissible boundary."""


class NonConvergenceError(RuntimeError):
    """Root search exhausted its iteration budget; carries best residual."""


@dataclass(frozen=True)
class ThresholdPair:
    l_l: float
    l_u: float

    def __post_init__(self):
        if not (0.0 < self.l_l <= 1.0 <= self.l_u < math.inf):
            raise ValueError(
                "thresholds must satisfy 0 < l_l <= 1 <= l_u < inf, got "
                "(%r, %r)" % (self.l_l, self.l_u)
            )


@dataclass(frozen=True)
class RobustSolution:
    """Materialized robust test on the crossing-augmented grid."""

    spec: DivergenceSpec
    thresholds: ThresholdPair
    k: float
    z: float
    grid: QuadratureGrid
    g0_hat: object
    g1_hat: object
    delta_hat: TabulatedFunction
    l_hat: TabulatedFunction
    f0_values: np.ndarray
    f1_values: np.ndarray
    achieved_eps0: float
    achieved_eps1: float
    residual_norm: float


def partition(l_values, rho: float, t: ThresholdPair) -> np.ndarray:
    """Region labels 1/2/3 for each l value, the grid kernels' `_labels` plus
    one: threshold ties belong to I2, and a NaN to I1."""
    return _labels(np.asarray(l_values, dtype=np.float64), rho * t.l_l, rho * t.l_u) + 1


def _grid_values(nominals, grid: QuadratureGrid) -> GridValues:
    """What every residual evaluation of one solve reads (`kernels.grid_values`),
    with the label part of its last region split."""
    f0v, f1v = (values_on(f, grid) for f in nominals)
    return grid_values(grid.points, f0v, f1v, ratio_values(f0v, f1v))


@dataclass
class _EvalState:
    l_l: float
    l_u: float
    k: float
    z: float
    masses: tuple           # (A0, M0, B0, A1, M1, B1)
    s_int: float            # I2 integral of bracket^(1/beta) * f1
    t0_int: float           # I2 integral of bracket^(alpha/beta)*(l/rho)^alpha*f0
    t1_int: float           # I2 integral of bracket^(alpha/beta) * f1
    r0: float
    r1: float
    alpha: float
    rho: float
    geo: I2Geometry | None  # None for equal thresholds

    def jacobian(self):
        """d(r0, r1)/d(log l_l, log l_u) as a 2x2 array, None for equal thresholds.

        The thresholds enter through their powers, through the bracket of the
        I2 integrals, and through the region boundaries rho*l_l, rho*l_u,
        which move the crossing cells of the grid (`i2_power_derivatives`
        gives all three).  k follows from the implicit-function theorem on
        the mass balance psi(k) = k*den - num - c*S, with c = 1 - 1/rho.
        """
        if self.geo is None:
            return None
        a0, _, b0, a1, _, b1 = self.masses
        alpha, beta, k, l_l, l_u = self.alpha, self.alpha - 1.0, self.k, self.l_l, self.l_u
        kb = _pow(k, beta)
        dq, dm = i2_power_derivatives(self.geo, kb)
        (da0, db0), (da1, db1) = dm.tolist()
        # (S, T0, T1) in (u, v, k) = (log l_l, log l_u, k): dL/du = beta*L,
        # dU/dv = beta*U, dK/dk = beta*K/k, and d log lo/du = d log hi/dv = 1
        bl, bu, bk = beta * self.geo.lb, beta * self.geo.ub, beta * kb / k
        ds, dt0, dt1 = ((bl * d[0] + d[3], bu * d[1] + d[4], bk * d[2]) for d in dq.tolist())
        lower, upper, kpow = _pow(l_l, alpha), _pow(k * l_u, alpha), _pow(k, alpha)
        c = 1.0 - 1.0 / self.rho
        # rows n0, n1, z, psi of r0 = n0/z^alpha - x0, r1 = n1/z^alpha - x1, in
        # (u, v, k), in Python floats
        p = [[x + y for x, y in zip(row, dx)] for row, dx in zip((
            (alpha * lower * a0 + lower * da0, alpha * upper * b0 + upper * db0,
             alpha * upper * b0 / k),
            (da1, kpow * db1, alpha * kpow * b1 / k),
            (da1, k * db1, b1),
            (l_l * (a0 + da0) - da1, k * (l_u * (b0 + db0) - db1), l_u * b0 - b1),
        ), (dt0, dt1, ds, [-c * x for x in ds]))]
        dk = [_div(-x, p[3][2]) for x in p[3][:2]]
        tot = [[row[m] + row[2] * dk[m] for m in (0, 1)] for row in p[:3]]
        n = (lower * a0 + self.t0_int + upper * b0, a1 + self.t1_int + kpow * b1)
        za = _pow(self.z, alpha)
        return np.array([[_div(row[m] - alpha * n_i / self.z * tot[2][m], za) for m in (0, 1)]
                         for row, n_i in zip(tot, n)])


def _pow(x, p):
    # python float ** raises OverflowError where inf is the useful answer;
    # numpy scalars would warn and return inf instead, so coerce first
    try:
        return float(x) ** p
    except OverflowError:
        return math.inf


def _balance_root(geo, beta, num, den, c, k_lit):
    """The root k of the mass balance psi(k) = k*den - num - c*S(k) for
    unequal thresholds, None where the search finds none.

    psi falls as k grows, so -psi rises in u = log2(k/k_lit) from the
    literal ratio k_lit = num/den: `newton` searches |u| <= 64 with the
    slope d(-psi)/du = ln 2*(c*dS/d log k - k*den) of `i2_s`.  It stops at
    a width of 8.9e-16/ln 2 + 8.9e-16*|u| in u.  The first term is Brent's
    relative width 8.9e-16 in k; the second, a few float spacings of u,
    keeps the width above that spacing, which passes the first term from
    |u| = 8 on, where newton would otherwise bisect to its maxiter.  There
    is no absolute width in k: newton returns the point before its last step,
    off by about that step, so an absolute tolerance in k would leave the
    residual noisy and cost the continuation evaluations.
    """
    ln2 = math.log(2.0)

    def fdf(u):
        k = k_lit * 2.0 ** u
        kb = _pow(k, beta)
        if not 0.0 < kb < math.inf:
            return math.nan, math.nan
        s, ds = i2_s(geo, kb)
        return -(k * den - num - c * s), ln2 * (c * ds - k * den)

    try:
        u = newton(fdf, 0.0, 64.0, 8.9e-16 / ln2, 8.9e-16, maxiter=200)
    except (ValueError, RuntimeError):
        return None
    return None if u is None else k_lit * 2.0 ** u


def _eval_state(l_l, l_u, alpha, rho, gv: GridValues, x0, x1) -> _EvalState | None:
    """The residual pair and what its Jacobian needs at thresholds (l_l, l_u);
    None where a region carries no mass, the mass balance has no positive
    root, or a power or z is not positive and finite (NaN included).  Off
    the centre prior k is the root of the mass balance, in closed form for
    equal thresholds and by `_balance_root` otherwise."""
    # one region split of the grid gives the masses and the I2 geometry,
    # and its label part is the last split's while the knot labels repeat;
    # only the bracket powers depend on k, so off centre each trial k of the
    # mass balance psi(k) costs a few vector operations and two dot products
    split = region_split(gv, rho * l_l, rho * l_u)
    masses = split_masses(split)
    a0, m0, b0, a1, m1, b1 = masses
    num, den = a1 - l_l * a0, l_u * b0 - b1
    if a0 + a1 <= 0.0 or b0 + b1 <= 0.0 or den == 0.0:
        return None
    beta = alpha - 1.0

    # equal thresholds leave I2 a tie band, where the bracket is 0/0 and
    # the I2 integrals are plain masses
    geo = None
    if l_l != l_u:
        big_l, big_u = _pow(l_l, beta), _pow(l_u, beta)
        if not (0.0 < big_l < math.inf and 0.0 < big_u < math.inf):
            return None
        geo = i2_geometry(split, rho, beta, alpha, big_l, big_u)

    k = num / den
    if not 0.0 < k < math.inf:
        return None
    if rho != 1.0:
        c = 1.0 - 1.0 / rho
        # equal thresholds make S the plain mass M1 and psi linear in k
        k = (num + c * m1) / den if geo is None else _balance_root(geo, beta, num, den, c, k)
        if k is None or not 0.0 < k < math.inf:
            return None

    if geo is None:
        s_int, t0_int, t1_int = m1, _pow(l_l, alpha) * m0, m1
    else:
        kb = _pow(k, beta)
        if not 0.0 < kb < math.inf:
            return None
        s_int, t0_int, t1_int = i2_powers(geo, kb)
    z = a1 + s_int + k * b1
    if not 0.0 < z < math.inf:
        return None
    za = _pow(z, alpha)
    r0 = (_pow(l_l, alpha) * a0 + t0_int + _pow(k * l_u, alpha) * b0) / za - x0
    r1 = (a1 + t1_int + _pow(k, alpha) * b1) / za - x1
    return _EvalState(l_l, l_u, k, z, masses, s_int, t0_int, t1_int, r0, r1, alpha, rho, geo)


def phi1(l, t: ThresholdPair, alpha: float, rho: float, k: float, z: float):
    """Interior scale factor of g1_hat at ratio value(s) l in [rho*l_l, rho*l_u]."""
    check_alpha(alpha)
    lo, hi = rho * t.l_l, rho * t.l_u

    def factor(lv):
        if np.any(lv < lo - 1e-12 * lo) or np.any(lv > hi + 1e-12 * hi):
            raise ValueError("phi1 is defined on [rho*l_l, rho*l_u] only")
        if t.l_l == t.l_u:
            return np.full(lv.shape, 1.0 / z)
        beta = alpha - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logbr, _ = _interior_bracket(lv, rho, beta, k ** beta, t.l_l ** beta,
                                         t.l_u ** beta)
        return _interior_factor(logbr, t, alpha, z)

    return _pointwise(factor, l)


def _interior_factor(logbr, t: ThresholdPair, alpha: float, z: float):
    """phi1 from the log interior bracket of unequal thresholds."""
    beta = alpha - 1.0
    # L = U or a vanishing bracket denominator (log Br = inf or nan)
    if t.l_l ** beta == t.l_u ** beta or not np.all(logbr < math.inf):
        raise ParametricInfeasibleError(
            "interior bracket is not positive; the parametric form is "
            "infeasible at these thresholds"
        )
    return np.exp(logbr / beta) / z


def _branches(lv, t: ThresholdPair, alpha: float, rho: float, k: float):
    """(delta_hat, l_hat, log Br) at ratio values lv: the rule is 0 / interior / 1
    and the robust likelihood ratio l/l_l / rho / l/l_u below, inside and
    above [rho*l_l, rho*l_u]; equal thresholds randomize evenly on their tie.
    log Br is the interior bracket at the lv inside, None for equal
    thresholds or no lv inside."""
    lo, hi = rho * t.l_l, rho * t.l_u
    delta = (lv > hi).astype(np.float64)
    mid = (lv >= lo) & (lv <= hi)
    logbr = None
    if np.any(mid):
        if t.l_l == t.l_u:
            delta[mid] = 0.5
        else:
            beta = alpha - 1.0
            logbr, delta[mid] = _interior_bracket(lv[mid], rho, beta, k ** beta,
                                                  t.l_l ** beta, t.l_u ** beta)
    l_hat = np.where(lv < lo, lv / t.l_l, np.where(lv > hi, lv / t.l_u, rho))
    return delta, l_hat, logbr


def robust_rule(l, solution: RobustSolution):
    """Probability of deciding for the alternative at ratio value(s) l."""
    return _pointwise(lambda lv: _branches(lv, solution.thresholds, solution.spec.alpha,
                                           solution.spec.rho, solution.k)[0], l)


def robust_lr(l, solution: RobustSolution):
    """Robust likelihood ratio: l/l_l below, rho inside, l/l_u above."""
    return _pointwise(lambda lv: _branches(lv, solution.thresholds, solution.spec.alpha,
                                           solution.spec.rho, solution.k)[1], l)


def _materialize(spec, t, st, gv, resid_norm) -> RobustSolution:
    rho, alpha = spec.rho, spec.alpha
    y_aug, l_aug, (f0a, f1a) = augment_with_crossings(gv.points, gv.l, [gv.f0, gv.f1],
                                                      rho * t.l_l, rho * t.l_u)
    lab = partition(l_aug, rho, t)
    in2, in3 = lab == 2, lab == 3
    k, z = st.k, st.z
    with np.errstate(divide="ignore", invalid="ignore"):
        delta, l_hat_vals, logbr = _branches(l_aug, t, alpha, rho, k)

    # I3 takes the upper-region scaling; I1, and I2 when the thresholds are
    # equal, the lower-region one
    g0 = np.where(in3, k * t.l_u / z, t.l_l / z) * f0a
    g1 = np.where(in3, k / z, 1.0 / z) * f1a
    if logbr is not None:
        p1 = _interior_factor(logbr, t, alpha, z)
        g1[in2] = p1 * f1a[in2]
        g0[in2] = p1 * (l_aug[in2] / rho) * f0a[in2]
    if g0.min() < 0.0 or g1.min() < 0.0:
        raise ParametricInfeasibleError("a least favorable density went negative")

    for a in (y_aug, delta, l_hat_vals):  # tables take read-only arrays without a copy
        a.setflags(write=False)
    aug_grid = QuadratureGrid(y_aug, trapezoid_weights(y_aug))
    ach0 = alpha_divergence(g0, f0a, alpha, aug_grid)
    ach1 = alpha_divergence(g1, f1a, alpha, aug_grid)
    if abs(ach0 - spec.eps0) > 1e-4 or abs(ach1 - spec.eps1) > 1e-4:
        warnings.warn(
            "achieved divergences (%g, %g) deviate from requested (%g, %g) "
            "beyond 1e-4" % (ach0, ach1, spec.eps0, spec.eps1),
            RuntimeWarning,
            stacklevel=3,
        )
    return RobustSolution(
        spec=spec,
        thresholds=t,
        k=k,
        z=z,
        grid=aug_grid,
        g0_hat=tabulated(y_aug, g0),
        g1_hat=tabulated(y_aug, g1),
        delta_hat=TabulatedFunction(y_aug, delta),
        l_hat=TabulatedFunction(y_aug, l_hat_vals),
        f0_values=f0a,
        f1_values=f1a,
        achieved_eps0=ach0,
        achieved_eps1=ach1,
        residual_norm=resid_norm,
    )


def _preflight(spec: DivergenceSpec, gv: GridValues, grid: QuadratureGrid) -> None:
    """Refuse radii that `limits.validate_eps` does not find strictly inside the
    admissible boundary, judged on the solver's own grid values."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            feasible, margin = limits.validate_eps((gv.f0, gv.f1), spec, grid)
    except (ValueError, ArithmeticError) as exc:
        # the boundary solve is advisory: a NaN in its root search and
        # overflowing multiplier powers warn
        warnings.warn(
            "feasibility preflight failed (%s); proceeding with the solve" % exc,
            RuntimeWarning,
            stacklevel=3,
        )
        return
    if not feasible:
        # the ray through (eps0, eps1) meets the boundary at this multiple of it
        scale = 1.0 + margin / math.hypot(spec.eps0, spec.eps1)
        raise InfeasibleEpsError(
            "(eps0, eps1) = (%g, %g) is not strictly inside the admissible "
            "region: the ray through it meets the boundary at (%g, %g), a "
            "margin of %.3g" % (spec.eps0, spec.eps1, scale * spec.eps0,
                                scale * spec.eps1, margin)
        )


# Steps in the path parameter p of solve_thresholds: radii (p^2 eps0, p^2 eps1)
# at rho = 1 on [0, 1], where the thresholds move like sqrt(eps) and so nearly
# linearly in p, then the prior rho^(p - 1) at the full radii on [1, 2].
_S0 = 0.05              # first step: p of the first path point
_GROW = 2.0             # step factor after a converged path point
_MIN_STEP = 1e-2        # a step halved below this stalls the path
_PRIOR_STEP = 0.25      # first step of the prior leg
_CORRECTOR_ITERS = 4    # Newton iterations per path point
_HALVINGS = 5           # line-search halvings per Newton iteration
_ULPS = 16.0            # a Newton step this many ulps of (u, v) long is rounding noise
_ROOT_TOL = 1e-10       # path-point residual tolerance, relative to max(1, |x0|, |x1|)
_MAX_ITER = 200         # iteration cap of the end point's Newton polish and the symmetric search


def solve_thresholds(spec: DivergenceSpec, nominals, grid: QuadratureGrid) -> RobustSolution:
    """Solve for the robust thresholds and materialize the full solution.

    Finds (l_l, l_u) zeroing both divergence-activation residuals along one
    continuation path from zero radii: each path point is predicted from the
    secant through the last two and corrected by damped Newton iteration in
    (log l_l, log l_u) with the analytic Jacobian, clamped to l_l <= 1 <= l_u.
    Raises InfeasibleEpsError for radius pairs outside the admissible
    boundary, and NonConvergenceError naming where the path stalled and the
    best residual beyond it.
    """
    check_alpha(spec.alpha)
    gv = _grid_values(nominals, grid)
    l = gv.l
    alpha, rho = spec.alpha, spec.rho
    x0, x1 = x_of(alpha, spec.eps0), x_of(alpha, spec.eps1)

    if spec.eps0 == 0.0 and spec.eps1 == 0.0:
        t = ThresholdPair(1.0, 1.0)
        st = _eval_state(1.0, 1.0, alpha, rho, gv, x0, x1)
        if st is None:
            raise DegenerateRegionError(
                "the zero-radius thresholds (1, 1) have no residual at rho = %g: "
                "a region is degenerate" % rho)
        return _materialize(spec, t, st, gv, max(abs(st.r0), abs(st.r1)))

    _preflight(spec, gv, grid)

    pos = (l > 0.0) & np.isfinite(l) & ((gv.f0 > 0.0) | (gv.f1 > 0.0))
    l_min, l_max = float(l[pos].min()), float(l[pos].max())
    if not (l_min < rho < l_max):
        raise DegenerateRegionError(
            "rho = %g lies outside the likelihood ratio range [%g, %g]; no "
            "interior thresholds exist" % (rho, l_min, l_max)
        )
    tol = _ROOT_TOL * max(1.0, abs(x0), abs(x1))

    def evaluator(p):
        """Residual evaluator and (u_floor, v_ceil) box at path parameter p."""
        if p <= 1.0:
            r, t0, t1 = 1.0, x_of(alpha, p * p * spec.eps0), x_of(alpha, p * p * spec.eps1)
        else:
            r, t0, t1 = rho ** (p - 1.0), x0, x1

        def try_eval(u, v):
            return _eval_state(math.exp(u), math.exp(v), alpha, r, gv, t0, t1)

        box = (math.log(max(l_min / r, 1e-300)) * 0.98, math.log(l_max / r) * 0.98)
        return try_eval, box

    # zero radii put the thresholds at (1, 1), from where they move like
    # sqrt(eps); the prior leg starts without a secant
    p_end = 1.0 if rho == 1.0 else 2.0
    d = math.sqrt(max(spec.eps0, spec.eps1))
    p, u, v, h, slope = 0.0, 0.0, 0.0, _S0, (-d, d)
    best = (math.inf, u, v)  # best residual past the last path point
    while True:
        q = min(p + h, 1.0 if p < 1.0 else p_end)
        try_eval, (lo, hi) = evaluator(q)
        uq = min(0.0, max(u + slope[0] * (q - p), lo))
        vq = max(0.0, min(v + slope[1] * (q - p), hi))
        st = try_eval(uq, vq)
        got = (math.inf,) if st is None else _newton_2d(
            try_eval, uq, vq, st, lo, hi, tol, _CORRECTOR_ITERS)
        if got[0] <= tol:
            if q == p_end:  # polish the end point until Newton stagnates
                nrm, u, v, st = _newton_2d(try_eval, *got[1:], lo, hi, 0.0, _MAX_ITER)
                break
            slope = (0.0, 0.0) if q == 1.0 else ((got[1] - u) / (q - p), (got[2] - v) / (q - p))
            p, u, v = q, got[1], got[2]
            h = _PRIOR_STEP if p == 1.0 else h * _GROW
            best = (math.inf, u, v)
            continue
        if got[0] < best[0]:
            best = got[:3]
        h *= 0.5
        if h < _MIN_STEP:
            where = ("radius scale s = %.4g (rho = 1)" % p if p < 1.0 else
                     "rho = %.6g on the way to rho = %g" % (rho ** (p - 1.0), rho))
            beyond = ("%.3g at (l_l, l_u) = (%.6g, %.6g)"
                      % (best[0], math.exp(best[1]), math.exp(best[2]))
                      if best[0] < math.inf else "inf: no residual could be evaluated")
            raise NonConvergenceError(
                "threshold continuation stalled past %s at (l_l, l_u) = (%.6g, %.6g); "
                "best residual norm beyond it %s" % (where, math.exp(u), math.exp(v), beyond)
            )

    t = ThresholdPair(math.exp(u), math.exp(v))
    return _materialize(spec, t, st, gv, nrm)


def _newton_2d(try_eval, u, v, st, u_floor, v_ceil, tol, max_iter):
    """Damped Newton on the residual pair in clamped log-threshold space.

    Each step solves with the analytic Jacobian of the accepted iterate
    (`_EvalState.jacobian`), so a step costs one residual evaluation per
    line-search trial.  The backtrack accepts on an Armijo decrease of the
    squared-residual merit, for which the Newton direction is always a
    descent direction.  The iteration stops when a clamped step would move
    (u, v) by no more than _ULPS ulps: such a step is rounding noise, and a
    line search on it would spend every trial to find no decrease.
    Returns (residual norm, u, v, state) for the best iterate reached.
    """
    nrm = float(np.max(np.abs([st.r0, st.r1])))  # nan stays nan, unlike max()
    phi = st.r0 ** 2 + st.r1 ** 2
    best = (nrm, u, v, st)
    it = 0
    while nrm > tol and it < max_iter:
        it += 1
        jac = st.jacobian()
        if jac is None or not np.all(np.isfinite(jac)):
            break
        try:
            step = np.linalg.solve(jac, -np.array([st.r0, st.r1]))
        except np.linalg.LinAlgError:
            break
        lam, improved = 1.0, False
        for _ in range(_HALVINGS):
            uc = min(0.0, max(u + lam * step[0], u_floor))
            vc = max(0.0, min(v + lam * step[1], v_ceil))
            if abs(uc - u) <= _ULPS * math.ulp(u) and abs(vc - v) <= _ULPS * math.ulp(v):
                break
            stc = try_eval(uc, vc)
            if stc is not None:
                pc = stc.r0 ** 2 + stc.r1 ** 2
                if np.isfinite(pc) and pc <= phi * (1.0 - 2e-4 * lam):
                    u, v, st, phi = uc, vc, stc, pc
                    nrm = max(abs(stc.r0), abs(stc.r1))
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            break
        if nrm < best[0]:
            best = (nrm, u, v, st)
    return best


def solve_symmetric(eps: float, alpha: float, rho: float, nominals,
                    grid: QuadratureGrid) -> RobustSolution:
    """One-dimensional solver for mirror-symmetric problems with equal radii.

    Requires f1(y) = f0(-y) pointwise and a strictly increasing likelihood
    ratio; then at rho = 1 l_l = 1/l_u, and the sum of the two activation
    residuals of solve_thresholds is a single scalar equation in
    u = log l_u.  `roots.newton` finds its root outward from u = 0 with the
    slope that the residual pair's Jacobian gives, so l_l = exp(-u) and
    l_u = exp(u) multiply to 1 exactly.  On a grid the two residuals
    differ slightly, because the linear crossing of the tabulated ratio
    with l_l is not the mirror image of its crossing with 1/l_l: the root
    leaves the general residual pair off zero (``residual_norm`` is its
    larger entry), and the thresholds differ from solve_thresholds' by a
    few parts in 1e9 at 4001 points.
    The table is materialized as solve_thresholds' is, so it reproduces
    the split-cell masses the residual zeroed; the mirror defect
    g1_hat(y) - g0_hat(-y) and the achieved radii show the same discrete
    asymmetry.  rho != 1 and eps = 0 go to solve_thresholds.
    Without a root, infeasible radii raise InfeasibleEpsError and feasible
    ones NonConvergenceError.
    """
    spec = DivergenceSpec(alpha=alpha, rho=rho, eps0=eps, eps1=eps)
    gv = _grid_values(nominals, grid)
    points, f0v, f1v, l = gv.points, gv.f0, gv.f1, gv.l
    mirrored = evaluate(nominals[0], -points) if not isinstance(nominals[0], np.ndarray) \
        else np.interp(-points, points, f0v)
    if np.max(np.abs(f1v - mirrored)) > 1e-8:
        raise ValueError(
            "nominals are not mirror images of each other; use solve_thresholds"
        )
    core = (f0v > 0.0) & (f1v > 0.0)
    if np.any(np.diff(l[core]) <= 0.0):
        raise ValueError(
            "likelihood ratio is not strictly increasing; use solve_thresholds"
        )
    if eps == 0.0 or rho != 1.0:
        return solve_thresholds(spec, nominals, grid)

    x_eps = x_of(alpha, eps)
    # the u that newton evaluated last and its state: newton returns that u
    last = [0.0, _eval_state(1.0, 1.0, alpha, 1.0, gv, x_eps, x_eps)]
    # newton needs a rising residual, and the root lies at l_u > 1: orient
    # the residual by its sign at u = 0.  The thresholds are equal there and
    # have no Jacobian, so the first step is the capped one, sqrt(eps) long.
    # The residual is flat near u = 0, where Newton overshoots: the steps
    # then double from sqrt(eps), and do not pass a narrow ratio range's end
    r_at_0 = math.nan if last[1] is None else last[1].r0 + last[1].r1
    sign = -1.0 if r_at_0 > 0.0 else 1.0

    def fdf(u):
        if u != last[0]:
            last[:] = u, _eval_state(math.exp(-u), math.exp(u), alpha, 1.0, gv, x_eps, x_eps)
        st = last[1]
        if st is None:
            return math.nan, math.nan
        # d/du = d/d log l_u - d/d log l_l, summed over both residuals
        jac = st.jacobian()
        slope = math.nan if jac is None else float(np.sum(jac[:, 1] - jac[:, 0]))
        return sign * (st.r0 + st.r1), sign * slope

    if newton(fdf, 0.0, math.log(float(l[core].max())), 1e-13, 8.9e-16,
              maxiter=_MAX_ITER, step=math.sqrt(eps)) is None:
        _preflight(spec, gv, grid)
        raise NonConvergenceError(
            "no decision point solves the symmetric activation equation for "
            "eps = %g, although the radii are feasible" % eps
        )
    st = last[1]
    ll, lu = st.l_l, st.l_u
    if abs(st.k - ll) > 1e-6 * ll:
        warnings.warn(
            "symmetric-case balance factor %g deviates from l_l = %g" % (st.k, ll),
            RuntimeWarning,
            stacklevel=2,
        )
    nrm = max(abs(st.r0), abs(st.r1))
    if nrm > 1e-6 * max(1.0, abs(x_eps)):
        warnings.warn(
            "symmetric solution leaves a general-residual norm of %.3g" % nrm,
            RuntimeWarning,
            stacklevel=2,
        )
    return _materialize(spec, ThresholdPair(ll, lu), st, gv, nrm)
