"""Independent brute-force verification on small discretized instances.

Everything here works on plain probability vectors over m equal-width bins
and shares only the generic scalar root finder (``roots``) with the
continuous solver: the ball maximizer is re-derived from the Lagrangian of
the constrained linear program, and the saddle point is approached by
alternating best responses.
Agreement between these routines and the continuous solver is evidence that
both are right; they share no thresholds, no normalization constants, and
no quadrature shortcuts.

The divergence ball around a bin vector f is {g in the simplex:
D(g, f; alpha) <= eps} with the same order-alpha divergence as the
continuous module, summed over bins instead of integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import QuadratureGrid, values_on
from .divergence import DivergenceSpec, check_alpha
from .roots import bracket, brent

_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)

__all__ = [
    "OracleError",
    "OscillationError",
    "DiscreteProblem",
    "bin_centers",
    "discretize",
    "discrete_divergence",
    "maximize_over_ball",
    "best_response_rule",
    "bayes_error_bins",
    "worst_case_error",
    "alternating_saddle",
]


class OracleError(RuntimeError):
    """The dual search could not activate the divergence constraint."""


class OscillationError(RuntimeError):
    """The alternating iteration failed to settle; carries the trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = list(trace)


@dataclass(frozen=True)
class DiscreteProblem:
    """A binned robust testing instance: bin masses plus ball parameters."""

    m: int
    f0: np.ndarray
    f1: np.ndarray
    alpha: float
    rho: float
    eps0: float
    eps1: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not (0.0 <= self.eps0 < math.inf and 0.0 <= self.eps1 < math.inf):
            raise ValueError(
                f"radii must be finite and nonnegative, got ({self.eps0}, {self.eps1})")
        for name, v in (("f0", self.f0), ("f1", self.f1)):
            if v.ndim != 1 or v.size != self.m:
                raise ValueError(f"{name} must be a length-{self.m} vector")
            if np.any(v < 0.0):
                raise ValueError(f"{name} has negative bin masses")
            if abs(float(np.sum(v)) - 1.0) > 1e-12:
                raise ValueError(f"{name} sums to {float(np.sum(v))}, not 1")


def bin_centers(grid: QuadratureGrid, m: int) -> np.ndarray:
    """Centers of m equal-width bins spanning the grid."""
    lo, hi = grid.span
    edges = np.linspace(lo, hi, m + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def _bin_masses(values: np.ndarray, grid: QuadratureGrid, m: int) -> np.ndarray:
    # integrate the piecewise-linear density between bin edges: evaluate its
    # cumulative integral on the grid, interpolate at the edges, difference
    pts = grid.points
    inc = np.concatenate(([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(pts))))
    edges = np.linspace(pts[0], pts[-1], m + 1)
    masses = np.diff(np.interp(edges, pts, inc))
    total = float(np.sum(masses))
    if total <= 0.0:
        raise ValueError("density has no mass on the grid")
    return masses / total


def discretize(nominals, grid: QuadratureGrid, m: int,
               spec: DivergenceSpec) -> DiscreteProblem:
    """Bin the nominal pair into m equal-width cells by quadrature.

    Bin masses are renormalized to sum to one exactly, so the vectors are
    valid discrete distributions regardless of grid truncation.
    """
    if m < 8:
        raise ValueError(f"need at least 8 bins, got {m}")
    vals = [_bin_masses(values_on(f, grid), grid, int(m)) for f in nominals]
    return DiscreteProblem(int(m), vals[0], vals[1], spec.alpha, spec.rho,
                           spec.eps0, spec.eps1)


def discrete_divergence(g: np.ndarray, f: np.ndarray, alpha: float) -> float:
    """Order-alpha divergence between bin vectors, (1 - sum g^a f^(1-a))/(a(1-a))."""
    check_alpha(alpha)
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where((g == 0.0) & (f == 0.0), 0.0,
                         g**alpha * f**(1.0 - alpha))
    s = float(np.sum(terms))
    if not math.isfinite(s):
        return math.inf
    return (1.0 - s) / (alpha * (1.0 - alpha))


def _tilt_family(w: np.ndarray, f: np.ndarray, alpha: float, lam: float):
    """The maximizer of <w, g> - lam*D(g, f) over the simplex, given lam.

    Stationarity of the Lagrangian gives g = f * base^(1/(alpha-1)) with
    base = 1 + (1-alpha)*(mu - w)/lam, where the normalization multiplier
    mu makes g sum to one.  For alpha > 1 bins with nonpositive base sit on
    the g >= 0 boundary and are clamped to zero; for alpha < 1 every bin
    stays strictly positive and base must stay positive everywhere.
    Returns the normalized g.
    """
    beta = alpha - 1.0

    def g_of(mu: float) -> np.ndarray:
        base = 1.0 - beta * (mu - w) / lam
        return f * np.maximum(base, 0.0) ** (1.0 / beta)

    try:
        if beta > 0.0:
            # sum(g) is continuous and strictly decreasing in mu on this
            # bracket, from >= 2^(1/beta) down to 0
            lo = float(np.min(w)) - lam / beta
            hi = float(np.max(w)) + lam / beta
            mu = brent(lambda t: float(np.sum(g_of(t))) - 1.0, lo, hi,
                       xtol=1e-15, rtol=8.9e-16, maxiter=200)
        else:
            # mu > mu_min keeps every base positive; solve in
            # u = log(mu - mu_min), where sum(g) falls as u grows, from
            # mu - mu_min = lam/(1 - alpha) over factors up to 2^(+-200).
            # A base rounded to 0 gives g = inf, on the right side of 1.
            mu_min = float(np.max(w)) - lam / (1.0 - alpha)

            def excess(u: float) -> float:
                return float(np.sum(g_of(mu_min + math.exp(u)))) - 1.0

            u0 = math.log(lam / (1.0 - alpha))
            with np.errstate(divide="ignore"):
                e0 = excess(u0)
                span = bracket(excess, u0, e0, math.copysign(_LOG2, e0), 200.0 * _LOG2)
                if span is None:
                    raise ValueError("sum(g) - 1 keeps its sign or is NaN within "
                                     "factors 2^(+-200) of mu - mu_min = lam/(1 - alpha)")
                mu = mu_min + math.exp(brent(excess, *span, xtol=1e-14, maxiter=200))
    except (ValueError, RuntimeError) as exc:
        raise OracleError(
            f"normalization multiplier search failed at lam = {lam:.6g}: {exc}") from None

    g = g_of(mu)
    return g / float(np.sum(g))


def maximize_over_ball(weights, f, alpha: float, eps: float) -> np.ndarray:
    """Maximize <weights, g> over the radius-eps ball around f.

    Solves the one-dimensional dual: for each multiplier lam the inner
    maximizer has the closed parametric form of `_tilt_family`; lam is then
    solved for so that the divergence constraint is active within 1e-8.  The
    returned vector lies on the simplex exactly and inside the ball up to
    that activation tolerance.  Raises OracleError when even a vanishing
    multiplier cannot reach the radius (the ball covers every direction of
    improvement, so the constraint cannot be activated), and when a root
    search fails, naming the search and its multiplier.
    """
    w = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=float)
    if w.shape != f.shape or w.ndim != 1:
        raise ValueError("weights and f must be equal-length vectors")
    if np.any(f < 0.0) or abs(float(np.sum(f)) - 1.0) > 1e-10:
        raise ValueError("f must be a probability vector")
    if eps < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {eps}")
    spread = float(np.max(w) - np.min(w))
    if eps == 0.0 or spread < 1e-14 * max(1.0, float(np.max(np.abs(w)))):
        return f.copy()

    def achieved(lam: float) -> float:
        return discrete_divergence(_tilt_family(w, f, alpha, lam), f, alpha)

    def excess(u: float) -> float:
        return achieved(math.exp(u)) - eps

    # the achieved divergence falls as lam grows: bracket the active
    # multiplier in u = log(lam) from lam = spread over factors up to 4^(+-32)
    u0 = math.log(spread)
    e0 = excess(u0)
    reach = 32.0 * _LOG4
    span = bracket(excess, u0, e0, math.copysign(_LOG4, e0), reach)
    if span is None and e0 > 0.0:
        raise OracleError(
            f"divergence constraint stayed above the radius at multipliers up to "
            f"lam = {math.exp(u0 + reach):.3e}")
    if span is None:
        d_lo = achieved(math.exp(u0 - reach))
        raise OracleError(
            f"constraint cannot be activated: the whole improvement family stays "
            f"inside the radius-{eps} ball (reachable divergence {d_lo:.3e}); "
            f"the unconstrained maximum is not unique in the ball")
    try:
        lam = math.exp(brent(excess, *span, xtol=1e-13, maxiter=200))
    except (ValueError, RuntimeError) as exc:
        raise OracleError(
            f"dual multiplier search failed between lam = {math.exp(span[0]):.6g} and "
            f"{math.exp(span[1]):.6g}: {exc}") from None
    g = _tilt_family(w, f, alpha, lam)
    d = discrete_divergence(g, f, alpha)
    if abs(d - eps) > 1e-8:
        raise OracleError(f"activation tolerance missed: |D - eps| = {abs(d - eps):.2e}")
    if float(np.dot(w, g)) < float(np.dot(w, f)) - 1e-12:
        raise OracleError("maximizer failed the improvement property")
    return g


def best_response_rule(g0: np.ndarray, g1: np.ndarray, rho: float) -> np.ndarray:
    """Bayes-optimal rule against (g0, g1): threshold the bin ratio at rho."""
    hi = g1 > rho * g0
    lo = g1 < rho * g0
    return np.where(hi, 1.0, np.where(lo, 0.0, 0.5))


def bayes_error_bins(delta: np.ndarray, g0: np.ndarray, g1: np.ndarray,
                     rho: float) -> float:
    """Bayes error (rho*P_F + P_M)/(1+rho) of a bin rule under (g0, g1)."""
    p_f = float(np.dot(delta, g0))
    p_m = float(np.dot(1.0 - delta, g1))
    return (rho * p_f + p_m) / (1.0 + rho)


def worst_case_error(delta: np.ndarray, problem: DiscreteProblem):
    """Worst-case (P_F, P_M, P_E, g0, g1) of a fixed rule over both balls.

    The Bayes error is separable in (g0, g1), so the worst pair maximizes
    the false-alarm and miss terms independently.
    """
    delta = np.asarray(delta, dtype=float)
    g0 = maximize_over_ball(delta, problem.f0, problem.alpha, problem.eps0)
    g1 = maximize_over_ball(1.0 - delta, problem.f1, problem.alpha, problem.eps1)
    p_f = float(np.dot(delta, g0))
    p_m = float(np.dot(1.0 - delta, g1))
    p_e = (problem.rho * p_f + p_m) / (1.0 + problem.rho)
    return p_f, p_m, p_e, g0, g1


def alternating_saddle(problem: DiscreteProblem, iters: int = 400,
                       gap_tol: float = 5e-4):
    """Approach the saddle point by alternating best responses.

    Each round the rule player best-responds (likelihood-ratio threshold
    with tie randomization) to the running average of the density player's
    past responses, and the density player best-responds (ball maximizers)
    to the running average of the rule player's past responses.  Averaging
    the responses is what makes the alternation settle instead of cycling.

    Returns (rule, g0, g1, trace): the averaged rule, the worst-case pair
    against it, and the per-round trace of its worst-case Bayes error.  The
    trace's running minimum is an upper bound on the saddle value and the
    best response to the averaged densities gives a lower bound; iteration
    stops when they agree within gap_tol.  Raises OscillationError with the
    trace attached if they never do.
    """
    if iters < 1:
        raise ValueError(f"need at least one round, got {iters}")
    f0, f1, rho = problem.f0, problem.f1, problem.rho
    sum_delta = np.zeros(problem.m)
    sum_g0 = np.zeros(problem.m)
    sum_g1 = np.zeros(problem.m)
    g0_avg, g1_avg = f0, f1
    trace: list[float] = []
    best_upper, best_lower = math.inf, -math.inf
    result = None
    for t in range(1, iters + 1):
        delta = best_response_rule(g0_avg, g1_avg, rho)
        sum_delta += delta
        delta_avg = sum_delta / t

        p_f, p_m, upper, g0_w, g1_w = worst_case_error(delta_avg, problem)
        trace.append(upper)

        sum_g0 += g0_w
        sum_g1 += g1_w
        g0_avg, g1_avg = sum_g0 / t, sum_g1 / t
        lower = bayes_error_bins(best_response_rule(g0_avg, g1_avg, rho),
                                 g0_avg, g1_avg, rho)

        if upper < best_upper:
            best_upper = upper
            result = (delta_avg, g0_w, g1_w)
        best_lower = max(best_lower, lower)
        if best_upper - best_lower <= gap_tol:
            return (*result, trace)
    raise OscillationError(
        f"saddle gap {best_upper - best_lower:.3e} still above {gap_tol:.1e} "
        f"after {iters} rounds", trace)
