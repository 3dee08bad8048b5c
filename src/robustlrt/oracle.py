"""Independent brute-force verification on small discretized instances.

Everything here works on plain probability vectors over m equal-width bins
and shares no numerical routine with the continuous solver: the ball
maximizer solves the Lagrange dual of the constrained linear program with
its own Newton iteration, and the saddle point is approached by alternating
best responses.
Agreement between these routines and the continuous solver is evidence that
both are right; they share no thresholds, no normalization constants, no
root finder and no quadrature shortcuts.

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

# Newton iterations per ball and the largest step in log x
_NEWTON_ITERS = 100
_MAX_STEP = 8.0

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
        DivergenceSpec(self.alpha, self.rho, self.eps0, self.eps1)
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
    """Order-alpha divergence between bin vectors, (1 - sum g^a f^(1-a))/(a(1-a)).

    Each term is formed as f (g/f)^a, one power of a ratio near 1 where the
    ball is small, so no bin's f^(1-a) overflows on its own at large a.  A
    bin with f = 0 adds 0 when g = 0, and when g > 0 it adds inf for a > 1
    and 0 for a < 1.
    """
    check_alpha(alpha)
    g, f = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(f, dtype=float))
    pos = f > 0.0
    terms = np.zeros(f.shape)
    with np.errstate(divide="ignore"):
        terms[pos] = f[pos] * (g[pos] / f[pos]) ** alpha
    if alpha > 1.0:
        terms[~pos & (g > 0.0)] = math.inf
    s = float(np.sum(terms))
    if not math.isfinite(s):
        return math.inf
    return (1.0 - s) / (alpha * (1.0 - alpha))


def maximize_over_ball(weights, f, alpha: float, eps: float) -> np.ndarray:
    """Maximize <weights, g> over the radius-eps ball around f.

    Solves the Lagrange dual of the problem: lam >= 0 prices the divergence
    constraint and mu the unit mass.  With beta = alpha - 1, s = sign(beta)
    and mu = max(w) - s*nu for an offset nu > 0, the Lagrangian's maximizer
    is g = f (|beta| d/lam)^(1/beta) with d = max(s (w - max w) + nu, 0).
    Unit mass fixes lam in closed form, so the normalized g depends on
    x = 1/nu alone, g ~ f max(1 + x s (w - max w), 0)^(1/beta), and its
    divergence rises strictly from 0 at x = 0 towards a reach at x = inf.
    Newton solves D(g, f) = eps in log x and falls back to bisecting the
    bracket its iterates have found.  The reach is closed form: with F the
    mass of f on the bins of largest weight (within the support of f when
    alpha > 1), it is (1 - F^(1-alpha))/(alpha (1-alpha)), or inf when
    alpha < 0 and F < 1.

    The returned vector lies on the simplex exactly and inside the ball up to
    the activation tolerance 1e-8.  Raises ValueError for malformed or
    non-finite input, and OracleError when eps is at or beyond the reach (the
    ball then holds every maximizer of <weights, g>, so the constraint cannot
    be activated) or when the search misses the activation tolerance, naming
    the multipliers where it stopped.
    """
    w = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=float)
    beta = check_alpha(alpha) - 1.0
    if w.shape != f.shape or w.ndim != 1:
        raise ValueError("weights and f must be equal-length vectors")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if not (np.all(f >= 0.0) and abs(float(np.sum(f)) - 1.0) <= 1e-10):
        raise ValueError("f must be a probability vector")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"ball radius must be finite and nonnegative, got {eps}")
    spread = float(np.max(w) - np.min(w))
    if eps == 0.0 or spread < 1e-14 * max(1.0, float(np.max(np.abs(w)))):
        return f.copy()
    # for alpha > 1 the ball holds only g with g = 0 where f = 0
    top = float(np.max(w[f > 0.0] if beta > 0.0 else w))
    at_top = float(np.sum(f[w == top]))
    if alpha < 0.0 and at_top < 1.0:
        reach = math.inf
    else:
        reach = (1.0 - at_top ** (1.0 - alpha)) / (alpha * (1.0 - alpha))
    if not eps < reach:
        raise OracleError(
            f"constraint cannot be activated: f restricted to its best bins lies at "
            f"divergence {reach:.3e}, inside the radius-{eps} ball, so the maximum "
            f"of <w, g> is not unique in the ball")

    off = math.copysign(1.0, beta) * (w - top)
    mean = float(np.dot(w, f))
    var = float(np.dot(f, (w - mean) ** 2))
    # start from the small-radius limit D ~ x^2 var/(2 beta^2)
    u = math.log(abs(beta)) + 0.5 * (math.log(2.0 * eps) - math.log(max(var, 1e-300)))
    lo, hi, moved = -math.inf, math.inf, math.inf
    for _ in range(_NEWTON_ITERS):
        # D has reached its limits, 0 and the reach, long before e^-700 and e^700
        x = math.exp(min(max(u, -700.0), 700.0))
        e = np.maximum(1.0 + x * off, 0.0)
        t = f * e ** (1.0 / beta)
        g = t / float(np.sum(t))
        d = discrete_divergence(g, f, alpha)
        a = float(np.dot(g, off))
        # unit mass, through sum g^alpha f^(1-alpha) = 1 - alpha (1-alpha) D
        lam = abs(beta) * (1.0 + x * a) / (x * (1.0 - alpha * (1.0 - alpha) * d))
        if abs(d - eps) <= 1e-14 * max(1.0, eps) or moved <= 1e-13 * (1.0 + abs(u)):
            break
        if d < eps:
            lo = u
        else:
            hi = u
        act = e > 0.0
        # |beta| lam dD/du, positive wherever D is not flat
        gain = a - float(np.dot(g[act], off[act] / e[act])) * (1.0 + x * a)
        nxt = math.nan
        if gain > 0.0:
            nxt = u + max(-_MAX_STEP, min(_MAX_STEP, (eps - d) * abs(beta) * lam / gain))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(lo + hi) else u + math.copysign(_MAX_STEP, eps - d)
        moved, u = abs(nxt - u), nxt
    if not abs(d - eps) <= 1e-8:
        raise OracleError(
            f"dual search failed at lam = {lam:.6g}, nu = {1.0 / x:.6g}: activation "
            f"tolerance missed, |D - eps| = {abs(d - eps):.2e}")
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
