"""Error probabilities of (randomized) binary decision rules.

A decision rule maps an observation y to a probability delta(y) of deciding
for the alternative hypothesis.  Given densities g0 (null) and g1
(alternative) and the prior ratio rho = P(H0)/P(H1), the quantities of
interest are

    P_F = integral of delta * g0        (false alarm)
    P_M = integral of (1 - delta) * g1  (miss)
    P_E = (rho * P_F + P_M) / (1 + rho) (Bayes error)

This module evaluates them by grid quadrature (`error_probs`) or by Monte
Carlo simulation with per-sample randomization (`monte_carlo_errors`), and
provides sweep drivers over signal amplitude (`snr_sweep`) and divergence
order (`alpha_sweep`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import density, kernels
from .density import DensityModel, QuadratureGrid, TabulatedFunction
from .divergence import DivergenceSpec
from .lfd_solver import solve_thresholds

__all__ = [
    "ErrorReport",
    "SnrRow",
    "AlphaRow",
    "DEFAULT_EPS_SETTINGS",
    "priors",
    "error_probs",
    "lrt_rule",
    "lrt_errors",
    "monte_carlo_errors",
    "amplitudes_from_snr",
    "snr_of",
    "snr_sweep",
    "alpha_sweep",
]

#: Uncertainty-radius settings used by `snr_sweep` when the caller's spec
#: carries zero radii: one mildly and one moderately robust test.
DEFAULT_EPS_SETTINGS = ((0.005, 0.005), (0.02, 0.02))


@dataclass(frozen=True)
class ErrorReport:
    """False-alarm, miss, and Bayes error probabilities of one rule.

    `method` is "quadrature" or "monte_carlo".  Monte Carlo reports carry
    the sample count, the seed, and 95% normal-approximation confidence
    half-widths for each component; quadrature reports leave them None.
    """

    p_false_alarm: float
    p_miss: float
    p_error: float
    method: str
    n: int | None = None
    seed: int | None = None
    hw_false_alarm: float | None = None
    hw_miss: float | None = None
    hw_error: float | None = None

    def __post_init__(self):
        for name in ("p_false_alarm", "p_miss", "p_error"):
            p = getattr(self, name)
            if not (-1e-12 <= p <= 1.0 + 1e-12):
                raise ValueError(f"{name} = {p} is not a probability")


def priors(rho: float) -> tuple[float, float]:
    """Prior probabilities (P(H0), P(H1)) implied by the ratio rho."""
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive, got {rho}")
    return rho / (1.0 + rho), 1.0 / (1.0 + rho)


def _bayes(p_f: float, p_m: float, rho: float) -> float:
    p0, p1 = priors(rho)
    return p0 * p_f + p1 * p_m


def _rule_values(delta, y: np.ndarray) -> np.ndarray:
    """Values at the points y of a rule given as a callable (a scalar result
    holds everywhere) or as an array of values at y, checked by
    `_in_unit_interval`."""
    if callable(delta):
        v = np.asarray(delta(y), dtype=float)
        if v.shape == ():
            v = np.full(y.shape, float(v))
    else:
        v = np.asarray(delta, dtype=float)
    if v.shape != y.shape:
        raise ValueError(f"rule values have shape {v.shape}, points have {y.shape}")
    return _in_unit_interval(v)


def _in_unit_interval(v: np.ndarray) -> np.ndarray:
    """v, checked to lie in [0, 1] up to 1e-9 and not clipped; a NaN passes
    the check."""
    # the range by the extremes first; a NaN fails it and goes elementwise
    if not (v.min() >= -1e-9 and v.max() <= 1.0 + 1e-9):
        bad = v[(v < -1e-9) | (v > 1.0 + 1e-9)]
        if bad.size:
            raise ValueError(
                f"decision rule values must lie in [0, 1]; found {bad[:3]}")
    return v


def error_probs(delta, g0, g1, rho: float, grid: QuadratureGrid) -> ErrorReport:
    """Quadrature error probabilities of the rule delta under (g0, g1).

    delta may be a TabulatedFunction, a callable of y, or an array of values
    on the grid; g0 and g1 may be density models or arrays on the grid.  The
    Bayes error satisfies P_E = (rho*P_F + P_M)/(1+rho) exactly by
    construction.
    """
    dv = np.clip(_rule_values(delta, grid.points), 0.0, 1.0)
    g0v = density.values_on(g0, grid)
    g1v = density.values_on(g1, grid)
    w = grid.weights
    p_f = float(np.clip(np.sum(w * dv * g0v), 0.0, 1.0))
    p_m = float(np.clip(np.sum(w * (1.0 - dv) * g1v), 0.0, 1.0))
    return ErrorReport(p_f, p_m, _bayes(p_f, p_m, rho), method="quadrature")


def lrt_rule(nominals, rho: float):
    """The plain likelihood-ratio test l(y) > rho as a callable rule.

    Returns delta(y) = 1 where f1/f0 > rho, 0 where it is below, and 1/2 on
    the boundary and where the ratio is NaN (at a NaN y); a scalar y gives
    a float.  The ratio is a plain division where f0 is positive at every
    point of the call, and `density.ratio_values` with its conventions
    otherwise, so f0 = 0 < f1 decides 1 and 0/0, a ratio of 1, ties at
    rho = 1.  Exact at any y, so it suits Monte Carlo evaluation; for
    quadrature of this discontinuous rule prefer `lrt_errors`, which
    integrates the decision regions without smearing the jump.
    """
    f0, f1 = nominals

    def decide(y: np.ndarray) -> np.ndarray:
        p0 = density._pdf(f0, y)
        l = density._pdf(f1, y)
        if p0.min(initial=math.inf) > 0.0:
            np.divide(l, p0, out=l)
        else:
            l = density.ratio_values(p0, l)
        d = (l > rho).astype(np.float64)
        d[(l == rho) | np.isnan(l)] = 0.5
        return d

    return lambda y: density._pointwise(decide, y)


def lrt_errors(nominals, rho: float, grid: QuadratureGrid) -> ErrorReport:
    """Quadrature error probabilities of the plain likelihood-ratio test.

    Evaluates the rule l(y) > rho under the same pair (f0, f1) that defines
    it.  Decision regions are integrated with split cells at the threshold
    crossings, so the discontinuity of the rule costs no accuracy.
    """
    f0v = density.values_on(nominals[0], grid)
    f1v = density.values_on(nominals[1], grid)
    l = density.ratio_values(f0v, f1v)
    a0, m0, b0, a1, m1, b1 = kernels.region_masses(
        l, f0v, f1v, grid.points, rho, rho)
    # mass exactly on the boundary splits evenly (randomized tie-break)
    p_f = float(np.clip(b0 + 0.5 * m0, 0.0, 1.0))
    p_m = float(np.clip(a1 + 0.5 * m1, 0.0, 1.0))
    return ErrorReport(p_f, p_m, _bayes(p_f, p_m, rho), method="quadrature")


def _decisions(delta, model: DensityModel, n: int, rng: np.random.Generator) -> int:
    """Count of randomized decisions for the alternative on n draws of model.

    The n draws come first in the stream, in generator order
    (`density._sample`).  The decision uniforms follow them, drawn with
    Generator.random, the doubles of uniform(0.0, 1.0), one block of
    ``density._INTERP_BLOCK`` at a time, which gives the values of one call
    for all n, so each draw meets the uniform drawn at its own place.  Only
    one block's uniforms, rule values and comparisons are held at a time.
    The rule values are compared unclipped: a uniform u lies in [0, 1), so
    u < v and u < clip(v, 0, 1) agree for every v, NaN included.

    A `TabulatedFunction` rule on the knots of a table model, both bucket
    indexes `plain`, is read on the knots: the draws' uniforms are drawn as
    `density._sample` draws them, and each block becomes its draws in place.
    A uniform's inverse-CDF cell j is a knot cell of the table, and its draw
    y = slope[j] * (u - cdf[j]) + x[j] lies at or above x[j], so j is the
    rule's knot for y, and the rule's `values` there are np.interp's bit for
    bit, unless y rounds onto x[j + 1] or past it; those draws bisect.  Any
    other rule is read by `_rule_values`.
    """
    on_knots = (isinstance(model, density.Tabulated) and isinstance(delta, TabulatedFunction)
                and np.array_equal(model.points, delta.points)
                and model._inverse_cdf.index.plain and delta.index.plain)
    y = rng.random(n) if on_knots else density._sample(model, n, rng)
    hits = 0
    for s in range(0, n, density._INTERP_BLOCK):
        yb = y[s:s + density._INTERP_BLOCK]
        if on_knots:
            inverse, xp = model._inverse_cdf.index, delta.points
            j = inverse.cells(yb)
            inverse.values(yb, j, yb)
            # j <= len(xp) - 2, since u < 1 = cdf[-1]
            past = np.flatnonzero(yb >= xp[1:].take(j))
            j[past] = np.searchsorted(xp, yb[past], "right") - 1
            v = _in_unit_interval(delta.index.values(yb, j, yb))
        else:
            v = _rule_values(delta, yb)
        u = rng.random(yb.size)
        hits += int(np.count_nonzero(u < v))
    return hits


def monte_carlo_errors(delta, model0: DensityModel, model1: DensityModel,
                       rho: float, n: int, seed: int) -> ErrorReport:
    """Monte Carlo error probabilities with per-sample randomization.

    Draws n observations under each hypothesis, realizes the randomized
    rule by comparing one auxiliary uniform per sample against delta(y),
    and reports 95% normal-approximation confidence half-widths.  The two
    hypotheses use disjoint deterministic substreams of the seed, so
    results are reproducible and uncorrelated across hypotheses.  Each
    draw is paired with the uniform drawn at its place in the stream, and
    the pairs stay in generator order (`_decisions`).  `_decisions` counts
    u < delta(y) one block at a time; the count, an exact integer sum,
    does not depend on the blocks, and count / n is the mean of the
    decisions bit for bit.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for the CLT half-widths, got {n}")
    if not callable(delta):
        raise TypeError(
            "Monte Carlo evaluation needs a rule that can be evaluated at "
            "sample points: a TabulatedFunction or a callable, not an array")
    n = int(n)
    p0, p1 = priors(rho)

    hits0 = _decisions(delta, model0, n, np.random.default_rng([seed, 0]))
    hits1 = _decisions(delta, model1, n, np.random.default_rng([seed, 1]))
    p_f = hits0 / n
    p_m = (n - hits1) / n

    hw_f = 1.96 * math.sqrt(p_f * (1.0 - p_f) / n)
    hw_m = 1.96 * math.sqrt(p_m * (1.0 - p_m) / n)
    return ErrorReport(
        p_f, p_m, _bayes(p_f, p_m, rho), method="monte_carlo",
        n=n, seed=int(seed), hw_false_alarm=hw_f, hw_miss=hw_m,
        hw_error=p0 * hw_f + p1 * hw_m)


# ---------------------------------------------------------------------------
# sweep drivers


@dataclass(frozen=True)
class SnrRow:
    """One (signal level, test) entry of an SNR sweep."""

    snr_db: float
    amplitude: float
    test: str                     # "nominal" or "robust"
    eps0: float
    eps1: float
    p_false_alarm: float
    p_miss: float
    p_error: float
    feasible: bool
    note: str = ""


@dataclass(frozen=True)
class AlphaRow:
    """One divergence-order entry of an alpha sweep."""

    alpha: float
    l_l: float
    l_u: float
    residual_norm: float
    achieved_eps0: float
    achieved_eps1: float
    error: str | None = None


def snr_of(amplitude: float, noise: DensityModel) -> float:
    """Signal-to-noise ratio 20*log10(A/std) in dB."""
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    return 20.0 * math.log10(amplitude / density._std(noise))


def amplitudes_from_snr(snr_db, noise: DensityModel) -> list[float]:
    """Signal amplitudes realizing the given SNR values (in dB)."""
    s = density._std(noise)
    return [s * 10.0 ** (float(v) / 20.0) for v in snr_db]


def snr_sweep(noise: DensityModel, amplitudes, spec: DivergenceSpec,
              grid: QuadratureGrid | None = None, n: int = 0, *,
              seed: int = 20260816, snr_db=None) -> list[SnrRow]:
    """Error probabilities versus signal level for nominal and robust tests.

    The observation is signal-plus-noise: under H0 the density is `noise`,
    under H1 it is `noise` shifted by the amplitude A, and
    SNR = 20*log10(A/std(noise)).  Use `amplitudes_from_snr` to start from
    SNR values instead of amplitudes, and pass those values, one per
    amplitude, as `snr_db` to label each amplitude's rows with its SNR as
    given: without them the rows carry snr_of(A), and the round trip through
    10^(v/20) can miss v in the last bit (5 dB comes back as
    4.9999999999999991 on N(0.3, 1.7)).

    For each amplitude the sweep emits one row for the plain
    likelihood-ratio test and one per radius pair for the robust test, all
    evaluated under the *nominal* pair, so the rows measure the price of
    robustness when no deviation occurs.  The radius pair is the spec's own
    (eps0, eps1) when nonzero; otherwise the pairs of DEFAULT_EPS_SETTINGS
    each get a row.  Without a grid, each amplitude gets a 4001-point
    `density.grid_for` grid.  Amplitudes whose radii are infeasible, or
    where the solve fails, produce a row with feasible=False and NaN
    probabilities rather than aborting the sweep.

    n = 0 evaluates by quadrature; n > 0 by Monte Carlo with n samples per
    hypothesis and deterministic per-row seeds derived from `seed`.
    """
    if spec.eps0 > 0.0 or spec.eps1 > 0.0:
        radii = ((spec.eps0, spec.eps1),)
    else:
        radii = DEFAULT_EPS_SETTINGS
    amplitudes = [float(a) for a in amplitudes]
    if snr_db is not None and len(snr_db) != len(amplitudes):
        raise ValueError(f"{len(snr_db)} snr_db values for {len(amplitudes)} amplitudes")
    rows: list[SnrRow] = []
    for i, amp in enumerate(amplitudes):
        sdb = snr_of(amp, noise)  # also refuses a nonpositive amplitude
        if snr_db is not None:
            sdb = float(snr_db[i])
        f0 = noise
        f1 = density.shifted(noise, amp)
        g = grid if grid is not None else density.grid_for(f0, f1, n=4001)

        if n > 0:
            rep = monte_carlo_errors(lrt_rule((f0, f1), spec.rho), f0, f1,
                                     spec.rho, n, seed + 1000 * i)
        else:
            rep = lrt_errors((f0, f1), spec.rho, g)
        rows.append(SnrRow(sdb, amp, "nominal", 0.0, 0.0,
                           rep.p_false_alarm, rep.p_miss, rep.p_error, True))

        for j, (e0, e1) in enumerate(radii):
            row_spec = dataclasses.replace(spec, eps0=float(e0), eps1=float(e1))
            try:
                sol = solve_thresholds(row_spec, (f0, f1), g)
            except (ValueError, RuntimeError) as exc:
                rows.append(SnrRow(sdb, amp, "robust", float(e0), float(e1),
                                   math.nan, math.nan, math.nan,
                                   feasible=False, note=str(exc)))
                continue
            if n > 0:
                rep = monte_carlo_errors(sol.delta_hat, f0, f1, spec.rho, n,
                                         seed + 1000 * i + j + 1)
            else:
                rep = error_probs(sol.delta_hat, f0, f1, spec.rho, sol.grid)
            rows.append(SnrRow(sdb, amp, "robust", float(e0), float(e1),
                               rep.p_false_alarm, rep.p_miss, rep.p_error,
                               True))
    return rows


def alpha_sweep(spec: DivergenceSpec, alphas, nominals,
                grid: QuadratureGrid) -> list[AlphaRow]:
    """Robust thresholds as the divergence order varies, radii held fixed.

    Solves the threshold equations for each order in `alphas` with the
    spec's (rho, eps0, eps1).  A failed order (infeasible radii, solver
    breakdown) is recorded in its row's `error` field and the sweep
    continues with the rest.
    """
    rows: list[AlphaRow] = []
    for a in alphas:
        row_spec = dataclasses.replace(spec, alpha=float(a))
        try:
            sol = solve_thresholds(row_spec, nominals, grid)
        except (ValueError, RuntimeError) as exc:
            rows.append(AlphaRow(float(a), math.nan, math.nan, math.nan,
                                 math.nan, math.nan, error=str(exc)))
            continue
        rows.append(AlphaRow(float(a), sol.thresholds.l_l, sol.thresholds.l_u,
                             sol.residual_norm, sol.achieved_eps0,
                             sol.achieved_eps1))
    return rows
