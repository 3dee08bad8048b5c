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
    if not (v.min(initial=0.0) >= -1e-9 and v.max(initial=0.0) <= 1.0 + 1e-9):
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
    a float.  The ratio is `density.ratio_values` of the two pdfs, so
    f0 = 0 < f1 decides 1 and 0/0, a ratio of 1, ties at rho = 1.  The rule
    exposes its ratio as ``rule.ratio(y)`` at an array y and its threshold
    as ``rule.rho``, from which Monte Carlo decides the draws off the ties
    without a uniform (`_decisions`).  Exact at any y, so it suits Monte
    Carlo evaluation; for quadrature of this discontinuous rule prefer
    `lrt_errors`, which integrates the decision regions without smearing
    the jump.
    """
    return _RatioRule(nominals[0], nominals[1], rho)


class _RatioRule:
    """The rule of `lrt_rule`: 1, 0 or 1/2 as ratio(y) = f1/f0 is above,
    below or at rho (or NaN)."""

    __slots__ = ("f0", "f1", "rho")

    def __init__(self, f0: DensityModel, f1: DensityModel, rho: float):
        self.f0, self.f1, self.rho = f0, f1, rho

    def ratio(self, y: np.ndarray) -> np.ndarray:
        return density.ratio_values(density._pdf(self.f0, y), density._pdf(self.f1, y))

    def __call__(self, y):
        return density._pointwise(self._decide, y)

    def _decide(self, y: np.ndarray) -> np.ndarray:
        l = self.ratio(y)
        d = (l > self.rho).astype(np.float64)
        d[(l == self.rho) | np.isnan(l)] = 0.5
        return d


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


# the class of a bucket whose draws read the rule; 0 and 1 are rule values
_READ = 2


def _constant_cells(f: np.ndarray) -> np.ndarray:
    """Per cell of a table's values f, 0 or 1 where both its ends are exactly
    that value, so np.interp gives it everywhere in the cell, else _READ."""
    cls = np.full(f.size - 1, _READ, dtype=np.int8)
    for c in (0, 1):
        cls[(f[:-1] == c) & (f[1:] == c)] = c
    return cls


def _landing_cells(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """`_constant_cells` for the inverse-CDF draws of a table on the knots x.

    A draw of cell j lies in the cell or on x[j + 1].  Rounding is
    monotone, so u - cdf[j] rounds to at most the cell's rounded CDF step,
    the slope's divisor, and rounding can carry the draw past x[j + 1]
    only by the four roundings of its width, slope, product and sum, half
    an ulp each of the width, at most 2 m, or of the sum, about m, where m
    is the larger magnitude of x[j] and x[j + 1]: less than 8 ulps of m in
    all.  So cell j keeps its class only where
    cell j + 1 shares it and x[j + 2] lies more than 16 such ulps above
    x[j + 1]; the last cell, with no cell after it, is read.
    """
    cls = _constant_cells(f)
    ulps = np.spacing(np.maximum(np.abs(x[:-2]), np.abs(x[1:-1])))
    keep = (cls[1:] == cls[:-1]) & (x[2:] - x[1:-1] > 16.0 * ulps)
    cls[:-1][~keep] = _READ
    cls[-1] = _READ
    return cls


def _decisions(delta, model: DensityModel, n: int, rng: np.random.Generator) -> int:
    """Count of randomized decisions for the alternative on n draws of model.

    The n draws come first in the stream, in generator order
    (`density._sample`), and the decision uniforms follow, one per draw,
    the doubles of Generator.random, those of uniform(0.0, 1.0).  Each
    block of ``density._INTERP_BLOCK`` draws gives the count of its draws
    decided 1 without their rule value, the indices of the draws it must
    read, and their values.  One step serves every rule: Generator.random
    takes one 64-bit output of the bit generator per double, so advancing
    the generator to the block's first read draw and drawing up to its last
    gives each read draw the uniform at its own place, and u < v is counted
    there.  The count is the integer a read at every draw gives, and only
    one block's values and uniforms are held at a time.  The values are
    compared unclipped: u lies in [0, 1), so u < v and u < clip(v, 0, 1)
    agree for every v, NaN included.

    - The rule of `lrt_rule` decides 1 where its ratio exceeds its rho,
      and is read at 1/2 at its ties and NaNs.
    - A `plain` `TabulatedFunction` rule gets one class per bucket of the
      index its draws are looked up in (`_BucketIndex.bucket_classes`): 0
      or 1 where every cell the bucket's draws can find is exactly that
      value at both ends, so u < 0 never and u < 1 always holds, else
      `_READ`.  Its class-1 draws are decided 1, and it is read at its
      `_READ` draws.  On the knots of a table model whose inverse-CDF index
      is `plain` too, the draws are looked up in that index: a uniform's
      inverse-CDF cell j is a knot cell of the table, and its draw
      y = slope[j] * (u - cdf[j]) + x[j] lies at or above x[j], so j is the
      rule's knot for y, and the rule's `values` there are np.interp's bit
      for bit, unless y rounds onto x[j + 1] or past it; those draws
      bisect, and `_landing_cells` keeps cell j's class only where they
      cannot leave it.  Other draws are sampled and looked up in the rule's
      own index.
    - Any other rule, a table that is not `plain` among them, is read at
      every draw by `_rule_values`.
    """
    table = isinstance(delta, TabulatedFunction) and delta.index.plain
    on_knots = (table and isinstance(model, density.Tabulated)
                and np.array_equal(model.points, delta.points)
                and model._inverse_cdf.index.plain)
    if on_knots:
        index = model._inverse_cdf.index
        classes = index.bucket_classes(_landing_cells(delta.points, delta.values), _READ)
        y = rng.random(n)
    else:
        y = density._sample(model, n, rng)
        if table:
            index = delta.index
            classes = index.bucket_classes(_constant_cells(delta.values), _READ)
    hits = drawn = 0
    for s in range(0, n, density._INTERP_BLOCK):
        yb = y[s:s + density._INTERP_BLOCK]
        if isinstance(delta, _RatioRule):
            l = delta.ratio(yb)
            hits += int(np.count_nonzero(l > delta.rho))
            read, v = np.flatnonzero((l == delta.rho) | np.isnan(l)), 0.5
        elif table:
            cls = classes.take(index._buckets(yb))
            hits += int(np.count_nonzero(cls == 1))
            read = np.flatnonzero(cls == _READ)
            yb = yb.take(read)
            j = index.cells(yb)
            if on_knots:
                xp = delta.points
                index.values(yb, j, yb)
                # j <= len(xp) - 2, since u < 1 = cdf[-1]
                past = np.flatnonzero(yb >= xp[1:].take(j))
                j[past] = np.searchsorted(xp, yb[past], "right") - 1
            v = _in_unit_interval(delta.index.values(yb, j, yb))
        else:
            read, v = np.arange(yb.size), _rule_values(delta, yb)
        if read.size:
            first, last = int(read[0]), int(read[-1])
            rng.bit_generator.advance(s + first - drawn)
            read -= first
            hits += int(np.count_nonzero(rng.random(last - first + 1).take(read) < v))
            drawn = s + last + 1
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
    decisions bit for bit.  A draw whose decision the rule fixes without
    randomising, such as a table rule's draw in its exact 0 or 1 run or a
    likelihood-ratio draw off its tie, is counted without its uniform; the
    counts are those of a read at every draw.
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
    spec's (rho, eps0, eps1).  A failed order (an order in the guard band
    around 0 and 1, infeasible radii, solver breakdown) is recorded in its
    row's `error` field and the sweep continues with the rest.
    """
    rows: list[AlphaRow] = []
    for a in alphas:
        try:
            sol = solve_thresholds(dataclasses.replace(spec, alpha=float(a)), nominals, grid)
        except (ValueError, RuntimeError) as exc:
            rows.append(AlphaRow(float(a), math.nan, math.nan, math.nan,
                                 math.nan, math.nan, error=str(exc)))
            continue
        rows.append(AlphaRow(float(a), sol.thresholds.l_l, sol.thresholds.l_u,
                             sol.residual_norm, sol.achieved_eps0,
                             sol.achieved_eps1))
    return rows
