"""Probability densities on a shared one-dimensional quadrature grid.

Three density representations are supported: a Gaussian mixture (a single
Gaussian is the mixture of one component), a shifted copy of another density
(signal-plus-noise models), and a tabulated density given by values on a grid
of points.  Every representation evaluates pointwise, integrates by the
composite trapezoid rule on a ``QuadratureGrid``, and samples i.i.d. draws
from an explicit seed.  This module is the only one that tells the
representations apart.

Analytic models are truncated to a finite support chosen wide enough that the
discarded tail mass is negligible (below 1e-10).  Tabulated models are
renormalized at construction so that their trapezoid integral over their own
grid equals one; downstream formulas assume unit mass.  Table lookups, both
here and for the solver's tabulated rule, go through ``interp``, and a
table's sampler sorts its uniforms in the same blocks (``_block_sorts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Analytic supports are cut where the density falls below this fraction of
# its peak; for a Gaussian component that is about 8.6 standard deviations.
PEAK_CUTOFF = 1e-16

_SUPPORT_RADIUS_SIGMA = math.sqrt(-2.0 * math.log(PEAK_CUTOFF)) + 0.5  # ~9.1

# Queries per sorted block in `interp`: enough to amortize the sort, few
# enough that the block's index and value arrays stay small.
_INTERP_BLOCK = 1 << 16


def _as_support(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid support [{lo}, {hi}]")
    return (lo, hi)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Convex combination of Gaussians; components are (weight, mean, stddev)."""

    components: tuple[tuple[float, float, float], ...]
    support: tuple[float, float]


@dataclass(frozen=True, eq=False)
class Shifted:
    """Density of ``base + shift``, i.e. base evaluated at y - shift."""

    base: "DensityModel"
    shift: float
    support: tuple[float, float]


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Density given by nonnegative values on strictly increasing points.

    Values are renormalized at construction so the trapezoid integral over
    the points equals one.  Evaluation interpolates linearly between points
    and is zero outside of them.
    """

    points: np.ndarray
    values: np.ndarray
    support: tuple[float, float]


DensityModel = Union[GaussianMixture, Shifted, Tabulated]


def gaussian(mean: float, stddev: float) -> GaussianMixture:
    """Build a Gaussian model: the mixture of one component."""
    return gaussian_mixture([(1.0, mean, stddev)])


def gaussian_mixture(components) -> GaussianMixture:
    """Build a Gaussian mixture from (weight, mean, stddev) triples."""
    comps = tuple((float(w), float(m), float(s)) for w, m, s in components)
    if not comps:
        raise ValueError("mixture needs at least one component")
    total = 0.0
    for w, _, s in comps:
        if w < 0.0:
            raise ValueError(f"negative mixture weight {w}")
        if not (s > 0.0 and math.isfinite(s)):
            raise ValueError(f"stddev must be positive, got {s}")
        total += w
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-10):
        raise ValueError(f"mixture weights sum to {total}, expected 1")
    lo = min(m - _SUPPORT_RADIUS_SIGMA * s for _, m, s in comps)
    hi = max(m + _SUPPORT_RADIUS_SIGMA * s for _, m, s in comps)
    return GaussianMixture(comps, _as_support(lo, hi))


def shifted(base: DensityModel, shift: float) -> Shifted:
    """Model of ``Y = base + shift``; pdf(y) = base pdf at y - shift."""
    shift = float(shift)
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    lo, hi = base.support
    return Shifted(base, shift, _as_support(lo + shift, hi + shift))


def tabulated(points, values) -> Tabulated:
    """Build a renormalized tabulated density from grid points and values."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    val = np.ascontiguousarray(values, dtype=np.float64)
    if pts.ndim != 1 or pts.shape != val.shape or pts.size < 3:
        raise ValueError("points and values must be equal-length 1-D arrays, length >= 3")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"points must be finite, got [{pts[0]}, ..., {pts[-1]}]")
    if not np.all(np.diff(pts) > 0.0):
        raise ValueError("points must be strictly increasing")
    if np.any(val < 0.0) or not np.all(np.isfinite(val)):
        raise ValueError("values must be finite and nonnegative")
    mass = np.trapezoid(val, pts)
    if mass <= 0.0:
        raise ValueError("tabulated values integrate to zero")
    val = val / mass
    val.setflags(write=False)
    pts.setflags(write=False)
    return Tabulated(pts, val, (float(pts[0]), float(pts[-1])))


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Strictly increasing points with composite trapezoid weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts, w = self.points, self.weights
        if pts.ndim != 1 or pts.size < 3 or pts.shape != w.shape:
            raise ValueError("grid needs >= 3 points and matching weights")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        span = float(pts[-1] - pts[0])
        if abs(float(np.sum(w)) - span) > 1e-12 * span:
            raise ValueError("weights must sum to the grid span")

    @property
    def count(self) -> int:
        return int(self.points.size)

    @property
    def span(self) -> tuple[float, float]:
        return (float(self.points[0]), float(self.points[-1]))


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for arbitrary strictly increasing points."""
    d = np.diff(points)
    w = np.zeros_like(points)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def make_grid(y_min: float, y_max: float, n: int = 4001) -> QuadratureGrid:
    """Uniform quadrature grid with n points on [y_min, y_max]."""
    if n < 3:
        raise ValueError(f"grid needs at least 3 points, got {n}")
    if not (y_max > y_min):
        raise ValueError(f"empty grid range [{y_min}, {y_max}]")
    pts = np.linspace(float(y_min), float(y_max), int(n))
    grid = QuadratureGrid(pts, trapezoid_weights(pts))
    pts.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def grid_for(*models: DensityModel, n: int = 4001) -> QuadratureGrid:
    """Uniform grid covering the union of the models' supports."""
    lo = min(m.support[0] for m in models)
    hi = max(m.support[1] for m in models)
    return make_grid(lo, hi, n)


def _block_sorts(x: np.ndarray):
    """Yield (start, order) for each block of ``_INTERP_BLOCK`` values of the flat array x.

    order is the argsort of x[start:start + _INTERP_BLOCK], or None when the
    block is in order (non-decreasing) already.  A NaN fails every
    comparison, so a block holding one among other values is sorted, and
    the NaN moves to the block's end.
    """
    for s in range(0, x.size, _INTERP_BLOCK):
        xb = x[s:s + _INTERP_BLOCK]
        yield s, None if xb.size < 2 or np.all(xb[1:] >= xb[:-1]) else np.argsort(xb)


def interp(x, xp, fp, left=None, right=None) -> np.ndarray:
    """``np.interp(x, xp, fp, left, right)`` as an array, fast on unordered x.

    np.interp bisects afresh for every query that does not lie near the one
    before it, so a million samples in random order cost a bisection each.
    Here the queries go in blocks of ``_INTERP_BLOCK`` (``_block_sorts``):
    a block in random order is sorted, looked up in order and scattered
    back, and a block already in order, such as a table's Monte Carlo draws
    from ``_sample_in_block_order``, is looked up directly.  np.interp's
    value at a query depends only on that query (the knot j with
    xp[j] <= x < xp[j+1] is unique), so the result equals np.interp's
    element for element, ends and NaNs included.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty_like(flat)
    for s, order in _block_sorts(flat):
        xb, ob = flat[s:s + _INTERP_BLOCK], out[s:s + _INTERP_BLOCK]
        if order is None:
            ob[:] = np.interp(xb, xp, fp, left, right)
        else:
            ob[order] = np.interp(xb[order], xp, fp, left, right)
    return out.reshape(x.shape)


def _pdf(model: DensityModel, y: np.ndarray) -> np.ndarray:
    # in place, in the operation order of w * exp(-0.5 * z * z) / c, so the
    # values are those of that expression bit for bit; for one component of
    # weight 1 the multiply and the sum into zeros are exact
    if isinstance(model, GaussianMixture):
        out = np.zeros_like(y)
        z = np.empty_like(y)
        t = np.empty_like(y)
        for w, m, s in model.components:
            np.subtract(y, m, out=z)
            z /= s
            np.multiply(z, -0.5, out=t)
            t *= z
            np.exp(t, out=t)
            t *= w
            t /= s * math.sqrt(2.0 * math.pi)
            out += t
    elif isinstance(model, Shifted):
        return _pdf(model.base, y - model.shift)
    elif isinstance(model, Tabulated):
        out = interp(y, model.points, model.values, left=0.0, right=0.0)
    else:
        raise TypeError(f"not a density model: {model!r}")
    # analytic models are evaluated exactly everywhere; `support` only sets
    # the default integration window (hard zeros would poison the moment
    # integrals that carry negative density powers)
    return out


def _std(model: DensityModel) -> float:
    """Standard deviation of a model (an SNR's noise scale); a mixture's variance is
    the centred sum w (s^2 + (m - mean)^2), which is s^2 for one component."""
    if isinstance(model, GaussianMixture):
        w, mu, sd = np.array(model.components).T
        w = w / w.sum()
        mean = float(np.sum(w * mu))
        return math.sqrt(float(np.sum(w * (sd**2 + (mu - mean) ** 2))))
    if isinstance(model, Shifted):
        return _std(model.base)
    if isinstance(model, Tabulated):
        pts, val = model.points, model.values
        w = trapezoid_weights(pts)
        mass = float(np.sum(w * val))
        mean = float(np.sum(w * pts * val)) / mass
        var = float(np.sum(w * (pts - mean) ** 2 * val)) / mass
        return math.sqrt(var)
    raise TypeError(f"not a density model: {model!r}")


def _pointwise(fn, y):
    """fn applied to y as a float array of at least one dimension, shaped back
    like y: a Python float for a scalar or 0-d y."""
    arr = np.asarray(y, dtype=np.float64)
    out = fn(np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def evaluate(model: DensityModel, y) -> np.ndarray | float:
    """Density value at y (scalar or array)."""
    return _pointwise(lambda yv: _pdf(model, yv), y)


def values_on(d, grid: QuadratureGrid) -> np.ndarray:
    """Density values on the grid points, from a model or a matching array."""
    if isinstance(d, (GaussianMixture, Shifted, Tabulated)):
        return evaluate(d, grid.points)
    v = np.asarray(d, dtype=np.float64)
    if v.shape != grid.points.shape:
        raise ValueError(
            f"density array has shape {v.shape}, grid has {grid.points.shape}")
    if np.any(v < 0.0):
        raise ValueError("density values must be nonnegative")
    return v


def integrate(values_on_grid, grid: QuadratureGrid) -> float:
    """Composite trapezoid integral of grid values; exact for piecewise-linear."""
    v = np.asarray(values_on_grid, dtype=np.float64)
    if v.shape != grid.points.shape:
        raise ValueError(f"expected {grid.count} values, got {v.shape}")
    return float(np.dot(v, grid.weights))


def likelihood_ratio(f0: DensityModel, f1: DensityModel, y) -> np.ndarray | float:
    """Ratio f1(y)/f0(y) with conventions +inf for f0=0<f1 and 1 for 0/0."""
    return _pointwise(lambda yv: ratio_values(_pdf(f0, yv), _pdf(f1, yv)), y)


def ratio_values(f0_values: np.ndarray, f1_values: np.ndarray) -> np.ndarray:
    """Pointwise f1/f0 with the 0-denominator conventions of likelihood_ratio."""
    out = np.empty_like(f1_values)
    pos = f0_values > 0.0
    np.divide(f1_values, f0_values, out=out, where=pos)
    if not pos.all():
        zero_den = ~pos
        out[zero_den & (f1_values > 0.0)] = np.inf
        out[zero_den & (f1_values == 0.0)] = 1.0
    return out


def sample(model: DensityModel, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the model, deterministic for a given seed."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    return _sample(model, int(n), rng)


def _sample(model: DensityModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the model using rng, in the order the generator made them."""
    y, order = _sample_in_block_order(model, n, rng)
    if order is None:
        return y
    out = np.empty_like(y)
    out[order] = y
    return out


def _sample_in_block_order(model: DensityModel, n: int,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """n draws from the model using rng, and the order they are returned in.

    Returns (y, order): y[i] is the draw the generator made order[i]-th, and
    order None means y is in generator order.  A mixture of two or more
    components draws its component labels; every mixture then draws one
    standard normal per sample, scaled and shifted in place, and returns its
    draws in generator order.  A table inverts its trapezoid CDF at uniforms
    sorted by ``_block_sorts`` and keeps that order, so its draws come sorted
    within each block of ``_INTERP_BLOCK`` and ``interp`` reads them without
    sorting again.  ``_sample`` scatters them back, so the stream of `sample`
    is the inverse CDF at the uniforms in generator order.  A shift keeps the
    order, since rounding y + c is monotone in y.
    """
    if isinstance(model, GaussianMixture):
        w, means, stds = np.array(model.components).T
        # the labels Generator.choice(len(w), n, p=w / w.sum()) draws: the
        # count of its normalised cumulative weights at or below a uniform,
        # found here without its searchsorted.  One component draws no
        # labels, and its scaled and shifted normals are those of
        # Generator.normal(mean, stddev, n) bit for bit.
        idx = 0
        if len(w) > 1:
            cdf = (w / w.sum()).cumsum()
            cdf /= cdf[-1]
            u = rng.random(n)
            idx = np.zeros(n, dtype=np.min_scalar_type(len(w) - 1))
            for c in cdf[:-1].tolist():
                idx += u >= c
        y = rng.standard_normal(n)
        y *= stds[idx]
        y += means[idx]
        return y, None
    if isinstance(model, Shifted):
        y, order = _sample_in_block_order(model.base, n, rng)
        y += model.shift
        return y, order
    if isinstance(model, Tabulated):
        # inverse CDF on the tabulation grid with linear interpolation
        pts, val = model.points, model.values
        inc = np.cumsum(0.5 * (val[1:] + val[:-1]) * np.diff(pts))
        cdf = np.concatenate(([0.0], inc))
        cdf /= cdf[-1]
        u = rng.uniform(0.0, 1.0, n)
        order = np.arange(n)
        for s, ob in _block_sorts(u):
            if ob is not None:
                ub = u[s:s + ob.size]
                ub[:] = ub[ob]
                np.add(ob, s, out=order[s:s + ob.size])
        return np.interp(u, cdf, pts), order
    raise TypeError(f"not a density model: {model!r}")
