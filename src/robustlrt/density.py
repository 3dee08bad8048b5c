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
grid equals one; downstream formulas assume unit mass.  Every table of the
package, a tabulated density's pdf and inverse CDF and the solver's rule
and likelihood ratio, is a ``TabulatedFunction``: np.interp's values at
queries in any order, from a bucket index built once per table, so Monte
Carlo draws are looked up in the order the generator made them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Analytic supports are cut where the density falls below this fraction of
# its peak; for a Gaussian component that is about 8.6 standard deviations.
PEAK_CUTOFF = 1e-16

_SUPPORT_RADIUS_SIGMA = math.sqrt(-2.0 * math.log(PEAK_CUTOFF)) + 0.5  # ~9.1

# Queries per block of a `TabulatedFunction`, and draws per block of the Monte
# Carlo decision count: few enough that a block's temporaries stay small.
_INTERP_BLOCK = 1 << 16


def _as_support(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid support [{lo}, {hi}]")
    return (lo, hi)


def _frozen(a) -> np.ndarray:
    """a as a read-only contiguous float64 array: a itself if it is one, else a copy."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


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
    and is zero outside of them.  The model keeps each table it reads as a
    `TabulatedFunction`: its pdf, zero outside the points, and the inverse
    of its trapezoid CDF for sampling.
    """

    points: np.ndarray
    values: np.ndarray
    support: tuple[float, float]

    @functools.cached_property
    def _pdf_table(self) -> "TabulatedFunction":
        return TabulatedFunction(self.points, self.values, 0.0, 0.0)

    @functools.cached_property
    def _inverse_cdf(self) -> "TabulatedFunction":
        # the trapezoid CDF at the points, inverted by linear interpolation
        pts, val = self.points, self.values
        inc = np.cumsum(0.5 * (val[1:] + val[:-1]) * np.diff(pts))
        cdf = np.concatenate(([0.0], inc))
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return TabulatedFunction(cdf, pts)


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
    pts = _frozen(points)
    val = np.ascontiguousarray(values, dtype=np.float64)
    if pts.ndim != 1 or pts.shape != val.shape or pts.size < 3:
        raise ValueError("points and values must be equal-length 1-D arrays of at least 3 points")
    if not np.all(np.isfinite(pts)):
        i = int(np.argmin(np.isfinite(pts)))
        raise ValueError(f"points must be finite, got {pts[i]} at index {i}")
    if not np.all(np.diff(pts) > 0.0):
        raise ValueError("points must be strictly increasing")
    if np.any(val < 0.0) or not np.all(np.isfinite(val)):
        raise ValueError("values must be finite and nonnegative")
    mass = np.trapezoid(val, pts)
    if mass <= 0.0:
        raise ValueError("tabulated values integrate to zero")
    val = val / mass
    val.setflags(write=False)
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
    if not math.isfinite(float(y_max) - float(y_min)):
        raise ValueError(f"grid span [{y_min}, {y_max}] is not finite")
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


class _BucketIndex:
    """Guide table of one table (xp, fp): np.interp's value at queries in any order.

    The span of xp is cut into M = 2 len(xp) equal buckets (Chen & Asau,
    *Computing* 13, 1974; Devroye, *Non-Uniform Random Variate Generation*,
    1986, III.2.4), and a value's bucket is the same rounded arithmetic for
    knots and queries, so it is monotone in the value.  Every knot of a
    lower bucket then lies at or below a query, and every knot of a higher
    one above it: a query whose bucket holds at most one knot finds np.interp's
    knot j (the last with xp[j] <= x) by one comparison with the first knot
    at or above its bucket, and the few queries whose bucket holds more
    (CDF tails, duplicate knots) bisect.  The index is built in linear time
    from each bucket's knot count.  A lookup is two steps: `cells` finds
    the knots, and `values` gives slope[j] * (x - xp[j]) + fp[j],
    np.interp's own arithmetic, at queries whose knots are known, so a
    caller that knows a query's knot already skips the search.  The value
    differs from np.interp's only at np.interp's special cases: x = xp[j]
    (it returns fp[j]), a NaN retried from the cell's other end, and the
    last knot.  On a table whose values and slopes are finite, whose span
    is positive and finite and whose values hold no -0.0 (`plain`), the
    arithmetic gives those same values.  `values` serves only plain tables;
    `TabulatedFunction` reads any other table with np.interp.
    """

    def __init__(self, xp: np.ndarray, fp: np.ndarray, left, right):
        n = xp.size
        self.xp, self.fp = xp, fp
        self.xp0, self.xpn = float(xp[0]), float(xp[-1])
        self.left = fp[0] if left is None else left
        self.right = fp[-1] if right is None else right
        self.top = float(2 * n - 1)
        span = self.xpn - self.xp0
        # a table of one point or of equal points puts every value in bucket 0
        self.scale = self.top / span if span > 0.0 else 0.0
        with np.errstate(all="ignore"):
            # the knots are in order, so a bucket's first knot is the count
            # of knots in the buckets below it
            count = np.bincount(self._buckets(xp), minlength=2 * n)
            crowded = count >= 2
            first = np.cumsum(count)
            first -= count
            first = np.minimum(first, n - 1)
            # a crowded bucket's queries compare with NaN, stay at -2 and bisect
            self.below = np.where(crowded, -2, first - 1)
            self.edge = np.where(crowded, np.nan, xp[first])
            self.crowded = bool(crowded.any())
            # the last knot's slope only multiplies x - xp[-1], which is 0 there
            self.slope = np.append(np.diff(fp) / np.diff(xp), 1.0)
            cells = self.slope[:-1][np.diff(xp) > 0.0]
            self.plain = bool(0.0 < span < math.inf
                              and np.all(np.isfinite(fp)) and np.all(np.isfinite(cells))
                              and not np.any(np.signbit(fp) & (fp == 0.0)))

    def _buckets(self, v: np.ndarray) -> np.ndarray:
        # fmax and fmin send a NaN to bucket 0, where its value comes out NaN
        t = v - self.xp0
        t *= self.scale
        np.fmax(t, 0.0, out=t)
        np.fmin(t, self.top, out=t)
        return t.astype(np.intp)

    def bucket_classes(self, cell_class: np.ndarray, other) -> np.ndarray:
        """Per bucket, the class in cell_class (one per cell, xp[j] to xp[j + 1])
        of every cell that `cells` can give the bucket's queries, or other
        where those cells' classes differ.

        An uncrowded bucket's query finds the cell below the bucket or, where
        the bucket holds a knot, the cell that knot starts, so both must
        agree.  The last knot starts no cell and has class other, so the
        buckets whose queries can find it, above the table among them, get
        other; so do bucket 0, which also holds the queries below the table
        and at a NaN, and the crowded buckets, whose queries bisect: neither
        has a cell below it (`below` < 0).
        """
        cls = np.append(cell_class, cell_class.dtype.type(other))
        lo = np.maximum(self.below, 0)
        out = cls.take(lo)
        out[(self.below < 0) | (cls.take(lo + 1) != out)] = other
        return out

    def cells(self, x: np.ndarray) -> np.ndarray:
        """np.interp's knot of each query: the last j with xp[j] <= x for x in
        [xp[0], xp[-1]]; off the table and at a NaN, a knot whose value
        `values` overwrites."""
        with np.errstate(all="ignore"):
            k = self._buckets(x)
            j = self.below.take(k)
            j += x >= self.edge.take(k)
        if self.crowded:
            bisect = np.flatnonzero(j == -2)
            j[bisect] = np.searchsorted(self.xp, x[bisect], "right") - 1
        return j

    def values(self, x: np.ndarray, j: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write np.interp(x, xp, fp, left, right) into out, which may be x,
        given the knots j of the queries (`cells`), on a `plain` table."""
        with np.errstate(all="ignore"):
            below, above = x < self.xp0, x > self.xpn
            np.subtract(x, self.xp.take(j), out=out)
            out *= self.slope.take(j)
            out += self.fp.take(j)
            np.copyto(out, self.left, where=below)
            np.copyto(out, self.right, where=above)
        return out


@dataclass(frozen=True, eq=False)
class TabulatedFunction:
    """Piecewise-linear function given by its values on points, read as np.interp.

    Outside the points it holds ``left`` and ``right``, by default the end
    values, and a call gives np.interp(y, points, values, left, right)
    element for element, ends, NaNs and signs of zero included.  np.interp
    bisects afresh for every query that does not lie near the one before
    it, so queries in random order, such as Monte Carlo draws, cost a
    bisection each.  Here the queries go in blocks of ``_INTERP_BLOCK``: a
    block in order (non-decreasing) goes to np.interp, and any other block
    to the table's bucket `index`, built on first use and kept, if the
    table is `plain`, else to np.interp too.  A block's first pair is
    compared before the whole block is checked for order, so about half of
    the unordered blocks skip that pass.  The points and values are kept
    read-only, so the index stays that of the table: a read-only array as
    it is, a writeable one as a copy.
    """

    points: np.ndarray
    values: np.ndarray
    left: float | None = None
    right: float | None = None

    def __post_init__(self):
        shape = np.shape(self.points)
        if len(shape) != 1 or shape != np.shape(self.values) or shape == (0,):
            raise ValueError("points and values must be nonempty 1-D arrays of one length, "
                             f"got shapes {shape} and {np.shape(self.values)}")
        for name in ("points", "values"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @functools.cached_property
    def index(self) -> _BucketIndex:
        """The table's bucket index, built on first use and kept."""
        return _BucketIndex(self.points, self.values, self.left, self.right)

    def __call__(self, y, out: np.ndarray | None = None):
        """Values at y: a float at a scalar y, else an array shaped like y; a
        flat float array out, which may be y itself, receives them."""
        return _pointwise(functools.partial(self._read, out=out), y)

    def _read(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        flat = x.ravel()
        res = np.empty_like(flat) if out is None else out
        for s in range(0, flat.size, _INTERP_BLOCK):
            xb, ob = flat[s:s + _INTERP_BLOCK], res[s:s + _INTERP_BLOCK]
            if (xb.size < 2 or (xb[1] >= xb[0] and np.all(xb[1:] >= xb[:-1]))
                    or not self.index.plain):
                ob[:] = np.interp(xb, self.points, self.values, self.left, self.right)
            else:
                self.index.values(xb, self.index.cells(xb), ob)
        return res


def _pdf(model: DensityModel, y: np.ndarray) -> np.ndarray:
    # in place, in the operation order of w * exp(-0.5 * z * z) / c, so the
    # values are those of that expression bit for bit; the first term is
    # written straight into the output, which equals adding it to zeros
    # (a term is never -0.0), and a weight of 1 is not multiplied
    if isinstance(model, GaussianMixture):
        out = t = np.empty_like(y)
        z = np.empty_like(y)
        for i, (w, m, s) in enumerate(model.components):
            if i == 1:
                t = np.empty_like(y)
            np.subtract(y, m, out=z)
            z /= s
            np.multiply(z, -0.5, out=t)
            t *= z
            np.exp(t, out=t)
            if w != 1.0:
                t *= w
            t /= s * math.sqrt(2.0 * math.pi)
            if t is not out:
                out += t
    elif isinstance(model, Shifted):
        return _pdf(model.base, y - model.shift)
    elif isinstance(model, Tabulated):
        out = model._pdf_table(y)
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
    """Ratio f1(y)/f0(y) with conventions +inf for f0=0<f1 and 1 for 0/0; NaN
    where either density is NaN (at a NaN y)."""
    return _pointwise(lambda yv: ratio_values(_pdf(f0, yv), _pdf(f1, yv)), y)


def ratio_values(f0_values: np.ndarray, f1_values: np.ndarray) -> np.ndarray:
    """Pointwise f1/f0 with the 0-denominator conventions of likelihood_ratio:
    +inf for f0 = 0 < f1, 1 for 0/0, and NaN wherever either value is NaN.
    Where every f0 is positive, which a NaN is not, it is the plain division."""
    if f0_values.min(initial=math.inf) > 0.0:
        return np.divide(f1_values, f0_values)
    out = np.empty_like(f1_values)
    pos = f0_values > 0.0
    np.divide(f1_values, f0_values, out=out, where=pos)
    if not pos.all():
        rest = np.flatnonzero(~pos)
        f0r, f1r = f0_values[rest], f1_values[rest]
        r = np.where(f1r > 0.0, np.inf, np.where(f1r == 0.0, 1.0, np.nan))
        r[np.isnan(f0r)] = np.nan
        out[rest] = r
    return out


def sample(model: DensityModel, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the model, deterministic for a given seed."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    return _sample(model, int(n), rng)


def _sample(model: DensityModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the model using rng, in the order the generator made them.

    A mixture of two or more components first draws its n component labels,
    one block of ``_INTERP_BLOCK`` uniforms at a time, so only the labels
    and one block of uniforms are held.  Every mixture then draws one
    standard normal per sample and scales and shifts it in place, block by
    block for two or more components.  A table draws n uniforms and writes
    over them its inverse CDF at each, looked up in generator order.  A
    shift adds its amount in place.
    """
    if isinstance(model, GaussianMixture):
        w, means, stds = np.array(model.components).T
        if len(w) == 1:
            # Generator.normal(mean, stddev, n) bit for bit
            y = rng.standard_normal(n)
            y *= stds[0]
            y += means[0]
            return y
        # the labels Generator.choice(len(w), n, p=w / w.sum()) draws: the
        # count of its normalised cumulative weights at or below a uniform,
        # found here without its searchsorted.  Blocks of uniforms give the
        # values of one call for all n.
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        cuts = cdf[:-1].tolist()
        idx = np.zeros(n, dtype=np.min_scalar_type(len(w) - 1))
        for s in range(0, n, _INTERP_BLOCK):
            ib = idx[s:s + _INTERP_BLOCK]
            u = rng.random(ib.size)
            for c in cuts:
                ib += u >= c
        y = rng.standard_normal(n)
        for s in range(0, n, _INTERP_BLOCK):
            yb, ib = y[s:s + _INTERP_BLOCK], idx[s:s + _INTERP_BLOCK]
            yb *= stds.take(ib)
            yb += means.take(ib)
        return y
    if isinstance(model, Shifted):
        y = _sample(model.base, n, rng)
        y += model.shift
        return y
    if isinstance(model, Tabulated):
        u = rng.random(n)
        return model._inverse_cdf(u, out=u)
    raise TypeError(f"not a density model: {model!r}")
