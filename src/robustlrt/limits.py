"""Maximum admissible robustness radii.

For a pair of uncertainty balls around the nominal densities, robust testing
only makes sense while the balls are disjoint.  At the critical radii the
balls touch in a single shared density g_v, one member of a family that
runs from f0 to f1 in the log multiplier ratio v = log(lambda1/lambda0).
Normalising g_v fixes the multipliers in closed form, so every boundary
question is the root of one scalar equation in v on that family: the point
where one radius takes a fixed value (`max_eps_general`, and pointwise on
one shared family in `eps_surface`), or the point whose radii lie along a
requested ray (`validate_eps`).  Newton's method finds each root, with the
slopes in v that every member also gives.  The Hellinger case alpha = 1/2 has
closed forms (`hellinger_root_a`, `hellinger_eps_max`).  The prior ratio
plays no part: the admissible region is a property of the two balls.

All integrals run on the caller's quadrature grid in log space, so very
large or very negative alpha stay finite.  Each job builds the family of its
nominal pair once (`_family`): the scaled log nominals, the cells where a
nominal vanishes, the grid weights and the closed-form ends.  The family
also remembers every member it has evaluated, keyed by v, so a sweep of
roots on one family, each started at the root before, never evaluates a
trial point twice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import QuadratureGrid, values_on
from .divergence import check_alpha, x_of
from .roots import newton

EPS_MAX_A0 = 4.0 - 2.0 * math.sqrt(2.0)

_LOG2 = math.log(2.0)

# l range beyond which the full-range assumption of the boundary system is
# considered honored; tighter ranges trigger a truncation warning.
_L_RANGE_LO = 1e-6
_L_RANGE_HI = 1e6

# the search for v goes no further out: beyond it g_v is f0 or f1 to
# rounding unless |1-a| log(f1/f0) spans thousands on the grid, so a fixed
# radius whose root lies further out gets that end
_V_MAX = 2.0 ** 13


class NoBoundaryPointError(RuntimeError):
    """No touching point exists for the requested fixed radius."""


class InfeasiblePairError(ValueError):
    """No nominal pair attains the requested radius pair on the boundary."""


@dataclass(frozen=True)
class FeasibilityReport:
    """Boundary summary for one alpha.

    pairs holds (eps0, eps1) points on the critical boundary.  a_value is
    the Bhattacharyya-type overlap the boundary refers to (Hellinger mode;
    NaN otherwise).  lambda0/lambda1 are the multipliers at the midpoint
    boundary pair.
    """

    alpha: float
    mode: str
    pairs: tuple
    a_value: float
    lambda0: float
    lambda1: float


def _log_values(obj, grid: QuadratureGrid) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values_on(obj, grid))


def _warn_if_bounded_ratio(lf0: np.ndarray, lf1: np.ndarray) -> None:
    # the boundary system assumes the ratio f1/f0 sweeps (0, inf); on a
    # truncated grid it never quite does, so flag clearly bounded cases
    both = np.isfinite(lf0) & np.isfinite(lf1)
    if not np.any(both):
        return
    lr = lf1[both] - lf0[both]
    lmin = float(np.exp(lr.min()))
    lmax = float(np.exp(lr.max()))
    if lmin > _L_RANGE_LO or lmax < _L_RANGE_HI:
        warnings.warn(
            "likelihood ratio spans only [%.3g, %.3g] on this grid; the "
            "boundary radii assume an unbounded ratio range and may be "
            "slightly optimistic" % (lmin, lmax),
            RuntimeWarning,
            stacklevel=4,
        )


def _root_a_unchecked(eps0: float, eps1: float) -> float:
    disc = (eps0 - 8.0) * eps0 * (eps1 - 8.0) * eps1
    return (16.0 - 4.0 * eps1 + eps0 * (eps1 - 4.0) - math.sqrt(disc)) / 16.0


def hellinger_root_a(eps0: float, eps1: float) -> float:
    """Critical overlap a at which the radius pair (eps0, eps1) is maximal.

    This is the correct branch of the quadratic relating the overlap
    integral of two densities to the touching radii of their Hellinger-type
    balls (alpha = 1/2); the other branch pins a = 1 identically and is
    rejected.  Symmetric in its arguments.
    """
    for e in (eps0, eps1):
        if not 0.0 <= e <= 8.0:
            raise ValueError("radii must lie in [0, 8], got %r" % (e,))
    a = _root_a_unchecked(eps0, eps1)
    if not 0.0 <= a <= 1.0:
        raise InfeasiblePairError(
            "infeasible pair: no overlap value in [0, 1] puts (%g, %g) on the "
            "boundary" % (eps0, eps1)
        )
    return a


def hellinger_eps_max(a: float) -> float:
    """Largest symmetric radius for overlap a, alpha = 1/2: 4 - 2*sqrt(2(1+a))."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("overlap a must lie in [0, 1], got %r" % (a,))
    return 4.0 - 2.0 * math.sqrt(2.0 * (1.0 + a))


def _hellinger_other(a: float, eps_fixed: float) -> float:
    """Closed-form boundary partner of eps_fixed at overlap a (alpha = 1/2)."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("overlap a must lie in [0, 1], got %r" % (a,))
    if not (math.isfinite(eps_fixed) and eps_fixed >= 0.0):
        raise ValueError("fixed radius must be a finite nonnegative real")
    f0 = _root_a_unchecked(eps_fixed, 0.0) - a
    if f0 < 0.0:
        raise NoBoundaryPointError(
            "no boundary point: fixed radius %g already exceeds the axis "
            "maximum for overlap %g" % (eps_fixed, a)
        )
    if f0 == 0.0:
        return 0.0
    # squaring _root_a_unchecked(eps_fixed, e) = a gives
    # 16 e^2 + q e + b^2 = 0; the partner is its smaller root
    b = 16.0 - 4.0 * eps_fixed - 16.0 * a
    q = 2.0 * (eps_fixed - 4.0) * b + 8.0 * eps_fixed * (eps_fixed - 8.0)
    return 2.0 * b * b / (math.sqrt(max(q * q - 64.0 * b * b, 0.0)) - q)


def _moment_alpha(lf0: np.ndarray, lf1: np.ndarray, alpha: float, w: np.ndarray) -> float:
    lm = alpha * lf0 + (1.0 - alpha) * lf1
    lm = np.where(np.isnan(lm), -np.inf, lm)
    return float(np.dot(np.exp(lm), w))


def _logaddexp(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(e^x + e^y) elementwise in whole-array passes, as a new array.

    max(x, y) + log1p(exp(-|x - y|)) runs numpy's vectorised exp and log1p,
    where numpy's own logaddexp calls libm once per element.  A tie, equal
    infinities included, gives x + log 2 as that ufunc does, and NaN stays
    NaN.
    """
    with np.errstate(invalid="ignore"):
        out = np.subtract(x, y)
        np.abs(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out += np.maximum(x, y)
        np.add(x, _LOG2, out=out, where=np.equal(x, y))
    return out


class _Family(NamedTuple):
    """The touching family of one nominal pair, built once by `_family`.

    blf0 and blf1 are b log f0 and b log f1 on the grid (b = 1 - alpha);
    vanish0 and vanish1 mark the cells where f0 or f1 is zero, or are None
    when no cell is; w holds the grid weights.  ends[-1] (g = f0) and
    ends[1] (g = f1) are (eps0, eps1, lambda0, lambda1).  seen maps every v
    evaluated so far to `_touching`'s result there; `_at` reads through it.
    Each family gets its own seen dict, so nothing outlives the family.
    """

    blf0: np.ndarray
    blf1: np.ndarray
    vanish0: np.ndarray | None
    vanish1: np.ndarray | None
    w: np.ndarray
    alpha: float
    ends: dict
    seen: dict


def _touching(family: _Family, v: float):
    """Log normaliser, both radii and their slopes in v of the touching density g_v.

    g_v = h_v / integral(h_v) with h_v = (f0^(1-a) + e^v f1^(1-a))^(1/(1-a))
    and v = log(lambda1/lambda0); returns (log integral(h_v), D(g_v, f0),
    D(g_v, f1), dD(g_v, f0)/dv, dD(g_v, f1)/dv).  With b = 1 - a and
    s = e^v f1^b / h_v^b, d log h_v/dv = s/b, so with M_i = integral(g^a f_i^b)
    dD(g_v, f_i)/dv = -(integral(g^a f_i^b s) - M_i E_g[s]) / b^2, from the
    same passes.  Works from the family's precomputed b log f_i and masks in
    whole-array passes; callers read it through `_at`, which memoises it by
    v on the family.  A cell where f_i vanishes adds nothing to the moment
    of f_i, for every sign of alpha, and s is 0 where f1 vanishes.
    """
    alpha, w = family.alpha, family.w
    b = 1.0 - alpha
    sw = v + family.blf1
    lh = _logaddexp(family.blf0, sw)
    with np.errstate(invalid="ignore"):
        sw -= lh
    np.exp(sw, out=sw)
    if family.vanish1 is not None:
        sw[family.vanish1] = 0.0
    sw *= w
    lh /= b
    top = float(lh.max())
    t = np.subtract(lh, top)
    np.exp(t, out=t)
    mass = float(np.dot(t, w))
    log_norm = top + math.log(mass)
    mean_s = float(np.dot(t, sw)) / mass
    lh -= log_norm
    lh *= alpha
    radii, slopes = [], []
    with np.errstate(invalid="ignore"):
        for blf, vanish in ((family.blf0, family.vanish0), (family.blf1, family.vanish1)):
            np.add(lh, blf, out=t)
            np.exp(t, out=t)
            if vanish is not None:
                t[vanish] = 0.0
            moment = float(np.dot(t, w))
            radii.append((1.0 - moment) / (alpha * b))
            slopes.append((moment * mean_s - float(np.dot(t, sw))) / (b * b))
    return log_norm, radii[0], radii[1], slopes[0], slopes[1]


def _at(family: _Family, v: float):
    """`_touching` at v, evaluated at most once per family."""
    got = family.seen.get(v)
    if got is None:
        got = family.seen[v] = _touching(family, v)
    return got


def _family(nominals, alpha: float, grid: QuadratureGrid) -> _Family:
    """The touching family of one nominal pair on the grid.

    Precomputes what every member needs: b log f_i (b = 1 - alpha), the
    cells where each nominal vanishes, and the closed-form ends.  The record
    memoises the members evaluated on it by v (see `_at`), and lives only as
    long as the boundary job that built it.
    """
    lf0, lf1 = (_log_values(f, grid) for f in nominals)
    _warn_if_bounded_ratio(lf0, lf1)
    w = grid.weights
    b = 1.0 - alpha
    aa, lam = alpha * b, abs(b)
    ends = {-1.0: (0.0, (1.0 - _moment_alpha(lf0, lf1, alpha, w)) / aa, lam, 0.0),
            1.0: ((1.0 - _moment_alpha(lf1, lf0, alpha, w)) / aa, 0.0, 0.0, lam)}
    vanish0, vanish1 = (np.isneginf(lf) for lf in (lf0, lf1))
    return _Family(blf0=b * lf0, blf1=b * lf1,
                   vanish0=vanish0 if vanish0.any() else None,
                   vanish1=vanish1 if vanish1.any() else None,
                   w=w, alpha=alpha, ends=ends, seen={})


def _touching_root(family: _Family, lin, val: float, start: float = 0.0):
    """(v, eps0, eps1, lambda0, lambda1) at the g_v where lin(eps0, eps1) = val.

    lin is linear and lin(D(g_v, f0), D(g_v, f1)) must rise with v, as
    D(g_v, f0) does while D(g_v, f1) falls.  `roots.newton` takes v from
    start with the members' slopes; with no sign change within |v| <= _V_MAX
    this returns start and the end of the family lin points to.  Members are
    read through the family's memo, so a start at an earlier root is free.
    """

    def r(v):
        _, e0, e1, d0, d1 = _at(family, v)
        return lin(e0, e1) - val, lin(d0, d1)

    v = newton(r, start, _V_MAX, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    if v is None:
        return (start,) + family.ends[1.0 if r(start)[0] < 0.0 else -1.0]
    log_norm, e0, e1, _, _ = _at(family, v)
    b = 1.0 - family.alpha
    lam = abs(b)
    return (v, e0, e1, lam * math.exp(-b * log_norm), lam * math.exp(v - b * log_norm))


def _partner(family, idx: int, val: float, start: float = 0.0):
    """`max_eps_general` on a built family for a valid index and radius, plus
    the touching point's v: a root searched from start, or start at an end."""
    alpha, ends = family.alpha, family.ends
    # D(g_v, f0) rises and D(g_v, f1) falls with v, so lin below rises with v
    sign = 1.0 if idx == 0 else -1.0
    axis_max = ends[sign][idx]
    if val == 0.0:
        e0, e1, lam0, lam1 = ends[-sign]
        return (e1 if idx == 0 else e0), lam0, lam1, start
    if x_of(alpha, val) <= 0.0:
        raise NoBoundaryPointError(
            "no boundary point: constraint constant x(alpha, eps) = %g is not "
            "positive, the fixed radius is beyond any admissible boundary"
            % x_of(alpha, val))
    if val > axis_max:
        raise NoBoundaryPointError(
            "no boundary point: fixed radius eps%d = %g is beyond its axis "
            "maximum D(f%d||f%d) = %.10g" % (idx, val, 1 - idx, idx, axis_max))
    v, e0, e1, lam0, lam1 = (start,) + ends[sign] if val == axis_max else _touching_root(
        family, lambda e0, e1: sign * (e0 if idx == 0 else e1), sign * val, start)
    # next to the far end the partner radius is 0 up to rounding
    return max(e1 if idx == 0 else e0, 0.0), lam0, lam1, v


def max_eps_general(nominals, alpha: float, grid: QuadratureGrid, eps_i_fixed):
    """Largest admissible partner radius when one radius is held fixed.

    With eps[index] pinned at `value` (eps_i_fixed = (index, value)) the
    balls touch in g_v (see `_touching`) at the root v of
    D(g_v, f_index) = value; returns (eps_other, lambda0, lambda1), where
    lambda0 = |1-a| integral(h_v)^(-(1-a)) and lambda1 = e^v lambda0 make
    g = ((lambda0 f0^(1-a) + lambda1 f1^(1-a)) / |1-a|)^(1/(1-a)).

    The ends of the family are closed forms: a fixed radius of 0 gives
    g = f_index and the partner D(f_index||f_other); a fixed radius equal
    to its axis maximum D(f_other||f_index) gives g = f_other and the
    partner 0.  Between them Newton's method finds v from v = 0, with the
    slope of D(g_v, f_index) that each member gives.

    Raises NoBoundaryPointError, naming the axis maximum, when the fixed
    radius lies beyond it.
    """
    check_alpha(alpha)
    idx, val = eps_i_fixed
    if idx not in (0, 1):
        raise ValueError("eps_i_fixed index must be 0 or 1")
    if not (np.isfinite(val) and val >= 0.0):
        raise ValueError("fixed radius must be a finite nonnegative real")
    return _partner(_family(nominals, alpha, grid), idx, val)[:3]


def eps_surface(alpha: float, n: int, nominals=None,
                grid: QuadratureGrid | None = None, a: float | None = None) -> FeasibilityReport:
    """Tabulate n boundary radius pairs for one alpha.

    Hellinger mode (alpha = 1/2) uses the closed form at overlap
    a_value, taken from the nominals when given, from `a` otherwise, and
    defaulting to the widest case a = 0.  Any other alpha runs the general
    solver pointwise, which requires nominals and a grid.
    """
    check_alpha(alpha)
    if n < 2:
        raise ValueError("need at least 2 surface points")
    if abs(alpha - 0.5) < 1e-12:
        if nominals is not None:
            if grid is None:
                raise ValueError("a grid is required to integrate the nominals")
            lf0, lf1 = (_log_values(f, grid) for f in nominals)
            a_val = _moment_alpha(lf0, lf1, 0.5, grid.weights)
        else:
            a_val = 0.0 if a is None else float(a)
        if not 0.0 <= a_val <= 1.0:
            raise ValueError("overlap a must lie in [0, 1]")
        e_hi = hellinger_eps_max(a_val)
        pairs = []
        for e0 in np.linspace(0.0, e_hi, n):
            e1 = _hellinger_other(a_val, float(e0))
            if abs(_root_a_unchecked(float(e0), e1) - a_val) > 1e-8:
                raise RuntimeError("closed-form boundary residual exceeded 1e-8")
            pairs.append((float(e0), e1))
        mid = pairs[len(pairs) // 2]
        lam = np.linalg.solve(
            np.array([[1.0, a_val], [a_val, 1.0]]),
            np.array([0.5 - mid[0] / 8.0, 0.5 - mid[1] / 8.0]),
        )
        return FeasibilityReport(alpha=alpha, mode="hellinger", pairs=tuple(pairs),
                                 a_value=a_val, lambda0=float(lam[0]), lambda1=float(lam[1]))
    if nominals is None or grid is None:
        raise ValueError("general mode needs nominals and a grid")
    family = _family(nominals, alpha, grid)
    sweep = [float(e0) for e0 in np.linspace(0.0, _partner(family, 1, 0.0)[0], n)]
    # D(g_v, f0) rises with v, so each root is the lower end of the next
    partners, v = [], 0.0
    for e0 in sweep:
        *partner, v = _partner(family, 0, e0, v)
        partners.append(partner)
    _, lam0, lam1 = partners[n // 2]
    return FeasibilityReport(alpha=alpha, mode="general",
                             pairs=tuple((e0, p[0]) for e0, p in zip(sweep, partners)),
                             a_value=math.nan, lambda0=lam0, lambda1=lam1)


def validate_eps(nominals, spec, grid: QuadratureGrid):
    """Check a radius pair against the boundary; returns (feasible, margin).

    margin is the signed distance to the boundary along the ray from the
    origin through (eps0, eps1) (diagonal ray for the zero pair).  The ray
    meets the boundary at the member of the touching family whose radii
    point along it, the root of u1 D(g_v, f0) - u0 D(g_v, f1) for the ray
    direction u; an axis ray ends at the closed-form partner of a zero
    radius.  Points within 1e-9 of the boundary count as infeasible,
    matching the strict inequality the robust test needs.  Both threshold
    solvers refuse radius pairs through this check.
    """
    eps0, eps1 = float(spec.eps0), float(spec.eps1)
    s_req = math.hypot(eps0, eps1)
    u0, u1 = (eps0 / s_req, eps1 / s_req) if s_req > 0.0 else (math.sqrt(0.5),) * 2
    family = _family(nominals, spec.alpha, grid)
    ends = family.ends
    if u0 == 0.0:
        s_star = ends[-1.0][1]
    elif u1 == 0.0:
        s_star = ends[1.0][0]
    else:
        _, e0, e1, _, _ = _touching_root(family, lambda e0, e1: u1 * e0 - u0 * e1, 0.0)
        s_star = u0 * e0 + u1 * e1
    margin = s_star - s_req
    return margin > 1e-9 * (1.0 + s_req), margin
