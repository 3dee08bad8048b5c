"""Scalar root finding: grow a bracket, then Brent's method inside it, or
Newton's method kept inside the bracket it has seen.

The threshold solver's scalar equations (the mass balance at rho != 1, the
symmetric threshold equation in log l_u) are solved by `bracket` and
`brent`; the touching point of the two balls at a fixed radius or along a
ray, whose members give their slopes too, by `newton`.  The discrete
oracle, which checks them, has its own Newton iteration.  `brent` is Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4) in the classic variant with
a hyperbolic extrapolation step: it stops once the bracket is shorter than
xtol + rtol*|x|, takes at most maxiter steps, and compares signs rather
than multiplying values, so values whose products underflow still bracket.
"""

from __future__ import annotations

import math
import sys

_RTOL = 4.0 * sys.float_info.epsilon


def bracket(f, x0: float, f0: float, step: float, limit: float):
    """Grow a bracket of a sign change of f outward from x0.

    f0 is f(x0).  Tries x0 + step, x0 + 2*step, x0 + 4*step, ... while
    |x - x0| <= limit and returns (lo, hi), the last two points tried
    (x0 first) in increasing order, at the first x where f is zero or has
    the sign opposite to f0; (x0, x0) when f0 is zero.  Returns None when
    no point within the limit changes sign or f gives NaN.
    """
    if math.isnan(f0):
        return None
    if f0 == 0.0:
        return x0, x0
    near, d = x0, step
    while abs(d) <= limit:
        x = x0 + d
        fx = f(x)
        if math.isnan(fx):
            return None
        if fx == 0.0 or (fx < 0.0) != (f0 < 0.0):
            return min(near, x), max(near, x)
        near, d = x, 2.0 * d
    return None


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError("the function value at x = %r is NaN" % (x,))
    return fx


def brent(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL,
          maxiter: int = 100) -> float:
    """A root of f in [a, b] by Brent's method.

    Stops once the bracket is shorter than xtol + rtol*|x|.  Raises
    ValueError when f(a) and f(b) have the same sign or f gives NaN, and
    RuntimeError when maxiter iterations do not converge.
    """
    if xtol <= 0.0 or rtol < _RTOL:
        raise ValueError("need xtol > 0 and rtol >= %g" % _RTOL)
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # xblk is the contrapoint: f changes sign between xcur and xblk
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # hyperbolic extrapolation through three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError("Brent's method did not converge in %d iterations; last x = %r"
                       % (maxiter, xcur))


def newton(fdf, x0: float, limit: float, xtol: float, rtol: float, maxiter: int = 100):
    """A root of a rising f by Newton's method inside the bracket seen so far.

    fdf(x) gives (f(x), f'(x)).  Until f changes sign the steps go towards
    the root, at most 1, 2, 4, ... long as in `bracket`, with |x| <= limit;
    then a Newton step that would leave the bracket bisects it, so a start
    where f < 0 is a lower end.  Returns an evaluated x once its Newton step
    or half the bracket is below (xtol + rtol*|x|)/2, as `brent` stops, or
    where f is 0; None when f keeps its sign up to |x| = limit or is NaN
    before changing sign.  Raises ValueError when f is NaN inside a bracket
    and RuntimeError when maxiter steps do not converge.
    """
    lo, hi, x, cap = -math.inf, math.inf, float(x0), 1.0
    for _ in range(maxiter):
        fx, dfx = fdf(x)
        if math.isnan(fx):
            if math.inf in (-lo, hi):
                return None
            raise ValueError("the function value at x = %r is NaN" % (x,))
        if fx == 0.0:
            return x
        lo, hi = (x, hi) if fx < 0.0 else (lo, x)
        delta = (xtol + rtol * abs(x)) / 2.0
        s = -fx / dfx if 0.0 < dfx < math.inf else math.copysign(math.inf, -fx)
        if abs(s) <= delta or hi - lo < 2.0 * delta:
            return x
        if math.inf not in (-lo, hi):
            x = x + s if lo < x + s < hi else lo + (hi - lo) / 2.0
        elif x == math.copysign(limit, s):
            return None
        else:
            x = max(-limit, min(x + max(-cap, min(s, cap)), limit))
            cap *= 2.0
    raise RuntimeError("Newton's method did not converge in %d iterations; last x = %r"
                       % (maxiter, x))
