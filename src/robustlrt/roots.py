"""Scalar root finding: Newton's method kept inside the bracket it has seen.

Every scalar equation of the package outside the discrete oracle is solved
by `newton` with its exact slope: in the threshold solver the mass balance
in k at rho != 1 and the symmetric threshold equation in log l_u, and on
the boundary the touching point of the two balls at a fixed radius or along
a ray.  The discrete oracle, which checks them, has its own Newton
iteration.  `newton` searches outward from its start with doubling steps
until f changes sign, then keeps every Newton step inside the bracket it
has seen and bisects where a step would leave it, and compares signs rather
than multiplying values, so values whose products underflow still bracket.
`NonConvergenceError` is the threshold solver's report of a search that
stalled; it lives here, beside the search, so that the command line can
map it to its exit code without loading the solver.
"""

from __future__ import annotations

import math


class NonConvergenceError(RuntimeError):
    """Root search exhausted its iteration budget; carries best residual."""


def newton(fdf, x0: float, limit: float, xtol: float, rtol: float, maxiter: int = 100,
           step: float = 1.0):
    """A root of a rising f by Newton's method inside the bracket seen so far.

    fdf(x) gives (f(x), f'(x)).  Until f changes sign the steps go towards
    the root, at most step, 2*step, 4*step, ... long, with |x| <= limit; a
    slope that is not positive and finite (NaN included) takes the longest
    such step.
    Then a Newton step that would leave the bracket bisects it, so a start
    where f < 0 is a lower end.  Returns the x evaluated last once its
    Newton step or half the bracket is below (xtol + rtol*|x|)/2, or where
    f is 0; None when f keeps its sign up to |x| = limit or is NaN before
    changing sign.  Raises ValueError when f is NaN inside a bracket and
    RuntimeError when maxiter steps do not converge.
    """
    lo, hi, x, cap = -math.inf, math.inf, float(x0), float(step)
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
