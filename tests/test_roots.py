"""Scalar root finding: safeguarded Newton against scipy's brentq, its
outward search, its failure contracts, and the import that keeps scipy out.

scipy is imported here only, as the independent reference; the package
itself needs numpy alone, which a child interpreter checks.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustlrt
from robustlrt.roots import newton


# rising functions with their derivatives, a start and a bracket for brentq
NEWTON_CASES = [
    ("cubic", lambda x: (x ** 3 - 2.0 * x - 5.0, 3.0 * x * x - 2.0), 0.0, 2.0, 3.0),
    ("cos", lambda x: (x - math.cos(x), 1.0 + math.sin(x)), 5.0, 0.0, 1.0),
    # a tangent from far off overshoots into the flat tail: bisection helps
    ("steep tanh", lambda x: (math.tanh(50.0 * (x - 0.3)),
                              50.0 / math.cosh(50.0 * (x - 0.3)) ** 2), 0.25, 0.0, 1.0),
    # f(a) * f(b) underflows to -0.0: only a sign comparison sees the bracket
    ("underflowing products", lambda x: (1e-200 * (x - 0.3), 1e-200), -7.0, 0.0, 1.0),
    ("wrong-way slope at the start", lambda x: (x ** 3 - 3.0 * x - 1.0, 3.0 * x * x - 3.0),
     0.0, 1.5, 2.5),
]


@pytest.mark.parametrize("name,fdf,x0,a,b", NEWTON_CASES, ids=[c[0] for c in NEWTON_CASES])
@pytest.mark.parametrize("xtol,rtol", [(2e-12, 4 * sys.float_info.epsilon), (1e-14, 8.9e-16),
                                       (1e-4, 1e-6)])
def test_newton_matches_brentq_and_keeps_its_bracket(name, fdf, x0, a, b, xtol, rtol):
    optimize = pytest.importorskip("scipy.optimize")
    seen = []

    def recorded(x):
        seen.append(x)
        return fdf(x)

    x = newton(recorded, x0, 64.0, xtol, rtol)
    x_ref = optimize.brentq(lambda x: fdf(x)[0], a, b, xtol=xtol, rtol=rtol)
    assert abs(x - x_ref) <= xtol + rtol * abs(x_ref)
    assert x in seen and len(seen) == len(set(seen)) and len(seen) < 60
    # once f has changed sign, every point lies inside the bracket seen so far
    lo, hi = -math.inf, math.inf
    for y in seen:
        if math.inf not in (-lo, hi):
            assert lo < y < hi
        if fdf(y)[0] < 0.0:
            lo = y
        else:
            hi = y


def test_newton_steps_outward_like_bracket_until_f_changes_sign():
    # a slope that is not positive, or NaN as at the symmetric solve's start,
    # takes the capped outward steps
    for slope in (0.0, math.nan):
        seen = []

        def fdf(x):
            seen.append(x)
            return (math.tanh(x - 20.0), slope)

        assert abs(newton(fdf, 0.0, 1e3, 1e-12, 4 * sys.float_info.epsilon) - 20.0) < 1e-11
        assert seen[:6] == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0]
    # the first step sets the scale of the doubling
    seen = []

    def flat(x):
        seen.append(x)
        return (-1.0, math.nan)

    assert newton(flat, 0.0, 10.0, 1e-14, 8.9e-16, step=0.25) is None
    assert seen == [0.0, 0.25, 0.75, 1.75, 3.75, 7.75, 10.0]


def test_newton_failures():
    # no sign change up to the limit, which is tried last
    seen = []

    def flat(x):
        seen.append(x)
        return (-1.0, 0.0)

    assert newton(flat, 0.0, 100.0, 1e-14, 8.9e-16) is None
    assert seen == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 100.0]
    assert newton(lambda x: (1.0, 0.0), 0.0, 100.0, 1e-14, 8.9e-16) is None
    assert newton(lambda x: (math.nan, 1.0), 0.0, 100.0, 1e-14, 8.9e-16) is None
    assert newton(lambda x: (x - 1.0, 1.0), 1.0, 100.0, 1e-14, 8.9e-16) == 1.0
    with pytest.raises(ValueError, match="NaN"):
        newton(lambda x: (math.nan if 0.0 < x < 1.0 else x - 0.7, 0.0), 0.0, 100.0,
               1e-14, 8.9e-16)
    with pytest.raises(RuntimeError, match="did not converge"):
        newton(lambda x: (x - math.cos(x), 1.0 + math.sin(x)), 5.0, 100.0, 1e-15, 0.0,
               maxiter=2)


def test_package_import_loads_no_scipy():
    package_root = str(Path(robustlrt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = ("import sys, robustlrt, robustlrt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
