"""Shared fixtures: the bimodal-noise anchor problem and a Gaussian pair.

The anchor problem — symmetric two-component Gaussian noise, unit shift,
alpha = 4, rho = 1, radii (0.02, 0.03) on a 4001-point grid over [-8, 9] —
exercises every region structure the solver supports (its middle region
splits into three disjoint intervals), so most integration tests share one
session-scoped solve of it.  `norm_solution_40k` solves N(-1,1) against
N(1,1) at alpha = 0.5 on 40001 points, where the tails of g0_hat leave
flat runs in its CDF.  `count_calls` counts the calls a test makes
to a module-level function, `saddle_bounds` brackets a solution's
saddle value exactly on its own grid, and `mc_in_generator_order`
recounts a Monte Carlo error estimate in generator order.
"""

import numpy as np
import pytest

from robustlrt import DivergenceSpec, density, lfd_solver, oracle
from robustlrt.lfd_solver import TabulatedFunction


@pytest.fixture(scope="session")
def mix_noise():
    return density.gaussian_mixture([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)])


@pytest.fixture(scope="session")
def mix_nominals(mix_noise):
    return (mix_noise, density.shifted(mix_noise, 1.0))


@pytest.fixture(scope="session")
def mix_grid():
    return density.make_grid(-8.0, 9.0, 4001)


@pytest.fixture(scope="session")
def mix_spec():
    return DivergenceSpec(alpha=4.0, rho=1.0, eps0=0.02, eps1=0.03)


@pytest.fixture(scope="session")
def mix_solution(mix_spec, mix_nominals, mix_grid):
    return lfd_solver.solve_thresholds(mix_spec, mix_nominals, mix_grid)


@pytest.fixture(scope="session")
def norm_pair():
    return (density.gaussian(-1.0, 1.0), density.gaussian(1.0, 1.0))


@pytest.fixture(scope="session")
def norm_grid():
    return density.make_grid(-9.0, 9.0, 4001)


@pytest.fixture(scope="session")
def norm_solution_40k(norm_pair):
    spec = DivergenceSpec(alpha=0.5, rho=1.0, eps0=0.13, eps1=0.16)
    return lfd_solver.solve_thresholds(spec, norm_pair, density.make_grid(-9.0, 9.0, 40001))


@pytest.fixture
def count_calls(monkeypatch):
    """count(module, name) wraps module.name for this test and returns a
    one-item list that holds its call count."""

    def count(module, name):
        calls = [0]
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return count


@pytest.fixture(scope="session")
def saddle_bounds():
    """bounds(sol) -> (lower, saddle, upper) Bayes errors on sol's grid.

    With the trapezoid masses w*f of the grid the solution lives on, the
    saddle is the Bayes error of delta_hat against (g0_hat, g1_hat).  The
    upper bound is delta_hat's worst case over both whole balls, one exact
    ball maximisation per hypothesis; `maximize_over_ball` takes probability
    vectors, so the nominal masses are normalised (the grid misses a little
    tail mass).  The lower bound is the Bayes
    error of the best rule against (g0_hat, g1_hat),
    sum min(rho*w*g0_hat, w*g1_hat)/(1 + rho).  At a saddle point all three
    agree up to the ball maximisation's activation tolerance.
    """

    def bounds(sol):
        spec, w, delta = sol.spec, sol.grid.weights, sol.delta_hat.values
        rho = spec.rho
        p0, p1 = w * sol.f0_values, w * sol.f1_values
        g0 = oracle.maximize_over_ball(delta, p0 / p0.sum(), spec.alpha, spec.eps0)
        g1 = oracle.maximize_over_ball(1.0 - delta, p1 / p1.sum(), spec.alpha, spec.eps1)
        h0, h1 = w * sol.g0_hat.values, w * sol.g1_hat.values
        upper = rho * float(delta @ g0) + float((1.0 - delta) @ g1)
        saddle = rho * float(delta @ h0) + float((1.0 - delta) @ h1)
        lower = float(np.minimum(rho * h0, h1).sum())
        return lower / (1.0 + rho), saddle / (1.0 + rho), upper / (1.0 + rho)

    return bounds


@pytest.fixture(scope="session")
def mc_in_generator_order():
    """recount(delta, model0, model1, n, seed) -> (p_fa, p_miss) at rho = 1.

    The reference for `evaluation.monte_carlo_errors`, in generator order:
    per hypothesis h the stream [seed, h] gives the n draws, then one
    uniform per draw, and a table rule is read through plain np.interp.
    """

    def recount(delta, model0, model1, n, seed):
        rule = delta
        if isinstance(delta, TabulatedFunction):
            rule = lambda y: np.interp(y, delta.points, delta.values)  # noqa: E731
        decided = []
        for h, model in enumerate((model0, model1)):
            rng = np.random.default_rng([seed, h])
            y = density._sample(model, n, rng)
            decided.append(rng.uniform(0.0, 1.0, n) < np.clip(rule(y), 0.0, 1.0))
        return float(np.mean(decided[0])), float(np.mean(~decided[1]))

    return recount
