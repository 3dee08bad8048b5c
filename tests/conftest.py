"""Shared fixtures: the bimodal-noise anchor problem and a Gaussian pair.

The anchor problem — symmetric two-component Gaussian noise, unit shift,
alpha = 4, rho = 1, radii (0.02, 0.03) on a 4001-point grid over [-8, 9] —
exercises every region structure the solver supports (its middle region
splits into three disjoint intervals), so most integration tests share one
session-scoped solve of it.  `count_calls` counts the calls a test makes
to a module-level function.
"""

import pytest

from robustlrt import DivergenceSpec, density, lfd_solver


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
