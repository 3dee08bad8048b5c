"""Alpha-divergence quadrature against closed forms and its invariants."""

import math

import numpy as np
import pytest

from robustlrt import density, divergence


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1e-7, 1.0 - 1e-7, math.nan, math.inf])
def test_guard_band_rejects_degenerate_orders(alpha):
    with pytest.raises(ValueError):
        divergence.check_alpha(alpha)


@pytest.mark.parametrize("alpha", [-50.0, -0.5, 0.5, 2.0, 4.0, 100.0])
def test_guard_band_passes_working_orders(alpha):
    assert divergence.check_alpha(alpha) == alpha


def test_constraint_constant_closed_form():
    assert divergence.x_of(4.0, 0.02) == pytest.approx(1.0 + 12.0 * 0.02, rel=1e-15)
    assert divergence.x_of(0.5, 0.1) == pytest.approx(1.0 - 0.025, rel=1e-15)
    assert divergence.x_of(2.0, 0.0) == 1.0


def test_spec_validation():
    divergence.DivergenceSpec(alpha=2.0, rho=1.0, eps0=0.0, eps1=0.0)
    with pytest.raises(ValueError):
        divergence.DivergenceSpec(alpha=1.0)
    with pytest.raises(ValueError):
        divergence.DivergenceSpec(alpha=2.0, rho=0.0)
    with pytest.raises(ValueError):
        divergence.DivergenceSpec(alpha=2.0, eps0=-0.1)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            divergence.DivergenceSpec(alpha=4.0, eps0=bad, eps1=0.03)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            divergence.DivergenceSpec(alpha=4.0, eps0=0.02, eps1=bad)


def test_self_divergence_is_zero():
    g = density.gaussian(0.3, 1.1)
    grid = density.grid_for(g, n=2001)
    for alpha in (-3.0, 0.5, 2.0, 7.0):
        assert divergence.alpha_divergence(g, g, alpha, grid) == pytest.approx(
            0.0, abs=1e-10)


def test_chi_square_order_matches_gaussian_closed_form():
    # for unit-variance Gaussians mu apart: integral g^2/f = exp(mu^2),
    # so the order-2 divergence is (exp(mu^2) - 1)/2
    for mu in (0.25, 0.5, 1.0):
        g = density.gaussian(mu, 1.0)
        f = density.gaussian(0.0, 1.0)
        grid = density.grid_for(g, f, n=8001)
        expected = 0.5 * (math.exp(mu * mu) - 1.0)
        assert divergence.alpha_divergence(g, f, 2.0, grid) == pytest.approx(
            expected, rel=1e-9)


def test_hellinger_order_matches_overlap_closed_form():
    # order 1/2: D = 4 * (1 - overlap); unit-variance Gaussians 2a apart
    # have overlap exp(-a^2/2)
    g = density.gaussian(-1.0, 1.0)
    f = density.gaussian(1.0, 1.0)
    grid = density.grid_for(g, f, n=8001)
    expected = 4.0 * (1.0 - math.exp(-0.5))
    assert divergence.alpha_divergence(g, f, 0.5, grid) == pytest.approx(
        expected, rel=1e-10)


def test_general_order_matches_gaussian_moment_formula():
    # integral g^a f^(1-a) for N(m0,1), N(m1,1) is exp(-a(1-a)(m0-m1)^2/2)
    m0, m1 = 0.6, -0.4
    g = density.gaussian(m0, 1.0)
    f = density.gaussian(m1, 1.0)
    grid = density.grid_for(g, f, n=8001)
    for alpha in (-2.0, 0.3, 0.8, 3.0):
        expected = math.exp(-alpha * (1.0 - alpha) * (m0 - m1) ** 2 / 2.0)
        assert divergence.moment_integral(g, f, alpha, grid) == pytest.approx(
            expected, rel=1e-9)


def test_divergence_accepts_arrays_and_models_equally():
    g = density.gaussian(0.5, 1.0)
    f = density.gaussian(0.0, 1.2)
    grid = density.grid_for(g, f, n=2001)
    direct = divergence.alpha_divergence(g, f, 3.0, grid)
    via_arrays = divergence.alpha_divergence(
        density.evaluate(g, grid.points), density.evaluate(f, grid.points),
        3.0, grid)
    assert via_arrays == direct


def test_support_violation_raises():
    grid = density.make_grid(0.0, 1.0, 101)
    f = np.where(grid.points < 0.5, 1.0, 0.0)
    f = f / density.integrate(f, grid)
    g = np.full(grid.count, 1.0)
    with pytest.raises(ValueError, match="support"):
        divergence.moment_integral(g, f, 2.0, grid)  # g > 0 where f = 0
    with pytest.raises(ValueError, match="support"):
        divergence.moment_integral(f, g, -1.0, grid)  # f=0 < g with alpha < 0


def test_extreme_orders_do_not_overflow():
    g = density.gaussian(0.05, 1.0)
    f = density.gaussian(0.0, 1.0)
    grid = density.grid_for(g, f, n=4001)
    d = divergence.alpha_divergence(g, f, 100.0, grid)
    assert math.isfinite(d) and d > 0.0
    d = divergence.alpha_divergence(g, f, -50.0, grid)
    assert math.isfinite(d)


def test_bhattacharyya_unit_for_identical_and_closed_form_apart():
    # the Bhattacharyya coefficient, integral of sqrt(f0 * f1), is the
    # moment integral of order 1/2
    f = density.gaussian(0.0, 1.0)
    grid = density.grid_for(f, n=4001)
    assert divergence.moment_integral(f, f, 0.5, grid) == pytest.approx(1.0, abs=1e-10)
    g = density.gaussian(-1.0, 1.0)
    h = density.gaussian(1.0, 1.0)
    grid2 = density.grid_for(g, h, n=4001)
    assert divergence.moment_integral(g, h, 0.5, grid2) == pytest.approx(
        math.exp(-0.5), abs=1e-10)
