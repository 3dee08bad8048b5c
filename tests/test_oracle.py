"""Discrete brute-force oracle: binning, ball maximization, and the
alternating saddle search, cross-validated against the continuous solver.

The oracle shares no code with the threshold solver, so agreement between
the two on the binned anchor problem (at the radii the binned densities
actually realize) is independent evidence for both.  The key frozen
numbers: binned radii (d0, d1), the binned worst-case false alarm, and the
alternating-saddle error, all on 50 bins of the anchor solution grid.
"""

import math
import warnings

import numpy as np
import pytest

from robustlrt import DivergenceSpec, density, evaluation, oracle
from robustlrt.oracle import (
    DiscreteProblem,
    OracleError,
    OscillationError,
    alternating_saddle,
    bayes_error_bins,
    best_response_rule,
    bin_centers,
    discrete_divergence,
    discretize,
    maximize_over_ball,
    worst_case_error,
)

# binned anchor problem, m = 50 bins on the solution grid
BINNED_D0 = 0.019437704762691892
BINNED_D1 = 0.029178246377507915
BINNED_PF_ORACLE = 0.4374571942451452
BINNED_PF_RULE = 0.43742970210122545
ORACLE_SADDLE_PE = 0.43245072577344834

# binned Hellinger-type divergence of the unit-separation Gaussian pair
SELFCONV_M50 = 1.568075803295152
SELFCONV_M400 = 1.5737838772580992


# ---------------------------------------------------------------------------
# problem construction


def test_discrete_problem_validation():
    u = np.full(10, 0.1)
    with pytest.raises(ValueError, match="length-10"):
        DiscreteProblem(10, np.full(9, 1.0 / 9.0), u, 0.5, 1.0, 0.01, 0.01)
    with pytest.raises(ValueError, match="negative"):
        bad = u.copy()
        bad[0], bad[1] = -0.1, 0.3
        DiscreteProblem(10, bad, u, 0.5, 1.0, 0.01, 0.01)
    with pytest.raises(ValueError, match="sums to"):
        DiscreteProblem(10, 0.9 * u, u, 0.5, 1.0, 0.01, 0.01)
    with pytest.raises(ValueError, match="rho"):
        DiscreteProblem(10, u, u, 0.5, -1.0, 0.01, 0.01)
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteProblem(10, u, u, 0.5, 1.0, -0.01, 0.01)
    for bad_eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DiscreteProblem(10, u, u, 0.5, 1.0, bad_eps, 0.01)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DiscreteProblem(10, u, u, 0.5, 1.0, 0.01, bad_eps)


def test_bin_centers_span_the_grid(mix_grid):
    c = bin_centers(mix_grid, 17)
    np.testing.assert_allclose(c, np.linspace(-7.5, 8.5, 17), atol=1e-12)


def test_bin_masses_conserve_and_mirror(norm_grid):
    v = density.evaluate(density.gaussian(-1.0, 1.0), norm_grid.points)
    masses = oracle._bin_masses(v, norm_grid, 40)
    assert float(np.sum(masses)) == pytest.approx(1.0, abs=1e-14)
    # reversing the density on the symmetric grid reverses the bin masses
    mirrored = oracle._bin_masses(v[::-1].copy(), norm_grid, 40)
    np.testing.assert_allclose(mirrored, masses[::-1], atol=1e-14)


def test_bin_masses_match_gaussian_cdf(norm_grid):
    v = density.evaluate(density.gaussian(0.0, 1.0), norm_grid.points)
    m = 36
    masses = oracle._bin_masses(v, norm_grid, m)
    edges = np.linspace(-9.0, 9.0, m + 1)
    cdf = 0.5 * (1.0 + np.array([math.erf(e / math.sqrt(2.0)) for e in edges]))
    np.testing.assert_allclose(masses, np.diff(cdf), atol=1e-5)


def test_discretize_gates_and_output(norm_pair, norm_grid):
    spec = DivergenceSpec(alpha=0.5, rho=2.0, eps0=0.01, eps1=0.02)
    with pytest.raises(ValueError, match="at least 8"):
        discretize(norm_pair, norm_grid, 7, spec)
    prob = discretize(norm_pair, norm_grid, 40, spec)
    assert prob.m == 40
    assert float(np.sum(prob.f0)) == pytest.approx(1.0, abs=1e-14)
    assert float(np.sum(prob.f1)) == pytest.approx(1.0, abs=1e-14)
    assert (prob.alpha, prob.rho) == (0.5, 2.0)
    assert (prob.eps0, prob.eps1) == (0.01, 0.02)


# ---------------------------------------------------------------------------
# discrete divergence


def test_discrete_divergence_closed_forms():
    f = np.array([0.5, 0.5])
    g = np.array([0.3, 0.7])
    assert discrete_divergence(f, f, 2.0) == pytest.approx(0.0, abs=1e-14)
    # order 2 is half the chi-squared distance
    chi2 = float(np.sum((g - f) ** 2 / f))
    assert discrete_divergence(g, f, 2.0) == pytest.approx(0.08, rel=1e-14)
    assert discrete_divergence(g, f, 2.0) == pytest.approx(chi2 / 2.0, rel=1e-14)


def test_discrete_divergence_zero_bins():
    g = np.array([0.0, 0.5, 0.5])
    f = np.array([0.0, 0.6, 0.4])
    d = discrete_divergence(g, f, 0.5)
    assert math.isfinite(d) and d > 0.0
    # mass where the reference vanishes is infinitely far for alpha > 1
    assert discrete_divergence(np.array([0.5, 0.5, 0.0]),
                               np.array([0.0, 0.5, 0.5]), 2.0) == math.inf
    with pytest.raises(ValueError):
        discrete_divergence(g, f, 1.0)


def test_discrete_divergence_at_order_100_with_a_small_bin():
    # f^(1-alpha) alone overflows at f = 5e-4 ((5e-4)^-99 > 1e326); the term
    # f (g/f)^alpha does not
    rng = np.random.default_rng(21)
    f = rng.dirichlet(np.ones(20))
    f[0] = 5e-4
    f /= f.sum()
    g = f * rng.uniform(0.97, 1.03, 20)
    g /= g.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(discrete_divergence(f, f, 100.0)) <= 1e-15
        d = discrete_divergence(g, f, 100.0)
    s = math.fsum(math.exp(100.0 * math.log(gi) - 99.0 * math.log(fi)) for gi, fi in zip(g, f))
    assert d == pytest.approx((1.0 - s) / (100.0 * (1.0 - 100.0)), rel=1e-12)
    # zero reference bins keep their conventions at large and negative orders
    g0, f0 = np.array([0.2, 0.4, 0.4]), np.array([0.0, 0.5, 0.5])
    assert discrete_divergence(g0, f0, 100.0) == math.inf
    assert discrete_divergence(g0, f0, -1.0) == pytest.approx(
        (1.0 - 2.0 * 0.4**-1 * 0.5**2) / -2.0, rel=1e-15)


# ---------------------------------------------------------------------------
# ball maximization


@pytest.fixture(scope="module")
def norm_bins(norm_pair, norm_grid):
    return discretize(norm_pair, norm_grid, 40,
                      DivergenceSpec(alpha=0.5, rho=1.0, eps0=0.02, eps1=0.02))


def test_maximize_over_ball_invariants(norm_bins):
    w = np.random.default_rng(5).uniform(size=norm_bins.m)
    f = norm_bins.f0
    g = maximize_over_ball(w, f, 0.5, 0.02)
    assert float(np.sum(g)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(g >= 0.0)
    assert discrete_divergence(g, f, 0.5) == pytest.approx(0.02, abs=1e-8)
    assert float(np.dot(w, g)) >= float(np.dot(w, f)) - 1e-12
    # the attained value grows with the radius
    vals = [float(np.dot(w, maximize_over_ball(w, f, 0.5, e)))
            for e in (0.004, 0.01, 0.02, 0.05)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_maximize_over_ball_degenerate_inputs(norm_bins):
    f = norm_bins.f0
    w = np.random.default_rng(6).uniform(size=norm_bins.m)
    g = maximize_over_ball(w, f, 0.5, 0.0)
    np.testing.assert_array_equal(g, f)
    assert g is not f
    flat = maximize_over_ball(np.full(norm_bins.m, 0.7), f, 0.5, 0.02)
    np.testing.assert_array_equal(flat, f)
    with pytest.raises(ValueError, match="equal-length"):
        maximize_over_ball(w[:-1], f, 0.5, 0.01)
    with pytest.raises(ValueError, match="probability"):
        maximize_over_ball(w, 2.0 * f, 0.5, 0.01)
    with pytest.raises(ValueError, match="nonnegative"):
        maximize_over_ball(w, f, 0.5, -0.01)


def test_maximize_over_ball_unreachable_radius():
    # a point mass on the best bin is only (1/f_i - 1)/2 away in order 2,
    # so a larger radius can never activate the constraint
    f = np.full(10, 0.1)
    w = np.linspace(0.0, 1.0, 10)
    with pytest.raises(OracleError, match="cannot be activated"):
        maximize_over_ball(w, f, 2.0, 5.0)


def test_maximize_over_ball_rejects_non_finite_input(norm_bins):
    f = norm_bins.f0
    w = np.random.default_rng(7).uniform(size=norm_bins.m)
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            maximize_over_ball(w, f, 0.5, eps)
    for bad in (math.nan, math.inf):
        w_bad = w.copy()
        w_bad[3] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            maximize_over_ball(w_bad, f, 0.5, 0.02)
    f_bad = f.copy()
    f_bad[3] = math.nan
    with pytest.raises(ValueError, match="probability"):
        maximize_over_ball(w, f_bad, 0.5, 0.02)


def _dual_minimum(w, f, alpha, eps):
    """scipy's Nelder-Mead minimum of the Lagrange dual
    q(lam, mu) = sup over g >= 0 of <w, g> - lam (D(g, f) - eps) - mu (sum g - 1),
    over (log lam, log |mu - max w|), with the supremum's maximizer.  Every
    q(lam, mu) bounds the ball maximum from above (weak duality)."""
    optimize = pytest.importorskip("scipy.optimize")
    beta = alpha - 1.0

    def sup(v):
        lam, gap = np.exp(v)
        mu = w.max() - math.copysign(gap, beta)
        g = f * np.maximum(beta * (w - mu) / lam, 0.0) ** (1.0 / beta)
        div = (1.0 - np.sum(g**alpha * f**(1.0 - alpha))) / (alpha * (1.0 - alpha))
        return float((w - mu) @ g - lam * (div - eps) + mu), g

    res = optimize.minimize(lambda v: sup(v)[0], [0.0, 0.0], method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
    return sup(res.x)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("kind", ["uniform", "zero-one"])
def test_maximize_over_ball_meets_scipy_dual_minimum(alpha, kind):
    rng = np.random.default_rng(3)
    f = rng.dirichlet(np.full(12, 2.0))
    # zero-one weights at alpha > 1: once the zero-weight bins are clamped,
    # D sits flat at the reach and Newton has no slope (alpha 4, eps 0.1
    # steps there), so the bracket has to take over
    w = rng.uniform(size=12) if kind == "uniform" else (np.arange(12) % 3 == 0).astype(float)
    for eps in (0.01, 0.1):
        g = maximize_over_ball(w, f, alpha, eps)
        upper, g_dual = _dual_minimum(w, f, alpha, eps)
        assert discrete_divergence(g, f, alpha) == pytest.approx(eps, abs=1e-8)
        assert upper - 1e-9 <= float(w @ g) <= upper + 1e-12
        np.testing.assert_allclose(g, g_dual, atol=1e-7)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_maximize_over_ball_activates_just_below_reach(alpha):
    # the reach is f restricted to the best bins, at divergence
    # (1 - F^(1-alpha))/(alpha(1-alpha)) with F their mass under f
    f = np.random.default_rng(8).dirichlet(np.full(12, 2.0))
    for w in (np.linspace(0.0, 1.0, 12), (np.arange(12) % 3 == 0).astype(float)):
        mass = float(np.sum(f[w == 1.0]))
        reach = (1.0 - mass ** (1.0 - alpha)) / (alpha * (1.0 - alpha))
        eps = reach * (1.0 - 1e-2)
        g = maximize_over_ball(w, f, alpha, eps)
        assert discrete_divergence(g, f, alpha) == pytest.approx(eps, abs=1e-8)
        assert float(np.sum(g)) == pytest.approx(1.0, abs=1e-12)
        assert float(w @ maximize_over_ball(w, f, alpha, 0.5 * eps)) < float(w @ g) < 1.0
        with pytest.raises(OracleError, match="cannot be activated"):
            maximize_over_ball(w, f, alpha, reach)


def test_ball_with_tiny_mass_on_the_best_bins_activates(mix_nominals, mix_grid):
    # 60 bins at alpha = -1: in round 8 the best bins of the averaged rule
    # hold f1-mass near 1e-11, and the active ball member's tilt base there
    # is near 1e-23; the saddle runs all its rounds
    spec = DivergenceSpec(alpha=-1.0, rho=0.8, eps0=0.031, eps1=0.046)
    problem = discretize(mix_nominals, mix_grid, 60, spec)
    with pytest.raises(OscillationError) as info:
        alternating_saddle(problem, iters=8, gap_tol=2e-4)
    assert len(info.value.trace) == 8


@pytest.mark.parametrize("m,rho", [(40, 0.85), (60, 0.8), (60, 0.85)])
def test_alpha_minus_one_balls_activate_while_saddle_oscillates(
        mix_nominals, mix_grid, m, rho, monkeypatch):
    # the anchor pair at alpha = -1 near the prior where the trivial rule
    # takes over: every ball maximization meets the activation tolerance,
    # and fictitious play does not settle within gap_tol
    spec = DivergenceSpec(alpha=-1.0, rho=rho, eps0=0.031, eps1=0.046)
    problem = discretize(mix_nominals, mix_grid, m, spec)
    misses = []
    real = oracle.maximize_over_ball

    def checked(w, f, alpha, eps):
        g = real(w, f, alpha, eps)
        misses.append(abs(discrete_divergence(g, f, alpha) - eps))
        return g

    monkeypatch.setattr(oracle, "maximize_over_ball", checked)
    with pytest.raises(OscillationError, match="after 400 rounds") as info:
        alternating_saddle(problem, gap_tol=2e-4)
    assert len(info.value.trace) == 400
    assert len(misses) == 800 and max(misses) <= 1e-8


# ---------------------------------------------------------------------------
# best responses and saddle search


def test_best_response_and_binned_bayes_error():
    g0 = np.array([0.5, 0.5, 0.0])
    g1 = np.array([0.0, 0.5, 0.5])
    delta = best_response_rule(g0, g1, 1.0)
    np.testing.assert_array_equal(delta, [0.0, 0.5, 1.0])
    assert bayes_error_bins(delta, g0, g1, 1.0) == pytest.approx(0.25, rel=1e-15)


def test_alternating_saddle_zero_radii_is_the_plain_test(norm_pair, norm_grid):
    prob = discretize(norm_pair, norm_grid, 40,
                      DivergenceSpec(alpha=0.5, rho=1.0, eps0=0.0, eps1=0.0))
    rule, g0, g1, trace = alternating_saddle(prob)
    assert len(trace) == 1
    np.testing.assert_array_equal(rule, best_response_rule(prob.f0, prob.f1, 1.0))
    np.testing.assert_array_equal(g0, prob.f0)
    np.testing.assert_array_equal(g1, prob.f1)


def test_alternating_saddle_matches_continuous_solver(mix_solution, mix_nominals):
    sol = mix_solution
    prob = discretize(mix_nominals, sol.grid, 50, sol.spec)
    g0b = oracle._bin_masses(sol.g0_hat.values, sol.grid, 50)
    g1b = oracle._bin_masses(sol.g1_hat.values, sol.grid, 50)
    d0 = discrete_divergence(g0b, prob.f0, sol.spec.alpha)
    d1 = discrete_divergence(g1b, prob.f1, sol.spec.alpha)
    # binning shrinks the radii (coarse-graining loses divergence)
    assert d0 == pytest.approx(BINNED_D0, rel=1e-9)
    assert d1 == pytest.approx(BINNED_D1, rel=1e-9)
    assert d0 < sol.spec.eps0 and d1 < sol.spec.eps1

    # worst case of the binned robust rule over the radius-d0 ball agrees
    # with the continuous saddle false alarm
    delta_b = sol.delta_hat(bin_centers(sol.grid, 50))
    g_star = maximize_over_ball(delta_b, prob.f0, sol.spec.alpha, d0)
    pf_oracle = float(np.dot(delta_b, g_star))
    pf_rule = float(np.dot(delta_b, g0b))
    assert pf_oracle == pytest.approx(BINNED_PF_ORACLE, rel=1e-7)
    assert pf_rule == pytest.approx(BINNED_PF_RULE, rel=1e-9)
    saddle = evaluation.error_probs(sol.delta_hat, sol.g0_hat, sol.g1_hat,
                                    sol.spec.rho, sol.grid)
    assert abs(pf_oracle - saddle.p_false_alarm) <= 5e-4

    # the alternating saddle search lands on the continuous saddle value
    prob_rc = DiscreteProblem(m=50, f0=prob.f0, f1=prob.f1,
                              alpha=sol.spec.alpha, rho=sol.spec.rho,
                              eps0=d0, eps1=d1)
    rule, og0, og1, trace = alternating_saddle(prob_rc)
    pf, pm, pe, _, _ = worst_case_error(rule, prob_rc)
    assert pe == pytest.approx(min(trace), rel=1e-12)
    assert pe == pytest.approx(ORACLE_SADDLE_PE, rel=1e-7)
    assert abs(pe - saddle.p_error) <= 5e-4
    # returned densities are in their balls and on the simplex
    for g, f, e in ((og0, prob.f0, d0), (og1, prob.f1, d1)):
        assert float(np.sum(g)) == pytest.approx(1.0, abs=1e-10)
        assert discrete_divergence(g, f, sol.spec.alpha) <= e + 1e-8


def test_alternating_saddle_rule_is_minimax(norm_bins):
    rule, g0, g1, trace = alternating_saddle(norm_bins, gap_tol=1e-3)
    v = worst_case_error(rule, norm_bins)[2]
    rng = np.random.default_rng(21)
    for _ in range(5):
        other = np.clip(rule + rng.uniform(-0.3, 0.3, norm_bins.m), 0.0, 1.0)
        assert worst_case_error(other, norm_bins)[2] >= v - 1e-3


def test_alternating_saddle_reports_oscillation(norm_bins):
    with pytest.raises(OscillationError, match="saddle gap") as info:
        alternating_saddle(norm_bins, iters=1, gap_tol=1e-12)
    assert isinstance(info.value.trace, list) and len(info.value.trace) == 1
    with pytest.raises(ValueError, match="at least one round"):
        alternating_saddle(norm_bins, iters=0)


# ---------------------------------------------------------------------------
# refinement self-consistency


def test_binned_divergence_converges_under_refinement():
    grid = density.make_grid(-6.0, 6.0, 4001)
    f0v = density.evaluate(density.gaussian(-1.0, 1.0), grid.points)
    f1v = density.evaluate(density.gaussian(1.0, 1.0), grid.points)
    vals = {}
    for m in (50, 400):
        b0 = oracle._bin_masses(f0v, grid, m)
        b1 = oracle._bin_masses(f1v, grid, m)
        vals[m] = discrete_divergence(b1, b0, 0.5)
    assert vals[50] == pytest.approx(SELFCONV_M50, rel=1e-10)
    assert vals[400] == pytest.approx(SELFCONV_M400, rel=1e-10)
    assert abs(vals[50] - vals[400]) < 1e-2
    continuum = 4.0 * (1.0 - math.exp(-0.5))
    assert vals[400] == pytest.approx(continuum, abs=1.5e-3)
    # coarse-graining can only lose divergence
    assert vals[50] < vals[400] < continuum
