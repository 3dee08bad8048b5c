"""Error-probability evaluation: quadrature, Monte Carlo and sweeps.

The plain likelihood-ratio test on the unit-shift Gaussian pair has the
closed-form error Phi(-1/2 - log(rho)/2) per component; its quadrature
value on the reference grid is frozen here and checked against the closed
form, and Monte Carlo is required to agree with quadrature within its own
confidence half-widths.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from robustlrt import DivergenceSpec, density, evaluation
from robustlrt.evaluation import (
    DEFAULT_EPS_SETTINGS,
    AlphaRow,
    ErrorReport,
    SnrRow,
    amplitudes_from_snr,
    error_probs,
    lrt_errors,
    lrt_rule,
    monte_carlo_errors,
    priors,
    snr_of,
    snr_sweep,
)
from robustlrt.lfd_solver import TabulatedFunction

# quadrature errors of the LRT at rho = 1 on N(-1,1) vs N(+1,1), grid_for n=4001
LRT_GAUSS_PF = 0.15865576652829622
LRT_GAUSS_PM = 0.15865576652829635
PHI_MINUS_1 = 0.15865525393145707

# quadrature errors of the robust rule of the bimodal anchor problem,
# evaluated under the nominal pair
ANCHOR_NOMINAL_PF = 0.3579288151898813
ANCHOR_NOMINAL_PM = 0.3332140198735652


# ---------------------------------------------------------------------------
# report and priors


def test_error_report_rejects_non_probabilities():
    with pytest.raises(ValueError, match="not a probability"):
        ErrorReport(1.5, 0.1, 0.1, method="quadrature")
    with pytest.raises(ValueError, match="not a probability"):
        ErrorReport(0.1, -0.2, 0.1, method="quadrature")


def test_priors():
    assert priors(1.0) == (0.5, 0.5)
    p0, p1 = priors(3.0)
    assert p0 == pytest.approx(0.75, rel=1e-15)
    assert p1 == pytest.approx(0.25, rel=1e-15)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive"):
            priors(bad)


# ---------------------------------------------------------------------------
# quadrature evaluation


def test_constant_rules_hit_the_corners(norm_pair, norm_grid):
    f0, f1 = norm_pair
    never = error_probs(lambda y: np.zeros_like(y), f0, f1, 1.0, norm_grid)
    assert never.p_false_alarm == 0.0
    assert never.p_miss == pytest.approx(1.0, abs=1e-9)
    always = error_probs(lambda y: np.ones_like(y), f0, f1, 1.0, norm_grid)
    assert always.p_false_alarm == pytest.approx(1.0, abs=1e-9)
    assert always.p_miss == 0.0


def test_bayes_error_identity(norm_pair, norm_grid):
    f0, f1 = norm_pair
    rho = 2.5
    rep = error_probs(lambda y: 1.0 / (1.0 + np.exp(-y)), f0, f1, rho,
                      norm_grid)
    expected = (rho * rep.p_false_alarm + rep.p_miss) / (1.0 + rho)
    assert rep.p_error == pytest.approx(expected, rel=1e-14)
    assert rep.method == "quadrature"
    assert rep.n is None and rep.hw_error is None


def test_rule_and_density_input_validation(norm_pair, norm_grid):
    f0, f1 = norm_pair
    with pytest.raises(ValueError, match="shape"):
        error_probs(np.zeros(7), f0, f1, 1.0, norm_grid)
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        error_probs(np.full(norm_grid.points.shape, 1.5), f0, f1, 1.0,
                    norm_grid)
    with pytest.raises(ValueError, match="nonnegative"):
        error_probs(lambda y: np.zeros_like(y), f0,
                    np.full(norm_grid.points.shape, -1.0), 1.0, norm_grid)
    with pytest.raises(ValueError, match="shape"):
        error_probs(lambda y: np.zeros_like(y), f0, np.zeros(5), 1.0,
                    norm_grid)


def test_lrt_errors_gaussian_anchor(norm_pair):
    grid = density.grid_for(*norm_pair, n=4001)
    rep = lrt_errors(norm_pair, 1.0, grid)
    assert rep.p_false_alarm == pytest.approx(LRT_GAUSS_PF, rel=1e-12)
    assert rep.p_miss == pytest.approx(LRT_GAUSS_PM, rel=1e-12)
    # closed form: both error components equal Phi(-1) at rho = 1
    assert rep.p_false_alarm == pytest.approx(PHI_MINUS_1, abs=1e-5)
    assert rep.p_miss == pytest.approx(PHI_MINUS_1, abs=1e-5)


def test_lrt_rule_threshold_and_tie(norm_pair):
    rule = lrt_rule(norm_pair, 1.0)
    # the ratio is exp(2y): below one left of zero, one at zero exactly
    out = rule(np.array([-1.0, 0.0, 0.5]))
    np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])
    # a NaN y has a NaN ratio, which ties; a scalar y gives a float
    np.testing.assert_array_equal(rule(np.array([np.nan, 0.5])), [0.5, 1.0])
    assert type(rule(0.5)) is float and rule(0.5) == 1.0 and rule(np.float64(0.0)) == 0.5
    # nominals that vanish on part of the line: f0 = 0 < f1 decides 1, and
    # 0/0 is a ratio of 1, which ties at rho = 1; a call where f0 is positive
    # everywhere divides plainly and ties the same
    f0 = density.tabulated([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    f1 = density.tabulated([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    y = np.array([-0.5, 0.5, 1.5, 5.0])
    for rho, want in ((1.0, [0.0, 0.5, 1.0, 0.5]), (2.0, [0.0, 0.0, 1.0, 0.0]),
                      (0.5, [0.0, 1.0, 1.0, 1.0])):
        np.testing.assert_array_equal(lrt_rule((f0, f1), rho)(y), want)
        np.testing.assert_array_equal(lrt_rule((f0, f1), rho)(y[:2]), want[:2])


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_deterministic_per_seed(norm_pair):
    f0, f1 = norm_pair
    rule = lrt_rule(norm_pair, 1.0)
    a = monte_carlo_errors(rule, f0, f1, 1.0, 2000, seed=42)
    b = monte_carlo_errors(rule, f0, f1, 1.0, 2000, seed=42)
    c = monte_carlo_errors(rule, f0, f1, 1.0, 2000, seed=43)
    assert (a.p_false_alarm, a.p_miss) == (b.p_false_alarm, b.p_miss)
    assert (a.p_false_alarm, a.p_miss) != (c.p_false_alarm, c.p_miss)
    assert a.method == "monte_carlo" and a.n == 2000 and a.seed == 42
    assert a.hw_false_alarm > 0.0 and a.hw_miss > 0.0
    p0, p1 = priors(1.0)
    assert a.hw_error == pytest.approx(
        p0 * a.hw_false_alarm + p1 * a.hw_miss, rel=1e-15)


def test_monte_carlo_of_a_tabulated_rule_equals_plain_np_interp(norm_solution_40k, count_calls,
                                                               monkeypatch):
    # g0_hat's tails leave flat runs in its CDF, so the inverse-CDF lookups
    # meet zero-width cells.  A rule on its models' knots reads its values at
    # the draws' inverse-CDF cells.  On knots 1e-9 apart near 1e6 a draw
    # often rounds onto the next knot, y == x[j + 1], and bisects; a rule
    # on those knots that holds -0.0 is not `plain` and looks its draws up.
    # Every rule value the count compares is np.interp's at the draw
    sol = norm_solution_40k
    n, k = 200_000, np.arange(401)
    pts = 1e6 + k * 1e-9
    tables = tuple(density.tabulated(pts, 1.0 + 0.5 * np.sin(k + h)) for h in (0, 2))
    # values of many magnitudes, so that a draw on x[j + 1] read from cell j
    # would miss fp[j + 1] in the last bits
    rule_values = np.random.default_rng(6).uniform(0.0, 1.0, k.size) ** 3
    signed = rule_values.copy()
    signed[::5] = -0.0
    u = np.random.default_rng([5, 0]).random(n)
    cdf = tables[0]._inverse_cdf.points
    j = np.searchsorted(cdf, u, "right") - 1
    assert np.any(np.interp(u, cdf, pts) == pts[j + 1])
    cases = [(sol.delta_hat, (sol.g0_hat, sol.g1_hat), 0),
             (TabulatedFunction(pts, rule_values), tables, 0),
             (TabulatedFunction(pts, signed), tables, 2)]
    check = evaluation._in_unit_interval
    for rule, models, sampled in cases:
        calls = count_calls(density, "_sample")
        seen = []
        monkeypatch.setattr(evaluation, "_in_unit_interval",
                            lambda v: seen.append(v.copy()) or check(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = monte_carlo_errors(rule, *models, 1.0, n, seed=5)
            # the on-knots read draws its uniforms itself, and the general
            # path samples each hypothesis through density._sample
            assert calls[0] == sampled
            monkeypatch.setattr(evaluation, "_in_unit_interval", check)
            want = monte_carlo_errors(lambda y, r=rule: np.interp(y, r.points, r.values),
                                      *models, 1.0, n, seed=5)
        assert got == want
        seen = np.concatenate(seen)
        for h, model in enumerate(models):
            y = density._sample(model, n, np.random.default_rng([5, h]))
            assert np.array_equal(seen[h * n:(h + 1) * n], np.interp(y, rule.points, rule.values))


@pytest.mark.parametrize("n", [1000, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
def test_monte_carlo_equals_the_generator_order_algorithm(n, mix_solution, mix_nominals,
                                                          norm_pair, mc_in_generator_order):
    sol = mix_solution
    # the anchor nominals tabulated on unevenly spaced points, as `table(...)`
    # reads them; their plain likelihood-ratio rule looks both tables up
    y = np.concatenate([np.linspace(-8.0, -3.0, 101)[:-1], np.linspace(-3.0, 4.0, 1401)[:-1],
                        np.linspace(4.0, 9.0, 101)])
    nominal_tables = tuple(density.tabulated(y, density.evaluate(m, y)) for m in mix_nominals)
    pairs = {
        "tables": (sol.g0_hat, sol.g1_hat),
        "mixture": mix_nominals,
        "shifted tables": (density.shifted(sol.g0_hat, 0.25), density.shifted(sol.g1_hat, -0.25)),
        "gaussian": norm_pair,
        "nominal tables": nominal_tables,
    }
    # rule values a little outside [0, 1] and NaN values are compared
    # unclipped against the uniforms, and count as the clipped values would
    def edges(y):
        return np.where(y > 0.5, 1.0 + 5e-10, np.where(y < -0.5, -5e-10, np.nan))

    for name, (m0, m1) in pairs.items():
        for rule in (sol.delta_hat, lrt_rule(mix_nominals, 1.0), lrt_rule(nominal_tables, 1.0),
                     lambda y: 0.25, edges):
            got = monte_carlo_errors(rule, m0, m1, 1.0, n, seed=n + 17)
            assert (got.p_false_alarm, got.p_miss) == \
                mc_in_generator_order(rule, m0, m1, n, n + 17), name


def test_monte_carlo_input_validation(norm_pair, norm_grid):
    f0, f1 = norm_pair
    with pytest.raises(ValueError, match="at least 1000"):
        monte_carlo_errors(lrt_rule(norm_pair, 1.0), f0, f1, 1.0, 500, seed=1)
    with pytest.raises(TypeError, match="callable"):
        monte_carlo_errors(np.zeros(norm_grid.points.shape), f0, f1, 1.0,
                           2000, seed=1)


@pytest.mark.parametrize("h", [0, 1])
def test_monte_carlo_checks_the_rule_on_the_last_partial_block(h, mix_solution, norm_pair):
    # the rule leaves [0, 1] only at the draws of the last, partial block of
    # hypothesis h, so the range check must see every block
    seed, full = 11, 3 * density._INTERP_BLOCK
    n = full + 5
    for models in (norm_pair, (mix_solution.g0_hat, mix_solution.g1_hat)):
        y = density._sample(models[h], n, np.random.default_rng([seed, h]))
        last = y[full:]
        assert not np.isin(y[:full], last).any()
        rule = lambda v: np.where(np.isin(v, last), 1.5, 0.5)  # noqa: E731
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            monte_carlo_errors(rule, *models, 1.0, n, seed=seed)


def test_monte_carlo_memory_is_the_draws_and_one_block(norm_pair, norm_solution_40k,
                                                       mix_nominals, mix_solution):
    # 10^6 draws take 7.6 MiB; the bound leaves room for one block's
    # uniforms, rule values and comparisons, not for 10^6 of each (30-40 MiB).
    # A table's draws are written over its uniforms, and a mixture holds its
    # 10^6 one-byte labels and one block of their uniforms, so sampling the
    # LFD tables or the anchor mixture keeps to the same bound
    sol = norm_solution_40k
    runs = [(lrt_rule(norm_pair, 1.0), norm_pair), (sol.delta_hat, norm_pair),
            (sol.delta_hat, (sol.g0_hat, sol.g1_hat)),
            (lrt_rule(mix_nominals, 1.0), mix_nominals),
            (mix_solution.delta_hat, mix_nominals)]
    for rule, (f0, f1) in runs:
        tracemalloc.start()
        try:
            monte_carlo_errors(rule, f0, f1, 1.0, 1_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (rule, f0, peak / 2**20)


def test_monte_carlo_builds_each_table_index_once(count_calls, mix_solution):
    # the rule is read once per block, so it keeps its index across blocks
    # and runs; each LFD table keeps the index of its inverse CDF
    sol = mix_solution
    rule = TabulatedFunction(sol.delta_hat.points, sol.delta_hat.values)
    models = [density.tabulated(m.points, m.values) for m in (sol.g0_hat, sol.g1_hat)]
    built = count_calls(density, "_BucketIndex")
    n = 3 * density._INTERP_BLOCK + 5
    first = monte_carlo_errors(rule, *models, 1.0, n, seed=4)
    assert built[0] == 3
    assert monte_carlo_errors(rule, *models, 1.0, n, seed=4) == first
    assert built[0] == 3
    assert not rule.points.flags.writeable and not rule.values.flags.writeable


def test_monte_carlo_agrees_with_quadrature(mix_solution, mix_nominals):
    sol = mix_solution
    f0, f1 = mix_nominals
    quad = error_probs(sol.delta_hat, f0, f1, 1.0, sol.grid)
    assert quad.p_false_alarm == pytest.approx(ANCHOR_NOMINAL_PF, rel=1e-12)
    assert quad.p_miss == pytest.approx(ANCHOR_NOMINAL_PM, rel=1e-12)
    mc = monte_carlo_errors(sol.delta_hat, f0, f1, 1.0, 100_000, seed=7000)
    assert abs(mc.p_false_alarm - quad.p_false_alarm) <= 3.0 * mc.hw_false_alarm
    assert abs(mc.p_miss - quad.p_miss) <= 3.0 * mc.hw_miss


# ---------------------------------------------------------------------------
# sweeps


def test_snr_conversions_roundtrip(mix_noise):
    # the mixture, and a tabulated copy of it whose trapezoid standard
    # deviation is the mixture's within the trapezoid error, O(h^2)
    points = np.linspace(-12.0, 12.0, 4801)
    table = density.tabulated(points, density.evaluate(mix_noise, points))
    h = points[1] - points[0]
    for noise, rel in ((mix_noise, 1e-12), (table, h * h)):
        targets = [-5.0, 0.0, 7.0]
        amps = amplitudes_from_snr(targets, noise)
        assert amps[1] == pytest.approx(math.sqrt(5.0), rel=rel)  # mixture std
        for t, a in zip(targets, amps):
            assert snr_of(a, noise) == pytest.approx(t, abs=1e-12)
        with pytest.raises(ValueError, match="positive"):
            snr_of(0.0, noise)


def test_snr_of_a_one_component_mixture_is_exact():
    # the centred variance of one component is s^2, whose square root is s
    for noise in (density.gaussian(2.5, 0.3), density.gaussian_mixture([(1.0, 2.5, 0.3)])):
        assert snr_of(1.1, noise) == 20.0 * math.log10(1.1 / 0.3)
        assert amplitudes_from_snr([0.0], noise) == [0.3]


def test_std_of_an_asymmetric_mixture_is_its_closed_form():
    # the variance sum w (s^2 + m^2) - mean^2, in exact rational arithmetic
    w, m, s = (0.3, 0.7), (-1.5, 2.0), (0.5, 1.5)
    wq, mq, sq = ([Fraction(x) for x in v] for v in (w, m, s))
    mean = sum(wi * mi for wi, mi in zip(wq, mq)) / sum(wq)
    var = sum(wi * (si**2 + mi**2) for wi, mi, si in zip(wq, mq, sq)) / sum(wq) - mean**2
    noise = density.gaussian_mixture(zip(w, m, s))
    assert density._std(noise) == pytest.approx(math.sqrt(var), rel=1e-15)
    assert density._std(density.shifted(noise, 4.0)) == density._std(noise)


def test_snr_sweep_rows_and_robustness_price():
    noise = density.gaussian(0.0, 1.0)
    amps = amplitudes_from_snr([0.0, 10.0], noise)
    rows = snr_sweep(noise, amps, DivergenceSpec(alpha=0.5))
    assert len(rows) == 2 * (1 + len(DEFAULT_EPS_SETTINGS))
    by_amp = {}
    for r in rows:
        assert isinstance(r, SnrRow) and r.feasible and r.note == ""
        by_amp.setdefault(round(r.amplitude, 12), []).append(r)
    for group in by_amp.values():
        nominal, small, large = group
        assert nominal.test == "nominal" and (nominal.eps0, nominal.eps1) == (0.0, 0.0)
        assert small.test == "robust" and small.eps0 == 0.005
        assert large.test == "robust" and large.eps0 == 0.02
        # rows are evaluated under the nominal pair: robustness costs error,
        # and more robustness costs more
        assert small.p_error > nominal.p_error
        assert large.p_error > small.p_error


def test_snr_sweep_uses_spec_radii_when_nonzero(count_calls):
    noise = density.gaussian(0.0, 1.0)
    spec = DivergenceSpec(alpha=0.5, eps0=0.01, eps1=0.015)
    rows = snr_sweep(noise, amplitudes_from_snr([10.0], noise), spec)
    assert len(rows) == 2
    assert rows[1].test == "robust"
    assert (rows[1].eps0, rows[1].eps1) == (0.01, 0.015)
    # one snr_db label per amplitude, refused before any row is solved
    solves = count_calls(evaluation, "solve_thresholds")
    for snr_db in ([10.0], [10.0, 20.0, 30.0]):
        with pytest.raises(ValueError, match="snr_db values for 2 amplitudes"):
            snr_sweep(noise, amplitudes_from_snr([10.0, 20.0], noise), spec, snr_db=snr_db)
    assert solves[0] == 0


def test_snr_sweep_records_infeasible_rows():
    noise = density.gaussian(0.0, 1.0)
    rows = snr_sweep(noise, amplitudes_from_snr([0.0], noise),
                     DivergenceSpec(alpha=0.5, eps0=3.9, eps1=3.9))
    assert rows[0].feasible is True
    bad = rows[1]
    assert bad.feasible is False and bad.note != ""
    assert math.isnan(bad.p_false_alarm) and math.isnan(bad.p_error)


def test_alpha_sweep_threshold_anchors(mix_spec, mix_nominals, mix_grid):
    rows = evaluation.alpha_sweep(mix_spec, [2.0, 4.0, 10.0, 50.0],
                                  mix_nominals, mix_grid)
    expected = {
        2.0: (0.5845382425727917, 1.6713661663607227),
        4.0: (0.6050401521115419, 1.6180169369866289),
        10.0: (0.6644246095707789, 1.4830745893955009),
        50.0: (0.8417272087470762, 1.1835769542687569),
    }
    for row in rows:
        assert isinstance(row, AlphaRow) and row.error is None
        l_l, l_u = expected[row.alpha]
        assert row.l_l == pytest.approx(l_l, rel=1e-8)
        assert row.l_u == pytest.approx(l_u, rel=1e-8)
        assert row.residual_norm < 1e-8
        assert row.achieved_eps0 == pytest.approx(0.02, abs=1e-7)
        assert row.achieved_eps1 == pytest.approx(0.03, abs=1e-7)
    # thresholds tighten toward each other as the order grows
    lls = [r.l_l for r in rows]
    lus = [r.l_u for r in rows]
    assert all(x < y for x, y in zip(lls, lls[1:]))
    assert all(x > y for x, y in zip(lus, lus[1:]))


def test_alpha_sweep_records_failed_orders(mix_nominals, mix_grid):
    spec = DivergenceSpec(alpha=4.0, rho=1.0, eps0=0.02, eps1=0.40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = evaluation.alpha_sweep(spec, [4.0], mix_nominals, mix_grid)
    assert len(rows) == 1
    assert rows[0].error is not None and "not strictly inside" in rows[0].error
    assert math.isnan(rows[0].l_l) and math.isnan(rows[0].l_u)
