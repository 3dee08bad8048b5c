"""End-to-end acceptance gate: ten checks, one per shipped guarantee.

Each test exercises one externally stated behavior of the package at its
stated tolerance, in order: the reference solve and its runtime, constraint
attainment, the off-center-prior variant through the CLI, the symmetric
fast path, the closed-form radius limits, the discrete oracle, exact saddle
bounds on the solution's grid, extreme divergence orders, Monte Carlo
consistency plus robustness orderings, and the unreduced-form identities.
Run with `pytest -v` to get one pass/fail line per check.
"""

import math
import time
import types

import numpy as np
import pytest

from robustlrt import (
    DivergenceSpec,
    alpha_divergence,
    cli,
    density,
    evaluation,
    lfd_solver,
    limits,
    moment_integral,
    oracle,
)
from robustlrt.density import gaussian, shifted
from robustlrt.lfd_solver import ThresholdPair

import kkt_reference


def _read_csv(text: str):
    lines = text.strip().splitlines()
    meta, i = {}, 0
    while lines[i].startswith("# "):
        key, val = lines[i][2:].split("=", 1)
        meta[key] = val
        i += 1
    names = lines[i].split(",")
    rows = [ln.split(",") for ln in lines[i + 1:]]
    return meta, names, rows


def test_01_reference_problem_thresholds_and_runtime(mix_spec, mix_nominals, mix_grid):
    t0 = time.perf_counter()
    sol = lfd_solver.solve_thresholds(mix_spec, mix_nominals, mix_grid)
    elapsed = time.perf_counter() - t0
    assert sol.thresholds.l_l == pytest.approx(0.605, abs=0.01)
    assert sol.thresholds.l_u == pytest.approx(1.618, abs=0.01)
    assert sol.residual_norm < 1e-8
    assert elapsed < 10.0
    print(f"[01] PASS thresholds=({sol.thresholds.l_l:.6f}, "
          f"{sol.thresholds.l_u:.6f}) residual={sol.residual_norm:.2e} "
          f"t={elapsed:.2f}s")


def test_02_solution_attains_radii_and_normalization(mix_solution):
    sol = mix_solution
    int0 = float(np.sum(sol.grid.weights * sol.g0_hat.values))
    int1 = float(np.sum(sol.grid.weights * sol.g1_hat.values))
    assert int0 == pytest.approx(1.0, abs=1e-6)
    assert int1 == pytest.approx(1.0, abs=1e-6)
    # independent quadrature of the attained divergences
    d0 = alpha_divergence(sol.g0_hat.values, sol.f0_values, 4.0, sol.grid)
    d1 = alpha_divergence(sol.g1_hat.values, sol.f1_values, 4.0, sol.grid)
    assert d0 == pytest.approx(sol.spec.eps0, abs=1e-4)
    assert d1 == pytest.approx(sol.spec.eps1, abs=1e-4)
    print(f"[02] PASS masses=({int0:.9f}, {int1:.9f}) "
          f"divergences=({d0:.9f}, {d1:.9f})")


def test_03_off_center_prior_flattens_the_ratio_table(tmp_path, capsys):
    cfg = tmp_path / "rho12.cfg"
    cfg.write_text(
        "command = solve\n"
        "nominal0 = mixture(0.5*gaussian(-2,1)+0.5*gaussian(2,1))\n"
        "nominal1 = shift(mixture(0.5*gaussian(-2,1)+0.5*gaussian(2,1)),1)\n"
        "alpha = 4\nrho = 1.2\neps0 = 0.02\neps1 = 0.03\ngrid = -8:9:4001\n")
    out = tmp_path / "rho12.csv"
    code = cli.main(["--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    meta, names, rows = _read_csv(out.read_text())
    assert float(meta["residual_norm"]) < 1e-8
    l_hat_col = names.index("l_hat")
    region_col = names.index("region")
    middle = [float(r[l_hat_col]) for r in rows if r[region_col] == "2"]
    assert len(middle) > 100
    dev = max(abs(v - 1.2) for v in middle)
    assert dev < 1e-8
    print(f"[03] PASS middle-region ratio flat at 1.2, max deviation {dev:.2e} "
          f"over {len(middle)} table rows")


def test_04_symmetric_fast_path_agrees_with_general_solver(norm_pair,
                                                           norm_grid):
    worst_t, worst_prod, worst_mirror = 0.0, 0.0, 0.0
    for a in (-10.0, 0.01, 10.0):
        sym = lfd_solver.solve_symmetric(0.1, a, 1.0, norm_pair, norm_grid)
        gen = lfd_solver.solve_thresholds(
            DivergenceSpec(alpha=a, rho=1.0, eps0=0.1, eps1=0.1),
            norm_pair, norm_grid)
        dt = max(abs(sym.thresholds.l_l - gen.thresholds.l_l),
                 abs(sym.thresholds.l_u - gen.thresholds.l_u))
        prod = abs(sym.thresholds.l_l * sym.thresholds.l_u - 1.0)
        pts = norm_grid.points
        mirror = float(np.max(np.abs(
            density.evaluate(sym.g1_hat, pts)
            - density.evaluate(sym.g0_hat, -pts))))
        assert dt <= 1e-6
        assert prod <= 1e-15
        assert mirror <= 1e-6
        worst_t, worst_prod, worst_mirror = (max(worst_t, dt),
                                             max(worst_prod, prod),
                                             max(worst_mirror, mirror))
    print(f"[04] PASS threshold agreement {worst_t:.2e}, product defect "
          f"{worst_prod:.2e}, mirror defect {worst_mirror:.2e}")


def test_05_closed_form_radius_limits_cross_checked(norm_pair, norm_grid):
    a_mid = math.exp(-0.5)
    expected = {0.0: 4.0 - 2.0 * math.sqrt(2.0),
                a_mid: 4.0 - 2.0 * math.sqrt(2.0 * (1.0 + a_mid)),
                1.0: 0.0}
    for a, want in expected.items():
        assert limits.hellinger_eps_max(a) == pytest.approx(want, abs=1e-6)
    # the overlap value itself is reproduced by quadrature
    a_quad = moment_integral(norm_pair[0], norm_pair[1], 0.5, norm_grid)
    assert a_quad == pytest.approx(a_mid, abs=1e-8)
    # round trip radius -> overlap -> radius on the diagonal
    rt = 0.0
    for e in np.linspace(1e-4, limits.EPS_MAX_A0 * 0.999, 20):
        back = limits.hellinger_eps_max(limits.hellinger_root_a(float(e),
                                                                float(e)))
        rt = max(rt, abs(back - float(e)))
    assert rt <= 1e-10
    # the general boundary solver agrees with the closed form
    gen_dev = 0.0
    for e0 in np.linspace(0.02, 0.95 * limits.hellinger_eps_max(a_mid), 10):
        closed = limits._hellinger_other(a_mid, float(e0))
        gen, _, _ = limits.max_eps_general(norm_pair, 0.5, norm_grid, (0, float(e0)))
        gen_dev = max(gen_dev, abs(gen - closed))
    assert gen_dev <= 1e-6
    print(f"[05] PASS quadrature overlap defect {abs(a_quad - a_mid):.1e}, "
          f"roundtrip {rt:.1e}, general-vs-closed {gen_dev:.1e}")


def test_06_discrete_oracle_agrees_with_continuous_saddle(mix_solution, mix_nominals):
    sol = mix_solution
    t0 = time.perf_counter()
    prob = oracle.discretize(mix_nominals, sol.grid, 50, sol.spec)
    g0b = oracle._bin_masses(sol.g0_hat.values, sol.grid, 50)
    g1b = oracle._bin_masses(sol.g1_hat.values, sol.grid, 50)
    # compare at the radii the binned densities actually realize, so the
    # binning loss does not enter the comparison
    d0 = oracle.discrete_divergence(g0b, prob.f0, sol.spec.alpha)
    d1 = oracle.discrete_divergence(g1b, prob.f1, sol.spec.alpha)
    delta_b = sol.delta_hat(oracle.bin_centers(sol.grid, 50))
    g_star = oracle.maximize_over_ball(delta_b, prob.f0, sol.spec.alpha, d0)
    pf_oracle = float(np.dot(delta_b, g_star))
    saddle = evaluation.error_probs(sol.delta_hat, sol.g0_hat, sol.g1_hat,
                                    sol.spec.rho, sol.grid)
    pf_diff = abs(pf_oracle - saddle.p_false_alarm)
    assert pf_diff <= 1e-3

    prob_rc = oracle.DiscreteProblem(m=50, f0=prob.f0, f1=prob.f1,
                                     alpha=sol.spec.alpha, rho=sol.spec.rho,
                                     eps0=d0, eps1=d1)
    rule, _, _, trace = oracle.alternating_saddle(prob_rc)
    pe_oracle = oracle.worst_case_error(rule, prob_rc)[2]
    pe_diff = abs(pe_oracle - saddle.p_error)
    elapsed = time.perf_counter() - t0
    assert pe_diff <= 1e-3
    assert elapsed < 30.0
    print(f"[06] PASS false-alarm diff {pf_diff:.2e}, saddle diff "
          f"{pe_diff:.2e}, {len(trace)} rounds, t={elapsed:.2f}s")


def test_07_no_feasible_deviation_beats_the_saddle(mix_solution, saddle_bounds):
    # exact on the solution's grid: the upper bound is the worst case of
    # delta_hat over every member of both balls, the lower bound the best
    # rule against the least favorable pair
    lower, saddle, upper = saddle_bounds(mix_solution)
    assert upper - saddle <= 1e-6
    assert saddle - lower <= 1e-6
    print(f"[07] PASS saddle {saddle:.10f}; worst ball member {upper - saddle:+.2e}, "
          f"best rule {lower - saddle:+.2e}")


def _rule_via_power_transform(lv, l_l, l_u, a, rho, k):
    # independent interior form: linear in the (1-a) power of the ratio
    s = (lv / rho) ** (1.0 - a)
    s0 = l_l ** (1.0 - a)
    s1 = l_u ** (1.0 - a)
    kk = k ** (1.0 - a)
    return kk * s1 * (s0 - s) / (kk * s1 * (s0 - s) + s0 * (s - s1))


def test_08_extreme_orders_tighten_thresholds_and_fix_rule_shape(
        mix_spec, mix_nominals, mix_grid):
    rows = evaluation.alpha_sweep(mix_spec, [2.0, 4.0, 10.0, 50.0],
                                  mix_nominals, mix_grid)
    by_alpha = {r.alpha: r for r in rows}
    assert all(r.error is None for r in rows)
    assert abs(by_alpha[50.0].l_l - 1.0) < abs(by_alpha[4.0].l_l - 1.0)
    assert abs(by_alpha[50.0].l_u - 1.0) < abs(by_alpha[4.0].l_u - 1.0)

    t8 = ThresholdPair(0.605, 1.618)
    # at rho = 1 the coupling is the literal ratio of the region masses
    k8 = lfd_solver._eval_state(0.605, 1.618, 4.0, 1.0,
                                lfd_solver._grid_values(mix_nominals, mix_grid), 1.0, 1.0).k
    worst = 0.0
    for a in (0.01, 10.0, 100.0):
        fake = types.SimpleNamespace(
            thresholds=t8, k=k8,
            spec=types.SimpleNamespace(rho=1.0, alpha=a))
        lv = np.linspace(0.605, 1.618, 501)
        got = lfd_solver.robust_rule(lv, fake)
        want = _rule_via_power_transform(lv, 0.605, 1.618, a, 1.0, k8)
        dev = float(np.max(np.abs(got - want)))
        assert dev <= 1e-3
        worst = max(worst, dev)
        assert lfd_solver.robust_rule(0.605, fake) == 0.0
        assert lfd_solver.robust_rule(1.618, fake) == 1.0
    print(f"[08] PASS threshold tightening monotone; rule matches the "
          f"power-transform prediction within {worst:.2e}, exact at edges")


def test_09_monte_carlo_matches_quadrature_and_robustness_orderings():
    noise = gaussian(0.0, 1.0)
    nominals = (noise, shifted(noise, 1.0))
    grid = density.grid_for(*nominals, n=4001)
    sol = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=0.5, rho=1.0, eps0=0.02, eps1=0.02),
        nominals, grid)
    quad = evaluation.error_probs(sol.delta_hat, nominals[0], nominals[1],
                                  1.0, sol.grid)
    passed, worst_z = 0, 0.0
    for i in range(100):
        mc = evaluation.monte_carlo_errors(sol.delta_hat, nominals[0],
                                           nominals[1], 1.0, 100_000,
                                           7000 + i)
        zf = abs(mc.p_false_alarm - quad.p_false_alarm) / (mc.hw_false_alarm / 1.96)
        zm = abs(mc.p_miss - quad.p_miss) / (mc.hw_miss / 1.96)
        worst_z = max(worst_z, zf, zm)
        if zf <= 3.0 and zm <= 3.0:
            passed += 1
    assert passed >= 95

    amps = evaluation.amplitudes_from_snr([-5.0, 0.0, 5.0, 10.0], noise)
    rows = evaluation.snr_sweep(noise, amps, DivergenceSpec(alpha=0.5))
    assert len(rows) == 12
    for j in range(4):
        nominal, small, large = rows[3 * j:3 * j + 3]
        assert small.p_error > nominal.p_error
        assert large.p_error > small.p_error
    print(f"[09] PASS {passed}/100 seeds within 3 standard errors "
          f"(worst z={worst_z:.2f}); robustness orderings hold at all "
          f"4 signal levels")


def test_10_unreduced_solution_forms_match_reduced_ones(
        mix_spec, mix_nominals, mix_grid, norm_pair, norm_grid):
    problems = [
        (mix_spec, mix_nominals, mix_grid),
        (DivergenceSpec(alpha=-3.0, rho=1.3, eps0=0.05, eps1=0.04),
         norm_pair, norm_grid),
    ]
    worst_phi, worst_rule = 0.0, 0.0
    for idx, (spec, noms, grid) in enumerate(problems):
        params = kkt_reference.solve_raw_kkt(spec, noms, grid)
        l_l, l_u = params.c1 / params.c3, params.c2 / params.c4
        z = 1.0 / params.c3
        k = params.c4 / params.c3
        t = ThresholdPair(l_l, l_u)
        rng = np.random.default_rng(4 + idx)
        lo, hi = spec.rho * l_l, spec.rho * l_u
        lv = np.exp(rng.uniform(math.log(lo), math.log(hi), 100))
        dphi = float(np.max(np.abs(
            lfd_solver.phi1(lv, t, spec.alpha, spec.rho, k, z)
            - kkt_reference.raw_phi1(lv, params, spec.alpha, spec.rho))))
        drule = float(np.max(np.abs(
            lfd_solver.robust_rule(lv, types.SimpleNamespace(thresholds=t, k=k, spec=spec))
            - kkt_reference.raw_rule(lv, params, spec.alpha, spec.rho))))
        assert dphi <= 1e-9
        assert drule <= 1e-9
        worst_phi, worst_rule = max(worst_phi, dphi), max(worst_rule, drule)
    print(f"[10] PASS unreduced-vs-reduced deviations: density factor "
          f"{worst_phi:.2e}, rule {worst_rule:.2e} over 100 points x 2 problems")
