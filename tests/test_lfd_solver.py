"""Threshold solver: frozen anchors, saddle structure, and cross-validation.

The main reference instance (bimodal noise, unit shift, alpha = 4,
radii (0.02, 0.03)) has its solved constants frozen here after independent
verification: the unreduced four-constant system `solve_raw_kkt` reproduces
the same solution without sharing any code path with `solve_thresholds`,
and the materialized densities attain the requested divergences under the
generic quadrature of the divergence module.
"""

import dataclasses
import functools
import gc
import itertools
import math
import types
import warnings
import weakref

import numpy as np
import pytest

from robustlrt import (
    DivergenceSpec,
    alpha_divergence,
    density,
    divergence,
    evaluation,
    kernels,
    lfd_solver,
    limits,
    oracle,
)
from robustlrt.lfd_solver import (
    DegenerateRegionError,
    InfeasibleEpsError,
    NonConvergenceError,
    TabulatedFunction,
    ThresholdPair,
)

import kkt_reference

ANCHOR_L_L = 0.6050401521115419
ANCHOR_L_U = 1.6180169369866289
ANCHOR_K = 0.5838991944010262
ANCHOR_Z = 0.7355474187056334

# (alpha, eps) of the benchmark's solve-symmetric jobs on N(-1,1) vs N(1,1)
SYMMETRIC_CASES = [(-1.0, 0.085), (0.5, 0.13), (2.0, 0.2), (4.0, 0.475)]

# the nominal pairs' fixtures (nominals, grid), each with the direction of its
# rays in the (eps0, eps1) plane
_RAYS = {"mix": ("mix_nominals", "mix_grid", (2.0, 3.0)),
         "norm": ("norm_pair", "norm_grid", (3.0, 2.0))}


# ---------------------------------------------------------------------------
# small value objects


def test_threshold_pair_validation():
    ThresholdPair(0.5, 2.0)
    ThresholdPair(1.0, 1.0)
    for ll, lu in ((1.2, 1.5), (0.5, 0.9), (0.0, 2.0), (-0.1, 2.0), (0.5, math.inf)):
        with pytest.raises(ValueError):
            ThresholdPair(ll, lu)


def test_tabulated_function_interpolates():
    f = TabulatedFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
    assert f(0.5) == pytest.approx(1.0, rel=1e-15)
    assert isinstance(f(0.5), float)
    np.testing.assert_allclose(f(np.array([0.25, 1.75])), [0.5, 0.5], rtol=1e-15)


def test_partition_labels_and_tie_convention():
    t = ThresholdPair(0.5, 2.0)
    l = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    lab = lfd_solver.partition(l, 1.0, t)
    assert lab.dtype == np.int8
    np.testing.assert_array_equal(lab, [1, 2, 2, 2, 3])  # ties join the band
    lab_rho = lfd_solver.partition(l, 2.0, t)  # thresholds scale with rho
    np.testing.assert_array_equal(lab_rho, [1, 1, 2, 2, 3])


# ---------------------------------------------------------------------------
# the anchor solve


def test_anchor_thresholds_and_constants(mix_solution):
    t = mix_solution.thresholds
    assert t.l_l == pytest.approx(ANCHOR_L_L, rel=1e-9)
    assert t.l_u == pytest.approx(ANCHOR_L_U, rel=1e-9)
    assert mix_solution.k == pytest.approx(ANCHOR_K, rel=1e-9)
    assert mix_solution.z == pytest.approx(ANCHOR_Z, rel=1e-9)
    assert mix_solution.residual_norm < 1e-8


# (rho, eps0, eps1) -> (l_l, l_u, k, z) of the anchor pair at alpha 4, frozen
# bit for bit: off centre each k is Newton's root of the mass balance psi(k)
# from its exact slope, so a change in how psi or its slope is evaluated, or
# in where its search stops, moves them by rounding
OFF_CENTRE_ANCHORS = {
    (0.8, 0.011, 0.014): (0.635506605620322, 1.295253055509646, 0.6856129267358462,
                          0.7609116759205538),
    (1.2, 0.02, 0.03): (0.6710754759800577, 1.9215116895073365, 0.5495051135387505,
                        0.7753724093049288),
    (1.5, 0.005, 0.005): (0.8697236452419854, 1.4009736574486575, 0.7981162064984052,
                          0.9130308201166448),
}
# the same, as the Newton iteration with finite-difference Jacobian columns
# left them; the analytic Jacobian reaches the same roots within rounding
FD_JACOBIAN_ANCHORS = {
    (0.8, 0.011, 0.014): (0.6355066056203226, 1.2952530555096455, 0.6856129267358468,
                          0.7609116759205542),
    (1.2, 0.02, 0.03): (0.6710754759800573, 1.9215116895073392, 0.5495051135387503,
                        0.7753724093049288),
    (1.5, 0.005, 0.005): (0.8697236452419853, 1.400973657448657, 0.7981162064984052,
                          0.9130308201166447),
}


@pytest.mark.parametrize("rho, eps0, eps1", sorted(OFF_CENTRE_ANCHORS))
def test_off_centre_anchors_are_frozen(mix_nominals, mix_grid, rho, eps0, eps1):
    sol = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=4.0, rho=rho, eps0=eps0, eps1=eps1), mix_nominals, mix_grid)
    got = (sol.thresholds.l_l, sol.thresholds.l_u, sol.k, sol.z)
    assert got == OFF_CENTRE_ANCHORS[rho, eps0, eps1]
    assert got == pytest.approx(FD_JACOBIAN_ANCHORS[rho, eps0, eps1], rel=1e-12)


# (pair, alpha, rho, l_l, l_u) -> (r0, r1, k, z, then the Jacobian's entries
# row by row) of one residual evaluation at radii (0.02, 0.03), frozen bit
# for bit: which work an evaluation redoes per label vector and per threshold
# pair, and how the Jacobian adds up its crossing-cell terms, must not move
# any of them; off centre their k is Newton's root of psi(k), as in
# OFF_CENTRE_ANCHORS.  The 7-component "seven" pair has 26 crossing pieces at
# (0.7, 1.4), so 26 piece ends move with each threshold
EVALUATION_ANCHORS = {
    ('mix', 4.0, 1.0, 0.605, 1.618): (
        -0.00016450890325603318, 0.00027911070315211894, 0.5837848192011756,
        0.7354613462658705, 2.013692038664626, 2.946073300672005, -3.8017467245758843,
        -2.5677017565725824),
    ('mix', 4.0, 0.8, 0.6355, 1.2953): (
        -0.10791194284468064, -0.19206700478251704, 0.6856590052105285, 0.7609508485115714,
        0.7282626240477408, 2.63895364868398, -1.7093913532774794, -2.338839401155835),
    ('mix', 4.0, 1.2, 0.6711, 1.9215): (
        0.0001131175915256577, -0.0001689470906705015, 0.5495821869064947,
        0.7754205596780358, 3.390578360084107, 1.7706042755770437, -4.811650217070051,
        -1.136273428917978),
    ('mix', 0.5, 1.0, 0.6, 1.7): (
        -0.0016378875203035825, 0.0027721649959512318, 0.6208085999540089,
        0.7443863698891048, -0.042515034299390374, -0.06206998342763696,
        0.05204090426982204, 0.036272868897635833),
    ('mix', -1.0, 1.0, 0.6, 1.7): (
        0.009635995515781648, -0.0245897437887328, 0.6208085999540089, 0.7347058904199719,
        0.31913344112427383, 0.46098787960390697, -0.38573173794335014, -0.2713266061873338),
    ('mix', 2.0, 1.0, 0.6, 1.6): (
        -0.010660472873438964, 0.001880045266178465, 0.5604428781250123, 0.7067874925758302,
        0.26237024315925783, 0.38144451429805865, -0.5731849782976809, -0.38125854735898396),
    ('norm', 2.0, 1.2, 0.55, 1.8): (
        -0.0004583015473074159, 0.019554989096521647, 0.5156074740422815,
        0.604092759117257, 0.05896710240463295, 0.1976440719191112, -0.3560704909314026,
        -0.057129034149833134),
    ('norm', -1.0, 1.0, 0.6, 1.6): (
        -0.016234377040688308, -0.02957443080389699, 0.5929504019149728, 0.6520991377966798,
        0.030289313556602592, 0.12395451273830689, -0.13859957218707705,
        -0.03331954213250345),
    ('seven', 4.0, 1.0, 0.7, 1.4): (
        -0.1500893483381911, -0.14738286081824326, 0.6587692596690562, 0.7943268218312964,
        2.084871244384234, 2.5932480705397896, -4.267847177651437, -3.2917585947443424),
    ('seven', 0.5, 0.8, 0.7, 1.4): (
        -0.03264898315266551, 0.00032433401418907604, 2.0332697732523446, 1.7504091719642338,
        -0.03757110951151126, -0.44394683955724024, -0.02686913190151698,
        -0.15623085366301204),
    ('seven', -1.0, 1.2, 0.7, 1.4): (
        0.028120040720339023, 0.33695491660638477, 0.2464244353519238, 0.6114333329305779,
        -1.890326309233016, -0.4215096696260344, -6.647930158530687, -0.7105681158868051),
    ('seven', 4.0, 1.0, 0.4, 1.3): (
        3.3520474376897447, 32.847701697579865, 0.08962255034409349, 0.14029919376736025,
        -14.706005064656676, -45.810593737221666, -227.8835887982074, -373.7774541695971),
}


def _seven_pair():
    """sum of (1/7)*N(m, 0.6^2), m = -6, -4, ..., 6, against its shift by 0.7."""
    seven = density.gaussian_mixture([(1.0 / 7.0, m, 0.6) for m in range(-6, 7, 2)])
    return (seven, density.shifted(seven, 0.7)), density.make_grid(-10.0, 11.0, 4001)


@pytest.fixture(scope="module")
def anchor_pairs(mix_nominals, mix_grid, norm_pair, norm_grid):
    return {"mix": (mix_nominals, mix_grid), "norm": (norm_pair, norm_grid),
            "seven": _seven_pair()}


def test_residual_evaluations_are_frozen(anchor_pairs):
    # each state on a fresh grid record, and every state of a pair in turn on
    # one record, which hands its last label part from one state to the next
    warm = {name: lfd_solver._grid_values(*pair) for name, pair in anchor_pairs.items()}
    ends = []
    for (name, alpha, rho, ll, lu), want in EVALUATION_ANCHORS.items():
        x0, x1 = divergence.x_of(alpha, 0.02), divergence.x_of(alpha, 0.03)
        for gv in (lfd_solver._grid_values(*anchor_pairs[name]), warm[name]):
            st = lfd_solver._eval_state(ll, lu, alpha, rho, gv, x0, x1)
            got = (st.r0, st.r1, st.k, st.z, *st.jacobian().ravel().tolist())
            assert got == want, (name, alpha, rho, ll, lu)
        ends.append(st.geo.up.size)
    assert max(ends) >= 9


def _bits(st):
    """Every field of a residual evaluation, its geometry's and its Jacobian as bytes."""
    values = [getattr(st, f.name) for f in dataclasses.fields(st) if f.name != "geo"]
    return [np.asarray(v).tobytes() for v in [*values, *st.geo, st.jacobian()]]


def test_reused_label_part_gives_the_fresh_evaluation(mix_nominals, mix_grid):
    # an evaluation that takes the last split's label part equals one on a
    # fresh grid record bit for bit: while the thresholds move and the knot
    # labels stay, after rho moves them, and after the labels change
    alpha, x0, x1 = 4.0, divergence.x_of(4.0, 0.011), divergence.x_of(4.0, 0.014)
    ll, lu, rho = 0.6355, 1.2953, 0.8
    gv = lfd_solver._grid_values(mix_nominals, mix_grid)
    path = [(ll, lu, rho), (ll * (1.0 + 1e-9), lu, rho), (ll, lu * (1.0 - 1e-9), rho),
            (ll, lu, rho * (1.0 + 1e-9)), (ll, lu, rho), (0.62, 1.31, rho), (0.62, 1.31, 0.9)]
    parts = []
    for ll, lu, rho in path:
        warm = lfd_solver._eval_state(ll, lu, alpha, rho, gv, x0, x1)
        fresh = lfd_solver._eval_state(ll, lu, alpha, rho,
                                       lfd_solver._grid_values(mix_nominals, mix_grid), x0, x1)
        assert _bits(warm) == _bits(fresh), (ll, lu, rho)
        parts.append(gv.last[0])
        # the powers of l/rho at the whole I2 knots are those of this rho
        assert parts[-1].powered[0] == (rho, alpha - 1.0, alpha)
    # the first five share one label part; new labels replace it
    assert all(part is parts[0] for part in parts[:5])
    assert parts[5] is not parts[4] and parts[6] is not parts[5]


@pytest.mark.parametrize("pair, alpha, rho, eps0, eps1", [
    *(("mix", 4.0, rho, eps0, eps1) for rho, eps0, eps1 in sorted(OFF_CENTRE_ANCHORS)),
    ("norm", 2.0, 1.2, 0.02, 0.03)])
def test_mass_balance_root_and_slope(anchor_pairs, pair, alpha, rho, eps0, eps1):
    # off centre k is the root of psi(k) = k*den - num - c*S(k), which Newton
    # finds with the slope dS/d log k that i2_s gives beside S
    if pair == "mix":
        ll, lu = OFF_CENTRE_ANCHORS[rho, eps0, eps1][:2]
    else:
        ll, lu = 0.55, 1.8
    gv = lfd_solver._grid_values(*anchor_pairs[pair])
    x0, x1 = divergence.x_of(alpha, eps0), divergence.x_of(alpha, eps1)
    st = lfd_solver._eval_state(ll, lu, alpha, rho, gv, x0, x1)
    a0, m0, b0, a1, m1, b1 = st.masses
    num, den, c, beta = a1 - ll * a0, lu * b0 - b1, 1.0 - 1.0 / rho, alpha - 1.0
    terms = (st.k * den, num, c * st.s_int)
    assert abs(terms[0] - terms[1] - terms[2]) <= 4.0 * math.ulp(max(map(abs, terms)))

    def s_at(log_k):
        return kernels.i2_s(st.geo, math.exp(beta * log_k))[0]

    def central(h):
        return (s_at(math.log(st.k) + h) - s_at(math.log(st.k) - h)) / (2.0 * h)

    s, ds = kernels.i2_s(st.geo, st.k ** beta)
    assert s == st.s_int
    assert ds == pytest.approx((4.0 * central(5e-4) - central(1e-3)) / 3.0, rel=1e-6)

    # equal thresholds make psi linear in k, solved in closed form
    st = lfd_solver._eval_state(1.0, 1.0, alpha, rho, gv, x0, x1)
    a0, m0, b0, a1, m1, b1 = st.masses
    assert st.k == (a1 - a0 + c * m1) / (b0 - b1)


def test_residual_evaluation_splits_the_grid_once(count_calls, mix_nominals, mix_grid):
    # one region split per residual evaluation serves the masses and the I2
    # geometry; each trial k of the off-centre mass balance only reweighs
    # the I2 knots of that geometry.  Every split labels the grid's knots,
    # but it rebuilds its label part (crossing cells, whole-cell sums, whole
    # I2 knots) only when the labels differ from the last split's
    evals = count_calls(lfd_solver, "_eval_state")
    geometries = count_calls(lfd_solver, "i2_geometry")
    trials = count_calls(lfd_solver, "i2_s")
    labels = count_calls(kernels, "_labels")
    parts = count_calls(kernels, "_label_part")
    lfd_solver.solve_thresholds(DivergenceSpec(alpha=4.0, rho=0.8, eps0=0.011, eps1=0.014),
                                mix_nominals, mix_grid)
    assert evals[0] > 0
    # and one more labelling places the crossing knots of the returned tables
    assert labels[0] == evals[0] + 1
    assert 0 < parts[0] < evals[0]
    assert geometries[0] == evals[0]
    # the path's radius leg at rho = 1 has no mass balance to solve, and
    # Newton on psi(k) takes 5-6 trials per evaluation on the prior leg,
    # about 2.2 per evaluation in all
    assert trials[0] > 2 * evals[0]


@pytest.mark.parametrize("n", [4001, 40001])
@pytest.mark.parametrize("case", [
    *(pytest.param(rho, id=str(rho)) for rho in (1.0, 0.8, 1.2)),
    *(pytest.param(c, id="symmetric-%g-%g" % c) for c in SYMMETRIC_CASES)])
def test_table_masses_are_the_split_cell_masses(mix_nominals, norm_pair, n, case):
    # plain trapezoid sums over the solution's cells, each cell in the region
    # of its midpoint l, give the region masses the residual zeroed; the
    # symmetric fast path places its table knots by the same crossing rule
    if isinstance(case, tuple):
        alpha, eps = case
        nominals, grid = norm_pair, density.make_grid(-9.0, 9.0, n)
        sol = lfd_solver.solve_symmetric(eps, alpha, 1.0, nominals, grid)
    else:
        nominals, grid = mix_nominals, density.make_grid(-8.0, 9.0, n)
        sol = lfd_solver.solve_thresholds(
            DivergenceSpec(alpha=4.0, rho=case, eps0=0.02, eps1=0.03), nominals, grid)
    rho = sol.spec.rho
    l = density.ratio_values(sol.f0_values, sol.f1_values)
    lo, hi = rho * sol.thresholds.l_l, rho * sol.thresholds.l_u
    mid = 0.5 * (l[:-1] + l[1:])
    region = np.where(mid < lo, 0, np.where(mid > hi, 2, 1))
    h = np.diff(sol.grid.points)
    got = [float(np.where(region == r, 0.5 * h * (f[:-1] + f[1:]), 0.0).sum())
           for f in (sol.f0_values, sol.f1_values) for r in range(3)]
    f0, f1 = (density.values_on(f, grid) for f in nominals)
    want = kernels.region_masses(density.ratio_values(f0, f1), f0, f1, grid.points, lo, hi)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_anchor_constraints_attained(mix_solution, mix_spec):
    assert mix_solution.achieved_eps0 == pytest.approx(mix_spec.eps0, abs=1e-9)
    assert mix_solution.achieved_eps1 == pytest.approx(mix_spec.eps1, abs=1e-9)
    w = mix_solution.grid.weights
    assert float(np.sum(w * mix_solution.g0_hat.values)) == pytest.approx(1.0, abs=1e-9)
    assert float(np.sum(w * mix_solution.g1_hat.values)) == pytest.approx(1.0, abs=1e-9)


def test_anchor_divergences_via_generic_quadrature(mix_solution, mix_spec):
    # independent route: the divergence module knows nothing of the solver
    d0 = alpha_divergence(mix_solution.g0_hat.values, mix_solution.f0_values,
                          mix_spec.alpha, mix_solution.grid)
    d1 = alpha_divergence(mix_solution.g1_hat.values, mix_solution.f1_values,
                          mix_spec.alpha, mix_solution.grid)
    assert d0 == pytest.approx(mix_spec.eps0, abs=1e-8)
    assert d1 == pytest.approx(mix_spec.eps1, abs=1e-8)


def test_anchor_middle_region_is_three_intervals(mix_solution):
    l = density.ratio_values(mix_solution.f0_values, mix_solution.f1_values)
    lab = lfd_solver.partition(l, mix_solution.spec.rho, mix_solution.thresholds)
    flags = np.concatenate(([0], (lab == 2).astype(int), [0]))
    starts = np.flatnonzero(np.diff(flags) == 1)
    ends = np.flatnonzero(np.diff(flags) == -1)
    assert len(starts) == 3
    y = mix_solution.grid.points
    intervals = [(y[s], y[e - 1]) for s, e in zip(starts, ends)]
    # the bimodal geometry puts one band left of the trough and two right
    assert intervals[0][0] == pytest.approx(-2.0, abs=0.05)
    assert intervals[1][0] == pytest.approx(0.25, abs=0.05)
    assert intervals[2][1] == pytest.approx(2.98, abs=0.05)


def _interior_labels(sol):
    """Region labels away from the thresholds, where recomputing the ratio
    from the materialized density values cannot flip the classification."""
    l = density.ratio_values(sol.f0_values, sol.f1_values)
    t, rho = sol.thresholds, sol.spec.rho
    clear = np.ones(l.shape, dtype=bool)
    for edge in (rho * t.l_l, rho * t.l_u, t.l_l, t.l_u):
        clear &= np.abs(l - edge) > 1e-4 * edge
    return l, lfd_solver.partition(l, rho, t), clear


def test_lfd_branch_scalings(mix_solution):
    # the emitted densities are renormalized tabulations, so the branch
    # scalings hold up to the ~1e-9 quadrature mass defect
    sol = mix_solution
    t, k, z = sol.thresholds, sol.k, sol.z
    _, lab, clear = _interior_labels(sol)
    g0, g1 = sol.g0_hat.values, sol.g1_hat.values
    lo_scale = (lab == 1) & clear
    hi_scale = (lab == 3) & clear
    np.testing.assert_allclose(g0[lo_scale], (t.l_l / z) * sol.f0_values[lo_scale],
                               rtol=1e-8)
    np.testing.assert_allclose(g1[lo_scale], (1.0 / z) * sol.f1_values[lo_scale],
                               rtol=1e-8)
    np.testing.assert_allclose(g0[hi_scale], (k * t.l_u / z) * sol.f0_values[hi_scale],
                               rtol=1e-8)
    np.testing.assert_allclose(g1[hi_scale], (k / z) * sol.f1_values[hi_scale],
                               rtol=1e-8)


def test_lfd_ratio_is_rho_on_middle_region(mix_solution):
    sol = mix_solution
    _, lab, clear = _interior_labels(sol)
    mid = (lab == 2) & clear & (sol.f0_values > 1e-300)
    ratio = sol.g1_hat.values[mid] / sol.g0_hat.values[mid]
    np.testing.assert_allclose(ratio, sol.spec.rho, rtol=1e-8)


def test_robust_lr_piecewise_form(mix_solution):
    sol = mix_solution
    t = sol.thresholds
    inner = np.linspace(t.l_l, t.l_u, 7)
    np.testing.assert_array_equal(lfd_solver.robust_lr(inner, sol),
                                  np.full(7, sol.spec.rho))
    assert lfd_solver.robust_lr(0.3, sol) == pytest.approx(0.3 / t.l_l, rel=1e-14)
    assert lfd_solver.robust_lr(2.5, sol) == pytest.approx(2.5 / t.l_u, rel=1e-14)
    # tabulated variant agrees with the closed form on the solution grid
    # (away from the clamp thresholds, where recomputing the ratio from the
    # materialized values lands on the other side of the exact knot)
    l, _, clear = _interior_labels(sol)
    np.testing.assert_allclose(sol.l_hat.values[clear],
                               lfd_solver.robust_lr(l[clear], sol),
                               rtol=1e-12)


def test_robust_rule_boundaries_and_monotonicity(mix_solution):
    sol = mix_solution
    t = sol.thresholds
    rho = sol.spec.rho
    assert lfd_solver.robust_rule(rho * t.l_l, sol) == 0.0
    assert lfd_solver.robust_rule(rho * t.l_u, sol) == 1.0
    assert lfd_solver.robust_rule(0.9 * rho * t.l_l, sol) == 0.0
    assert lfd_solver.robust_rule(1.1 * rho * t.l_u, sol) == 1.0
    ramp = lfd_solver.robust_rule(np.linspace(rho * t.l_l, rho * t.l_u, 200), sol)
    assert np.all(np.diff(ramp) > 0.0)
    assert np.all((ramp >= 0.0) & (ramp <= 1.0))


def test_interior_scale_factors_and_domain(mix_solution):
    sol = mix_solution
    t, k, z = sol.thresholds, sol.k, sol.z
    alpha, rho = sol.spec.alpha, sol.spec.rho
    # continuity of g1's scale across the region boundaries
    assert lfd_solver.phi1(rho * t.l_l, t, alpha, rho, k, z) == pytest.approx(
        1.0 / z, rel=1e-12)
    assert lfd_solver.phi1(rho * t.l_u, t, alpha, rho, k, z) == pytest.approx(
        k / z, rel=1e-12)
    with pytest.raises(ValueError, match="defined on"):
        lfd_solver.phi1(0.5 * rho * t.l_l, t, alpha, rho, k, z)
    with pytest.raises(ValueError, match="defined on"):
        lfd_solver.phi1(2.0 * rho * t.l_u, t, alpha, rho, k, z)


def _state_at(t: ThresholdPair, spec, nominals, grid):
    """The residual evaluation of `spec` at thresholds t, as the solver runs it."""
    return lfd_solver._eval_state(t.l_l, t.l_u, spec.alpha, spec.rho,
                                  lfd_solver._grid_values(nominals, grid),
                                  divergence.x_of(spec.alpha, spec.eps0),
                                  divergence.x_of(spec.alpha, spec.eps1))


def test_k_and_z_helpers_match_solution(mix_solution, mix_nominals, mix_grid):
    # at rho = 1 the coupling k is the literal ratio of the region masses
    # (A1 - l_l*A0)/(l_u*B0 - B1), and z normalizes g1_hat
    sol = mix_solution
    st = _state_at(sol.thresholds, sol.spec, mix_nominals, mix_grid)
    a0, _, b0, a1, _, b1 = st.masses
    t = sol.thresholds
    assert st.k == pytest.approx((a1 - t.l_l * a0) / (t.l_u * b0 - b1), rel=1e-15)
    assert st.k == pytest.approx(sol.k, rel=1e-12)
    assert st.z == pytest.approx(sol.z, rel=1e-12)


def test_residuals_vanish_at_solution_only(mix_solution, mix_spec, mix_nominals,
                                           mix_grid):
    st = _state_at(mix_solution.thresholds, mix_spec, mix_nominals, mix_grid)
    assert abs(st.r0) < 1e-8 and abs(st.r1) < 1e-8
    t_off = ThresholdPair(mix_solution.thresholds.l_l * 0.9,
                          mix_solution.thresholds.l_u * 1.1)
    off = _state_at(t_off, mix_spec, mix_nominals, mix_grid)
    assert max(abs(off.r0), abs(off.r1)) > 1e-4


# ---------------------------------------------------------------------------
# prior-ratio variant


def test_rho_variant_converges_with_flat_middle_ratio(mix_nominals, mix_grid):
    spec = DivergenceSpec(alpha=4.0, rho=1.2, eps0=0.02, eps1=0.03)
    sol = lfd_solver.solve_thresholds(spec, mix_nominals, mix_grid)
    assert sol.thresholds.l_l == pytest.approx(0.6710754759809308, rel=1e-9)
    assert sol.thresholds.l_u == pytest.approx(1.9215116895012658, rel=1e-9)
    l = density.ratio_values(sol.f0_values, sol.f1_values)
    lab = lfd_solver.partition(l, 1.2, sol.thresholds)
    assert np.max(np.abs(sol.l_hat.values[lab == 2] - 1.2)) == 0.0
    assert sol.achieved_eps0 == pytest.approx(0.02, abs=1e-8)
    assert sol.achieved_eps1 == pytest.approx(0.03, abs=1e-8)


def test_off_center_prior_solves_and_matches_oracle(mix_nominals, mix_grid):
    # a root exists here, but a search not started near it ends with l_u
    # pinned on the clamp l_u = 1
    spec = DivergenceSpec(alpha=4.0, rho=1.5, eps0=0.005, eps1=0.005)
    sol = lfd_solver.solve_thresholds(spec, mix_nominals, mix_grid)
    assert sol.thresholds.l_l == pytest.approx(0.869724, abs=1e-5)
    assert sol.thresholds.l_u == pytest.approx(1.400974, abs=1e-5)
    assert sol.residual_norm < 1e-12
    # the alternating saddle search on the binned problem, at the radii the
    # binned densities realize, lands on the continuous saddle value
    prob = oracle.discretize(mix_nominals, sol.grid, 50, spec)
    d0 = oracle.discrete_divergence(oracle._bin_masses(sol.g0_hat.values, sol.grid, 50),
                                    prob.f0, spec.alpha)
    d1 = oracle.discrete_divergence(oracle._bin_masses(sol.g1_hat.values, sol.grid, 50),
                                    prob.f1, spec.alpha)
    prob_rc = oracle.DiscreteProblem(m=50, f0=prob.f0, f1=prob.f1, alpha=spec.alpha,
                                     rho=spec.rho, eps0=d0, eps1=d1)
    rule, _, _, _ = oracle.alternating_saddle(prob_rc)
    pe_oracle = oracle.worst_case_error(rule, prob_rc)[2]
    saddle = evaluation.error_probs(sol.delta_hat, sol.g0_hat, sol.g1_hat, spec.rho,
                                    sol.grid)
    assert abs(pe_oracle - saddle.p_error) <= 5e-4


def test_prior_without_three_region_root_gives_up_early(count_calls, mix_nominals,
                                                        mix_grid):
    # at rho = 2 region I3 empties on the way (l_u runs off), so the
    # three-region form has no root; 2681 residual evaluations is what a
    # scan-and-multi-start search spent before giving up
    calls = count_calls(lfd_solver, "_eval_state")
    with pytest.raises(NonConvergenceError, match=r"stalled past rho = 1\.\d+ on the way "
                       r"to rho = 2 at .*best residual norm beyond it \d"):
        lfd_solver.solve_thresholds(DivergenceSpec(alpha=4.0, rho=2.0, eps0=0.02, eps1=0.03),
                                    mix_nominals, mix_grid)
    assert calls[0] < 2681


# the benchmark's radius boxes (eps0 range, eps1 range) on the anchor pair
ANCHOR_BOXES = {-1.0: ((0.015, 0.025), (0.020, 0.030)),
                0.5: ((0.020, 0.030), (0.025, 0.040)),
                2.0: ((0.020, 0.030), (0.025, 0.040)),
                4.0: ((0.015, 0.025), (0.025, 0.035))}


@pytest.mark.parametrize("rho", [0.8, 1.0, 1.2])
@pytest.mark.parametrize("alpha", sorted(ANCHOR_BOXES))
def test_jacobian_matches_central_differences(mix_nominals, mix_grid, alpha, rho):
    # at the box midpoint's solution and off it; central differences with
    # step 1e-6 in the log thresholds carry a truncation error near 1e-12 and
    # rounding near 1e-10 relative, and a crossing that passes a grid knot
    # within the step adds up to about 1e-8 (the residual has a kink there)
    (a0, b0), (a1, b1) = ANCHOR_BOXES[alpha]
    eps0, eps1 = 0.5 * (a0 + b0), 0.5 * (a1 + b1)
    sol = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=alpha, rho=rho, eps0=eps0, eps1=eps1), mix_nominals, mix_grid)
    gv = lfd_solver._grid_values(mix_nominals, mix_grid)
    x0, x1 = divergence.x_of(alpha, eps0), divergence.x_of(alpha, eps1)

    def state(u, v):
        return lfd_solver._eval_state(math.exp(u), math.exp(v), alpha, rho, gv, x0, x1)

    h = 1e-6
    for du, dv in ((0.0, 0.0), (-0.05, 0.03)):
        u, v = math.log(sol.thresholds.l_l) + du, math.log(sol.thresholds.l_u) + dv
        jac = state(u, v).jacobian()
        cols = []
        for eu, ev in ((h, 0.0), (0.0, h)):
            up, down = state(u + eu, v + ev), state(u - eu, v - ev)
            cols.append(((up.r0 - down.r0) / (2 * h), (up.r1 - down.r1) / (2 * h)))
        want = np.array(cols).T
        assert np.abs(jac - want).max() <= 1e-7 * np.abs(want).max()


@pytest.mark.parametrize("rho, eps0, eps1, most", [(1.0, 0.02, 0.03, 45),
                                                   (0.8, 0.011, 0.014, 60),
                                                   (1.2, 0.02, 0.03, 60),
                                                   (1.5, 0.005, 0.005, 60)])
def test_solve_takes_few_residual_evaluations(count_calls, mix_nominals, mix_grid, rho,
                                              eps0, eps1, most):
    # the analytic Jacobian leaves one evaluation per path prediction and per
    # line-search trial; with two finite-difference columns per Newton
    # iteration these solves took 73, 94, 92 and 85
    calls = count_calls(lfd_solver, "_eval_state")
    lfd_solver.solve_thresholds(DivergenceSpec(alpha=4.0, rho=rho, eps0=eps0, eps1=eps1),
                                mix_nominals, mix_grid)
    assert 0 < calls[0] <= most


@pytest.mark.parametrize("alpha, rho, eps0, eps1, most", [(4.0, 1.46, 0.02, 0.03, 285),
                                                          (4.0, 2.0, 0.02, 0.03, 284),
                                                          (-1.0, 0.8, 0.031, 0.046, 281)])
def test_known_stalls_stay_nonconvergence(count_calls, mix_nominals, mix_grid, alpha, rho,
                                          eps0, eps1, most):
    # past the critical prior the three-region form has no root; the path
    # gives up no later than it did with finite-difference Jacobian columns
    calls = count_calls(lfd_solver, "_eval_state")
    with pytest.raises(NonConvergenceError, match="stalled past rho"):
        lfd_solver.solve_thresholds(DivergenceSpec(alpha=alpha, rho=rho, eps0=eps0, eps1=eps1),
                                    mix_nominals, mix_grid)
    assert calls[0] <= most


def _anchor_box_specs():
    """10 seeded draws from the radius boxes at rho 0.8, 1 and 1.2, and radii
    below the alpha 0.5 box at rho 0.8: the admissible region does not depend
    on the prior, so these solve at rho = 0.8."""
    for i in range(10):
        rng = np.random.default_rng([11, i])
        alpha = float(rng.choice(sorted(ANCHOR_BOXES)))
        (a0, b0), (a1, b1) = ANCHOR_BOXES[alpha]
        yield DivergenceSpec(alpha=alpha, rho=float(rng.choice([0.8, 1.0, 1.2])),
                             eps0=float(rng.uniform(a0, b0)), eps1=float(rng.uniform(a1, b1)))
    yield DivergenceSpec(alpha=0.5, rho=0.8, eps0=0.011, eps1=0.019)


def test_solution_invariants_on_anchor_boxes(mix_nominals, mix_grid, saddle_bounds):
    for spec in _anchor_box_specs():
        sol = lfd_solver.solve_thresholds(spec, mix_nominals, mix_grid)
        w = sol.grid.weights
        g0, g1 = sol.g0_hat.values, sol.g1_hat.values
        assert float(w @ g0) == pytest.approx(1.0, abs=1e-6), spec
        assert float(w @ g1) == pytest.approx(1.0, abs=1e-6), spec
        assert alpha_divergence(g0, sol.f0_values, spec.alpha, sol.grid) == pytest.approx(
            spec.eps0, abs=1e-4), spec
        assert alpha_divergence(g1, sol.f1_values, spec.alpha, sol.grid) == pytest.approx(
            spec.eps1, abs=1e-4), spec
        l, lab, clear = _interior_labels(sol)
        delta = sol.delta_hat.values
        assert delta.min() >= 0.0 and delta.max() <= 1.0, spec
        assert np.all(np.diff(delta[np.argsort(l, kind="stable")]) >= -1e-9), spec
        t, rho = sol.thresholds, spec.rho
        want = np.where(lab == 1, l / t.l_l, np.where(lab == 3, l / t.l_u, rho))
        np.testing.assert_allclose(sol.l_hat.values[clear], want[clear], rtol=1e-12,
                                   err_msg=str(spec))
        lower, saddle, upper = saddle_bounds(sol)
        assert upper - saddle <= 1e-6, spec
        assert saddle - lower <= 1e-6, spec


# ---------------------------------------------------------------------------
# zero-radius reduction


def test_zero_radii_reproduce_nominals(request):
    # zero radii make the robust test the plain LRT between the nominals
    for pair, alpha in itertools.product(sorted(_RAYS), (4.0, -1.0)):
        nominals, grid = (request.getfixturevalue(name) for name in _RAYS[pair][:2])
        solve = functools.partial(lfd_solver.solve_thresholds, DivergenceSpec(alpha=alpha),
                                  nominals, grid)
        if (pair, alpha) == ("mix", -1.0):
            # the anchor pair's grid masses differ by about 5e-10, which
            # puts both zero-radius divergences below zero at alpha = -1
            with pytest.warns(UserWarning, match=r"alpha-divergence came out negative "
                              r"\(-4\.940e-10\)") as caught:
                sol = solve()
            assert len(caught) == 2
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = solve()
        assert (sol.thresholds.l_l, sol.thresholds.l_u) == (1.0, 1.0)
        assert np.max(np.abs(sol.g0_hat.values - sol.f0_values)) < 1e-9
        assert np.max(np.abs(sol.g1_hat.values - sol.f1_values)) < 1e-9
        # the least favorable densities are the nominals over their masses
        # on the table's grid
        for g, f in ((sol.g0_hat, sol.f0_values), (sol.g1_hat, sol.f1_values)):
            want = f / density.integrate(f, sol.grid)
            assert np.max(np.abs(g.values - want)) <= 1e-12 * want.max()
        # on the grid's own knots the rule is the LRT, 1/2 on its ties
        knots = np.searchsorted(sol.grid.points, grid.points)
        assert np.array_equal(sol.grid.points[knots], grid.points)
        lrt = evaluation.lrt_rule(nominals, 1.0)(grid.points)
        assert np.count_nonzero(lrt == 0.5) >= 1
        np.testing.assert_array_equal(sol.delta_hat.values[knots], lrt)


# ---------------------------------------------------------------------------
# symmetric fast path


def test_symmetric_matches_general_solver(norm_pair, norm_grid):
    sym = lfd_solver.solve_symmetric(0.1, 10.0, 1.0, norm_pair, norm_grid)
    assert sym.thresholds.l_l == pytest.approx(0.584994309240664, rel=1e-9)
    assert sym.thresholds.l_u == pytest.approx(1.709418338270714, rel=1e-9)
    gen = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=10.0, rho=1.0, eps0=0.1, eps1=0.1), norm_pair,
        norm_grid)
    assert sym.thresholds.l_l == pytest.approx(gen.thresholds.l_l, abs=1e-6)
    assert sym.thresholds.l_u == pytest.approx(gen.thresholds.l_u, abs=1e-6)
    # mirror symmetry pins the reciprocal product and the balance factor
    assert sym.thresholds.l_l * sym.thresholds.l_u == pytest.approx(1.0, abs=1e-15)
    assert sym.k == pytest.approx(sym.thresholds.l_l, rel=1e-10)


def test_symmetric_lfds_mirror_each_other(norm_pair, norm_grid):
    sym = lfd_solver.solve_symmetric(0.1, -10.0, 1.0, norm_pair, norm_grid)
    y = np.linspace(-5.0, 5.0, 801)
    g0 = density.evaluate(sym.g0_hat, y)
    g1 = density.evaluate(sym.g1_hat, -y)
    np.testing.assert_allclose(g1, g0, atol=1e-6)


def test_symmetric_rejects_asymmetric_problems(norm_grid):
    with pytest.raises(ValueError, match="mirror"):
        lfd_solver.solve_symmetric(
            0.1, 4.0, 1.0,
            (density.gaussian(-1.0, 1.0), density.gaussian(1.5, 1.0)), norm_grid)
    # mirror-symmetric pair whose likelihood ratio is not monotone
    f0 = density.gaussian_mixture([(0.7, -1.0, 1.0), (0.3, 3.0, 0.5)])
    f1 = density.gaussian_mixture([(0.7, 1.0, 1.0), (0.3, -3.0, 0.5)])
    with pytest.raises(ValueError, match="increasing"):
        lfd_solver.solve_symmetric(0.02, 4.0, 1.0, (f0, f1), norm_grid)


@pytest.mark.parametrize("rho", [0.8, 1.1])
def test_symmetric_off_center_prior_is_the_general_solve(norm_pair, norm_grid, rho):
    # l_l = 1/l_u holds at rho = 1 only, so another prior goes to
    # solve_thresholds: the same table, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sym = lfd_solver.solve_symmetric(0.2, 2.0, rho, norm_pair, norm_grid)
    gen = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=2.0, rho=rho, eps0=0.2, eps1=0.2), norm_pair, norm_grid)
    assert sym.thresholds == gen.thresholds
    np.testing.assert_array_equal(sym.g0_hat.values, gen.g0_hat.values)
    np.testing.assert_array_equal(sym.delta_hat.values, gen.delta_hat.values)
    assert sym.achieved_eps0 == pytest.approx(0.2, abs=1e-9)
    assert sym.achieved_eps1 == pytest.approx(0.2, abs=1e-9)


@pytest.mark.parametrize("alpha, eps", SYMMETRIC_CASES)
def test_symmetric_solve_takes_few_residual_evaluations(count_calls, norm_pair, norm_grid,
                                                        alpha, eps):
    # one evaluation of the shared residual per Newton step
    calls = count_calls(lfd_solver, "_eval_state")
    sym = lfd_solver.solve_symmetric(eps, alpha, 1.0, norm_pair, norm_grid)
    assert sym.residual_norm < 1e-8
    assert 0 < calls[0] < 20


def test_symmetric_solve_keeps_only_its_last_states(monkeypatch, norm_pair, norm_grid):
    # the residual states of the root search die as the search moves on:
    # when Newton's method returns, only the state of the point it returns
    # is kept, and at most one more is alive
    # (a state is unhashable, so a weak reference each stands in for a WeakSet)
    refs, counts = [], []
    real_eval, real_newton = lfd_solver._eval_state, lfd_solver.newton

    def tracked(*args):
        st = real_eval(*args)
        if st is not None:
            refs.append(weakref.ref(st))
        return st

    def counted(*args, **kwargs):
        root = real_newton(*args, **kwargs)
        gc.collect()
        counts.append(sum(r() is not None for r in refs))
        return root

    monkeypatch.setattr(lfd_solver, "_eval_state", tracked)
    monkeypatch.setattr(lfd_solver, "newton", counted)
    sym = lfd_solver.solve_symmetric(0.1, 2.0, 1.0, norm_pair, norm_grid)
    assert sym.residual_norm < 1e-8
    assert len(counts) == 1 and 0 < counts[0] <= 2


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_symmetric_solves_a_narrow_ratio_range(alpha):
    # the ratio of N(-0.05, 1) and N(0.05, 1) spans only [e^-0.8, e^0.8] on
    # [-8, 8], and the root lies at u = log l_u = 0.03: the search starts
    # with a step of sqrt(eps), not one past the range, where a threshold
    # above every ratio value leaves no mass
    pair = (density.gaussian(-0.05, 1.0), density.gaussian(0.05, 1.0))
    grid = density.make_grid(-8.0, 8.0, 4001)
    sym = lfd_solver.solve_symmetric(1e-4, alpha, 1.0, pair, grid)
    assert sym.residual_norm < 1e-10
    assert sym.thresholds.l_l * sym.thresholds.l_u == pytest.approx(1.0, abs=1e-15)
    gen = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=alpha, rho=1.0, eps0=1e-4, eps1=1e-4), pair, grid)
    assert sym.thresholds.l_l == pytest.approx(gen.thresholds.l_l, rel=1e-9)
    assert sym.thresholds.l_u == pytest.approx(gen.thresholds.l_u, rel=1e-9)


def test_symmetric_matches_general_solver_near_the_boundary(norm_pair):
    # alpha = -10 at 0.9 of the diagonal boundary radius on a coarse grid,
    # where discretization separates the two threshold equations most
    grid = density.make_grid(-9.0, 9.0, 401)
    with warnings.catch_warnings():
        # the coarse grid leaves a general residual that the solver reports
        warnings.simplefilter("ignore", RuntimeWarning)
        sym = lfd_solver.solve_symmetric(1.259, -10.0, 1.0, norm_pair, grid)
    gen = lfd_solver.solve_thresholds(
        DivergenceSpec(alpha=-10.0, rho=1.0, eps0=1.259, eps1=1.259), norm_pair, grid)
    assert sym.thresholds.l_l == pytest.approx(gen.thresholds.l_l, rel=3e-5)
    assert sym.thresholds.l_u == pytest.approx(gen.thresholds.l_u, rel=3e-5)


# ---------------------------------------------------------------------------
# unreduced stationarity system (independent route)


def test_raw_kkt_constants_frozen(mix_spec, mix_nominals, mix_grid):
    p = kkt_reference.solve_raw_kkt(mix_spec, mix_nominals, mix_grid)
    assert p.c1 == pytest.approx(0.8225712343595875, rel=1e-7)
    assert p.c2 == pytest.approx(1.2844294793275601, rel=1e-7)
    assert p.c3 == pytest.approx(1.3595316560381914, rel=1e-7)
    assert p.c4 == pytest.approx(0.7938294381504412, rel=1e-7)
    assert p.lambda0 == pytest.approx(1.9200881938149839, rel=1e-7)
    assert p.lambda1 == pytest.approx(1.4905984382388928, rel=1e-7)
    assert p.mu0 == pytest.approx(0.28380761214572825, rel=1e-7)
    assert p.mu1 == pytest.approx(0.24831200251064517, rel=1e-7)
    assert min(p.lambda0, p.lambda1, p.mu0, p.mu1) > 0.0


def test_raw_kkt_reproduces_reduced_thresholds(mix_spec, mix_nominals, mix_grid,
                                               mix_solution):
    p = kkt_reference.solve_raw_kkt(mix_spec, mix_nominals, mix_grid)
    assert p.c1 / p.c3 == pytest.approx(mix_solution.thresholds.l_l, abs=1e-6)
    assert p.c2 / p.c4 == pytest.approx(mix_solution.thresholds.l_u, abs=1e-6)
    assert 1.0 / p.c3 == pytest.approx(mix_solution.z, abs=1e-6)
    assert p.c4 / p.c3 == pytest.approx(mix_solution.k, abs=1e-6)


def test_raw_forms_match_reduced_forms_at_shared_parameters(mix_spec, mix_nominals,
                                                            mix_grid):
    p = kkt_reference.solve_raw_kkt(mix_spec, mix_nominals, mix_grid)
    ll, lu = p.c1 / p.c3, p.c2 / p.c4
    k, z = p.c4 / p.c3, 1.0 / p.c3
    t = ThresholdPair(ll, lu)
    alpha, rho = mix_spec.alpha, mix_spec.rho
    lv = np.exp(np.random.default_rng(2).uniform(
        math.log(rho * ll), math.log(rho * lu), 100))
    np.testing.assert_allclose(
        kkt_reference.raw_phi1(lv, p, alpha, rho),
        lfd_solver.phi1(lv, t, alpha, rho, k, z), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        kkt_reference.raw_phi0(lv, p, alpha, rho),
        lfd_solver.phi1(lv, t, alpha, rho, k, z) * lv / rho, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        kkt_reference.raw_rule(lv, p, alpha, rho),
        lfd_solver.robust_rule(lv, types.SimpleNamespace(thresholds=t, k=k, spec=mix_spec)),
        rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# error paths


def test_infeasible_radii_report_boundary_partner(mix_nominals, mix_grid):
    spec = DivergenceSpec(alpha=4.0, rho=1.0, eps0=0.02, eps1=0.40)
    with pytest.raises(InfeasibleEpsError, match="not strictly inside") as exc:
        lfd_solver.solve_thresholds(spec, mix_nominals, mix_grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, margin = limits.validate_eps(mix_nominals, spec, mix_grid)
    scale = 1.0 + margin / math.hypot(0.02, 0.40)
    assert "meets the boundary at (%g, %g), a margin of %.3g" % (
        0.02 * scale, 0.40 * scale, margin) in str(exc.value)


@pytest.mark.parametrize("pair", sorted(_RAYS))
@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 4.0])
def test_solver_refuses_exactly_what_validate_eps_refuses(monkeypatch, request, pair, alpha):
    # a residual that never evaluates stalls the continuation at once, so
    # radii that pass the feasibility check end in NonConvergenceError
    monkeypatch.setattr(lfd_solver, "_eval_state", lambda *args: None)
    nominals, grid = (request.getfixturevalue(name) for name in _RAYS[pair][:2])
    d0, d1 = _RAYS[pair][2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, margin = limits.validate_eps(nominals, DivergenceSpec(alpha=alpha, eps0=d0,
                                                                 eps1=d1), grid)
    s_star = (margin + math.hypot(d0, d1)) / math.hypot(d0, d1)
    for rho in (0.8, 1.0, 1.2):
        for factor in (0.5, 0.99, 1.01, 1.5):
            spec = DivergenceSpec(alpha=alpha, rho=rho, eps0=factor * s_star * d0,
                                  eps1=factor * s_star * d1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                feasible, _ = limits.validate_eps(nominals, spec, grid)
            assert feasible == (factor < 1.0)
            with pytest.raises(NonConvergenceError if feasible else InfeasibleEpsError):
                lfd_solver.solve_thresholds(spec, nominals, grid)


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_alpha_40_on_the_diagonal_stalls_with_a_typed_error(norm_pair, norm_grid, fraction):
    # the boundary lies near eps = 9.0e15, where the Jacobian's K-column
    # divides by K^2 = 0; that column is not finite and Newton stops
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, margin = limits.validate_eps(norm_pair, DivergenceSpec(alpha=40.0), norm_grid)
        eps = fraction * margin / math.sqrt(2.0)
        with pytest.raises(NonConvergenceError, match="stalled"):
            lfd_solver.solve_thresholds(DivergenceSpec(alpha=40.0, eps0=eps, eps1=eps),
                                        norm_pair, norm_grid)


def test_symmetric_without_a_root_bracket_names_the_cause(monkeypatch, norm_pair, norm_grid):
    # with no root of the symmetric equation, the radii decide the error;
    # the diagonal boundary at alpha = 2 lies near eps = 0.612
    monkeypatch.setattr(lfd_solver, "newton", lambda *args, **kwargs: None)
    with pytest.raises(NonConvergenceError, match="although the radii are feasible"):
        lfd_solver.solve_symmetric(0.2, 2.0, 1.0, norm_pair, norm_grid)
    with pytest.raises(InfeasibleEpsError, match="not strictly inside"):
        lfd_solver.solve_symmetric(0.7, 2.0, 1.0, norm_pair, norm_grid)


def test_prior_ratio_outside_likelihood_range_degenerates(norm_pair):
    tight = density.make_grid(-2.0, 2.0, 801)
    # the feasibility preflight may reject the radii before the prior-ratio
    # range check fires, so either diagnostic is a correct refusal
    with pytest.raises((DegenerateRegionError, InfeasibleEpsError)):
        lfd_solver.solve_thresholds(
            DivergenceSpec(alpha=4.0, rho=5000.0, eps0=0.01, eps1=0.01),
            norm_pair, tight)
    # zero radii skip the preflight and the range check; their one residual
    # evaluation finds the region above rho empty, the grid's ratios exp(2y)
    # ending at e^4
    with pytest.raises(DegenerateRegionError, match="zero-radius"):
        lfd_solver.solve_thresholds(DivergenceSpec(alpha=4.0, rho=5000.0), norm_pair, tight)
    # a residual evaluation has no residual where a region is empty: the
    # grid's ratios exp(2y) span [e^-4, e^4], so at rho = 100 the region
    # above rho*l_u = 200 is empty, and at rho = 0.01 the region below
    # rho*l_l = 0.005
    for rho in (100.0, 0.01):
        spec = DivergenceSpec(alpha=4.0, rho=rho, eps0=0.01, eps1=0.01)
        assert _state_at(ThresholdPair(0.5, 2.0), spec, norm_pair, tight) is None


def test_stalled_path_is_nonconvergence(monkeypatch, norm_pair):
    # a fake residual pair whose root (u, v) = (-0.3 s, 0.3 s) in log
    # thresholds follows the radius scale s up to s = 0.5; beyond it the
    # regions degenerate, or the root leaves the box v >= 0
    def fake_state(mode):
        def state(l_l, l_u, alpha, rho, gv, x0, x1):
            s = math.sqrt((x0 - 1.0) / 0.12)  # x0 = 1 + 12 s^2 eps0 at alpha = 4
            shift = 0.0
            if s > 0.5 + 1e-9:
                if mode == "degenerate":
                    return None
                shift = 1.0
            return types.SimpleNamespace(r0=math.log(l_l) + 0.3 * s,
                                         r1=math.log(l_u) - 0.3 * s + shift,
                                         jacobian=lambda: np.eye(2))
        return state

    monkeypatch.setattr(lfd_solver, "_preflight", lambda *args: None)
    spec = DivergenceSpec(alpha=4.0, rho=1.0, eps0=0.01, eps1=0.01)
    grid = density.make_grid(-6.0, 6.0, 201)
    stall = (r"stalled past radius scale s = 0\.5 \(rho = 1\) at "
             r"\(l_l, l_u\) = \(0\.860708, 1\.16183\)")
    monkeypatch.setattr(lfd_solver, "_eval_state", fake_state("degenerate"))
    with pytest.raises(NonConvergenceError, match=stall + r"; best residual norm beyond "
                       r"it inf: no residual could be evaluated"):
        lfd_solver.solve_thresholds(spec, norm_pair, grid)
    monkeypatch.setattr(lfd_solver, "_eval_state", fake_state("rootless"))
    with pytest.raises(NonConvergenceError, match=stall + r"; best residual norm beyond "
                       r"it 0\.8\d* at \(l_l, l_u\) = \("):
        lfd_solver.solve_thresholds(spec, norm_pair, grid)


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("singular matrix"),
                                   ValueError("f(a) and f(b) must have different signs"),
                                   OverflowError("math range error")])
def test_preflight_numerical_failure_warns_and_solve_proceeds(monkeypatch, norm_pair,
                                                              error):
    def failing(*args):
        raise error

    monkeypatch.setattr(limits, "validate_eps", failing)
    spec = DivergenceSpec(alpha=4.0, rho=1.0, eps0=0.05, eps1=0.05)
    with pytest.warns(RuntimeWarning, match="feasibility preflight failed"):
        sol = lfd_solver.solve_thresholds(spec, norm_pair, density.make_grid(-9.0, 9.0, 801))
    assert sol.residual_norm < 1e-8


def test_preflight_lets_programming_errors_through(monkeypatch, norm_pair):
    def failing(*args):
        raise KeyError("eps0")

    monkeypatch.setattr(limits, "validate_eps", failing)
    with pytest.raises(KeyError, match="eps0"):
        lfd_solver.solve_thresholds(DivergenceSpec(alpha=4.0, rho=1.0, eps0=0.05, eps1=0.05),
                                    norm_pair, density.make_grid(-9.0, 9.0, 801))


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        DivergenceSpec(alpha=4.0, eps0=-0.01)
    with pytest.raises(ValueError):
        lfd_solver.solve_symmetric(-0.1, 4.0, 1.0,
                                   (density.gaussian(-1.0, 1.0),
                                    density.gaussian(1.0, 1.0)),
                                   density.make_grid(-9.0, 9.0, 201))
