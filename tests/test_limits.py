"""Maximum admissible radii: closed forms, the general boundary solver, and
the agreement between the two on the Gaussian pair where both apply.

The alpha = 1/2 closed forms are checked against hand-derivable endpoints
and a frozen boundary partner computed independently, and the general
solver is cross-validated against the closed form at ten boundary points.
Its printed multipliers are checked by rebuilding the touching density
with plain trapezoid sums, and its two axes against each other on the
mirror-symmetric Gaussian pair.  The touching family's whole-array member
is checked against the plain per-call formula, and its memo against trial
points evaluated twice.
"""

import math
import re
import warnings

import numpy as np
import pytest

from robustlrt import DivergenceSpec, density, lfd_solver, limits
from robustlrt.lfd_solver import InfeasibleEpsError
from robustlrt.limits import (
    EPS_MAX_A0,
    FeasibilityReport,
    InfeasiblePairError,
    NoBoundaryPointError,
)

# boundary partner of eps0 = 0.02 for the bimodal anchor problem (alpha = 4)
ANCHOR_PARTNER_AT_002 = 0.3203331564669265
ANCHOR_LAMBDA0 = 1.8367323852510415
ANCHOR_LAMBDA1 = 0.14914371569588966

# Bhattacharyya overlap of N(-1, 1) vs N(+1, 1)
GAUSS_OVERLAP = math.exp(-0.5)


# ---------------------------------------------------------------------------
# closed forms (alpha = 1/2)


def test_axis_maximum_constant():
    assert EPS_MAX_A0 == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=0, abs=0)
    assert EPS_MAX_A0 == pytest.approx(1.1715728752538097, rel=1e-15)


def test_hellinger_eps_max_endpoints():
    assert limits.hellinger_eps_max(0.0) == pytest.approx(EPS_MAX_A0, rel=1e-15)
    assert limits.hellinger_eps_max(1.0) == 0.0
    assert limits.hellinger_eps_max(GAUSS_OVERLAP) == pytest.approx(
        0.4149971718698646, rel=1e-14)
    # strictly decreasing in the overlap
    vals = [limits.hellinger_eps_max(a) for a in np.linspace(0.0, 1.0, 9)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_hellinger_eps_max_rejects_bad_overlap():
    for a in (-0.1, 1.1, 2.0):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            limits.hellinger_eps_max(a)


def test_hellinger_root_a_symmetry_and_range():
    assert limits.hellinger_root_a(0.3, 0.7) == pytest.approx(
        limits.hellinger_root_a(0.7, 0.3), rel=0, abs=0)
    for bad in (-0.01, 8.01):
        with pytest.raises(ValueError, match=r"\[0, 8\]"):
            limits.hellinger_root_a(bad, 0.1)
        with pytest.raises(ValueError, match=r"\[0, 8\]"):
            limits.hellinger_root_a(0.1, bad)


def test_hellinger_root_a_rejects_pairs_beyond_any_boundary():
    # (3, 3) lies outside every admissible ball pair: no overlap in [0, 1]
    with pytest.raises(InfeasiblePairError, match="infeasible pair"):
        limits.hellinger_root_a(3.0, 3.0)


def test_hellinger_diagonal_roundtrip():
    # symmetric radius -> critical overlap -> symmetric maximum is identity
    for e in np.linspace(1e-4, EPS_MAX_A0 * 0.999, 20):
        a = limits.hellinger_root_a(float(e), float(e))
        assert limits.hellinger_eps_max(a) == pytest.approx(float(e), abs=1e-10)


def test_hellinger_partner_no_boundary_point():
    # fixed radius already beyond the axis maximum for this overlap
    with pytest.raises(NoBoundaryPointError, match="exceeds the axis"):
        limits._hellinger_other(0.5, 3.0)
    # at the axis maximum exactly, the partner collapses to zero
    e_axis = 4.0 * (1.0 - 0.75)  # root of root_a(e, 0) = 0.75
    assert limits._hellinger_other(0.75, e_axis) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a, eps", [(-0.5, 0.1), (1.5, 0.1), (math.nan, 0.1),
                                    (0.5, -0.1), (0.5, math.nan), (0.5, math.inf)])
def test_hellinger_partner_rejects_bad_inputs(a, eps):
    with pytest.raises(ValueError, match=r"\[0, 1\]|finite nonnegative"):
        limits._hellinger_other(a, eps)


# ---------------------------------------------------------------------------
# general boundary solver


def test_general_matches_closed_form_on_gaussian_pair(norm_pair, norm_grid):
    a = GAUSS_OVERLAP
    e_hi = limits.hellinger_eps_max(a)
    for e0 in np.linspace(0.02, 0.95 * e_hi, 10):
        e1_closed = limits._hellinger_other(a, float(e0))
        e1_gen, lam0, lam1 = limits.max_eps_general(
            norm_pair, 0.5, norm_grid, (0, float(e0)))
        assert e1_gen == pytest.approx(e1_closed, abs=1e-12)
        assert lam0 > 0.0 and lam1 > 0.0


def test_general_partner_anchor_value(mix_nominals, mix_grid):
    with pytest.warns(RuntimeWarning, match="spans only"):
        e1, lam0, lam1 = limits.max_eps_general(
            mix_nominals, 4.0, mix_grid, (0, 0.02))
    assert e1 == pytest.approx(ANCHOR_PARTNER_AT_002, rel=1e-9)
    assert lam0 == pytest.approx(ANCHOR_LAMBDA0, rel=1e-7)
    assert lam1 == pytest.approx(ANCHOR_LAMBDA1, rel=1e-7)


def test_general_zero_radius_shortcuts(norm_pair, norm_grid):
    # pinning one radius at zero makes the shared density that nominal, so
    # the partner radius is the plain divergence and one multiplier is zero
    alpha = 4.0
    aa = alpha * (1.0 - alpha)
    e1, lam0, lam1 = limits.max_eps_general(norm_pair, alpha, norm_grid, (0, 0.0))
    lf0 = np.log(density.evaluate(norm_pair[0], norm_grid.points))
    lf1 = np.log(density.evaluate(norm_pair[1], norm_grid.points))
    m = float(np.dot(np.exp(alpha * lf0 + (1 - alpha) * lf1), norm_grid.weights))
    assert e1 == pytest.approx((1.0 - m) / aa, rel=1e-12)
    assert (lam0, lam1) == (abs(1.0 - alpha), 0.0)

    e0, lam0, lam1 = limits.max_eps_general(norm_pair, alpha, norm_grid, (1, 0.0))
    m = float(np.dot(np.exp(alpha * lf1 + (1 - alpha) * lf0), norm_grid.weights))
    assert e0 == pytest.approx((1.0 - m) / aa, rel=1e-12)
    assert (lam0, lam1) == (0.0, abs(1.0 - alpha))

    # a fixed radius at its axis maximum makes the shared density the other
    # nominal: partner 0 and the multipliers swapped
    assert limits.max_eps_general(norm_pair, alpha, norm_grid, (0, e0)) == (
        0.0, 0.0, abs(1.0 - alpha))
    assert limits.max_eps_general(norm_pair, alpha, norm_grid, (1, e1)) == (
        0.0, abs(1.0 - alpha), 0.0)


def _trapezoid(values, y):
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(y)))


@pytest.mark.parametrize("pair", ["mix", "norm"])
@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("idx", [0, 1])
def test_touching_density_from_printed_multipliers(request, pair, alpha, idx):
    # g = ((lambda0 f0^(1-a) + lambda1 f1^(1-a)) / |1-a|)^(1/(1-a)) must be a
    # density at the printed radii from both nominals, whichever is fixed
    nominals = request.getfixturevalue(f"{pair}_nominals" if pair == "mix" else "norm_pair")
    grid = request.getfixturevalue(f"{pair}_grid")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        other, lam0, lam1 = limits.max_eps_general(nominals, alpha, grid, (idx, 0.02))
    eps = (0.02, other) if idx == 0 else (other, 0.02)
    y = grid.points
    lf0, lf1 = (np.log(density.evaluate(f, y)) for f in nominals)
    b = 1.0 - alpha
    g = np.exp((np.logaddexp(math.log(lam0) + b * lf0, math.log(lam1) + b * lf1)
                - math.log(abs(b))) / b)
    assert _trapezoid(g, y) == pytest.approx(1.0, abs=1e-9)
    for lf, e in zip((lf0, lf1), eps):
        moment = _trapezoid(np.exp(alpha * np.log(g) + b * lf), y)
        assert (1.0 - moment) / (alpha * b) == pytest.approx(e, abs=1e-9)


@pytest.mark.parametrize("alpha", [-1.0, 2.0, 4.0])
@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_fixing_eps1_mirrors_fixing_eps0(norm_pair, norm_grid, alpha, eps):
    # f1(y) = f0(-y) on a grid symmetric about 0: the two axes are mirror
    # images, so fixing either radius gives the same partner
    e0, lam0, lam1 = limits.max_eps_general(norm_pair, alpha, norm_grid, (1, eps))
    e1, mu0, mu1 = limits.max_eps_general(norm_pair, alpha, norm_grid, (0, eps))
    assert e0 == pytest.approx(e1, rel=1e-10)
    assert (lam0, lam1) == pytest.approx((mu1, mu0), rel=1e-10)


def test_touching_point_takes_few_evaluations(count_calls, mix_nominals, mix_grid):
    # one scalar root in v by Newton from v = 0 takes 10 grid integrals here
    # (a grown bracket and Brent's method took 12); a march with nested root
    # finds spent about 1700
    calls = count_calls(limits, "_touching")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        e1, _, _ = limits.max_eps_general(mix_nominals, 4.0, mix_grid, (0, 0.02))
    assert e1 == pytest.approx(ANCHOR_PARTNER_AT_002, rel=1e-9)
    assert 0 < calls[0] < 100


def test_logaddexp_matches_numpy():
    rng = np.random.default_rng(17)
    x = rng.uniform(-800.0, 800.0, 20000)
    # far pairs, and near pairs whose sum can cancel towards 0
    y = np.concatenate([rng.uniform(-800.0, 800.0, 10000),
                        x[10000:] + rng.normal(0.0, 3.0, 10000)])
    want, got = np.logaddexp(x, y), limits._logaddexp(x, y)
    # the ulp of max(x, y) + log1p(...) is set by its larger operand: where
    # the sum cancels near 0, np.logaddexp's own result is no better
    scale = np.maximum(np.abs(want), np.abs(np.maximum(x, y)))
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(scale))

    ties = rng.uniform(-800.0, 800.0, 1000)
    assert np.array_equal(limits._logaddexp(ties, ties), np.logaddexp(ties, ties))

    special = np.array([-np.inf, np.inf, np.nan, -800.0, -1.0, 0.0, 2.5, 800.0])
    sx, sy = np.meshgrid(special, special)
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(sx, sy)
    assert np.array_equal(limits._logaddexp(sx, sy), want, equal_nan=True)


def _touching_reference(lf0, lf1, w, alpha, v):
    # the touching member as computed before the family precomputed its
    # arrays: one libm logaddexp per cell and masks found on every call
    b = 1.0 - alpha
    lh = np.logaddexp(b * lf0, v + b * lf1) / b
    top = float(lh.max())
    log_norm = top + math.log(float(np.dot(np.exp(lh - top), w)))
    lg_a = alpha * (lh - log_norm)
    radii = []
    with np.errstate(invalid="ignore"):
        for lf in (lf0, lf1):
            terms = np.where(np.isneginf(lf), 0.0, np.exp(lg_a + b * lf))
            radii.append((1.0 - float(np.dot(terms, w))) / (alpha * b))
    return log_norm, radii[0], radii[1]


def _mix_or_wide(request, norm_pair, pair):
    if pair == "mix":
        return request.getfixturevalue("mix_nominals"), request.getfixturevalue("mix_grid")
    return norm_pair, density.make_grid(-40.0, 40.0, 801)


@pytest.mark.parametrize("pair", ["mix", "wide"])
@pytest.mark.parametrize("alpha", [-20.0, -1.0, 0.5, 2.0, 4.0, 30.0])
def test_touching_matches_the_plain_formula(request, norm_pair, pair, alpha):
    # on the wide grid each Gaussian underflows to 0 in 30 cells, so the
    # masks of vanishing nominals are exercised for every sign of alpha
    nominals, grid = _mix_or_wide(request, norm_pair, pair)
    with np.errstate(divide="ignore"):
        lf0, lf1 = (np.log(density.evaluate(f, grid.points)) for f in nominals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        family = limits._family(nominals, alpha, grid)
    if pair == "wide":
        assert family.vanish0.sum() == family.vanish1.sum() == 30
    for v in (-8.0, -1.0, 0.0, 0.37, 1.0, 8.0, 100.0):
        want = _touching_reference(lf0, lf1, grid.weights, alpha, v)
        assert limits._touching(family, v)[:3] == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("pair", ["mix", "wide"])
@pytest.mark.parametrize("alpha", [-20.0, -1.0, 0.5, 2.0, 4.0, 30.0])
def test_touching_slopes_match_central_differences(request, norm_pair, pair, alpha):
    # Richardson's extrapolation of central differences at h = 1/64 and
    # 1/128; the radii near 0 are 1 - M with M near 1, so a smaller h would
    # measure their rounding.  On the wide grid each nominal vanishes in 30
    # cells, where the slopes must stay finite and quiet
    nominals, grid = _mix_or_wide(request, norm_pair, pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        family = limits._family(nominals, alpha, grid)

    def central(v, h):
        up, down = limits._touching(family, v + h), limits._touching(family, v - h)
        return np.subtract(up[1:3], down[1:3]) / (2.0 * h)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (-8.0, -1.0, 0.0, 0.37, 1.0, 8.0):
            slopes = limits._touching(family, v)[3:]
            assert np.all(np.isfinite(slopes))
            want = (4.0 * central(v, 1.0 / 128.0) - central(v, 1.0 / 64.0)) / 3.0
            assert slopes == pytest.approx(want, rel=1e-5, abs=0.0), v


def test_no_trial_point_is_evaluated_twice(monkeypatch, mix_nominals, mix_grid, mix_spec):
    # a sweep of roots on one family starts each root at the one before, and
    # its first at v = 0, where every root search starts; each is computed once
    real = limits._touching
    calls = []

    def recorded(*args):
        # the first argument identifies the family; keeping it alive keeps
        # its id unique
        calls.append((args[0], args[-1]))
        return real(*args)

    monkeypatch.setattr(limits, "_touching", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        limits.eps_surface(4.0, 9, nominals=mix_nominals, grid=mix_grid)
        limits.max_eps_general(mix_nominals, 4.0, mix_grid, (0, 0.02))
        limits.validate_eps(mix_nominals, mix_spec, mix_grid)
    per_family = {}
    for family, v in calls:
        per_family.setdefault(id(family), []).append(v)
    assert len(per_family) == 3
    for vs in per_family.values():
        assert len(vs) == len(set(vs)), sorted(vs)


def test_fixed_radius_beyond_axis_maximum_names_it(mix_nominals, mix_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        axis_max, _, _ = limits.max_eps_general(mix_nominals, 4.0, mix_grid, (1, 0.0))
        with pytest.raises(NoBoundaryPointError, match="beyond its axis maximum") as exc:
            limits.max_eps_general(mix_nominals, 4.0, mix_grid, (0, axis_max + 0.01))
    assert "%.10g" % axis_max in str(exc.value)
    # the solver refuses such a pair by its ray, whose boundary point lies
    # near the eps0 axis at no more than the axis maximum
    with pytest.raises(InfeasibleEpsError, match="not strictly inside") as exc:
        lfd_solver.solve_thresholds(
            DivergenceSpec(alpha=4.0, eps0=axis_max + 0.01, eps1=0.01), mix_nominals, mix_grid)
    e0, e1 = map(float, re.search(r"meets the boundary at \((\S+), (\S+)\)",
                                  str(exc.value)).groups())
    assert 0.0 < e0 <= axis_max and e1 == pytest.approx(0.01 * e0 / (axis_max + 0.01),
                                                          rel=1e-5)


def test_general_rejects_bad_arguments(norm_pair, norm_grid):
    with pytest.raises(ValueError, match="index"):
        limits.max_eps_general(norm_pair, 4.0, norm_grid, (2, 0.1))
    with pytest.raises(ValueError, match="nonnegative"):
        limits.max_eps_general(norm_pair, 4.0, norm_grid, (0, -0.1))
    with pytest.raises(ValueError, match="nonnegative"):
        limits.max_eps_general(norm_pair, 4.0, norm_grid, (0, math.nan))


def test_general_fixed_radius_beyond_any_boundary(norm_pair, norm_grid):
    # x(alpha, eps) <= 0 means no ball of that radius exists at all
    with pytest.raises(NoBoundaryPointError, match="not positive"):
        limits.max_eps_general(norm_pair, 0.5, norm_grid, (0, 4.1))


def test_bounded_ratio_warning_names_the_caller(mix_nominals, mix_grid, mix_spec):
    # each public boundary function warns at the line that called it
    calls = [
        lambda: limits.max_eps_general(mix_nominals, 4.0, mix_grid, (0, 0.02)),
        lambda: limits.eps_surface(4.0, 3, nominals=mix_nominals, grid=mix_grid),
        lambda: limits.validate_eps(mix_nominals, mix_spec, mix_grid),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        spans = [w for w in caught if "spans only" in str(w.message)]
        assert len(spans) == 1
        assert spans[0].filename == __file__


def test_bounded_ratio_warning_contract(mix_nominals, mix_grid, norm_pair,
                                        norm_grid):
    # the bimodal pair has a ratio trapped in a few decades -> warn
    with pytest.warns(RuntimeWarning, match="spans only"):
        limits.max_eps_general(mix_nominals, 4.0, mix_grid, (0, 0.0))
    # the Gaussian pair sweeps far past both rails on this grid -> silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limits.max_eps_general(norm_pair, 4.0, norm_grid, (0, 0.0))


# ---------------------------------------------------------------------------
# boundary surface tabulation


def test_surface_closed_form_default_overlap():
    rep = limits.eps_surface(0.5, 9)
    assert isinstance(rep, FeasibilityReport)
    assert rep.mode == "hellinger"
    assert rep.a_value == 0.0
    assert len(rep.pairs) == 9
    # widest case: partner of a zero radius is 4, apex is the symmetric max
    assert rep.pairs[0] == pytest.approx((0.0, 4.0), abs=1e-12)
    assert rep.pairs[-1][0] == pytest.approx(EPS_MAX_A0, rel=1e-12)
    assert rep.pairs[-1][1] == pytest.approx(EPS_MAX_A0, abs=1e-9)
    partners = [p[1] for p in rep.pairs]
    assert all(x > y for x, y in zip(partners, partners[1:]))
    assert rep.lambda0 > 0.0 and rep.lambda1 > 0.0


def test_surface_overlap_from_nominals(norm_pair, norm_grid):
    rep = limits.eps_surface(0.5, 5, nominals=norm_pair, grid=norm_grid)
    assert rep.a_value == pytest.approx(GAUSS_OVERLAP, rel=1e-12)
    assert rep.pairs[-1][1] == pytest.approx(0.4149971718698646, abs=1e-9)


def test_surface_general_mode(mix_nominals, mix_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = limits.eps_surface(4.0, 4, nominals=mix_nominals, grid=mix_grid)
    assert rep.mode == "general"
    assert math.isnan(rep.a_value)
    assert len(rep.pairs) == 4
    assert rep.pairs[0][0] == 0.0
    partners = [p[1] for p in rep.pairs]
    assert all(x > y for x, y in zip(partners, partners[1:]))
    assert partners[-1] >= 0.0
    assert rep.lambda0 > 0.0 and rep.lambda1 > 0.0


def test_surface_builds_the_family_once(count_calls, mix_nominals, mix_grid):
    # the two closed-form ends need one moment each, once for all n + 1
    # partners (a family per partner would take 20)
    calls = count_calls(limits, "_moment_alpha")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = limits.eps_surface(4.0, 9, nominals=mix_nominals, grid=mix_grid)
    assert len(rep.pairs) == 9
    assert calls[0] == 2


@pytest.mark.parametrize("alpha, most", [(4.0, 40), (2.0, 36)])
def test_surface_starts_each_root_at_the_last(count_calls, mix_nominals, mix_grid,
                                              alpha, most):
    # 7 interior roots: from v = 0 each took a bracket and a Brent solve, 55
    # and 52 grid integrals in all; Newton from the root before takes 38 and
    # 33, and Newton from v = 0 would take 37 and 39
    calls = count_calls(limits, "_touching")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = limits.eps_surface(alpha, 9, nominals=mix_nominals, grid=mix_grid)
    assert len(rep.pairs) == 9
    assert calls[0] <= most


def test_surface_argument_validation(norm_pair, norm_grid):
    with pytest.raises(ValueError, match="at least 2"):
        limits.eps_surface(0.5, 1)
    with pytest.raises(ValueError, match="nominals and a grid"):
        limits.eps_surface(4.0, 5)
    with pytest.raises(ValueError, match="grid is required"):
        limits.eps_surface(0.5, 5, nominals=norm_pair)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        limits.eps_surface(0.5, 5, a=1.5)


# ---------------------------------------------------------------------------
# radius pair validation


def test_validate_eps_signs(mix_nominals, mix_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ok, margin = limits.validate_eps(
            mix_nominals, DivergenceSpec(alpha=4.0, eps0=0.02, eps1=0.03),
            mix_grid)
        bad, neg = limits.validate_eps(
            mix_nominals, DivergenceSpec(alpha=4.0, eps0=0.02, eps1=0.40),
            mix_grid)
    assert ok is True and margin > 0.0
    assert bad is False and neg < 0.0


# margins on the anchor problem (4001 points) from a search over the ray
# parameter that solved the fixed-eps0 boundary at each step; the one root
# on the touching family must land on the same boundary point
VALIDATE_MARGINS = [
    (4.0, 0.02, 0.03, 0.09412875714013355),
    (4.0, 0.02, 0.40, -0.04733794587722001),
    (-1.0, 0.031, 0.046, 0.04702378292720138),
    (0.5, 0.02, 0.03, 0.08385728810573562),
    (2.0, 0.05, 0.01, 0.12246835033441637),
    (4.0, 0.0, 0.0, 0.12537544500438427),
]


@pytest.mark.parametrize("alpha, eps0, eps1, margin", VALIDATE_MARGINS)
def test_validate_eps_is_one_root(count_calls, mix_nominals, mix_grid,
                                  alpha, eps0, eps1, margin):
    # one Newton root on the touching family takes 1-8 grid integrals here
    # (a bracket and a Brent solve took 1-10); a ray search over boundary
    # solves took 103-456
    calls = count_calls(limits, "_touching")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ok, got = limits.validate_eps(
            mix_nominals, DivergenceSpec(alpha=alpha, eps0=eps0, eps1=eps1), mix_grid)
    assert got == pytest.approx(margin, rel=1e-9)
    assert ok is (margin > 0.0)
    assert 0 < calls[0] < 30


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0, 4.0])
def test_validate_eps_agrees_with_the_fixed_radius_boundary(mix_nominals, mix_grid, alpha):
    # a pair is feasible exactly when eps1 is below the partner of eps0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        axis_max, _, _ = limits.max_eps_general(mix_nominals, alpha, mix_grid, (1, 0.0))
        for eps0 in (0.1 * axis_max, 0.5 * axis_max):
            partner, _, _ = limits.max_eps_general(mix_nominals, alpha, mix_grid, (0, eps0))
            for f in (0.5, 0.9, 1.1, 1.5):
                spec = DivergenceSpec(alpha=alpha, eps0=eps0, eps1=f * partner)
                ok, margin = limits.validate_eps(mix_nominals, spec, mix_grid)
                assert ok is (f < 1.0), (eps0, f, margin)


@pytest.mark.parametrize("pair", ["mix", "norm"])
@pytest.mark.parametrize("alpha", [-10.0, -1.0, 4.0])
def test_validate_eps_on_an_axis_takes_the_closed_form_end(request, pair, alpha):
    # a ray along an axis ends at the partner of a zero radius; a root search
    # there would rest on the far radius, which only rounding keeps from zero
    nominals = request.getfixturevalue(f"{pair}_nominals" if pair == "mix" else "norm_pair")
    grid = request.getfixturevalue(f"{pair}_grid")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for idx in (0, 1):
            axis_max, _, _ = limits.max_eps_general(nominals, alpha, grid, (1 - idx, 0.0))
            eps = (0.05, 0.0) if idx == 0 else (0.0, 0.05)
            spec = DivergenceSpec(alpha=alpha, eps0=eps[0], eps1=eps[1])
            assert limits.validate_eps(nominals, spec, grid) == (True, axis_max - 0.05)
