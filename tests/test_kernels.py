"""Grid kernels: region quadrature, interior power integrals, crossing knots.

The kernels are checked against a reference: plain trapezoid sums over the
grid that `augment_with_crossings` returns, with each cell assigned to the
region of its midpoint l, and for the interior integrals the bracket in
its docstring form Br = K(L - U)/(L - KU + (K - 1)t).  That grid takes its
crossing points from `region_split`, as the kernels do, so tests with
exact knots pin those points: one knot for a piece narrower than the float
spacing of y or for equal thresholds, none for a crossing that rounds onto
a knot or for a clipped end.  A random-grid test draws 200 grids and
densities from seeded numpy generators (so that no literal in the package
changes its cases), including ties between the thresholds, thresholds on
knot values of l, and f0 = 0.  The solver's path, one region split shared
by the masses and an I2 geometry reused for every K, must match
`region_masses` and a fresh geometry per K exactly, and the derivatives of
the power integrals and region masses must match central differences.
"""

import math
import warnings

import numpy as np
import pytest

from robustlrt import density, kernels


def _random_instance(seed, n=257):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.uniform(-4.0, 4.0, n))
    f0 = np.exp(-0.5 * (pts + rng.uniform(0.2, 1.0)) ** 2) + 1e-6
    f1 = np.exp(-0.5 * (pts - rng.uniform(0.2, 1.0)) ** 2) + 1e-6
    return pts, f0, f1, f1 / f0


def _reference_cells(l, f0, f1, pts, lo, hi):
    """Augmented knots, their l, f0, f1 and each cell's region by its midpoint l."""
    y, l_aug, (g0, g1) = kernels.augment_with_crossings(pts, l, [f0, f1], lo, hi)
    mid = 0.5 * (l_aug[:-1] + l_aug[1:])
    region = np.where(mid < lo, 1, np.where(mid > hi, 3, 2))
    return y, l_aug, g0, g1, region


def _cell_sums(y, v, in_region):
    return float(np.where(in_region, 0.5 * np.diff(y) * (v[:-1] + v[1:]), 0.0).sum())


def reference_region_masses(l, f0, f1, points, lo, hi):
    y, _, g0, g1, region = _reference_cells(l, f0, f1, points, lo, hi)
    return tuple(_cell_sums(y, g, region == r) for g in (g0, g1) for r in (1, 2, 3))


def reference_i2_power_integrals(l, f0, f1, points, lo, hi, rho, beta, alpha, kb, lb_, ub):
    y, l_aug, g0, g1, region = _reference_cells(l, f0, f1, points, lo, hi)
    # knots outside I2 may give a negative bracket; their cells are masked out
    with np.errstate(all="ignore"):
        t = (l_aug / rho) ** beta
        br = kb * (lb_ - ub) / (lb_ - kb * ub + (kb - 1.0) * t)
        integrands = (br ** (1.0 / beta) * g1,
                      br ** (alpha / beta) * (l_aug / rho) ** alpha * g0,
                      br ** (alpha / beta) * g1)
    return tuple(_cell_sums(y, v, region == 2) for v in integrands)


def _i2_powers(l, f0, f1, points, lo, hi, rho, beta, alpha, kb, lb_, ub):
    """(S, T0, T1) on a fresh region split and I2 geometry."""
    sp = kernels.region_split(kernels.grid_values(points, f0, f1, l), lo, hi)
    return kernels.i2_powers(kernels.i2_geometry(sp, rho, beta, alpha, lb_, ub), kb)


@pytest.mark.parametrize("seed", range(6))
def test_region_masses_partition_total_mass(seed):
    pts, f0, f1, l = _random_instance(seed)
    lo, hi = 0.6, 1.7
    a0, m0, b0, a1, m1, b1 = kernels.region_masses(l, f0, f1, pts, lo, hi)
    assert a0 + m0 + b0 == pytest.approx(np.trapezoid(f0, pts), rel=1e-12)
    assert a1 + m1 + b1 == pytest.approx(np.trapezoid(f1, pts), rel=1e-12)
    assert min(a0, m0, b0, a1, m1, b1) >= 0.0


def test_region_masses_monotone_ratio_reduces_to_interval_integrals():
    # strictly increasing ratio: regions are intervals, so the split-cell
    # quadrature must agree with direct trapezoid integrals over each piece
    grid = density.make_grid(-6.0, 6.0, 1201)
    pts = grid.points
    f0 = density.evaluate(density.gaussian(-1.0, 1.0), pts)
    f1 = density.evaluate(density.gaussian(1.0, 1.0), pts)
    l = f1 / f0  # exp(2y), strictly increasing
    lo, hi = 0.5, 2.0
    # the kernel splits cells where the piecewise-linear ratio crosses the
    # thresholds; inverse interpolation finds those same points exactly
    y_lo = float(np.interp(lo, l, pts))
    y_hi = float(np.interp(hi, l, pts))
    a0, m0, b0, a1, m1, b1 = kernels.region_masses(l, f0, f1, pts, lo, hi)

    def piece(f, a, b):
        inner = pts[(pts > a) & (pts < b)]
        xs = np.concatenate([[a], inner, [b]])
        return np.trapezoid(np.interp(xs, pts, f), xs)

    assert a0 == pytest.approx(piece(f0, pts[0], y_lo), rel=1e-12)
    assert m0 == pytest.approx(piece(f0, y_lo, y_hi), rel=1e-12)
    assert b0 == pytest.approx(piece(f0, y_hi, pts[-1]), rel=1e-12)
    assert a1 == pytest.approx(piece(f1, pts[0], y_lo), rel=1e-12)
    assert m1 == pytest.approx(piece(f1, y_lo, y_hi), rel=1e-12)
    assert b1 == pytest.approx(piece(f1, y_hi, pts[-1]), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_backend_twins_agree_on_region_masses(seed):
    # the twin of the kernel is the midpoint reference on the augmented grid
    pts, f0, f1, l = _random_instance(seed, n=401)
    lo = float(np.quantile(l, 0.3))
    hi = float(np.quantile(l, 0.8))
    got = kernels.region_masses(l, f0, f1, pts, lo, hi)
    want = reference_region_masses(l, f0, f1, pts, lo, hi)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_backend_twins_agree_on_interior_power_integrals(seed):
    # the twin of the kernel is the docstring bracket on the augmented grid
    pts, f0, f1, l = _random_instance(seed, n=401)
    rng = np.random.default_rng(1000 + seed)
    rho = float(rng.uniform(0.8, 1.3))
    ll = float(rng.uniform(0.55, 0.9))
    lu = float(rng.uniform(1.2, 1.9))
    alpha = float(rng.choice([-3.0, 0.5, 4.0]))
    beta = alpha - 1.0
    k = float(rng.uniform(0.4, 0.9))
    args = (l, f0, f1, pts, rho * ll, rho * lu, rho, beta, alpha,
            k ** beta, ll ** beta, lu ** beta)
    got = _i2_powers(*args)
    want = reference_i2_power_integrals(*args)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def _split_path(l, f0, f1, pts, lo, hi, rho, beta, alpha, lb_, ub):
    """Masses and I2 geometry from one shared region split, geometry first."""
    sp = kernels.region_split(kernels.grid_values(pts, f0, f1, l), lo, hi)
    geo = kernels.i2_geometry(sp, rho, beta, alpha, lb_, ub)
    return kernels.split_masses(sp), geo


@pytest.mark.parametrize("seed", range(4))
def test_one_geometry_serves_every_k(seed):
    # a geometry built once per threshold pair gives, at each K, exactly what
    # a fresh split and geometry give, S alone included; its split gives
    # exactly the masses that region_masses computes alone
    pts, f0, f1, l = _random_instance(seed, n=401)
    rho, ll, lu, alpha = 0.9, 0.7, 1.6, (4.0, -3.0, 0.5, 2.0)[seed]
    beta = alpha - 1.0
    lo, hi, lb_, ub = rho * ll, rho * lu, ll ** beta, lu ** beta
    masses, geo = _split_path(l, f0, f1, pts, lo, hi, rho, beta, alpha, lb_, ub)
    assert masses == kernels.region_masses(l, f0, f1, pts, lo, hi)
    for k in (0.3, 0.55, 0.8, 1.7, 0.55):
        kb = k ** beta
        one_shot = _i2_powers(l, f0, f1, pts, lo, hi, rho, beta, alpha, kb, lb_, ub)
        assert kernels.i2_powers(geo, kb) == one_shot
        assert kernels.i2_s(geo, kb)[0] == one_shot[0]


@pytest.mark.parametrize("seed", range(4))
def test_power_derivatives_match_central_differences(seed):
    # along l_l (lo = rho*l_l and L = l_l^beta move together), along l_u and
    # along K, as the solver moves them; central differences with relative
    # step 1e-6 are good to about 1e-9 here
    pts, f0, f1, l = _random_instance(seed, n=401)
    rho, ll, lu, kb, alpha = 0.9, 0.7, 1.6, 0.6, (4.0, -3.0, 0.5, 2.0)[seed]
    beta = alpha - 1.0

    def state(ll=ll, lu=lu, kb=kb):
        sp = kernels.region_split(kernels.grid_values(pts, f0, f1, l), rho * ll, rho * lu)
        geo = kernels.i2_geometry(sp, rho, beta, alpha, ll ** beta, lu ** beta)
        masses = np.array(kernels.split_masses(sp))[[0, 2, 3, 5]]
        return geo, np.array(kernels.i2_powers(geo, kb)), masses

    geo = state()[0]
    d, dm = kernels.i2_power_derivatives(geo, kb)
    got = np.column_stack((beta * ll ** beta * d[:, 0] + d[:, 3],
                           beta * lu ** beta * d[:, 1] + d[:, 4], kb * d[:, 2]))
    h = 1e-6
    moves = [{"ll": ll * math.exp(h)}, {"ll": ll * math.exp(-h)}, {"lu": lu * math.exp(h)},
             {"lu": lu * math.exp(-h)}, {"kb": kb * math.exp(h)}, {"kb": kb * math.exp(-h)}]
    states = [state(**m) for m in moves]
    want = np.column_stack([(states[i][1] - states[i + 1][1]) / (2 * h) for i in (0, 2, 4)])
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * np.abs(want).max())
    # A0, B0, A1, B1 in (log l_l, log l_u): only the crossing cells move them
    want_m = np.column_stack([(states[i][2] - states[i + 1][2]) / (2 * h) for i in (0, 2)])
    got_m = np.array(((dm[0, 0], 0.0), (0.0, dm[0, 1]), (dm[1, 0], 0.0), (0.0, dm[1, 1])))
    np.testing.assert_allclose(got_m, want_m, rtol=1e-7, atol=1e-9 * np.abs(want_m).max())


def reference_power_derivatives(geo, kb):
    """`kernels.i2_power_derivatives` in whole-array form: the crossing-cell
    terms as numpy arrays over the piece ends, summed by numpy."""
    logbr, powers = kernels._i2_integrands(geo, kb)
    w, p = np.array((geo.w1, geo.w0, geo.w1)), np.array(powers)
    order = np.array((1.0, geo.alpha, geo.alpha)) / geo.beta
    br = np.exp(logbr)
    inv_ul = math.exp(-geo.log_ul)
    c = math.copysign(inv_ul, geo.beta)
    dlog = np.array((c * (br / kb - 1.0), c * (1.0 - br), (inv_ul / (kb * kb)) * geo.tl * br))
    with np.errstate(over="ignore", invalid="ignore"):
        q = w * p
        fixed = 0.5 * order[:, None] * (q @ dlog.T)
        up, t1, t2 = geo.up, geo.t1, geo.t2
        n = up.size
        e = np.arange(w.shape[1] - 2 * n, w.shape[1])
        o = np.concatenate((e[n:], e[:n]))
        at_lo = np.concatenate((up, ~up))
        rate = np.tile(0.5 / (np.abs(geo.dl) * (t2 - t1)), 2)
        move = np.where(at_lo, geo.lo, -geo.hi) * rate * np.concatenate((t1 > 0.0, t2 < 1.0))
        own_l = np.where(at_lo, -geo.beta * geo.lb * dlog[0, e], -geo.beta * geo.ub * dlog[1, e])
        own_l = order[:, None] * own_l + np.array((0.0, geo.alpha, 0.0))[:, None]
        ends = (move * (p[:, e] * (w[:, o] - 2.0 * w[:, e]) - q[:, o])
                + 0.5 * q[:, e] * own_l * (move != 0.0))
        moved = 2.0 * move * w[:2, e]
    cols = np.column_stack((ends[:, at_lo].sum(axis=1), ends[:, ~at_lo].sum(axis=1)))
    masses = np.array(((moved[1, at_lo].sum(), moved[1, ~at_lo].sum()),
                       (moved[0, at_lo].sum(), moved[0, ~at_lo].sum())))
    return np.hstack((fixed, cols)), masses


def test_power_derivatives_equal_the_array_form():
    # the crossing-cell terms, worked in Python floats, are bit for bit those
    # of the whole-array form, on random grids and on a pair whose ratio
    # crosses the thresholds in 26 cells each
    seven = density.gaussian_mixture([(1.0 / 7.0, m, 0.6) for m in range(-6, 7, 2)])
    pts = np.linspace(-10.0, 11.0, 4001)
    f0, f1 = density.evaluate(seven, pts), density.evaluate(density.shifted(seven, 0.7), pts)
    cases = [(pts, f0, f1, density.ratio_values(f0, f1), 0.7 * rho, 1.4 * rho, rho, alpha, k)
             for rho, alpha, k in ((1.0, 4.0, 0.7), (0.8, 0.5, 1.3), (1.2, -1.0, 0.9))]
    for seed in range(200):
        rng = np.random.default_rng([7, seed])
        pts, f0, f1, l, lo, hi = _random_kernel_problem(rng)
        rho, k = rng.uniform(0.5, 2.0), rng.uniform(0.25, 4.0)
        cases.append((pts, f0, f1, l, lo, hi, rho, float(rng.choice([-3.0, 0.5, 4.0])), k))
    most = 0
    for pts, f0, f1, l, lo, hi, rho, alpha, k in cases:
        if lo == hi:
            continue
        beta = alpha - 1.0
        sp = kernels.region_split(kernels.grid_values(pts, f0, f1, l), lo, hi)
        geo = kernels.i2_geometry(sp, rho, beta, alpha, (lo / rho) ** beta, (hi / rho) ** beta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = kernels.i2_power_derivatives(geo, k ** beta)
            want = reference_power_derivatives(geo, k ** beta)
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()
        most = max(most, geo.up.size)
    assert most == 26


def _random_kernel_problem(rng):
    """2 to 40 knots 0.01 to 1 apart from a start in [-5, 5], density values 0
    (about a quarter of them) or in [0.5, 10], and thresholds lo <= hi in
    [0.01, 100]: each on a knot value of l half the time, and equal in about
    a fifth of the pairs."""
    n = int(rng.integers(2, 41))
    pts = rng.uniform(-5.0, 5.0) + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0,
                                                                                 n - 1))))
    f0, f1 = np.where(rng.random((2, n)) < 0.25, 0.0, rng.uniform(0.5, 10.0, (2, n)))
    l = density.ratio_values(f0, f1)
    knot_values = sorted({float(v) for v in l if 0.0 < v < np.inf})

    def threshold():
        if knot_values and rng.random() < 0.5:
            return float(rng.choice(knot_values))
        return float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))

    lo = threshold()
    hi = lo
    while rng.random() >= 0.2 and hi == lo:
        hi = threshold()
    lo, hi = min(lo, hi), max(lo, hi)
    return pts, f0, f1, l, lo, hi


def test_kernels_match_reference_on_random_grids():
    # 200 seeded cases; each kind of edge case must come up among them
    on_knot = ties = zeros = 0
    for seed in range(200):
        rng = np.random.default_rng([7, seed])
        pts, f0, f1, l, lo, hi = _random_kernel_problem(rng)
        rho, k = rng.uniform(0.5, 2.0), rng.uniform(0.25, 4.0)
        alpha = float(rng.choice([-3.0, -0.5, 0.5, 2.0, 4.0]))
        on_knot += lo in l or hi in l
        ties += lo == hi
        zeros += not (f0.all() and f1.all())
        _check_kernels_against_reference(f"seed {seed}", pts, f0, f1, l, lo, hi, rho, alpha, k)
    assert min(on_knot, ties, zeros) >= 20


def _check_kernels_against_reference(case, pts, f0, f1, l, lo, hi, rho, alpha, k):
    masses = kernels.region_masses(l, f0, f1, pts, lo, hi)
    assert min(masses) >= 0.0, case
    assert sum(masses[:3]) == pytest.approx(np.trapezoid(f0, pts), rel=1e-12), case
    assert sum(masses[3:]) == pytest.approx(np.trapezoid(f1, pts), rel=1e-12), case
    scale = np.trapezoid(f0 + f1, pts)
    np.testing.assert_allclose(masses, reference_region_masses(l, f0, f1, pts, lo, hi),
                               rtol=1e-10, atol=1e-14 * scale, err_msg=case)
    if lo < hi:  # the bracket is 0/0 for equal thresholds, which the solver never passes
        beta = alpha - 1.0
        lb_, ub, kb = (lo / rho) ** beta, (hi / rho) ** beta, k ** beta
        args = (l, f0, f1, pts, lo, hi, rho, beta, alpha, kb, lb_, ub)
        want = reference_i2_power_integrals(*args)
        # the solver's path: one split for the masses and the geometry
        shared_masses, geo = _split_path(l, f0, f1, pts, lo, hi, rho, beta, alpha, lb_, ub)
        assert shared_masses == masses, case
        powers = kernels.i2_powers(geo, kb)
        np.testing.assert_allclose(powers, want, rtol=1e-10, atol=1e-14, err_msg=case)
        assert kernels.i2_s(geo, kb)[0] == powers[0], case


def test_cell_with_infinite_ratio_end_lies_in_upper_region():
    # f0 vanishes at the first knot, so l = inf there; the linear ratio
    # stays above every finite threshold until the cell's far end
    pts = np.array([0.0, 1.0, 2.0])
    f0 = np.array([0.0, 1.0, 1.0])
    f1 = np.array([1.0, 1.0, 1.0])
    l = density.ratio_values(f0, f1)
    a0, m0, b0, a1, m1, b1 = kernels.region_masses(l, f0, f1, pts, 0.5, 2.0)
    assert (a0, m0, b0) == (0.0, 1.0, 0.5)
    assert (a1, m1, b1) == (0.0, 1.0, 1.0)
    s, t0, t1 = _i2_powers(l, f0, f1, pts, 0.5, 2.0, 1.0, 3.0, 4.0, 0.5 ** 3, 0.5 ** 3,
                           2.0 ** 3)
    assert np.isfinite([s, t0, t1]).all()


def test_degenerate_band_counts_only_exact_ties():
    pts = np.linspace(0.0, 4.0, 5)
    f0 = np.ones(5)
    f1 = np.ones(5)
    l = np.array([0.5, 1.0, 1.0, 2.0, 3.0])
    a0, m0, b0, a1, m1, b1 = kernels.region_masses(l, f0, f1, pts, 1.0, 1.0)
    # the tie band holds exactly the [1, 2] cell where l == 1 throughout;
    # cells merely touching the threshold at a knot classify by midpoint
    assert m0 == pytest.approx(1.0, rel=1e-12)
    assert a0 == pytest.approx(1.0, rel=1e-12)
    assert b0 == pytest.approx(2.0, rel=1e-12)


def test_crossing_cell_split_is_exact_for_linear_data():
    # one cell, ratio crossing lo at its midpoint; the split must integrate
    # each half of the linear interpolants exactly
    pts = np.array([0.0, 1.0])
    f0 = np.array([1.0, 3.0])
    f1 = np.array([2.0, 1.0])
    l = np.array([2.0, 1.0 / 3.0])
    lo = 1.0  # crossing at theta where 2 + (1/3 - 2) t = 1 -> t = 0.6
    a0, m0, b0, a1, m1, b1 = kernels.region_masses(l, f0, f1, pts, lo, 10.0)
    t = 0.6
    f0_mid = 1.0 + 2.0 * t
    f1_mid = 2.0 - 1.0 * t
    # l decreasing: right part of the cell is below lo (region 1)
    assert a0 == pytest.approx(0.5 * (f0_mid + 3.0) * (1.0 - t), rel=1e-12)
    assert m0 == pytest.approx(0.5 * (1.0 + f0_mid) * t, rel=1e-12)
    assert b0 == 0.0
    assert a1 == pytest.approx(0.5 * (f1_mid + 1.0) * (1.0 - t), rel=1e-12)
    assert m1 == pytest.approx(0.5 * (2.0 + f1_mid) * t, rel=1e-12)


def test_augment_inserts_exact_threshold_knots():
    pts, f0, f1, l = _random_instance(3, n=301)
    lo = float(np.quantile(l, 0.35))
    hi = float(np.quantile(l, 0.75))
    y_aug, l_aug, (f0a, f1a) = kernels.augment_with_crossings(pts, l, [f0, f1], lo, hi)
    assert np.all(np.diff(y_aug) > 0.0)
    inserted = ~np.isin(y_aug, pts)
    assert inserted.sum() == y_aug.size - pts.size
    new_l = l_aug[inserted]
    assert np.all((new_l == lo) | (new_l == hi))
    # original knots survive untouched
    np.testing.assert_array_equal(y_aug[~inserted], pts)
    np.testing.assert_array_equal(f0a[~inserted], f0)
    # inserted values are linear interpolants of the originals
    np.testing.assert_allclose(f1a[inserted], np.interp(y_aug[inserted], pts, f1),
                               rtol=1e-12)


def test_augment_skips_cells_with_infinite_ratio_without_warnings():
    # f0 = 0 at knots 0 and 4, so l = inf there; cell 0 would cross hi on
    # its way down to 0.8, and cell 4 ends exactly on hi.  Such cells lie in
    # I3 throughout and get no knot, and inf never enters the arithmetic.
    pts = np.arange(6.0)
    f0 = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    f1 = np.array([1.0, 0.8, 0.2, 2.0, 1.0, 1.0])
    l = density.ratio_values(f0, f1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_aug, l_aug, _ = kernels.augment_with_crossings(pts, l, [f0, f1], 0.5, 1.0)
    inserted = ~np.isin(y_aug, pts)
    np.testing.assert_allclose(y_aug[inserted], [1.5, 2.0 + 1.0 / 6.0, 2.0 + 4.0 / 9.0],
                               rtol=1e-15)
    np.testing.assert_array_equal(l_aug[inserted], [0.5, 0.5, 1.0])


def test_augment_preserves_trapezoid_integrals():
    pts, f0, f1, l = _random_instance(4, n=301)
    lo = float(np.quantile(l, 0.4))
    hi = float(np.quantile(l, 0.7))
    y_aug, _, (f0a, f1a) = kernels.augment_with_crossings(pts, l, [f0, f1], lo, hi)
    assert np.trapezoid(f0a, y_aug) == pytest.approx(np.trapezoid(f0, pts), rel=1e-13)
    assert np.trapezoid(f1a, y_aug) == pytest.approx(np.trapezoid(f1, pts), rel=1e-13)


def test_augment_no_crossings_is_identity():
    pts, f0, f1, l = _random_instance(5, n=101)
    lo, hi = float(l.min()) / 2.0, float(l.max()) * 2.0
    y_aug, l_aug, (f0a,) = kernels.augment_with_crossings(pts, l, [f0], lo, hi)
    np.testing.assert_array_equal(y_aug, pts)
    np.testing.assert_array_equal(f0a, f0)


def test_augment_gives_a_piece_narrower_than_y_spacing_one_knot():
    # both thresholds cross the middle cell, one float of l apart: the two
    # ends of its I2 piece round to one y, which becomes one knot
    pts = np.array([99.0, 100.0, 101.0, 102.0])
    l = np.array([-1.0, 0.0, 1.0, 2.0])
    lo = 0.5
    hi = float(np.nextafter(lo, 1.0))
    y_aug, l_aug, (v,) = kernels.augment_with_crossings(pts, l, [l], lo, hi)
    assert np.all(np.diff(y_aug) > 0.0)
    np.testing.assert_array_equal(y_aug, [99.0, 100.0, 100.5, 101.0, 102.0])
    np.testing.assert_array_equal(l_aug, [-1.0, 0.0, lo, 1.0, 2.0])
    assert v[2] == 0.5


def test_augment_with_equal_thresholds_gives_one_knot_per_crossing_cell():
    pts = np.arange(5.0)
    l = np.array([0.5, 2.0, 0.5, 2.0, 0.5])
    y_aug, l_aug, _ = kernels.augment_with_crossings(pts, l, [], 1.0, 1.0)
    inserted = ~np.isin(y_aug, pts)
    np.testing.assert_allclose(y_aug[inserted], [1.0 / 3.0, 5.0 / 3.0, 7.0 / 3.0, 11.0 / 3.0],
                               rtol=1e-15)
    np.testing.assert_array_equal(l_aug[inserted], 1.0)


def test_augment_drops_a_crossing_that_rounds_onto_a_knot():
    # t = 1e-20 from the left knot, or one float of l short of the right
    # one: 0 < t < 1, but y rounds onto the cell's end
    pts = np.array([100.0, 101.0])
    below_one = float(np.nextafter(1.0, 0.0))
    for l, lo, hi, knots in ((np.array([0.0, 1e20]), 1.0, 1e30, []),
                             (np.array([0.0, 1.0]), below_one, 1e30, []),
                             (np.array([0.0, 1.0]), 0.25, below_one, [(100.25, 0.25)])):
        y_aug, l_aug, (v,) = kernels.augment_with_crossings(pts, l, [l], lo, hi)
        y_new, l_new = np.array(knots).reshape(-1, 2).T
        np.testing.assert_array_equal(y_aug, np.insert(pts, 1, y_new))
        np.testing.assert_array_equal(l_aug, np.insert(l, 1, l_new))
        np.testing.assert_array_equal(v, np.insert(l, 1, l_new))


def test_augment_drops_a_clipped_end_inside_the_cell():
    # there points[0] + h[0] = 2.78e-17 falls short of points[1] = 3e-17.
    # hi = 10 is not crossed, so the first cell's I2 piece ends at t2 = 1;
    # l falling from 3 onto hi = 2 puts both ends of the piece at t = 1
    pts = np.array([-0.1, 3e-17, 1.0, 2.0])
    h = np.diff(pts)
    assert pts[0] < pts[0] + h[0] < pts[1]
    l = np.array([0.5, 1.5, 1.6, 1.7])
    y_aug, l_aug, _ = kernels.augment_with_crossings(pts, l, [], 1.0, 10.0)
    np.testing.assert_array_equal(y_aug, np.insert(pts, 1, pts[0] + 0.5 * h[0]))
    np.testing.assert_array_equal(l_aug, np.insert(l, 1, 1.0))
    l = np.array([3.0, 2.0, 1.6, 1.7])
    y_aug, l_aug, _ = kernels.augment_with_crossings(pts, l, [], 0.5, 2.0)
    np.testing.assert_array_equal(y_aug, pts)
    np.testing.assert_array_equal(l_aug, l)
