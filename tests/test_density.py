"""Density models, quadrature grids, and sampling."""

import itertools
import math
import warnings

import numpy as np
import pytest

from robustlrt import density, lfd_solver


def test_gaussian_evaluates_to_normal_pdf():
    g = density.gaussian(1.5, 2.0)
    y = np.array([-1.0, 1.5, 4.0])
    expected = np.exp(-0.5 * ((y - 1.5) / 2.0) ** 2) / (2.0 * math.sqrt(2.0 * math.pi))
    np.testing.assert_allclose(density.evaluate(g, y), expected, rtol=1e-14)


# each pointwise function of the package as (function, six points where it is
# defined), built from the anchor solution and its nominals
_POINTWISE = {
    "evaluate": lambda sol, f: (lambda y: density.evaluate(f[0], y),
                                np.linspace(-3.0, 3.0, 6)),
    "likelihood_ratio": lambda sol, f: (lambda y: density.likelihood_ratio(*f, y),
                                        np.linspace(-3.0, 3.0, 6)),
    "TabulatedFunction": lambda sol, f: (sol.delta_hat, np.linspace(-3.0, 3.0, 6)),
    "robust_rule": lambda sol, f: (lambda l: lfd_solver.robust_rule(l, sol),
                                   np.linspace(0.3, 3.0, 6)),
    "robust_lr": lambda sol, f: (lambda l: lfd_solver.robust_lr(l, sol),
                                 np.linspace(0.3, 3.0, 6)),
    "phi1": lambda sol, f: (
        lambda l: lfd_solver.phi1(l, sol.thresholds, sol.spec.alpha, sol.spec.rho, sol.k,
                                  sol.z),
        np.linspace(sol.thresholds.l_l, sol.thresholds.l_u, 6) * sol.spec.rho),
}


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_pointwise_functions_keep_the_shape_of_their_input(name, mix_solution,
                                                            mix_nominals):
    fn, pts = _POINTWISE[name](mix_solution, mix_nominals)
    flat = fn(pts)
    assert flat.shape == pts.shape
    for i, x in enumerate(pts):
        for arg in (float(x), np.array(x)):
            got = fn(arg)
            assert type(got) is float and got == flat[i]
    grid = fn(pts.reshape(2, 3))
    assert grid.shape == (2, 3)
    np.testing.assert_array_equal(grid, flat.reshape(2, 3))


def test_gaussian_rejects_bad_scale():
    with pytest.raises(ValueError):
        density.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        density.gaussian(0.0, -1.0)
    # a scale that would make the support infinite or NaN is named as such
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="stddev"):
            density.gaussian(0.0, bad)
        with pytest.raises(ValueError, match="stddev"):
            density.gaussian_mixture([(0.5, 0.0, 1.0), (0.5, 1.0, bad)])


def test_gaussian_is_the_one_component_mixture():
    g = density.gaussian(2.5, 0.3)
    m = density.gaussian_mixture([(1.0, 2.5, 0.3)])
    assert isinstance(g, density.GaussianMixture)
    assert g.components == m.components == ((1.0, 2.5, 0.3),)
    assert g.support == m.support


@pytest.mark.parametrize("mean, stddev", [(0.0, 1.0), (2.5, 0.3), (-1.0, 1.7)])
@pytest.mark.parametrize("seed", [0, 7])
def test_one_component_sampling_is_generator_normal(mean, stddev, seed):
    want = np.random.default_rng(seed).normal(mean, stddev, 20_001)
    for model in (density.gaussian(mean, stddev),
                  density.gaussian_mixture([(1.0, mean, stddev)])):
        assert np.array_equal(density.sample(model, 20_001, seed), want)
        # no label uniforms are drawn: the generator stands where normal() leaves it
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        density._sample(model, 20_001, rng)
        ref.normal(mean, stddev, 20_001)
        assert np.array_equal(rng.random(3), ref.random(3))


def test_mixture_is_convex_combination():
    m = density.gaussian_mixture([(0.25, -2.0, 1.0), (0.75, 2.0, 0.5)])
    y = np.linspace(-4.0, 4.0, 9)
    direct = 0.25 * density.evaluate(density.gaussian(-2.0, 1.0), y) \
        + 0.75 * density.evaluate(density.gaussian(2.0, 0.5), y)
    np.testing.assert_allclose(density.evaluate(m, y), direct, rtol=1e-14)


def test_mixture_rejects_unnormalized_weights():
    with pytest.raises(ValueError, match="sum"):
        density.gaussian_mixture([(1.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match="negative"):
        density.gaussian_mixture([(1.5, 0.0, 1.0), (-0.5, 1.0, 1.0)])


def test_shifted_translates_argument():
    base = density.gaussian_mixture([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)])
    s = density.shifted(base, 1.25)
    y = np.linspace(-5.0, 5.0, 21)
    np.testing.assert_allclose(density.evaluate(s, y),
                               density.evaluate(base, y - 1.25), rtol=1e-14)


def test_tabulated_interpolates_and_vanishes_outside():
    pts = np.linspace(0.0, 1.0, 5)
    vals = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    t = density.tabulated(pts, vals)
    assert density.evaluate(t, 0.125) == pytest.approx(0.5, rel=1e-14)
    assert density.evaluate(t, -0.5) == 0.0
    assert density.evaluate(t, 1.5) == 0.0


@pytest.mark.parametrize("points", [[0.0, 1.0, 2.0, math.inf], [-math.inf, 1.0, 2.0, 3.0]])
def test_tabulated_refuses_non_finite_points(points):
    # an infinite end would give infinite trapezoid mass and all-zero values
    with pytest.raises(ValueError, match="points must be finite"):
        density.tabulated(points, [0.1, 0.5, 0.3, 0.1])


def test_tabulated_names_the_first_point_that_is_not_finite():
    with pytest.raises(ValueError, match=r"points must be finite, got nan at index 2$"):
        density.tabulated([0.0, 1.0, math.nan, 2.0, math.inf], [0.1, 0.5, 0.3, 0.1, 0.1])


def test_trapezoid_weights_reproduce_polynomial_integral():
    # trapezoid rule is exact for piecewise-linear integrands
    pts = np.sort(np.random.default_rng(0).uniform(-1.0, 1.0, 40))
    w = density.trapezoid_weights(pts)
    assert float(np.sum(w)) == pytest.approx(pts[-1] - pts[0], rel=1e-14)
    assert float(np.sum(w * pts)) == pytest.approx(
        0.5 * (pts[-1] ** 2 - pts[0] ** 2), abs=1e-14)


def test_make_grid_refuses_a_span_that_overflows():
    # each end is finite, but the span is not: linspace would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"grid span \[-1e\+308, 1e\+308\] is not finite"):
            density.make_grid(-1e308, 1e308, 5)


def test_make_grid_shape_and_span():
    g = density.make_grid(-2.0, 3.0, 501)
    assert g.count == 501
    assert g.span == (-2.0, 3.0)
    assert g.points.shape == g.weights.shape == (501,)
    assert float(np.sum(g.weights)) == pytest.approx(5.0, rel=1e-14)


def test_grid_for_covers_tails_of_all_models():
    g = density.grid_for(density.gaussian(-1.0, 1.0), density.gaussian(5.0, 2.0))
    lo, hi = g.span
    assert lo < -1.0 - 6.0 and hi > 5.0 + 6.0 * 2.0  # beyond six sigma each side


def test_gaussian_integrates_to_one_on_its_grid():
    g = density.gaussian(0.7, 1.3)
    grid = density.grid_for(g, n=4001)
    total = density.integrate(density.evaluate(g, grid.points), grid)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_likelihood_ratio_matches_pointwise_division():
    f0 = density.gaussian(-1.0, 1.0)
    f1 = density.gaussian(1.0, 1.0)
    y = np.linspace(-3.0, 3.0, 13)
    expected = density.evaluate(f1, y) / density.evaluate(f0, y)
    np.testing.assert_allclose(density.likelihood_ratio(f0, f1, y), expected,
                               rtol=1e-12)


def _pdf_by_expression(model, y):
    # the allocating form of density._pdf, before it worked in place
    if isinstance(model, density.GaussianMixture):
        out = np.zeros_like(y)
        for w, m, s in model.components:
            z = (y - m) / s
            out += w * np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
        return out
    return _pdf_by_expression(model.base, y - model.shift)


_MIX = density.gaussian_mixture([(0.3, -1.5, 0.5), (0.7, 2.0, 1.5)])


@pytest.mark.parametrize("model", [
    density.gaussian(0.3, 1.1), _MIX, density.shifted(_MIX, 1.0),
    density.shifted(density.gaussian(-1.0, 0.7), -0.25)])
def test_pdf_equals_the_plain_expression_bit_for_bit(model):
    # +-60 reaches far past the point where exp underflows to 0, through the
    # subnormals
    y = np.linspace(-60.0, 60.0, 40001)
    got = density.evaluate(model, y)
    assert np.array_equal(got, _pdf_by_expression(model, y))
    assert (got == 0.0).any() and ((got > 0.0) & (got < np.finfo(float).tiny)).any()


def test_ratio_values_zero_density_conventions():
    f0 = np.array([0.0, 0.0, 1.0, 2.0])
    f1 = np.array([0.0, 3.0, 0.0, 1.0])
    l = density.ratio_values(f0, f1)
    assert l[0] == 1.0             # 0/0: outside both supports, neutral value
    assert l[1] == np.inf          # f1 > 0 = f0
    assert l[2] == 0.0
    assert l[3] == 0.5
    # a NaN on either side gives NaN, whatever the other value
    l = density.ratio_values(np.array([np.nan, 0.0, 1.0, np.nan, -0.0]),
                             np.array([np.nan, np.nan, 2.0, 3.0, np.nan]))
    assert np.array_equal(l, [np.nan, np.nan, 2.0, np.nan, np.nan], equal_nan=True)


def _ratio_values_by_masks(f0, f1):
    # the boolean-index form the in-place ratio_values replaced
    out = np.empty_like(f1)
    pos = f0 > 0.0
    out[pos] = f1[pos] / f0[pos]
    zero_den = ~pos
    out[zero_den & (f1 > 0.0)] = np.inf
    out[zero_den & (f1 == 0.0)] = 1.0
    return out


@pytest.mark.parametrize("zeros", [False, True])
def test_ratio_values_equals_the_masked_division(zeros):
    rng = np.random.default_rng(4)
    f0 = rng.uniform(0.0, 1.0, 40001) * np.exp(-rng.uniform(0.0, 700.0, 40001))
    f1 = rng.uniform(0.0, 1.0, 40001) * np.exp(-rng.uniform(0.0, 700.0, 40001))
    if zeros:
        f0[::7] = 0.0          # x/0 -> inf
        f1[::21] = 0.0         # 0/0 -> 1 where both vanish, 0 elsewhere
    with np.errstate(over="ignore"):
        got = density.ratio_values(f0, f1)
        want = _ratio_values_by_masks(f0, f1)
    assert np.array_equal(got, want)
    assert (np.isinf(got).any() and (got == 1.0).any()) == zeros


def test_sampling_is_deterministic_and_unbiased():
    m = density.gaussian_mixture([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)])
    a = density.sample(m, 200_000, seed=7)
    b = density.sample(m, 200_000, seed=7)
    np.testing.assert_array_equal(a, b)
    c = density.sample(m, 200_000, seed=8)
    assert not np.array_equal(a, c)
    # mixture mean 0, variance 1 + 4 = 5; CLT bands at ~5 sigma
    assert abs(float(np.mean(a))) < 5.0 * math.sqrt(5.0 / 200_000)
    assert float(np.var(a)) == pytest.approx(5.0, abs=0.1)


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_mixture_sampling_is_the_normal_stream(seed):
    m = density.gaussian_mixture([(0.3, -1.5, 0.5), (0.7, 2.0, 1.5)])
    rng = np.random.default_rng(seed)
    w, means, stds = (np.array(c) for c in zip(*m.components))
    idx = rng.choice(len(w), size=50_000, p=w / w.sum())
    reference = rng.normal(means[idx], stds[idx])
    assert np.array_equal(density.sample(m, 50_000, seed), reference)


@pytest.mark.parametrize("weights", [(0.3, 0.7), (0.1, 0.2, 0.7), (1 / 3, 1 / 3, 1 / 3),
                                     (0.15, 0.35, 0.2, 0.3)])
def test_mixture_labels_are_those_of_generator_choice(weights):
    # components far apart, so each draw shows its label; the generator then
    # stands where Generator.choice and the normals leave it, also after
    # several blocks of labels
    m = density.gaussian_mixture([(w, 100.0 * i, 0.5 + i) for i, w in enumerate(weights)])
    w, means, stds = (np.array(c) for c in zip(*m.components))
    for seed, n in itertools.product((0, 7, 12345), (20_000, 3 * density._INTERP_BLOCK + 5)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        y = density._sample(m, n, rng)
        idx = ref.choice(len(w), size=n, p=w / w.sum())
        assert np.array_equal(np.rint(y / 100.0), idx)
        assert np.array_equal(y, ref.normal(means[idx], stds[idx]))
        assert np.array_equal(rng.random(5), ref.random(5))


def test_tabulated_sampling_is_the_inverse_cdf_stream():
    pts = np.linspace(-4.0, 4.0, 801)
    vals = np.exp(-0.5 * pts * pts)
    vals[300:350] = 0.0                 # zero-density cells: a flat CDF run
    t = density.tabulated(pts, vals)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (t.values[1:] + t.values[:-1]) * np.diff(pts))))
    cdf /= cdf[-1]
    u = np.random.default_rng(11).uniform(0.0, 1.0, 200_000)
    assert np.array_equal(density.sample(t, 200_000, seed=11), np.interp(u, cdf, pts))
    assert np.array_equal(density.sample(density.shifted(t, -0.5), 200_000, seed=11),
                          np.interp(u, cdf, pts) - 0.5)


@pytest.mark.parametrize("n", [1, 1000, density._INTERP_BLOCK + 1, 3 * density._INTERP_BLOCK + 5])
def test_table_draws_come_in_generator_order(n):
    # the draws are the inverse CDF at the uniforms, in the order drawn, and
    # the generator stands where those n uniforms leave it
    pts = np.linspace(-3.0, 3.0, 601)
    t = density.tabulated(pts, np.exp(-pts**2))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (t.values[1:] + t.values[:-1]) * np.diff(pts))))
    cdf /= cdf[-1]
    for model, shift in ((t, 0.0), (density.shifted(t, 0.75), 0.75)):
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        y = density._sample(model, n, rng)
        want = np.interp(ref.uniform(0.0, 1.0, n), cdf, pts)
        assert np.array_equal(y, want + shift)
        assert np.array_equal(rng.random(5), ref.random(5))
    assert np.array_equal(density.sample(density.gaussian(0.0, 1.0), n, 2),
                          np.random.default_rng(2).normal(0.0, 1.0, n))


def test_tabulated_sampling_matches_cdf():
    g = density.gaussian(0.0, 1.0)
    grid = density.make_grid(-8.0, 8.0, 2001)
    t = density.tabulated(grid.points, density.evaluate(g, grid.points))
    y = density.sample(t, 400_000, seed=3)
    frac = float(np.mean(y <= 1.0))
    # P(Y <= 1) for the standard normal, within a generous CLT band
    assert frac == pytest.approx(0.8413447460685429, abs=0.005)


# ---------------------------------------------------------------------------
# table lookup: density.TabulatedFunction against np.interp


def _assert_interp_is_np_interp(x, xp, fp):
    for ends in ({}, {"left": 0.0, "right": 0.0}):
        got = density.TabulatedFunction(xp, fp, **ends)(x)
        want = np.interp(x, xp, fp, **ends)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def _assert_index_is_the_searchsorted_build(xp, fp):
    # the guide as it was built before the bucket counts: each bucket's first
    # knot and crowding from two searchsorted calls over the knots' buckets
    index = density._BucketIndex(xp, fp, None, None)
    n = xp.size
    buckets = index._buckets(xp)
    first = np.searchsorted(buckets, np.arange(2 * n), "left")
    crowded = np.searchsorted(buckets, np.arange(2 * n), "right") - first >= 2
    first = np.minimum(first, n - 1)
    assert np.array_equal(index.below, np.where(crowded, -2, first - 1))
    assert np.array_equal(index.edge, np.where(crowded, np.nan, xp[first]), equal_nan=True)
    assert index.crowded == crowded.any()


def test_interp_on_random_queries_over_a_solution_grid(norm_solution_40k):
    sol = norm_solution_40k
    xp = sol.grid.points
    rng = np.random.default_rng(5)
    x = np.concatenate([3.0 * rng.standard_normal(150_000),
                        rng.uniform(xp[0] - 1.0, xp[-1] + 1.0, 50_000)])
    rng.shuffle(x)
    for fp in (sol.g0_hat.values, sol.delta_hat.values, sol.l_hat.values):
        _assert_interp_is_np_interp(x, xp, fp)
    _assert_index_is_the_searchsorted_build(xp, sol.g0_hat.values)


def test_interp_at_every_knot_and_its_neighbours(norm_solution_40k):
    xp, fp = norm_solution_40k.grid.points, norm_solution_40k.g1_hat.values
    x = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf)])
    np.random.default_rng(6).shuffle(x)
    _assert_interp_is_np_interp(x, xp, fp)


def test_interp_off_the_table_and_at_non_finite_queries():
    xp = np.linspace(-2.0, 3.0, 1001)
    fp = np.sin(xp) + 2.0
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(-4.0, 5.0, 5000),
                        [-np.inf, np.inf, np.nan, -2.5, 3.5, -1e308, 1e308, -2.0, 3.0]])
    rng.shuffle(x)
    _assert_interp_is_np_interp(x, xp, fp)


def test_interp_on_a_cdf_with_flat_runs():
    pts = np.linspace(-3.0, 3.0, 601)
    val = np.exp(-pts * pts)
    val[100:180] = 0.0
    val[400:401] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (val[1:] + val[:-1]) * np.diff(pts))))
    cdf /= cdf[-1]
    assert np.any(np.diff(cdf) == 0.0)
    rng = np.random.default_rng(9)
    u = np.concatenate([rng.uniform(0.0, 1.0, 100_000), cdf])
    rng.shuffle(u)
    _assert_interp_is_np_interp(u, cdf, pts)
    _assert_index_is_the_searchsorted_build(cdf, pts)


def test_interp_on_a_three_knot_table():
    xp, fp = np.array([-1.0, 0.5, 2.0]), np.array([3.0, -1.0, 4.0])
    x = np.random.default_rng(10).uniform(-2.0, 3.0, 1000)
    _assert_interp_is_np_interp(np.concatenate([x, xp]), xp, fp)
    _assert_index_is_the_searchsorted_build(xp, fp)


@pytest.mark.parametrize("size", [0, 1, density._INTERP_BLOCK, density._INTERP_BLOCK + 1])
def test_interp_at_block_edge_sizes(size):
    xp = np.linspace(0.0, 1.0, 101)
    fp = xp * xp
    x = np.random.default_rng(size).uniform(-0.1, 1.1, size)
    _assert_interp_is_np_interp(x, xp, fp)


def _ordered_queries(xp):
    rng = np.random.default_rng(12)
    return np.sort(rng.uniform(xp[0] - 0.5, xp[-1] + 0.5, 3 * density._INTERP_BLOCK + 7))


def _counted_np_interp(monkeypatch):
    calls = []
    real = np.interp

    def counted(x, *args, **kwargs):
        calls.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    return calls


def test_interp_reads_sorted_queries_directly(monkeypatch):
    # a block in order goes to np.interp whole, and no index is built
    xp = np.linspace(-2.0, 3.0, 1001)
    fp = np.sin(3.0 * xp) + 2.0
    x = _ordered_queries(xp)
    ties = np.repeat(x[::4], 4)
    with_inf = np.concatenate([[-np.inf, -np.inf], x, [np.inf]])
    for q in (x, ties, with_inf):
        want = np.interp(q, xp, fp)
        calls = _counted_np_interp(monkeypatch)
        lookup = density.TabulatedFunction(xp, fp)
        assert np.array_equal(lookup(q), want)
        monkeypatch.undo()
        b = density._INTERP_BLOCK
        assert calls == [min(b, q.size - s) for s in range(0, q.size, b)]
        assert "index" not in lookup.__dict__
        _assert_interp_is_np_interp(q, xp, fp)


def test_interp_looks_other_blocks_up_through_one_kept_index(monkeypatch):
    # descending, NaN-holding and shuffled blocks go to the bucket index,
    # built on the first of them and kept; blocks in order still go to
    # np.interp, and on a table with finite values no query goes there else
    xp = np.linspace(-2.0, 3.0, 1001)
    fp = np.sin(3.0 * xp) + 2.0
    x = _ordered_queries(xp)
    b = density._INTERP_BLOCK
    with_nan = x.copy()
    with_nan[b + 100] = np.nan
    unsorted_after_sorted = x.copy()
    np.random.default_rng(13).shuffle(unsorted_after_sorted[b:])
    lookup = density.TabulatedFunction(xp, fp)
    assert "index" not in lookup.__dict__
    kept = []
    for q, in_order in ((x[::-1], 0), (with_nan, 3), (unsorted_after_sorted, 1)):
        want = np.interp(q, xp, fp)
        calls = _counted_np_interp(monkeypatch)
        got = lookup(q)
        monkeypatch.undo()
        assert np.array_equal(got, want, equal_nan=True)
        assert len(calls) == in_order
        kept.append(lookup.index)
        _assert_interp_is_np_interp(q, xp, fp)
    assert kept[0] is not None and all(index is kept[0] for index in kept)


def _adversarial_tables(rng):
    """(name, xp, fp) tables that meet np.interp's special cases."""
    geometric = np.geomspace(1e-6, 1e3, 500) - 2.0
    gaps = rng.exponential(1.0, 400) ** 4
    ragged = np.concatenate(([0.0], np.cumsum(gaps)))
    dup = np.sort(np.concatenate([np.linspace(0.0, 1.0, 300), np.full(5, 0.25),
                                  np.full(3, 0.5), np.linspace(0.7, 0.8, 7).repeat(2)]))
    smooth = np.cos(np.linspace(0.0, 7.0, 300))
    with_zeros = smooth.copy()
    with_zeros[::7] = -0.0
    with_zeros[-1] = -0.0
    with_inf = smooth.copy()
    with_inf[[3, 4, 50, 120, 121, 299]] = [np.inf, np.inf, -np.inf, np.inf, 1.0, -np.inf]
    return [("geometric", geometric, np.sin(geometric)),
            ("exponential^4 gaps", ragged, rng.standard_normal(ragged.size)),
            ("duplicate knots", dup, rng.standard_normal(dup.size)),
            ("-0.0 values", np.linspace(-1.0, 1.0, 300), with_zeros),
            ("infinite values", np.linspace(-1.0, 1.0, 300), with_inf),
            ("cdf of a table with zero cells", *_flat_cdf())]


def _flat_cdf():
    pts = np.linspace(-3.0, 3.0, 601)
    val = np.exp(-pts * pts)
    val[:40] = 0.0
    val[100:180] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (val[1:] + val[:-1]) * np.diff(pts))))
    return cdf / cdf[-1], pts


def test_lookup_equals_np_interp_on_adversarial_tables():
    rng = np.random.default_rng(14)
    zero_span = [("one knot", np.array([0.5]), np.array([2.0])),
                 ("equal knots", np.full(4, 0.5), np.array([1.0, -0.0, 3.0, 2.0]))]
    for name, xp, fp in _adversarial_tables(rng) + zero_span:
        span = (xp[-1] - xp[0]) or 1.0
        x = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                            rng.uniform(xp[0] - 0.1 * span, xp[-1] + 0.1 * span, 20_000),
                            [-np.inf, np.inf, np.nan, np.nan, -1e308, 1e308]])
        rng.shuffle(x)
        for left, right in ((None, None), (0.0, 0.0), (np.nan, np.nan)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = density.TabulatedFunction(xp, fp, left, right)(x)
            want = np.interp(x, xp, fp, left, right)
            assert np.array_equal(got, want, equal_nan=True), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


def test_tabulated_function_refuses_malformed_tables():
    # np.interp refuses points and values of different lengths, and an
    # empty table has no value to give
    for points, values in ((np.arange(3.0), np.arange(2.0)), (np.arange(2.0), np.arange(3.0)),
                           ([], []), (np.ones((2, 3)), np.ones((2, 3))), (1.0, 2.0)):
        with pytest.raises(ValueError, match="nonempty 1-D arrays of one length"):
            density.TabulatedFunction(points, values)


def test_tables_leave_the_callers_arrays_writeable():
    # a table keeps read-only copies of writeable arrays and takes read-only
    # arrays as they are; tables compare and hash by identity
    points, values = np.linspace(0.0, 1.0, 5), np.ones(5)
    tables = [density.TabulatedFunction(points, values), density.tabulated(points, values)]
    assert points.flags.writeable and values.flags.writeable
    for table in tables:
        assert not table.points.flags.writeable and not table.values.flags.writeable
    frozen = tables[0].points
    assert density.TabulatedFunction(frozen, tables[0].values).points is frozen
    assert density.tabulated(frozen, values).points is frozen
    twin = density.TabulatedFunction(points, values)
    assert tables[0] == tables[0] and tables[0] != twin
    assert len({tables[0], twin, tables[0]}) == 2 and hash(tables[0]) == hash(tables[0])


@pytest.mark.parametrize("n", [1, density._INTERP_BLOCK, density._INTERP_BLOCK + 3])
def test_generator_random_is_uniform_on_the_unit_interval(n):
    # the samplers and the decision count draw their uniforms with random(n)
    # for uniform(0.0, 1.0, n): the same doubles, and the stream left at the
    # same place
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(a.random(n).view(np.uint64), b.uniform(0.0, 1.0, n).view(np.uint64))
    assert a.bit_generator.state == b.bit_generator.state


def _edge_blocks(xp, rng):
    """(name, block) pairs of unsorted blocks at a table's edges, and a sorted
    block whose first two values tie."""
    inner = rng.uniform(xp[0], xp[-1], 2000)
    blocks = {"ends exactly at xp[0] and xp[-1]": np.concatenate([inner, xp[[0, -1, 0, -1]]]),
              "one value just below": np.append(inner, np.nextafter(xp[0], -np.inf)),
              "one value just above": np.append(inner, np.nextafter(xp[-1], np.inf))}
    for name, v in (("NaN", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
        blocks[f"one {name}"] = np.append(inner, v)
    for block in blocks.values():
        rng.shuffle(block)
    tie = np.sort(inner)
    tie[1] = tie[0]
    blocks["sorted, first two tied"] = tie
    return blocks


def test_lookup_equals_np_interp_on_blocks_at_the_table_edges():
    # values exactly at the table's ends, just outside it and not finite
    # look up as np.interp's.  The first table's span times its bucket
    # scale rounds one ulp above the top bucket
    rng = np.random.default_rng(15)
    xp = np.linspace(-1.097256479952076, 2.3488601759804593, 3571)
    tables = [("rounded-up span", xp, np.cos(xp)), ("uniform", np.linspace(-8.0, 9.0, 4001),
                                                   np.exp(-np.linspace(-8.0, 9.0, 4001) ** 2))]
    tables += _adversarial_tables(rng)
    plain = []
    for name, xp, fp in tables:
        for block_name, x in _edge_blocks(xp, rng).items():
            for left, right in ((None, None), (0.0, 0.0), (np.nan, np.nan)):
                lookup = density.TabulatedFunction(xp, fp, left, right)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = lookup(x)
                want = np.interp(x, xp, fp, left, right)
                assert np.array_equal(got, want, equal_nan=True), (name, block_name)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (name, block_name)
                # a sorted block goes to np.interp, its tied first pair too
                indexed = "index" in lookup.__dict__
                assert indexed != block_name.startswith("sorted"), block_name
                if indexed:
                    plain.append(lookup.index.plain)
    assert any(plain) and not all(plain)
