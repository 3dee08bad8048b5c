"""Region-split trapezoid kernels for the threshold solver.

The solver repeatedly integrates densities over the three likelihood-ratio
regions  I1 = {l < lo},  I2 = {lo <= l <= hi},  I3 = {l > hi}  with
lo = rho*l_l <= hi = rho*l_u.  Grid cells that straddle a region boundary
are split at the linear crossing point of l, which keeps the integrals
O(h^2)-accurate and smooth in the thresholds.  Ties (l exactly lo or hi)
belong to I2.

All kernels work in whole-array numpy passes.  Cells whose two ends lie in
the same region are summed with masks.  On a crossing cell l is linear in
the cell coordinate t in [0, 1], so the regions meet it in three
consecutive intervals [0, t1], [t1, t2], [t2, 1]: I1, I2, I3 where l
increases and I3, I2, I1 where it decreases.  Each piece is integrated in
closed form.  A cell with an infinite end (f0 = 0 < f1 there) lies in I3
throughout.

One rule decides where the thresholds cut the grid: `region_split` finds
the crossing cells and their pieces, and every other step takes them from
it, the solution tables' knots included; `lfd_solver.partition` labels the
tables' knots with its `_labels`.

Each kernel is a composition of steps that the solver also runs one by one.
`cell_sums` gives each nominal's trapezoid cell sums once per grid.
`region_split` labels the knots and finds the crossing cells once per
threshold pair, and `split_masses` integrates the region masses on that
split from the cell sums.  The interior power integrals take two more
steps.  `i2_geometry` gathers the I2 knots of the split with their
trapezoid weights times f0 and f1 and the k-independent parts of the
bracket, once per threshold pair.  `i2_powers` then gives (S, T0, T1) for
one balance power K with a few vector operations and a dot product per
integral, and `i2_s` gives S alone, the one integral the off-centre mass
balance in k needs.  `i2_power_derivatives` gives the derivatives of
(S, T0, T1) and of the region masses that the solver's Newton step needs.
`augment_with_crossings` inserts the ends of the split's I2 pieces that
lie inside their cells as knots of the solution tables.
`region_masses` runs the mass steps for one threshold pair.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

_FLOAT_MAX = np.finfo(np.float64).max


def _labels(l, lo, hi):
    """0, 1, 2 for a knot in I1, I2, I3."""
    return (l >= lo).view(np.int8) + (l > hi).view(np.int8)


def _crossing_cells(l, lo, hi, lab):
    """Crossing cells j, whether l increases on them, and their splits t1 <= t2."""
    j = np.flatnonzero(lab[:-1] != lab[1:])
    # capping an infinite left end keeps inf - inf out: t1 = t2 = 1 then
    la = np.minimum(l[j], _FLOAT_MAX)
    dl = l[j + 1] - la
    t_lo = (lo - la) / dl
    t_hi = (hi - la) / dl
    return (j, dl > 0.0, np.minimum(t_lo, t_hi).clip(0.0, 1.0),
            np.maximum(t_lo, t_hi).clip(0.0, 1.0))


class RegionSplit(NamedTuple):
    """The grid split at lo <= hi: knot labels, cell widths, crossing cells."""

    l: np.ndarray
    points: np.ndarray
    lo: float
    hi: float
    lab: np.ndarray
    h: np.ndarray
    j: np.ndarray
    up: np.ndarray
    t1: np.ndarray
    t2: np.ndarray


def region_split(l, points, lo, hi):
    """The split of the grid `points` with ratio values l at lo <= hi."""
    lab = _labels(l, lo, hi)
    return RegionSplit(l, points, lo, hi, lab, np.diff(points), *_crossing_cells(l, lo, hi, lab))


def cell_sums(points, f):
    """h*(f[:-1] + f[1:]) per grid cell, twice its trapezoid mass: threshold-free,
    so a solve builds it once for each nominal."""
    return np.diff(points) * (f[:-1] + f[1:])


def split_masses(sp, f0, f1, c0, c1):
    """(A0, M0, B0, A1, M1, B1) on the split `sp`, given the `cell_sums` c0, c1
    of f0 and f1."""
    h, j, up, t1, t2 = sp.h, sp.j, sp.up, sp.t1, sp.t2
    cell = sp.lab[:-1].copy()
    cell[j] = 3
    whole = [cell == r for r in range(3)]
    # the I1, I2, I3 pieces [s, e] of the crossing cells; the linear
    # interpolant integrates to h*(e - s)*((1 - m)*f_a + m*f_b), m = (s + e)/2
    s = np.array((np.where(up, 0.0, t2), t1, np.where(up, t2, 0.0)))
    e = np.array((np.where(up, t1, 1.0), t2, np.where(up, 1.0, t1)))
    wd = h[j] * (e - s)
    wb = 0.5 * wd * (s + e)
    wa = wd - wb
    out = []
    for f, c in ((f0, c0), (f1, c1)):
        split = wa @ f[j] + wb @ f[j + 1]
        out.extend(0.5 * c[m].sum() + p for m, p in zip(whole, split))
    return tuple(float(x) for x in out)


def region_masses(l, f0, f1, points, lo, hi):
    """(A0, M0, B0, A1, M1, B1): f0 and f1 masses over I1, I2, I3."""
    return split_masses(region_split(l, points, lo, hi), f0, f1, cell_sums(points, f0),
                        cell_sums(points, f1))


def _bracket_terms(lv, rho, beta, lb_, ub):
    """t - L and U - t at t = (l/rho)^beta clipped between L and U, both
    sign-flipped when beta < 0 so that they are nonnegative."""
    t = np.clip((lv / rho) ** beta, min(lb_, ub), max(lb_, ub))
    tl, ut = t - lb_, ub - t
    if beta < 0.0:
        return -tl, -ut
    return tl, ut


def _interior_bracket(lv, rho, beta, kb, lb_, ub):
    """(log Br, delta) at ratio values lv for given K = k^beta, L, U.

    Br = K*(L - U) / (L - K*U + (K - 1)*t) with t = (l/rho)^beta clipped
    between L and U is the interior bracket of the least favorable densities, and
    delta = (t - L) / ((t - L) + K*(U - t)) the randomized rule.  Both come
    from p = (t - L)/K and q = U - t, sign-flipped when beta < 0 so that
    both are nonnegative: Br = |U - L|/(p + q) and delta = p/(p + q), with
    delta exactly 0 at t = L and 1 at t = U.
    """
    tl, q = _bracket_terms(lv, rho, beta, lb_, ub)
    p = tl / kb
    pq = p + q
    # + 0.0 turns -0.0 into 0
    return np.log(abs(ub - lb_)) - np.log(pq), p / pq + 0.0


class I2Geometry(NamedTuple):
    """The k-independent part of the I2 power integrals: at each I2 knot the
    trapezoid weight times f0 and f1, the bracket terms of `_bracket_terms`
    and alpha*log(l/rho).  The knots of whole I2 cells come first, then the
    first and then the second ends of the crossing cells' I2 pieces, which
    `i2_power_derivatives` locates from the thresholds lo, hi, their powers
    L, U, and each piece's cell: whether l increases on it, the piece's
    ends t1 < t2 in the cell and the change dl of l over the cell."""

    w0: np.ndarray
    w1: np.ndarray
    tl: np.ndarray
    ut: np.ndarray
    alog: np.ndarray
    log_ul: float
    beta: float
    alpha: float
    lo: float
    hi: float
    lb: float
    ub: float
    up: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    dl: np.ndarray


def i2_geometry(sp, f0, f1, rho, beta, alpha, lb_, ub):
    """The I2Geometry of the split `sp` for the threshold powers L, U.

    Its knots are those of whole I2 cells and both ends of the I2 piece of
    each crossing cell.
    """
    l, points, lo, hi, lab, h = sp.l, sp.points, sp.lo, sp.hi, sp.lab, sp.h
    in2 = lab == 1
    # knots of whole I2 cells with their trapezoid weights (times 2)
    hc = np.where(in2[:-1] & in2[1:], h, 0.0)
    w = np.zeros(l.shape)
    w[:-1] = hc
    w[1:] += hc
    k = np.flatnonzero(w)
    # both ends of each crossing cell's I2 piece, weighted by its length;
    # an end inside the cell is a threshold crossing and gets l exactly.
    # A piece narrower than the float spacing of y is empty: its ends are
    # one knot on the grid of `augment_with_crossings`
    piece = points[sp.j] + sp.t2 * h[sp.j] > points[sp.j] + sp.t1 * h[sp.j]
    j, up, t1, t2 = sp.j[piece], sp.up[piece], sp.t1[piece], sp.t2[piece]
    wj = h[j] * (t2 - t1)

    def knots(a):
        da = a[j + 1] - a[j]
        return np.concatenate((a[k], a[j] + t1 * da, a[j] + t2 * da))

    lv = np.concatenate((l[k], np.where(t1 > 0.0, np.where(up, lo, hi), l[j]),
                         np.where(t2 < 1.0, np.where(up, hi, lo), l[j + 1])))
    wv = np.concatenate((w[k], wj, wj))
    return I2Geometry(wv * knots(f0), wv * knots(f1), *_bracket_terms(lv, rho, beta, lb_, ub),
                      alpha * np.log(lv / rho), np.log(abs(ub - lb_)), beta, alpha, lo, hi,
                      lb_, ub, up, t1, t2, l[j + 1] - l[j])


def _i2_log_bracket(geo, kb):
    """log Br at the I2 knots of `geo` for K = kb, as `_interior_bracket` gives it."""
    return geo.log_ul - np.log(geo.tl / kb + geo.ut)


def i2_s(geo, kb):
    """S of `i2_powers` alone, the one integral the mass balance in k needs."""
    logbr = _i2_log_bracket(geo, kb)
    with np.errstate(over="ignore"):  # an overflowing order integrates to inf
        return 0.5 * float(geo.w1 @ np.exp(logbr / geo.beta))


def _i2_integrands(geo, kb):
    """log Br and the integrands of (S, T0, T1) at the I2 knots, without the
    weights w1, w0, w1."""
    logbr = _i2_log_bracket(geo, kb)
    pw = logbr * (geo.alpha / geo.beta)
    with np.errstate(over="ignore"):  # an overflowing order integrates to inf
        return logbr, (np.exp(logbr / geo.beta), np.exp(pw + geo.alog), np.exp(pw))


def i2_powers(geo, kb):
    """(S, T0, T1) bracket-power integrals over I2 on the geometry `geo` for K = kb.

    S  = integral of Br^(1/beta) * f1,
    T0 = integral of Br^(alpha/beta) * (l/rho)^alpha * f0,
    T1 = integral of Br^(alpha/beta) * f1,
    with the interior bracket Br of `_interior_bracket`, evaluated in its
    rearranged all-nonnegative form to avoid cancellation.
    """
    _, (ps, p0, p1) = _i2_integrands(geo, kb)
    return 0.5 * float(geo.w1 @ ps), 0.5 * float(geo.w0 @ p0), 0.5 * float(geo.w1 @ p1)


def i2_power_derivatives(geo, kb):
    """The partial derivatives of (S, T0, T1) of `i2_powers` and those of the
    region masses, all on the region split of the geometry `geo`.

    The first item is a 3x5 array: row i holds the derivatives of the i-th
    integral in L, U and K with the knots held fixed, then in log lo and
    log hi with L, U and K held fixed.  With D = L - K*U + (K - 1)*t,

        d log Br/dL = 1/(L - U) - 1/D  = sign(beta)*(Br/K - 1)/|U - L|,
        d log Br/dU = -1/(L - U) + K/D = sign(beta)*(1 - Br)/|U - L|,
        d log Br/dK = 1/K - (t - U)/D  = (t - L)*Br/(K^2*|U - L|),

    the right-hand forms rewritten through Br = |U - L|/(p + q) and the
    nonnegative bracket terms of `_bracket_terms`, so nothing cancels.  An
    integrand Br^(a/beta)*w differentiates to (a/beta)*Br^(a/beta)*w*d log Br,
    so each of these nine is one dot product over the I2 knots.

    A threshold moves the grid integrals only through the crossing cells
    (the crossing-cell terms).  There the crossing moves with the threshold,
    and with it one end e of the cell's I2 piece, whose l is the threshold
    itself.  Moving e by dt cell widths towards the other end o changes the
    piece (h*(t2 - t1)/2)*(P_e*f_e + P_o*f_o) by
    (h/2)*(P_e*(f_o - 2*f_e) - P_o*f_o)*dt, with f interpolated and P the
    integrand's power at each end, and the neighbouring region's piece by
    h*f_e*dt.  The second item holds the latter: the derivatives of (A0, B0)
    and (A1, B1), each in (log lo, log hi).  In the continuum the crossing
    terms of an integral and of the region mass next to it cancel, because
    the branches meet continuously (at t = L the bracket is 1, at t = U it
    is K); on the grid they leave the quadrature's share.
    """
    logbr, powers = _i2_integrands(geo, kb)
    w, p = np.array((geo.w1, geo.w0, geo.w1)), np.array(powers)
    order = np.array((1.0, geo.alpha, geo.alpha)) / geo.beta
    br = np.exp(logbr)
    inv_ul = math.exp(-geo.log_ul)
    c = math.copysign(inv_ul, geo.beta)
    dlog = np.array((c * (br / kb - 1.0), c * (1.0 - br), (inv_ul / (kb * kb)) * geo.tl * br))
    with np.errstate(over="ignore", invalid="ignore"):
        q = w * p
        fixed = 0.5 * order[:, None] * (q @ dlog.T)

        # the ends of the crossing cells' I2 pieces and, for each, the other end
        up, t1, t2 = geo.up, geo.t1, geo.t2
        n = up.size
        e = np.arange(w.shape[1] - 2 * n, w.shape[1])
        o = np.concatenate((e[n:], e[:n]))
        at_lo = np.concatenate((up, ~up))
        # dt/d log threshold, over 2*(t2 - t1) to turn an end's weight
        # h*(t2 - t1)*f in w into h*f/2; signed so that lo moves towards o
        # and hi away from it, and 0 at an end on a knot
        rate = np.tile(0.5 / (np.abs(geo.dl) * (t2 - t1)), 2)
        move = np.where(at_lo, geo.lo, -geo.hi) * rate * np.concatenate((t1 > 0.0, t2 < 1.0))
        # the end's own l is the threshold: d log Br/d log lo = -beta*L*d log Br/dL
        # there (the bracket stays 1), likewise at hi with U (it stays K), and
        # (l/rho)^alpha of T0 adds alpha
        own_l = np.where(at_lo, -geo.beta * geo.lb * dlog[0, e], -geo.beta * geo.ub * dlog[1, e])
        own_l = order[:, None] * own_l + np.array((0.0, geo.alpha, 0.0))[:, None]
        ends = (move * (p[:, e] * (w[:, o] - 2.0 * w[:, e]) - q[:, o])
                + 0.5 * q[:, e] * own_l * (move != 0.0))
        moved = 2.0 * move * w[:2, e]  # f1 and f0 at the ends, as weighted in w
    cols = np.column_stack((ends[:, at_lo].sum(axis=1), ends[:, ~at_lo].sum(axis=1)))
    masses = np.array(((moved[1, at_lo].sum(), moved[1, ~at_lo].sum()),
                       (moved[0, at_lo].sum(), moved[0, ~at_lo].sum())))
    return np.hstack((fixed, cols)), masses


def augment_with_crossings(points, l, arrays, lo, hi):
    """The grid `points` with the threshold crossings of its split at lo <= hi
    inserted as knots: (points_aug, l_aug, arrays_aug).

    The knots are the ends of the crossing cells' I2 pieces (`region_split`)
    that lie strictly inside their cell, both in the cell coordinate t and
    in floating point; a piece narrower than the float spacing of y gives
    one knot.  Each knot gets l exactly equal to the threshold crossed there
    and every array in `arrays` interpolated linearly, so that plain
    trapezoid sums over the returned grid, each cell in the region of its
    midpoint l, reproduce the split-cell region integrals.
    """
    sp = region_split(l, points, lo, hi)
    j = sp.j
    a, b = points[j], points[j + 1]
    y1, y2 = a + sp.t1 * sp.h[j], a + sp.t2 * sp.h[j]
    # a clipped end (t = 1) can land inside the cell in floating point too
    ends = np.concatenate(((sp.t1 < 1.0) & (a < y1) & (y1 < b),
                           (sp.t2 < 1.0) & (y1 < y2) & (y2 < b)))
    cell = np.concatenate((j, j))[ends]
    t = np.concatenate((sp.t1, sp.t2))[ends]
    # np.insert keeps a cell's first end before its second
    at = cell + 1
    return (np.insert(points, at, np.concatenate((y1, y2))[ends]),
            np.insert(l, at, np.where(np.concatenate((sp.up, ~sp.up))[ends], lo, hi)),
            [np.insert(v, at, v[cell] + t * (v[cell + 1] - v[cell])) for v in arrays])
