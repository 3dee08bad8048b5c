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

One rule decides where the thresholds cut the grid: `_labels` labels the
knots, `_crossing_cells` finds the cells whose ends carry different labels
and `_cuts` places t1, t2 in them.  Every other step takes the cuts from
there, the solution tables' knots included; `lfd_solver.partition` labels
the tables' knots with `_labels`.

A region split has two parts.  Its label part depends on the thresholds
only through the knots' labels: the crossing cells, the sums of the
`cell_sums` over whole I1, I2 and I3 cells, and the knots of whole I2
cells with their trapezoid weights times f0 and f1.  Its threshold part is
the rest: the cuts t1, t2, the crossing cells' pieces and the bracket
terms.  The grid record of `grid_values` keeps the label part of its last
split, and `region_split` reuses it when the next split's labels are the
same, so such a split costs the labels and the threshold part only.  The
label part also keeps (l/rho)^beta and alpha*log(l/rho) at the whole I2
knots for the last rho, which moves at every path point of the solver's
prior leg.  Every result is the same, bit for bit, as a split built from
nothing.

Each kernel is a composition of steps that the solver also runs one by one.
`cell_sums` gives each nominal's trapezoid cell sums once per grid.
`region_split` labels the knots and cuts the crossing cells once per
threshold pair, and `split_masses` integrates the region masses on that
split.  The interior power integrals take two more steps.  `i2_geometry`
gathers the I2 knots of the split with their trapezoid weights times f0
and f1 and the k-independent parts of the bracket, once per threshold
pair.  `i2_powers(geo, kb)` then gives (S, T0, T1) for one balance power
K = kb with a few vector operations and a dot product per integral, and
`i2_s` gives S alone with its slope in log k, what the off-centre mass
balance in k needs.  `i2_power_derivatives(geo, kb)` gives the derivatives
of (S, T0, T1) and of the region masses that the solver's Newton step needs;
it works the few crossing-cell terms in Python floats, adding each to its
sum as it makes it, in the orders numpy takes over whole arrays, so they
equal their whole-array form bit for bit.
`augment_with_crossings` inserts the ends of the split's I2 pieces
that lie inside their cells as knots of the solution tables.
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


class CrossingCells(NamedTuple):
    """The cells whose two knots carry different labels: their indices j,
    their ends ya < yb and widths h, l at both ends, the change dl of l over
    each from its first end capped at the float maximum, and whether l
    increases on each."""

    j: np.ndarray
    ya: np.ndarray
    yb: np.ndarray
    h: np.ndarray
    la: np.ndarray
    lb: np.ndarray
    dl: np.ndarray
    up: np.ndarray


def _crossing_cells(l, points, lab):
    """The CrossingCells of the knot labels lab."""
    j = np.flatnonzero(lab[:-1] != lab[1:])
    ya, yb, la, lb = points[j], points[j + 1], l[j], l[j + 1]
    # capping an infinite first end keeps inf - inf out: t1 = t2 = 1 then
    dl = lb - np.minimum(la, _FLOAT_MAX)
    return CrossingCells(j, ya, yb, yb - ya, la, lb, dl, dl > 0.0)


def _cuts(cells, lo, hi):
    """The splits t1 <= t2 of the crossing cells at lo and hi."""
    la = np.minimum(cells.la, _FLOAT_MAX)
    t_lo = (lo - la) / cells.dl
    t_hi = (hi - la) / cells.dl
    return np.minimum(t_lo, t_hi).clip(0.0, 1.0), np.maximum(t_lo, t_hi).clip(0.0, 1.0)


class GridValues(NamedTuple):
    """What every region split of one problem reads: the grid points and cell
    widths h, the nominals f0, f1 on the points, their likelihood ratio l
    and their `cell_sums`.  last[0] is the LabelPart of the latest split,
    None before the first."""

    points: np.ndarray
    h: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    l: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    last: list


def grid_values(points, f0, f1, l) -> GridValues:
    """The GridValues of f0 and f1 with ratio l on `points`; a solve builds it
    once, and its label part lives as long as the solve."""
    return GridValues(points, np.diff(points), f0, f1, l, cell_sums(points, f0),
                      cell_sums(points, f1), [None])


class LabelPart(NamedTuple):
    """The part of a region split fixed by the knot labels lab: the crossing
    cells, half the cell sums of f0 and of f1 over whole I1, I2 and I3
    cells, f0 and f1 at both ends of each crossing cell, and l at the knots
    of whole I2 cells with their trapezoid weights (times 2) times f0 and f1.
    powered holds ((rho, beta, alpha), (l/rho)^beta, alpha*log(l/rho)) at
    those knots for the last rho `i2_geometry` took, [None] before it."""

    lab: np.ndarray
    cells: CrossingCells
    whole: tuple
    f0a: np.ndarray
    f0b: np.ndarray
    f1a: np.ndarray
    f1b: np.ndarray
    l2: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    powered: list


def _label_part(gv, lab):
    """The LabelPart of the labels lab on the grid `gv`."""
    cells = _crossing_cells(gv.l, gv.points, lab)
    j = cells.j
    cell = lab[:-1].copy()
    cell[j] = 3
    in_region = [cell == r for r in range(3)]
    whole = tuple(0.5 * c[m].sum() for c in (gv.c0, gv.c1) for m in in_region)
    # knots of whole I2 cells with their trapezoid weights (times 2)
    hc = np.where(in_region[1], gv.h, 0.0)
    w = np.zeros(lab.shape)
    w[:-1] = hc
    w[1:] += hc
    k = np.flatnonzero(w)
    wk = w[k]
    return LabelPart(lab, cells, whole, gv.f0[j], gv.f0[j + 1], gv.f1[j], gv.f1[j + 1],
                     gv.l[k], wk * gv.f0[k], wk * gv.f1[k], [None])


class RegionSplit(NamedTuple):
    """The grid split at lo <= hi: its label part and the cuts t1 <= t2 of its
    crossing cells."""

    lo: float
    hi: float
    part: LabelPart
    t1: np.ndarray
    t2: np.ndarray


def region_split(gv, lo, hi):
    """The split of the grid `gv` at lo <= hi.  Its label part is the grid's
    last one when the knot labels are the same, and becomes the last one
    otherwise."""
    lab = _labels(gv.l, lo, hi)
    part = gv.last[0]
    if part is None or not np.array_equal(lab, part.lab):
        part = gv.last[0] = _label_part(gv, lab)
    return RegionSplit(lo, hi, part, *_cuts(part.cells, lo, hi))


def cell_sums(points, f):
    """h*(f[:-1] + f[1:]) per grid cell, twice its trapezoid mass: threshold-free,
    so a solve builds it once for each nominal."""
    return np.diff(points) * (f[:-1] + f[1:])


def split_masses(sp):
    """(A0, M0, B0, A1, M1, B1) on the split `sp`."""
    part, up, t1, t2 = sp.part, sp.part.cells.up, sp.t1, sp.t2
    # the I1, I2, I3 pieces [s, e] of the crossing cells; the linear
    # interpolant integrates to h*(e - s)*((1 - m)*f_a + m*f_b), m = (s + e)/2
    s = np.array((np.where(up, 0.0, t2), t1, np.where(up, t2, 0.0)))
    e = np.array((np.where(up, t1, 1.0), t2, np.where(up, 1.0, t1)))
    wd = part.cells.h * (e - s)
    wb = 0.5 * wd * (s + e)
    wa = wd - wb
    out = []
    for fa, fb, whole in ((part.f0a, part.f0b, part.whole[:3]),
                          (part.f1a, part.f1b, part.whole[3:])):
        split = wa @ fa + wb @ fb
        out.extend(m + p for m, p in zip(whole, split))
    return tuple(float(x) for x in out)


def region_masses(l, f0, f1, points, lo, hi):
    """(A0, M0, B0, A1, M1, B1): f0 and f1 masses over I1, I2, I3."""
    return split_masses(region_split(grid_values(points, f0, f1, l), lo, hi))


def _bracket_terms(t, beta, lb_, ub):
    """t - L and U - t at t = (l/rho)^beta clipped between L and U, both
    sign-flipped when beta < 0 so that they are nonnegative."""
    t = np.clip(t, min(lb_, ub), max(lb_, ub))
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
    tl, q = _bracket_terms((lv / rho) ** beta, beta, lb_, ub)
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


def i2_geometry(sp, rho, beta, alpha, lb_, ub):
    """The I2Geometry of the split `sp` for the threshold powers L, U.

    Its knots are those of whole I2 cells, which the split's label part
    holds, and both ends of the I2 piece of each crossing cell.
    """
    part, cells, lo, hi = sp.part, sp.part.cells, sp.lo, sp.hi
    # both ends of each crossing cell's I2 piece, weighted by its length;
    # an end inside the cell is a threshold crossing and gets l exactly.
    # A piece narrower than the float spacing of y is empty: its ends are
    # one knot on the grid of `augment_with_crossings`
    piece = cells.ya + sp.t2 * cells.h > cells.ya + sp.t1 * cells.h
    up, t1, t2 = cells.up[piece], sp.t1[piece], sp.t2[piece]
    la, lb = cells.la[piece], cells.lb[piece]
    wj = cells.h[piece] * (t2 - t1)
    wv = np.concatenate((wj, wj))

    def at_ends(fa, fb):
        fa, fb = fa[piece], fb[piece]
        df = fb - fa
        return wv * np.concatenate((fa + t1 * df, fa + t2 * df))

    lv = np.concatenate((np.where(t1 > 0.0, np.where(up, lo, hi), la),
                         np.where(t2 < 1.0, np.where(up, hi, lo), lb))) / rho
    key = (rho, beta, alpha)
    if part.powered[0] != key:
        l2 = part.l2 / rho
        part.powered[:] = key, l2 ** beta, alpha * np.log(l2)
    _, t_whole, alog_whole = part.powered
    return I2Geometry(np.concatenate((part.w0, at_ends(part.f0a, part.f0b))),
                      np.concatenate((part.w1, at_ends(part.f1a, part.f1b))),
                      *_bracket_terms(np.concatenate((t_whole, lv ** beta)), beta, lb_, ub),
                      np.concatenate((alog_whole, alpha * np.log(lv))), np.log(abs(ub - lb_)),
                      beta, alpha, lo, hi, lb_, ub, up, t1, t2, lb - la)


def _i2_log_bracket(geo, kb):
    """(log Br, p, p + q) at the I2 knots of `geo` for K = kb, as
    `_interior_bracket` gives them."""
    p = geo.tl / kb
    pq = p + geo.ut
    return geo.log_ul - np.log(pq), p, pq


def i2_s(geo, kb):
    """(S, dS/d log k): S of `i2_powers` alone, the one integral the mass
    balance in k needs, and its slope.  d log Br/d log K is the rule
    delta = p/(p + q) of `_interior_bracket` and K = k^beta, so
    dS/d log k = integral of Br^(1/beta) * delta * f1."""
    logbr, p, pq = _i2_log_bracket(geo, kb)
    # an overflowing order integrates to inf, and its slope to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        ps = np.exp(logbr / geo.beta)
        return 0.5 * float(geo.w1 @ ps), 0.5 * float(geo.w1 @ (ps * (p / pq)))


def _i2_integrands(geo, kb):
    """log Br and the integrands of (S, T0, T1) at the I2 knots, without the
    weights w1, w0, w1."""
    logbr, _, _ = _i2_log_bracket(geo, kb)
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
    region masses, all on the region split of the geometry `geo`, for K = kb.

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
    alpha, beta = geo.alpha, geo.beta
    order = (1.0 / beta, alpha / beta, alpha / beta)
    br = np.exp(logbr)
    inv_ul = math.exp(-geo.log_ul)
    c = math.copysign(inv_ul, beta)
    dlog = np.array((c * (br / kb - 1.0), c * (1.0 - br), _div(inv_ul, kb * kb) * geo.tl * br))
    with np.errstate(over="ignore", invalid="ignore"):
        q = w * p
        fixed = [[0.5 * o * x for x in row] for o, row in zip(order, (q @ dlog.T).tolist())]

    # the ends of the crossing cells' I2 pieces, in Python floats: the n
    # first ends, then the n second ends, each n places from the other end
    # of its piece
    n = geo.up.size
    first = w.shape[1] - 2 * n
    we, pe, qe = (a[:, first:].tolist() for a in (w, p, q))
    dlog_lo, dlog_hi = dlog[:2, first:].tolist()
    up, t1, t2 = geo.up.tolist(), geo.t1.tolist(), geo.t2.tolist()
    at_lo = up + [not u for u in up]
    # dt/d log threshold, over 2*(t2 - t1) to turn an end's weight
    # h*(t2 - t1)*f in w into h*f/2; signed so that lo moves towards the
    # other end and hi away from it, and 0 at an end on a knot
    rate = [_div(0.5, abs(dl) * (b - a)) for dl, a, b in zip(geo.dl.tolist(), t1, t2)] * 2
    inside = [a > 0.0 for a in t1] + [b < 1.0 for b in t2]
    # the end's own l is the threshold: d log Br/d log lo = -beta*L*d log Br/dL
    # there (the bracket stays 1), likewise at hi with U (it stays K), and
    # (l/rho)^alpha of T0 adds alpha
    own_lo, own_hi, add = -beta * geo.lb, -beta * geo.ub, (0.0, alpha, 0.0)
    # each side's terms summed in numpy's orders for the same whole-array sums:
    # from 0.0 in end order for the integrals (the rows of a column-major
    # array), and by numpy's own 1-D sum for the masses
    ends = [[0.0, 0.0] for _ in range(3)]  # each integral's end terms at lo and at hi
    moved = [([], []) for _ in range(2)]   # f1 and f0 at the ends, as weighted in w
    for e in range(2 * n):
        o = e + n if e < n else e - n
        side = 0 if at_lo[e] else 1
        move = (geo.lo if at_lo[e] else -geo.hi) * rate[e] * inside[e]
        own_l = own_lo * dlog_lo[e] if at_lo[e] else own_hi * dlog_hi[e]
        for i, sums in enumerate(ends):
            sums[side] += (move * (pe[i][e] * (we[i][o] - 2.0 * we[i][e]) - qe[i][o])
                           + 0.5 * qe[i][e] * (order[i] * own_l + add[i]) * (move != 0.0))
        for i, terms in enumerate(moved):
            terms[side].append(2.0 * move * we[i][e])
    cols = [row + sums for row, sums in zip(fixed, ends)]
    return np.array(cols), np.array([[np.add.reduce(side) for side in moved[i]] for i in (1, 0)])


def _div(a, b):
    """a / b for floats, with numpy's inf or nan where b is zero."""
    if b == 0.0:
        return math.copysign(math.inf, a) * math.copysign(1.0, b) if 0.0 != a == a else math.nan
    return a / b


def augment_with_crossings(points, l, arrays, lo, hi):
    """The grid `points` with the threshold crossings of its split at lo <= hi
    inserted as knots: (points_aug, l_aug, arrays_aug).

    The knots are the ends of the crossing cells' I2 pieces, cut by the
    rule `region_split` takes, that lie strictly inside their cell, both in
    the cell coordinate t and in floating point; a piece narrower than the
    float spacing of y gives one knot.  Each knot gets l exactly equal to the threshold crossed there
    and every array in `arrays` interpolated linearly, so that plain
    trapezoid sums over the returned grid, each cell in the region of its
    midpoint l, reproduce the split-cell region integrals.
    """
    cells = _crossing_cells(l, points, _labels(l, lo, hi))
    t1, t2 = _cuts(cells, lo, hi)
    j, a, b = cells.j, cells.ya, cells.yb
    y1, y2 = a + t1 * cells.h, a + t2 * cells.h
    # a clipped end (t = 1) can land inside the cell in floating point too
    ends = np.concatenate(((t1 < 1.0) & (a < y1) & (y1 < b),
                           (t2 < 1.0) & (y1 < y2) & (y2 < b)))
    cell = np.concatenate((j, j))[ends]
    t = np.concatenate((t1, t2))[ends]
    # np.insert keeps a cell's first end before its second
    at = cell + 1
    return (np.insert(points, at, np.concatenate((y1, y2))[ends]),
            np.insert(l, at, np.where(np.concatenate((cells.up, ~cells.up))[ends], lo, hi)),
            [np.insert(v, at, v[cell] + t * (v[cell + 1] - v[cell])) for v in arrays])
