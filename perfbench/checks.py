"""Output checks for the benchmark's CLI jobs.

Every check recomputes what it needs with its own numerics: the nominal
densities from their Gaussian components, integrals by its own trapezoid
rule, divergences from their definition.  Nothing is compared against a
stored copy of earlier output.  A checker returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# tolerances, each stated once
TOL_F = 1e-12          # nominal columns against the own pdf, relative to the peak
TOL_L = 1e-12          # ratio column against f1/f0, relative
TOL_KNOT = 1e-9        # inserted knot against the linear crossing, in cell widths
TOL_MASS = 1e-6        # unit mass of both least favorable densities
TOL_EPS = 1e-4         # achieved divergences against the requested radii
TOL_MONO = 1e-9        # delta_hat non-decreasing in l
TOL_LHAT = 1e-8        # robust ratio against its three branches
TOL_TIE = 1e-6         # rho g0_hat = g1_hat on region 2, relative
TOL_BAYES = 1e-12      # error of delta_hat against the Bayes error of (g0, g1)
TOL_SYM = 1e-8         # l_l * l_u = 1 on symmetric problems
TOL_PROB = 1e-12       # orderings and identities between error rows
TOL_LRT = 1e-9         # plain LRT error against the own Bayes error of the nominals
MC_WIDTHS = 4.0        # MC rows within this many half-widths of quadrature
TOL_TOUCH = 1e-8       # touching density: unit mass and both radii
TOL_OVERLAP = 1e-10    # closed-form surface: overlap against the own integral
TOL_ORACLE = 1e-3      # discrete oracle saddle value against the quadrature one
ORACLE_BINS = 50
ORACLE_ROUNDS = 1000      # alternation budget; the gap tolerance stays at its default


@dataclass
class Table:
    meta: dict
    cols: dict


def _scalar(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _column(values):
    try:
        return np.array([math.nan if v is None else v for v in values], dtype=float)
    except (TypeError, ValueError):
        return list(values)


def parse_table(text: str, fmt: str) -> Table:
    """Parse the CLI's CSV (`# key=value` lines, header, rows) or JSON output."""
    if fmt == "json":
        payload = json.loads(text)
        meta = {k: (math.nan if v is None else v) for k, v in payload["meta"].items()}
        return Table(meta, {k: _column(v) for k, v in payload["columns"].items()})
    lines = text.splitlines()
    meta, i = {}, 0
    while i < len(lines) and lines[i].startswith("# "):
        key, val = lines[i][2:].split("=", 1)
        meta[key] = _scalar(val)
        i += 1
    names = lines[i].split(",")
    rows = [ln.split(",") for ln in lines[i + 1:] if ln]
    cols = {name: _column([r[j] for r in rows]) for j, name in enumerate(names)}
    return Table(meta, cols)


def trapz(v: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(y)))


def divergence(g: np.ndarray, f: np.ndarray, alpha: float, y: np.ndarray) -> float:
    """D(g, f; alpha) = (1 - int g^a f^(1-a)) / (a (1 - a)); 0/0 cells add nothing."""
    both = (g > 0.0) & (f > 0.0)
    # a zero factor under a negative power makes the divergence infinite
    if alpha > 1.0 and np.any((g > 0.0) & (f == 0.0)):
        return math.inf
    if alpha < 0.0 and np.any((f > 0.0) & (g == 0.0)):
        return math.inf
    term = np.zeros_like(g)
    term[both] = np.exp(alpha * np.log(g[both]) + (1.0 - alpha) * np.log(f[both]))
    return (1.0 - trapz(term, y)) / (alpha * (1.0 - alpha))


def lrt_bayes_error(f0: np.ndarray, f1: np.ndarray, rho: float, y: np.ndarray) -> float:
    """(rho int_{l > rho} f0 + int_{l < rho} f1) / (1 + rho) for linear f0, f1.

    A cell whose ratio l = f1/f0 crosses rho is split where the linear
    interpolant of l meets rho; each piece is integrated by the trapezoid
    rule, exact for the linear densities, and assigned by the ratio at its
    middle.  A piece lying on l = rho counts half to each side.
    """
    l = f1 / f0
    la, lb = l[:-1], l[1:]
    split = (la - rho) * (lb - rho) < 0.0
    t = np.where(split, (rho - la) / np.where(split, lb - la, 1.0), 1.0)
    total = 0.0
    for s0, s1 in ((0.0, t), (t, 1.0)):
        mid = la + 0.5 * (s0 + s1) * (lb - la)
        up = np.where(mid > rho, 1.0, np.where(mid < rho, 0.0, 0.5))
        for f, weight in ((f0, rho * up), (f1, 1.0 - up)):
            fa, fb = f[:-1], f[1:]
            piece = 0.5 * (s1 - s0) * (2.0 * fa + (s0 + s1) * (fb - fa))
            total += float(np.sum(weight * piece * np.diff(y)))
    return total / (1.0 + rho)


def _grid(job):
    lo, hi, n = job.config["grid"].split(":")
    return np.linspace(float(lo), float(hi), int(n))


def _requested(job):
    c = job.config
    if "eps" in c:
        return float(c["eps"]), float(c["eps"])
    return float(c["eps0"]), float(c["eps1"])


def _need(t: Table, names) -> list[str]:
    return [f"missing column {n!r}" for n in names if n not in t.cols]


# ---------------------------------------------------------------------------
# solve / solve-symmetric


SOLVE_COLS = ("y", "f0", "f1", "l", "g0_hat", "g1_hat", "delta_hat", "l_hat", "region")


def check_solution(job, t: Table) -> list[str]:
    miss = _need(t, SOLVE_COLS)
    if miss:
        return miss
    c = t.cols
    y, f0, f1, l = c["y"], c["f0"], c["f1"], c["l"]
    g0, g1, d, lh, reg = c["g0_hat"], c["g1_hat"], c["delta_hat"], c["l_hat"], c["region"]
    alpha, rho = float(job.config["alpha"]), float(job.config["rho"])
    eps0, eps1 = _requested(job)
    l_l, l_u = float(t.meta["l_l"]), float(t.meta["l_u"])
    fails = []
    if (t.meta["eps0"], t.meta["eps1"]) != (eps0, eps1):
        fails.append(f"meta radii {t.meta['eps0']}, {t.meta['eps1']} differ from the request")
    if not np.all(np.diff(y) > 0.0):
        return fails + ["y is not strictly increasing"]

    # nominal columns: exact at grid knots, linear between knots at inserted crossings
    base = _grid(job)
    knot = np.isin(y, base)
    if knot.sum() != base.size:
        fails.append(f"{knot.sum()} of {base.size} grid knots present in the table")
    p0, p1 = job.pair.pdfs(base)
    for name, col, pdf in (("f0", f0, p0), ("f1", f1, p1)):
        ref = np.interp(y, base, pdf)
        ref[knot] = job.pair.pdfs(y[knot])[0 if name == "f0" else 1]
        err = float(np.max(np.abs(col - ref)))
        if err > TOL_F * float(pdf.max()):
            fails.append(f"{name} column is off the nominal density by {err:.3g}")

    lo, hi = rho * l_l, rho * l_u
    pos = f0 > 0.0
    ratio = f1[pos] / f0[pos]
    if np.any(np.abs(l[pos] - ratio) > TOL_L * np.abs(ratio)):
        fails.append("l column is not f1/f0")
    # every inserted knot is the linear crossing of the grid ratio with a threshold
    yi = y[~knot]
    j = np.clip(np.searchsorted(base, yi) - 1, 0, base.size - 2)
    la, lb = p1[j] / p0[j], p1[j + 1] / p0[j + 1]
    h = base[j + 1] - base[j]
    on = np.zeros(yi.shape, dtype=bool)
    for tau in (lo, hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            y_cross = base[j] + (tau - la) / (lb - la) * h
        on |= ((la - tau) * (lb - tau) < 0.0) & (np.abs(yi - y_cross) <= TOL_KNOT * h)
    if job.config["command"] == "solve-symmetric":
        # the symmetric path mirrors the upper crossing instead of interpolating
        on |= np.isin(-yi, yi[on])
    if not np.all(on):
        fails.append(f"{int(np.sum(~on))} inserted knots are not threshold crossings")
    expect = np.where(l < lo, 1, np.where(l > hi, 3, 2))
    if np.any(reg != expect):
        fails.append(f"{int(np.sum(reg != expect))} region labels disagree with the thresholds")

    if g0.min() < 0.0 or g1.min() < 0.0:
        fails.append("a least favorable density is negative")
    for name, g in (("g0_hat", g0), ("g1_hat", g1)):
        mass = trapz(g, y)
        if abs(mass - 1.0) > TOL_MASS:
            fails.append(f"{name} has mass {mass:.9f}")
    for name, g, f, eps in (("g0_hat", g0, f0, eps0), ("g1_hat", g1, f1, eps1)):
        got = divergence(g, f, alpha, y)
        if not abs(got - eps) <= TOL_EPS:
            fails.append(f"D({name}, f) = {got:.6g}, requested {eps:.6g}")

    if d.min() < 0.0 or d.max() > 1.0:
        fails.append(f"delta_hat leaves [0, 1]: [{d.min():.3g}, {d.max():.3g}]")
    order = np.lexsort((d, l))
    drop = float(np.min(np.diff(d[order]), initial=0.0))
    if drop < -TOL_MONO:
        fails.append(f"delta_hat decreases in l by {-drop:.3g}")

    # at an inserted crossing knot the branches meet: l_hat = rho exactly
    branch = np.where(reg == 1, l / l_l, np.where(reg == 3, l / l_u, rho))
    branch[~knot] = rho
    err = np.abs(lh - branch) / np.maximum(1.0, np.abs(branch))
    if np.any(err > TOL_LHAT):
        fails.append(f"l_hat is off its branch by {float(err.max()):.3g}")

    # On region 2 the pair ties, rho g0 = g1, so any delta is Bayes there.
    tie = (reg == 2) & knot
    off = np.abs(rho * g0[tie] - g1[tie])
    if np.any(off > TOL_TIE * g1[tie]):
        fails.append(f"rho g0_hat - g1_hat = {float(off.max()):.3g} on region 2")
    # Bayes rule: the error of delta_hat equals int min(rho g0, g1)/(1 + rho).
    # Only tied rows (region 2, and inserted knots, where the tables
    # interpolate f) may add to it; their trapezoid share bounds the excess.
    err_rule = (rho * trapz(d * g0, y) + trapz((1.0 - d) * g1, y)) / (1.0 + rho)
    bayes = trapz(np.minimum(rho * g0, g1), y) / (1.0 + rho)
    w = np.zeros_like(y)
    w[:-1] += 0.5 * np.diff(y)
    w[1:] += 0.5 * np.diff(y)
    tied = (reg == 2) | ~knot
    slack = float(np.sum((w * np.abs(rho * g0 - g1))[tied])) / (1.0 + rho)
    if not -TOL_BAYES <= err_rule - bayes <= slack + TOL_BAYES:
        fails.append(f"delta_hat error {err_rule:.12g} is not the Bayes error {bayes:.12g}")

    if job.config["command"] == "solve-symmetric" and abs(l_l * l_u - 1.0) > TOL_SYM:
        fails.append(f"l_l * l_u = {l_l * l_u:.12g} on a symmetric problem")
    return fails


# ---------------------------------------------------------------------------
# evaluate


def check_evaluate(job, t: Table) -> list[str]:
    miss = _need(t, ("rule", "densities", "method", "p_fa", "p_miss", "p_error",
                     "hw_fa", "hw_miss"))
    if miss:
        return miss
    c = t.cols
    rho = float(job.config["rho"])
    rows = {}
    fails = []
    for i in range(len(c["rule"])):
        key = (c["rule"][i], c["densities"][i], c["method"][i])
        row = {k: float(c[k][i]) for k in ("p_fa", "p_miss", "p_error", "hw_fa", "hw_miss")}
        rows[key] = row
        if not all(0.0 <= row[k] <= 1.0 for k in ("p_fa", "p_miss", "p_error")):
            fails.append(f"{key}: a probability leaves [0, 1]")
        bayes = (rho * row["p_fa"] + row["p_miss"]) / (1.0 + rho)
        if abs(row["p_error"] - bayes) > TOL_PROB:
            fails.append(f"{key}: p_error is not (rho p_fa + p_miss)/(1 + rho)")
    quad = (("robust", "lfd"), ("robust", "nominal"), ("lrt", "nominal"))
    for r, d in quad:
        if (r, d, "quadrature") not in rows:
            return fails + [f"missing quadrature row {r}/{d}"]
    if (t.meta["eps0"], t.meta["eps1"]) != _requested(job):
        fails.append("meta radii differ from the request")
    lfd = rows[("robust", "lfd", "quadrature")]["p_error"]
    nom = rows[("robust", "nominal", "quadrature")]["p_error"]
    lrt = rows[("lrt", "nominal", "quadrature")]["p_error"]
    if lfd < nom - TOL_PROB:
        fails.append(f"robust error under the least favorable pair {lfd:.9g} is below "
                     f"its error under the nominals {nom:.9g}")
    if lrt > nom + TOL_PROB:
        fails.append(f"plain LRT error {lrt:.9g} exceeds the robust rule's {nom:.9g} "
                     "under the nominals")
    # the plain LRT is the Bayes rule of the nominals: its error is
    # int min(rho f0, f1) / (1 + rho) over the piecewise-linear nominals on
    # the grid the job integrated on, the knots plus the crossings of the
    # interpolated ratio with both robust thresholds
    base = _grid(job)
    p0, p1 = job.pair.pdfs(base)
    l_b = p1 / p0
    knots = [base]
    for tau in (rho * float(t.meta["l_l"]), rho * float(t.meta["l_u"])):
        j = np.nonzero((l_b[:-1] - tau) * (l_b[1:] - tau) < 0.0)[0]
        knots.append(base[j] + (tau - l_b[j]) / (l_b[j + 1] - l_b[j]) * (base[j + 1] - base[j]))
    y = np.unique(np.concatenate(knots))
    own = lrt_bayes_error(*job.pair.pdfs(y), rho, y)
    if abs(own - lrt) > TOL_LRT:
        fails.append(f"plain LRT error {lrt:.9g} differs from the Bayes error {own:.9g}")
    if "mc" in job.config:
        for r, d in quad:
            mc = rows.get((r, d, "monte_carlo"))
            if mc is None:
                fails.append(f"missing Monte Carlo row {r}/{d}")
                continue
            q = rows[(r, d, "quadrature")]
            for p, hw in (("p_fa", "hw_fa"), ("p_miss", "hw_miss")):
                if abs(mc[p] - q[p]) > MC_WIDTHS * mc[hw]:
                    fails.append(f"Monte Carlo {r}/{d} {p} = {mc[p]:.6g} is more than "
                                 f"{MC_WIDTHS:g} half-widths ({mc[hw]:.3g}) from {q[p]:.6g}")
    return fails


# ---------------------------------------------------------------------------
# limits / surface


def touching_failures(job, alpha, rho, eps0, eps1, lam0, lam1) -> list[str]:
    """Build the touching density from the multipliers and check it.

    g = (lam0 f0^(1-a) + lam1 rho^(a-1) f1^(1-a))^(1/(1-a)) / |1-a|^(1/(1-a)),
    evaluated in log space; it must have unit mass and sit at divergence
    eps0 from f0 and eps1 from f1.
    """
    y = _grid(job)
    p0, p1 = job.pair.pdfs(y)
    b = 1.0 - alpha
    with np.errstate(divide="ignore"):
        lg = (np.logaddexp(np.log(lam0) + b * np.log(p0),
                           np.log(lam1) - b * math.log(rho) + b * np.log(p1))
              - math.log(abs(b))) / b
    g = np.exp(lg)
    fails = []
    mass = trapz(g, y)
    if not abs(mass - 1.0) <= TOL_TOUCH:
        fails.append(f"touching density has mass {mass:.12g}")
    for name, f, eps in (("eps0", p0, eps0), ("eps1", p1, eps1)):
        got = divergence(g, f, alpha, y)
        if not abs(got - eps) <= TOL_TOUCH:
            fails.append(f"touching density sits at {got:.10g} from f, printed {name} = {eps:.10g}")
    return fails


def check_limits(job, t: Table) -> list[str]:
    miss = _need(t, ("eps0", "eps1", "lambda0", "lambda1"))
    if miss:
        return miss
    c = t.cols
    if len(c["eps0"]) != 1:
        return [f"expected one limits row, got {len(c['eps0'])}"]
    e0, e1 = float(c["eps0"][0]), float(c["eps1"][0])
    fails = []
    if e0 != float(job.config["eps0"]):
        fails.append(f"fixed radius {e0} differs from the request")
    if not (e0 >= 0.0 and e1 >= 0.0):
        fails.append(f"negative radius in ({e0:.6g}, {e1:.6g})")
    if t.meta.get("mode") != "general":
        fails.append(f"mode {t.meta.get('mode')!r}, expected 'general'")
    fails += touching_failures(job, float(job.config["alpha"]), float(job.config["rho"]),
                               e0, e1, float(c["lambda0"][0]), float(c["lambda1"][0]))
    return fails


def _root_a(e0, e1):
    disc = (e0 - 8.0) * e0 * (e1 - 8.0) * e1
    return (16.0 - 4.0 * e1 + e0 * (e1 - 4.0) - np.sqrt(disc)) / 16.0


def check_surface(job, t: Table) -> list[str]:
    miss = _need(t, ("eps0", "eps1", "a", "feasible"))
    if miss:
        return miss
    c = t.cols
    e0, e1 = c["eps0"], c["eps1"]
    n = int(job.config["n"])
    if e0.size != n:
        return [f"{e0.size} surface rows, expected {n}"]
    fails = []
    if np.any(e0 < 0.0) or np.any(e1 < 0.0):
        fails.append("a surface radius is negative")
    if not np.all(np.diff(e0) > 0.0):
        fails.append("eps0 is not increasing along the surface")
    if np.any(np.diff(e1) > 0.0):
        fails.append("eps1 increases as eps0 increases")
    if not np.all(c["feasible"] == 1.0):
        fails.append("a surface row is not marked feasible")
    alpha = float(job.config["alpha"])
    if abs(alpha - 0.5) < 1e-12 and float(job.config["rho"]) == 1.0:
        y = _grid(job)
        p0, p1 = job.pair.pdfs(y)
        a = trapz(np.sqrt(p0 * p1), y)
        if np.any(np.abs(c["a"] - a) > TOL_OVERLAP):
            fails.append(f"overlap column differs from the own integral {a:.12g}")
        resid = np.abs(_root_a(e0, e1) - a)
        if np.any(resid > TOL_TOUCH):
            fails.append(f"closed-form boundary residual {float(resid.max()):.3g}")
        e_max = 4.0 - 2.0 * math.sqrt(2.0 * (1.0 + a))
        if e0[0] != 0.0 or abs(e0[-1] - e_max) > TOL_OVERLAP:
            fails.append(f"eps0 does not span [0, {e_max:.10g}]")
    else:
        mid = n // 2
        fails += touching_failures(job, alpha, float(job.config["rho"]),
                                   float(e0[mid]), float(e1[mid]),
                                   float(t.meta["lambda0"]), float(t.meta["lambda1"]))
    return fails


CHECKERS = {
    "solve": check_solution,
    "solve-symmetric": check_solution,
    "evaluate": check_evaluate,
    "limits": check_limits,
    "surface": check_surface,
}


def check(job, t: Table) -> list[str]:
    return CHECKERS[job.config["command"]](job, t)


# ---------------------------------------------------------------------------
# discrete oracle, run outside the timed loop


def oracle_failures(job, t: Table) -> list[str]:
    """Judge a solve table with the package's independent discrete oracle.

    Bins the nominals and the tabulated least favorable densities, re-solves
    the binned saddle problem at the radii the binned densities realize, and
    compares its saddle value with the table's quadrature saddle error.
    """
    from robustlrt import density, oracle

    c = t.cols
    y, g0, g1, d = c["y"], c["g0_hat"], c["g1_hat"], c["delta_hat"]
    alpha, rho = float(job.config["alpha"]), float(job.config["rho"])
    grid = density.QuadratureGrid(y, density.trapezoid_weights(y))
    f0b, f1b = (oracle._bin_masses(f, grid, ORACLE_BINS) for f in job.pair.pdfs(y))
    g0b, g1b = (oracle._bin_masses(g, grid, ORACLE_BINS) for g in (g0, g1))
    binned = oracle.DiscreteProblem(
        m=ORACLE_BINS, f0=f0b, f1=f1b, alpha=alpha, rho=rho,
        eps0=oracle.discrete_divergence(g0b, f0b, alpha),
        eps1=oracle.discrete_divergence(g1b, f1b, alpha))
    try:
        rule, _, _, _ = oracle.alternating_saddle(binned, iters=ORACLE_ROUNDS)
    except (oracle.OracleError, oracle.OscillationError) as exc:
        return [f"oracle did not settle: {exc}"]
    pe_oracle = oracle.worst_case_error(rule, binned)[2]
    pe_quad = (rho * trapz(d * g0, y) + trapz((1.0 - d) * g1, y)) / (1.0 + rho)
    if abs(pe_oracle - pe_quad) > TOL_ORACLE:
        return [f"oracle saddle value {pe_oracle:.6g} differs from the quadrature "
                f"saddle error {pe_quad:.6g}"]
    return []
