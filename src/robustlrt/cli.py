"""Batch command-line front end.

Parses a flat key=value config (plus command-line overrides), dispatches one
of the solve/limits/evaluate/sweep commands, and writes machine-readable
CSV (floats exactly as '%.17g' writes them) or JSON tables.  Each command
handler returns (meta, columns), a dict of scalars and a dict of 1-D
columns; `run` renders them and writes the text in one place.  Exit codes:
0 on success, 1 on configuration problems (bad flags, unknown density
specs, malformed tables, an unwritable output file), 2 when the requested
uncertainty radii are infeasible, 3 when the solver fails to converge.

Density spec grammar (for the nominal0/nominal1 config keys):

    gaussian(mu,sigma)
    mixture(w1*gaussian(mu1,s1)+w2*gaussian(mu2,s2)+...)
    shift(<spec>,A)
    table(path.csv)      # CSV with header "y,value", strictly increasing y
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import csvtext, density, evaluation, limits
from .density import QuadratureGrid
from .divergence import DivergenceSpec
from .lfd_solver import (
    InfeasibleEpsError,
    NonConvergenceError,
    RobustSolution,
    partition,
    solve_symmetric,
    solve_thresholds,
)

__all__ = ["ConfigError", "parse_density", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NONCONVERGENCE = 3


class ConfigError(ValueError):
    """Configuration problem: unknown key, bad value, unparseable spec."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for
    # infeasible radii, so configuration problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# density spec grammar


def _split_top(s: str, sep: str) -> list[str]:
    """Split on sep at parenthesis depth zero."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"unbalanced parentheses in density spec: {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigError(f"unbalanced parentheses in density spec: {s!r}")
    parts.append("".join(cur))
    return parts


def _number(tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"expected a number for {what}, got {tok!r}") from None


def _built(where: str, build, *args):
    """build(*args), its ValueError reported as a ConfigError: the builder's
    message followed by where."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{exc}{where}") from None


def parse_density(spec: str) -> density.DensityModel:
    """Parse one density spec string (grammar in the module docstring)."""
    s = spec.strip()
    if not (s.endswith(")") and "(" in s):
        raise ConfigError(f"unknown density spec: {spec!r}")
    head, body = s.split("(", 1)
    head, body = head.strip(), body[:-1]
    where = f" in density spec {spec!r}"
    if head == "gaussian":
        args = _split_top(body, ",")
        if len(args) != 2:
            raise ConfigError(f"gaussian takes (mu, sigma), got {spec!r}")
        mu, sigma = (_number(a, "gaussian parameter") for a in args)
        return _built(where, density.gaussian, mu, sigma)
    if head == "mixture":
        comps = []
        for term in _split_top(body, "+"):
            term = term.strip()
            if "*" not in term:
                raise ConfigError(f"mixture term must look like w*gaussian(mu,s): {term!r}")
            w_tok, g_tok = term.split("*", 1)
            w = _number(w_tok.strip(), "mixture weight")
            comp = parse_density(g_tok)
            if g_tok.split("(", 1)[0].strip() != "gaussian":
                raise ConfigError(f"mixture components must be gaussians: {term!r}")
            comps.append((w, *comp.components[0][1:]))
        return _built(where, density.gaussian_mixture, comps)
    if head == "shift":
        args = _split_top(body, ",")
        if len(args) < 2:
            raise ConfigError(f"shift takes (<spec>, A), got {spec!r}")
        shift_amount = _number(args[-1], "shift amount")
        return _built(where, density.shifted, parse_density(",".join(args[:-1])), shift_amount)
    if head == "table":
        path = body.strip()
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or [h.strip() for h in header] != ["y", "value"]:
                    raise ConfigError(f"table {path!r} must have header 'y,value'")
                rows = [(float(y), float(v)) for y, v in filter(None, reader)]
        except OSError as exc:
            raise ConfigError(f"cannot read table {path!r}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"malformed table {path!r}: {exc}") from None
        return _built(where, density.tabulated, *np.reshape(rows, (-1, 2)).T)
    raise ConfigError(f"unknown density spec: {spec!r}")


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str) -> dict[str, str]:
    """Read a flat key=value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return out


def _check_keys(command: str, cfg: dict[str, str]) -> None:
    unknown = sorted(set(cfg) - _COMMANDS[command][1] - {"command", "format", "out"})
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")


def _need(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _get_float(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    return _number(cfg[key], key)


def _parse_grid(text: str) -> QuadratureGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be min:max:n, got {text!r}")
    lo, hi = _number(parts[0], "grid min"), _number(parts[1], "grid max")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid min and max must be finite, got {text!r}")
    try:
        n = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid point count must be an integer, got {parts[2]!r}") from None
    return _built("", density.make_grid, lo, hi, n)


def _parse_mc(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"mc must be n:seed, got {text!r}")
    try:
        n, seed = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"mc must be two integers n:seed, got {text!r}") from None
    if n < 1000:
        raise ConfigError(f"mc sample count must be at least 1000, got {n}")
    if seed < 0:
        raise ConfigError(f"mc seed must be nonnegative, got {seed}")
    return n, seed


def _parse_list(text: str, what: str) -> list[float]:
    vals = [t for t in (p.strip() for p in text.split(",")) if t]
    if not vals:
        raise ConfigError(f"{what} list is empty")
    return [_number(v, what) for v in vals]


def _nominals(cfg):
    return parse_density(_need(cfg, "nominal0")), parse_density(_need(cfg, "nominal1"))


def _grid_or_default(cfg, models) -> QuadratureGrid:
    if "grid" in cfg:
        return _parse_grid(cfg["grid"])
    return density.grid_for(*models, n=4001)


def _spec(cfg, alpha: float) -> DivergenceSpec:
    return DivergenceSpec(alpha=alpha, rho=_get_float(cfg, "rho", 1.0),
                          eps0=_get_float(cfg, "eps0"), eps1=_get_float(cfg, "eps1"))


def _problem(cfg):
    """(spec, nominals, grid) of solve and evaluate, solve_thresholds' arguments."""
    nominals = _nominals(cfg)
    spec = _spec(cfg, _get_float(cfg, "alpha"))
    return spec, nominals, _grid_or_default(cfg, nominals)


def _boundary_problem(cfg):
    """(nominals, grid) of limits and surface, (None, None) without nominals."""
    if "nominal0" not in cfg and "nominal1" not in cfg:
        return None, None
    # the nominals fix the boundary, so an overlap given beside them would go unread
    if "a" in cfg:
        raise ConfigError("the overlap a is read only without nominals; drop a or the "
                          "nominals")
    nominals = _nominals(cfg)
    return nominals, _grid_or_default(cfg, nominals)


# ---------------------------------------------------------------------------
# output
#
# Both formats carry every value exactly, and csvtext writes the columns of
# both, large ones a block of cells at a time.  CSV writes floats as '%.17g',
# ints and bools as integers, NaN as nan and +-inf as inf, and refuses
# columns of different lengths.  JSON is the text json.dumps(...,
# sort_keys=True, indent=1) writes: floats by their shortest round-trip repr,
# bools as true/false, NaN as null and +-inf as Infinity, which is not
# standard JSON but which Python's json module reads back, and every item of
# every column, whatever their lengths.


def _json_object(members: dict, pad: str) -> list:
    """The pieces of a key-sorted JSON object whose values are lists of
    encoded pieces, laid out as json.dumps(..., indent=1) lays out an
    object whose keys sit at indent len(pad).  Pieces, joined once, spare
    copying each column's text at every level."""
    if not members:
        return ["{}"]
    out = ["{"]
    for k, v in sorted(members.items()):
        out += [",\n", pad, json.dumps(k), ": ", *v]
    out[1] = "\n"
    return out + ["\n", pad[:-1], "}"]


def _render(fmt: str, meta: dict, columns: dict) -> str:
    """CSV or JSON text of one result table.  The CSV text is a '# key=value'
    line per meta value, then a header line and csvtext.rows, each value
    as csvtext.typed formats it.  The JSON text is the one
    json.dumps({"meta": ..., "columns": ...}, sort_keys=True, indent=1)
    writes, with NaN as null, its columns from csvtext.json_items."""
    head = {k: csvtext.typed(v) for k, v in meta.items()}
    if fmt == "csv":
        lines = [f"# {k}={f % v}" for k, (v, f) in head.items()]
        lines.append(",".join(columns))
        lines.append(csvtext.rows(columns))
        return "\n".join(lines)
    # a column at depth 2
    cols = {k: ["[\n   ", csvtext.json_items(v), "\n  ]"] if len(v) else ["[]"]
            for k, v in columns.items()}
    meta = {k: [json.dumps(None if v != v else v)] for k, (v, _) in head.items()}
    text = {"meta": _json_object(meta, "  "), "columns": _json_object(cols, "  ")}
    return "".join(_json_object(text, " ") + ["\n"])


def _solution_table(sol: RobustSolution):
    spec = sol.spec
    l = density.ratio_values(sol.f0_values, sol.f1_values)
    meta = {
        "alpha": spec.alpha, "rho": spec.rho, "eps0": spec.eps0, "eps1": spec.eps1,
        "l_l": sol.thresholds.l_l, "l_u": sol.thresholds.l_u, "k": sol.k, "z": sol.z,
        "residual_norm": sol.residual_norm,
        "achieved_eps0": sol.achieved_eps0, "achieved_eps1": sol.achieved_eps1,
    }
    columns = {
        "y": sol.grid.points, "f0": sol.f0_values, "f1": sol.f1_values, "l": l,
        "g0_hat": sol.g0_hat.values, "g1_hat": sol.g1_hat.values,
        "delta_hat": sol.delta_hat.values, "l_hat": sol.l_hat.values,
        "region": partition(l, spec.rho, sol.thresholds),
    }
    return meta, columns


# ---------------------------------------------------------------------------
# command handlers: each returns (meta, columns) for `run` to write


def _cmd_solve(cfg):
    return _solution_table(solve_thresholds(*_problem(cfg)))


def _cmd_solve_symmetric(cfg):
    nominals = _nominals(cfg)
    eps = _get_float(cfg, "eps")
    alpha = _get_float(cfg, "alpha")
    rho = _get_float(cfg, "rho", 1.0)
    grid = _grid_or_default(cfg, nominals)
    return _solution_table(solve_symmetric(eps, alpha, rho, nominals, grid))


def _cmd_limits(cfg):
    # the shared rho key is accepted but unused: the admissible radii are a
    # property of the two balls, not of the prior
    alpha = _get_float(cfg, "alpha")
    has0, has1 = "eps0" in cfg, "eps1" in cfg
    if has0 == has1:
        raise ConfigError("limits needs exactly one of eps0/eps1 (the fixed radius)")
    idx = 0 if has0 else 1
    val = _get_float(cfg, "eps0" if has0 else "eps1")
    nominals, grid = _boundary_problem(cfg)
    if nominals is not None:
        other, lam0, lam1 = limits.max_eps_general(nominals, alpha, grid, (idx, val))
        mode = "general"
    elif abs(alpha - 0.5) < 1e-12:
        a = _get_float(cfg, "a", 0.0)
        other = limits._hellinger_other(a, val)
        lam0 = lam1 = math.nan
        mode = "closed-form"
    else:
        raise ConfigError("limits needs nominal0/nominal1 unless alpha=0.5")
    e0, e1 = (val, other) if idx == 0 else (other, val)
    return ({"alpha": alpha, "mode": mode},
            {"eps0": [e0], "eps1": [e1], "lambda0": [lam0], "lambda1": [lam1]})


def _cmd_surface(cfg):
    # like limits, accepts the shared rho key and does not use it
    alpha = _get_float(cfg, "alpha")
    try:
        n = int(cfg.get("n", "33"))
    except ValueError:
        raise ConfigError(f"surface point count n must be an integer, got {cfg['n']!r}") from None
    nominals, grid = _boundary_problem(cfg)
    a = _get_float(cfg, "a") if "a" in cfg else None
    report = limits.eps_surface(alpha, n, nominals=nominals, grid=grid, a=a)
    meta = {"alpha": report.alpha, "mode": report.mode,
            "lambda0": report.lambda0, "lambda1": report.lambda1}
    e0, e1 = np.array(report.pairs).T
    return meta, {"eps0": e0, "eps1": e1, "a": np.full(e0.size, report.a_value),
                  "feasible": np.ones(e0.size, dtype=bool)}


def _cmd_evaluate(cfg):
    spec, nominals, grid = _problem(cfg)
    mc = _parse_mc(cfg["mc"]) if "mc" in cfg else None
    sol = solve_thresholds(spec, nominals, grid)
    # (rule, densities, rule function, density pair): a quadrature row each, the
    # LRT's by lrt_errors at its jump, and with mc a Monte Carlo row each at seed + i
    cases = [("robust", "lfd", sol.delta_hat, (sol.g0_hat, sol.g1_hat)),
             ("robust", "nominal", sol.delta_hat, nominals),
             ("lrt", "nominal", evaluation.lrt_rule(nominals, spec.rho), nominals)]
    runs = [(rule, dens, evaluation.lrt_errors(pair, spec.rho, sol.grid) if rule == "lrt"
             else evaluation.error_probs(delta, *pair, spec.rho, sol.grid))
            for rule, dens, delta, pair in cases]
    if mc is not None:
        n, seed = mc
        runs += [(rule, dens, evaluation.monte_carlo_errors(delta, *pair, spec.rho, n, seed + i))
                 for i, (rule, dens, delta, pair) in enumerate(cases)]
    rules, dens, reps = zip(*runs)
    meta = {"alpha": spec.alpha, "rho": spec.rho, "eps0": spec.eps0, "eps1": spec.eps1,
            "l_l": sol.thresholds.l_l, "l_u": sol.thresholds.l_u}
    return meta, {
        "rule": rules, "densities": dens, "method": [r.method for r in reps],
        "p_fa": [r.p_false_alarm for r in reps], "p_miss": [r.p_miss for r in reps],
        "p_error": [r.p_error for r in reps],
        "hw_fa": [math.nan if r.hw_false_alarm is None else r.hw_false_alarm for r in reps],
        "hw_miss": [math.nan if r.hw_miss is None else r.hw_miss for r in reps],
    }


def _cmd_sweep_alpha(cfg):
    nominals = _nominals(cfg)
    alphas = _parse_list(_need(cfg, "alphas"), "alphas")
    spec = _spec(cfg, alphas[0])
    grid = _grid_or_default(cfg, nominals)
    rows = evaluation.alpha_sweep(spec, alphas, nominals, grid)
    return {"rho": spec.rho, "eps0": spec.eps0, "eps1": spec.eps1}, {
        "alpha": [r.alpha for r in rows], "l_l": [r.l_l for r in rows],
        "l_u": [r.l_u for r in rows], "residual": [r.residual_norm for r in rows]}


def _cmd_sweep_snr(cfg):
    noise = parse_density(_need(cfg, "nominal0"))
    snr_db = None
    if "amplitudes" in cfg:
        amps = _parse_list(cfg["amplitudes"], "amplitudes")
    elif "snr_db" in cfg:
        snr_db = _parse_list(cfg["snr_db"], "snr_db")
        amps = evaluation.amplitudes_from_snr(snr_db, noise)
    else:
        raise ConfigError("sweep-snr needs amplitudes or snr_db")
    spec = DivergenceSpec(alpha=_get_float(cfg, "alpha", 0.5),
                          rho=_get_float(cfg, "rho", 1.0),
                          eps0=_get_float(cfg, "eps0", 0.0),
                          eps1=_get_float(cfg, "eps1", 0.0))
    grid = _parse_grid(cfg["grid"]) if "grid" in cfg else None
    n, seed = _parse_mc(cfg["mc"]) if "mc" in cfg else (0, 0)
    rows = evaluation.snr_sweep(noise, amps, spec, grid, n, seed=seed, snr_db=snr_db)
    return {"alpha": spec.alpha, "rho": spec.rho}, {
        "snr_db": [r.snr_db for r in rows], "test": [r.test for r in rows],
        "eps0": [r.eps0 for r in rows], "eps1": [r.eps1 for r in rows],
        "p_fa": [r.p_false_alarm for r in rows], "p_miss": [r.p_miss for r in rows]}


# each command's handler and the keys it reads besides command, format and
# out; limits and surface accept rho without using it, since the admissible
# radii do not depend on the prior
_PAIR = {"nominal0", "nominal1", "grid"}
_COMMANDS = {
    "solve": (_cmd_solve, _PAIR | {"alpha", "rho", "eps0", "eps1"}),
    "solve-symmetric": (_cmd_solve_symmetric, _PAIR | {"alpha", "rho", "eps"}),
    "limits": (_cmd_limits, _PAIR | {"alpha", "rho", "eps0", "eps1", "a"}),
    "surface": (_cmd_surface, _PAIR | {"alpha", "rho", "n", "a"}),
    "evaluate": (_cmd_evaluate, _PAIR | {"alpha", "rho", "eps0", "eps1", "mc"}),
    "sweep-alpha": (_cmd_sweep_alpha, _PAIR | {"alphas", "rho", "eps0", "eps1"}),
    "sweep-snr": (_cmd_sweep_snr, {"nominal0", "grid", "alpha", "rho", "eps0", "eps1", "mc",
                                   "amplitudes", "snr_db"}),
}
COMMANDS = tuple(_COMMANDS)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def run(cfg: dict[str, str]) -> int:
    """Dispatch one parsed configuration, write its table; returns the exit code."""
    with warnings.catch_warnings():
        # a warning the command raises is one stderr line, like an error;
        # the filters stay the caller's
        warnings.showwarning = _print_warning
        try:
            command = _need(cfg, "command")
            if command not in COMMANDS:
                raise ConfigError(
                    f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
            _check_keys(command, cfg)
            fmt = cfg.get("format", "csv")
            if fmt not in ("csv", "json"):
                raise ConfigError(f"format must be csv or json, got {fmt!r}")
            text = _render(fmt, *_COMMANDS[command][0](cfg))
            out = cfg.get("out", "-")
            if out == "-":
                sys.stdout.write(text)
            else:
                try:
                    with open(out, "w") as fh:
                        fh.write(text)
                except OSError as exc:
                    raise ConfigError(f"cannot write {out!r}: {exc}") from None
            return EXIT_OK
        except (InfeasibleEpsError, limits.NoBoundaryPointError) as exc:
            print(f"infeasible radii: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except NonConvergenceError as exc:
            print(f"solver did not converge: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on the first call and kept: each
    add_argument asks for the terminal width, which costs more than a small
    job's parse, so a process that calls `main` many times builds it once.
    Help and usage text are formatted when printed, at the terminal width
    of that moment."""
    p = _Parser(prog="robustlrt", description=__doc__.splitlines()[0])
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--command", choices=COMMANDS)
    p.add_argument("--alpha")
    p.add_argument("--rho")
    p.add_argument("--eps0")
    p.add_argument("--eps1")
    p.add_argument("--grid", help="min:max:n; write --grid=-8:9:4001 when min is negative")
    p.add_argument("--mc", help="n:seed")
    p.add_argument("--out", help="output path, '-' for stdout")
    p.add_argument("--format", choices=("csv", "json"))
    return p


def main(argv=None) -> int:
    """Entry point: merge --config file with command-line overrides."""
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else {}
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, val in vars(args).items():
        if key != "config" and val is not None:
            cfg[key] = val
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
